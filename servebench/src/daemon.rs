//! Spawning, probing and stopping the `tricluster serve` process.

use crate::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of the daemon's CPU time and of the host's CPU ticks.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Daemon user + system CPU seconds.
    pub cpu: f64,
    /// Host ticks spent running anything (user, nice, system, irq, softirq).
    busy: u64,
    /// Host ticks the hypervisor ran something else while this machine
    /// wanted a CPU.
    steal: u64,
}

impl Sample {
    /// Share of the CPU time this machine wanted between `self` and
    /// `later` that the hypervisor stole.
    pub fn steal_share(&self, later: &Sample) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        let steal = later.steal.saturating_sub(self.steal);
        steal as f64 / (busy + steal).max(1) as f64
    }
}

/// A running daemon. Dropping it kills the process and waits for it, so a
/// benchmark that bails out early leaves nothing behind.
pub struct Daemon {
    child: Option<Child>,
    // Held open so the daemon's later stderr writes never hit a closed pipe.
    _stderr: Option<BufReader<ChildStderr>>,
    pub addr: SocketAddr,
    /// Spawn to the first 200 on `GET /healthz`.
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `bin serve 127.0.0.1:0 <args>` and waits until it answers
    /// `GET /healthz`.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            _stderr: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        let stderr = daemon.child.as_mut().and_then(|c| c.stderr.take());
        let mut stderr = BufReader::new(stderr.ok_or("daemon stderr not captured")?);
        // The daemon binds port 0 and announces the resolved URL.
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon stderr: {e}"))?;
            if n == 0 {
                return Err("daemon exited before announcing its address".into());
            }
            if let Some(url) = line.trim().strip_prefix("serve: listening on http://") {
                daemon.addr = url
                    .parse()
                    .map_err(|_| format!("unparsable daemon address {url:?}"))?;
                break;
            }
        }
        daemon._stderr = Some(stderr);
        let deadline = started + Duration::from_secs(30);
        loop {
            if let Ok((200, _)) =
                client::request(daemon.addr, "GET", "/healthz", &[], Duration::from_secs(5))
            {
                break;
            }
            if Instant::now() > deadline {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        daemon.setup = started.elapsed();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Reads the daemon's CPU time and the host's CPU ticks now.
    pub fn sample(&self) -> Result<Sample, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        // cpu  user nice system idle iowait irq softirq steal ...
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        if f.len() < 8 {
            return Err("malformed /proc/stat".into());
        }
        Ok(Sample {
            cpu: self.cpu_secs()?,
            busy: f[0] + f[1] + f[2] + f[5] + f[6],
            steal: f[7],
        })
    }

    /// The daemon's user + system CPU seconds so far.
    fn cpu_secs(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("reading /proc/{}/stat: {e}", self.pid()))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime 14 and stime 15 (1-based), i.e. indices 11 and 12 here.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|v| v as f64 / TICKS_PER_SEC)
                .ok_or_else(|| "malformed /proc stat line".to_string())
        };
        Ok(tick(11)? + tick(12)?)
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading /proc/{}/status: {e}", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// Graceful drain via `POST /shutdown`; kills the process if it has
    /// not exited within a bounded wait.
    pub fn shutdown(mut self) -> Result<(), String> {
        let posted = client::request(
            self.addr,
            "POST",
            "/shutdown",
            br#"{"mode":"drain"}"#,
            Duration::from_secs(10),
        );
        let mut child = self.child.take().expect("daemon process present");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        match (posted, status) {
            (Ok((200, _)), Some(s)) if s.success() => Ok(()),
            (posted, status) => Err(format!(
                "daemon did not drain cleanly (shutdown reply {:?}, exit {status:?})",
                posted.map(|(code, _)| code)
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
