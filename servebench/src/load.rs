//! The load generator: a closed loop and a fixed-rate open loop.
//!
//! Each loop uses at most two threads (a submitter and a poller), each with
//! at most one connection open at a time. Every job is timed from its send
//! time to the moment the client sees a finished state on
//! `GET /jobs/<id>`; the daemon only reports `done` once the job's report
//! is rendered and archived in the ledger.

use crate::client;
use crate::inputs::Dataset;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(60);

/// One attempted job, as the client saw it.
#[derive(Debug)]
pub struct JobRecord {
    /// Index into the run's datasets.
    pub dataset: usize,
    /// When the job was due: the POST start in a closed loop, the
    /// scheduled time in an open loop. Latency is measured from here.
    pub due: Instant,
    /// When the POST actually started.
    pub sent: Instant,
    /// `POST /jobs` round trip of an accepted submission.
    pub submit: Option<Duration>,
    pub id: Option<u64>,
    /// When the client first saw a finished state.
    pub finished: Option<Instant>,
    /// The finished state (`done`, `failed` or `cancelled`).
    pub state: Option<String>,
    /// The body of the `GET /jobs/<id>` that saw the finished state.
    pub response: Option<String>,
    /// Refusal or transport error.
    pub error: Option<String>,
}

impl JobRecord {
    fn new(dataset: usize, due: Instant) -> JobRecord {
        JobRecord {
            dataset,
            due,
            sent: due,
            submit: None,
            id: None,
            finished: None,
            state: None,
            response: None,
            error: None,
        }
    }

    /// End-to-end latency of a job that finished `done`.
    pub fn latency(&self) -> Option<Duration> {
        match (self.state.as_deref(), self.finished) {
            (Some("done"), Some(at)) => Some(at - self.due),
            _ => None,
        }
    }

    /// Send lateness against the schedule (zero in a closed loop).
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    /// Posts `body`; fills in the submit fields.
    fn submit(&mut self, addr: SocketAddr, body: &[u8]) {
        self.sent = Instant::now();
        match client::request(addr, "POST", "/jobs", body, HTTP_TIMEOUT) {
            Ok((202, reply)) => {
                self.submit = Some(self.sent.elapsed());
                let text = String::from_utf8_lossy(&reply);
                self.id = json_u64(&text, "id");
                if self.id.is_none() {
                    self.error = Some(format!("202 without a job id: {}", text.trim()));
                }
            }
            Ok((status, reply)) => {
                self.error = Some(format!(
                    "submission refused with {status}: {}",
                    String::from_utf8_lossy(&reply).trim()
                ));
            }
            Err(e) => self.error = Some(format!("submission failed: {e}")),
        }
    }

    /// One status poll. Returns `true` once the job needs no more polling.
    fn poll(&mut self, addr: SocketAddr) -> bool {
        let id = self.id.expect("only accepted jobs are polled");
        match client::request(addr, "GET", &format!("/jobs/{id}"), &[], HTTP_TIMEOUT) {
            Ok((200, body)) => {
                let seen = Instant::now();
                let body = String::from_utf8_lossy(&body).into_owned();
                match json_str(&body, "state") {
                    Some(state @ ("done" | "failed" | "cancelled")) => {
                        self.state = Some(state.to_owned());
                        self.finished = Some(seen);
                        self.response = Some(body);
                        true
                    }
                    Some(_) => false,
                    None => {
                        self.error = Some("status without a state".into());
                        true
                    }
                }
            }
            Ok((status, body)) => {
                self.error = Some(format!(
                    "GET /jobs/{id} answered {status}: {}",
                    String::from_utf8_lossy(&body).trim()
                ));
                true
            }
            Err(e) => {
                self.error = Some(format!("GET /jobs/{id} failed: {e}"));
                true
            }
        }
    }
}

/// The first `"key": <digits>` in `text` (the daemon's JSON, compact or
/// pretty). Status polls only need one field; parsing the whole body on
/// every poll would load the client for nothing.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let rest = after_key(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The first `"key": "<value>"` in `text`.
fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(text, key)?.strip_prefix('"')?;
    rest.split_once('"').map(|(v, _)| v)
}

fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(&format!("\"{key}\":"))?;
    Some(text[at + key.len() + 3..].trim_start())
}

/// One client in a closed loop: submit, poll until finished, repeat.
/// Runs until `window` has elapsed and every dataset has been sent once.
pub fn closed_loop(
    addr: SocketAddr,
    datasets: &[Dataset],
    window: Duration,
    poll: Duration,
    deadline: Instant,
) -> Result<Vec<JobRecord>, String> {
    let start = Instant::now();
    let mut records = Vec::new();
    while start.elapsed() < window || records.len() < datasets.len() {
        if Instant::now() > deadline {
            return Err("closed loop ran past the run's time limit".into());
        }
        let dataset = records.len() % datasets.len();
        records.extend(burst(addr, datasets, &[dataset], poll, deadline)?);
    }
    Ok(records)
}

/// Sends the jobs of `plan` (dataset indices) back to back, then polls
/// each until it finishes. Each job is due when its POST starts.
pub fn burst(
    addr: SocketAddr,
    datasets: &[Dataset],
    plan: &[usize],
    poll: Duration,
    deadline: Instant,
) -> Result<Vec<JobRecord>, String> {
    let mut records = Vec::with_capacity(plan.len());
    for &dataset in plan {
        let body = read_body(&datasets[dataset])?;
        let mut rec = JobRecord::new(dataset, Instant::now());
        rec.submit(addr, &body);
        rec.due = rec.sent;
        records.push(rec);
    }
    for rec in records.iter_mut().filter(|r| r.id.is_some()) {
        loop {
            std::thread::sleep(poll);
            if rec.poll(addr) {
                break;
            }
            if Instant::now() > deadline {
                return Err("a job ran past the run's time limit".into());
            }
        }
    }
    Ok(records)
}

/// A fixed-rate open loop: job `i` uploads dataset `plan[i]` and is due at
/// `start + i / rate`, whatever happened to the jobs before it. The
/// calling thread submits; one helper thread polls outstanding jobs.
///
/// The jobs form segments of `per_segment` consecutive jobs. `sample` is
/// called when each segment's first job is due; the readings are returned
/// in order.
pub fn open_loop<S>(
    addr: SocketAddr,
    datasets: &[Dataset],
    plan: &[usize],
    (rate, per_segment): (f64, usize),
    poll: Duration,
    deadline: Instant,
    sample: impl Fn() -> Result<S, String>,
) -> Result<(Vec<JobRecord>, Vec<S>), String> {
    let mut samples = Vec::new();
    let start = Instant::now() + Duration::from_millis(20);
    let outstanding: Mutex<VecDeque<JobRecord>> = Mutex::new(VecDeque::new());
    let submitted_all = AtomicBool::new(false);
    let finished: Mutex<Vec<JobRecord>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut timed_out = false;
            loop {
                let done_submitting = submitted_all.load(Ordering::Acquire);
                // Poll the oldest jobs first, without holding the lock
                // across requests.
                let mut batch: Vec<JobRecord> = std::mem::take(&mut *lock(&outstanding)).into();
                if batch.is_empty() && done_submitting {
                    break;
                }
                let mut keep = VecDeque::new();
                for mut rec in batch.drain(..) {
                    if timed_out || rec.poll(addr) {
                        if timed_out {
                            rec.error = Some("still unfinished at the run's time limit".into());
                        }
                        lock(&finished).push(rec);
                    } else {
                        keep.push_back(rec);
                    }
                }
                {
                    let mut q = lock(&outstanding);
                    // Jobs submitted meanwhile are newer: they go behind.
                    keep.extend(q.drain(..));
                    *q = keep;
                }
                if Instant::now() > deadline {
                    timed_out = true;
                    continue;
                }
                std::thread::sleep(poll);
            }
        });
        let submitted = (|| {
            let mut next_body = read_body(&datasets[plan[0]]);
            for (i, &dataset) in plan.iter().enumerate() {
                let body = std::mem::replace(&mut next_body, Ok(Vec::new()))?;
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if i % per_segment.max(1) == 0 {
                    samples.push(sample()?);
                }
                let mut rec = JobRecord::new(dataset, due);
                rec.submit(addr, &body);
                if rec.id.is_some() {
                    lock(&outstanding).push_back(rec);
                } else {
                    lock(&finished).push(rec);
                }
                // Prefetch the next upload while waiting for its due time.
                if let Some(&next) = plan.get(i + 1) {
                    next_body = read_body(&datasets[next]);
                }
                if Instant::now() > deadline {
                    break;
                }
            }
            Ok::<(), String>(())
        })();
        // The poller drains what was submitted even when submitting failed.
        submitted_all.store(true, Ordering::Release);
        poller.join().expect("poller thread panicked");
        submitted
    })?;
    let mut records = finished
        .into_inner()
        .expect("a load thread panicked holding the job lists");
    records.sort_by_key(|r| r.due);
    Ok((records, samples))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a load thread panicked holding the job lists")
}

fn read_body(d: &Dataset) -> Result<Vec<u8>, String> {
    std::fs::read(&d.body_path).map_err(|e| format!("reading {}: {e}", d.body_path.display()))
}
