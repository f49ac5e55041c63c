//! `servebench`: the served-job benchmark.
//!
//! Drives a release `tricluster serve` daemon over loopback with one of the
//! workloads in [`inputs`], checks every job's output against an
//! in-process reference, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics of a replay) as one JSON object on
//! the last line of stdout. A human-readable table goes to stderr.
//!
//! ```text
//! servebench --tricluster PATH --work DIR --workload NAME --seed N
//!            --seconds S --trace 0|1
//! ```
//!
//! Exit codes: 0 a valid run with every output correct; 1 a correctness
//! failure (the JSON still prints, with `"correct": false`); 2 a usage or
//! harness error; 3 an invalid run (the generator fell behind its
//! schedule), which prints no result.

mod client;
mod daemon;
mod inputs;
mod load;
mod replay;

use daemon::{Daemon, Sample};
use inputs::{Arrival, Dataset, Workload};
use load::JobRecord;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tricluster_core::obs::json::Json;

/// Daemon spawns per run for `setup_s` (the measured daemon is one more).
const SETUP_TRIALS: usize = 20;
/// Open-loop windows are cut into segments this long; see [`kept`].
const SEGMENT_SECS: f64 = 2.0;
/// A segment in which the hypervisor stole more than this share of the
/// CPU time the machine wanted measured the host, not the program.
const STEAL_LIMIT: f64 = 0.05;
/// Everything a run does must fit in this, well inside the 180 s limit.
const RUN_LIMIT: Duration = Duration::from_secs(165);

struct Args {
    tricluster: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_owned(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::by_name(get("workload")?).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            map["workload"],
            inputs::WORKLOADS
        )
    })?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        tricluster: PathBuf::from(get("tricluster")?),
        work: PathBuf::from(get("work")?),
        workload,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// The `q`-quantile (nearest rank) of `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten jobs beyond it; a run with
/// too few jobs for that (a closed loop at paper scale) has no such tail,
/// and reports its median instead.
fn tail(sorted: &[f64]) -> f64 {
    if sorted.len() > 20 {
        sorted[sorted.len() - 11]
    } else {
        median(sorted)
    }
}

/// p50 of an OpenMetrics histogram (`<name>_bucket{le=...}` lines),
/// interpolated linearly inside the bucket that holds it.
fn histogram_p50(exposition: &str, name: &str) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect();
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    let half = total / 2.0;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, cum) in &buckets {
        if cum >= half {
            if !le.is_finite() {
                return lo;
            }
            let share = if cum > below {
                (half - below) / (cum - below)
            } else {
                1.0
            };
            return lo + share * (le - lo);
        }
        lo = le;
        below = cum;
    }
    lo
}

/// Which segments the latency and CPU figures count: those in which the
/// hypervisor stole at most [`STEAL_LIMIT`]. When fewer than half qualify,
/// the half with the least steal counts. The choice reads only the host's
/// steal counter, never the figures it filters.
fn kept(samples: &[Sample]) -> Vec<bool> {
    let steal: Vec<f64> = samples
        .windows(2)
        .map(|s| s[0].steal_share(&s[1]))
        .collect();
    let mut keep: Vec<bool> = steal.iter().map(|&s| s <= STEAL_LIMIT).collect();
    let half = steal.len().div_ceil(2);
    if keep.iter().filter(|&&k| k).count() < half {
        let mut order: Vec<usize> = (0..steal.len()).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        keep = vec![false; steal.len()];
        for &i in &order[..half] {
            keep[i] = true;
        }
    }
    keep
}

/// What the daemon side of a run measured.
struct Served {
    /// Checked like the rest, but outside every metric.
    warm_up: Vec<JobRecord>,
    /// The window's jobs, in due order.
    records: Vec<JobRecord>,
    /// Jobs per segment of the window, and a sample at each segment start
    /// plus one at the end.
    per_segment: usize,
    samples: Vec<Sample>,
    setup: Vec<f64>,
    window: f64,
    peak_rss_mb: f64,
    stats: Json,
    metrics: String,
}

fn serve_workload(
    a: &Args,
    datasets: &[Dataset],
    (plan, warm): (&[usize], &[usize]),
    ledger: &Path,
    deadline: Instant,
) -> Result<Served, String> {
    let w = &a.workload;
    let flags = w.daemon_flags(ledger);
    let mut setup = Vec::with_capacity(SETUP_TRIALS + 1);
    for _ in 0..SETUP_TRIALS {
        let d = Daemon::spawn(&a.tricluster, &flags)?;
        setup.push(d.setup.as_secs_f64());
        d.shutdown()?;
    }
    let d = Daemon::spawn(&a.tricluster, &flags)?;
    setup.push(d.setup.as_secs_f64());
    let window = Duration::from_secs_f64(a.seconds);
    let poll = match w.arrival {
        Arrival::Closed { .. } => Duration::from_millis(10),
        Arrival::Open { .. } => Duration::from_millis(5),
    };
    let warm_up = load::burst(d.addr, datasets, warm, poll, deadline)?;
    let (records, per_segment, mut samples) = match w.arrival {
        Arrival::Closed { .. } => {
            let first = d.sample()?;
            let records = load::closed_loop(d.addr, datasets, window, poll, deadline)?;
            let jobs = records.len();
            (records, jobs, vec![first])
        }
        Arrival::Open { rate, .. } => {
            let per_segment = ((rate * SEGMENT_SECS).round() as usize).max(1);
            let segment = (rate, per_segment);
            let sample = || d.sample();
            let (records, samples) =
                load::open_loop(d.addr, datasets, plan, segment, poll, deadline, sample)?;
            (records, per_segment, samples)
        }
    };
    samples.push(d.sample()?);
    let peak_rss_mb = d.peak_rss_mb()?;
    let first = records.iter().map(|r| r.due).min();
    let last = records.iter().filter_map(|r| r.finished).max();
    let window = match (first, last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64(),
        _ => 0.0,
    };
    let timeout = Duration::from_secs(10);
    let stats = client::get_ok(d.addr, "/stats", timeout)?;
    let stats = Json::parse(&stats).map_err(|e| format!("/stats: {e}"))?;
    let metrics = client::get_ok(d.addr, "/metrics", timeout)?;
    d.shutdown()?;
    Ok(Served {
        warm_up,
        records,
        per_segment,
        samples,
        setup,
        window,
        peak_rss_mb,
        stats,
        metrics,
    })
}

/// Checks one job against its reference. `Err` says what is wrong.
fn check(rec: &JobRecord, datasets: &[Dataset]) -> Result<(), String> {
    if let Some(e) = &rec.error {
        return Err(e.clone());
    }
    match rec.state.as_deref() {
        Some("done") => {}
        other => return Err(format!("finished {other:?}")),
    }
    let body = rec.response.as_deref().unwrap_or("");
    let doc = Json::parse(body).map_err(|e| format!("status body: {e}"))?;
    let report = doc.get("report").ok_or("done without a report")?;
    let got = inputs::deterministic_sections(report);
    let want = &datasets[rec.dataset].reference.sections;
    for (path, expected) in want {
        if got.get(path) != Some(expected) {
            return Err(format!(
                "report section {path} differs from the in-process reference"
            ));
        }
    }
    if got.len() != want.len() {
        return Err("served report has sections the reference lacks".into());
    }
    Ok(())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", Json::F64(value))
        .with("unit", Json::Str(unit.into()))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let deadline = Instant::now() + RUN_LIMIT;
    let w = &a.workload;
    let work = a.work.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(a, w, &work, deadline);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(a: &Args, w: &Workload, work: &Path, deadline: Instant) -> Result<ExitCode, String> {
    // Inputs and references, before any daemon exists.
    let prep = Instant::now();
    let (plan, warm, distinct) = w.plan(a.seconds);
    let datasets = inputs::prepare_all(w, a.seed, distinct, work, a.trace)?;
    let ledger = work.join("ledger");
    inputs::seed_ledger(&ledger, w.ledger_lines)?;
    let replay_ledger = work.join("replay-ledger");
    if a.trace {
        inputs::seed_ledger(&replay_ledger, w.ledger_lines)?;
    }
    eprintln!(
        "servebench: {} seed {}: {} datasets prepared in {:.1} s",
        w.name,
        a.seed,
        datasets.len(),
        prep.elapsed().as_secs_f64()
    );

    let served = serve_workload(a, &datasets, (&plan, &warm), &ledger, deadline)?;
    let records = &served.records;

    // Correctness: every job, warm-up ones included, against its reference.
    let mut failed = 0usize;
    for rec in served.warm_up.iter().chain(records) {
        if let Err(e) = check(rec, &datasets) {
            failed += 1;
            if failed <= 5 {
                eprintln!(
                    "servebench: job {:?} (dataset {}): {e}",
                    rec.id, rec.dataset
                );
            }
        }
    }
    let attempted = served.warm_up.len() + records.len();
    let done = records.iter().filter(|r| r.latency().is_some()).count();

    // Generator health: an open-loop run whose submitter fell more than one
    // interval behind for over 1% of its jobs measured the scheduler, not
    // the program.
    let mut late: Vec<f64> = records.iter().map(|r| r.lateness().as_secs_f64()).collect();
    late.sort_by(f64::total_cmp);
    let (late_p99, late_max) = (quantile(&late, 0.99), late.last().copied().unwrap_or(0.0));
    let behind = match w.arrival {
        Arrival::Open { rate, .. } => late.iter().filter(|&&l| l > 1.0 / rate).count(),
        Arrival::Closed { .. } => 0,
    };
    eprintln!(
        "servebench: generator lateness p99 {:.3} ms, max {:.3} ms, {behind} of {} jobs over one interval late",
        late_p99 * 1e3,
        late_max * 1e3,
        records.len()
    );
    if behind * 100 > records.len() {
        eprintln!("servebench: INVALID run: the generator fell behind its schedule");
        return Ok(ExitCode::from(3));
    }

    // Latency and CPU count the segments the host left alone (`kept`);
    // job `i` of the window is in segment `i / per_segment`.
    let keep = kept(&served.samples);
    let segment_of = |i: usize| (i / served.per_segment).min(keep.len() - 1);
    let counted: Vec<&JobRecord> = records
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep[segment_of(i)])
        .map(|(_, r)| r)
        .collect();
    let mut latency: Vec<f64> = counted
        .iter()
        .filter_map(|r| r.latency().map(|d| d.as_secs_f64()))
        .collect();
    latency.sort_by(f64::total_cmp);
    let submit: Vec<f64> = counted
        .iter()
        .filter_map(|r| r.submit.map(|d| d.as_secs_f64()))
        .collect();
    let cpu: f64 = (0..keep.len())
        .filter(|&k| keep[k])
        .map(|k| served.samples[k + 1].cpu - served.samples[k].cpu)
        .sum();
    let first = served.samples.first().expect("a window has a start sample");
    let last = served.samples.last().expect("a window has an end sample");
    let steal_share = first.steal_share(last);
    let kept_share = keep.iter().filter(|&&k| k).count() as f64 / keep.len() as f64;
    eprintln!(
        "servebench: host steal {:.1}% over the window; {} of {} segments counted",
        steal_share * 100.0,
        keep.iter().filter(|&&k| k).count(),
        keep.len()
    );

    // Per-layer figures (traced runs only).
    let mut layers: Vec<(&str, f64, &str)> = Vec::new();
    if a.trace {
        let replayed = if failed == 0 {
            replay::replay(w, &datasets, (&served.warm_up, records), &replay_ledger)
        } else {
            Err("skipped: the run has failed jobs".into())
        };
        match replayed {
            Ok(replayed) => {
                for (name, value) in replayed {
                    layers.push((name, value, layer_unit(name)));
                }
                eprintln!(
                    "servebench: counters equal report.counters on every job: {}",
                    replay::CROSS_CHECKED.join(", ")
                );
            }
            Err(e) => {
                eprintln!("servebench: replay: {e}");
                failed = failed.max(1);
            }
        }
        let cache = |k: &str| {
            served
                .stats
                .get_path(&["dataset_cache", k])
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let (hits, misses) = (cache("hits"), cache("misses"));
        let hit_ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        layers.push(("engine.cache_hit_ratio", hit_ratio, "ratio"));
        layers.push((
            "serve.queue_wait_p50_s",
            histogram_p50(&served.metrics, "tricluster_serve_job_queue_wait_seconds"),
            "s",
        ));
        layers.push((
            "serve.archive_p50_s",
            histogram_p50(&served.metrics, "tricluster_serve_job_archive_seconds"),
            "s",
        ));
    }

    // End-to-end figures. An untraced run's JSON carries the bounded ones
    // (BENCHMARK.json); the others are too unsteady on a shared two-core
    // host to bound, or always zero in a valid run, so they are printed
    // here and carried unbounded by traced runs (see README.md).
    let per_s = if served.window > 0.0 {
        done as f64 / served.window
    } else {
        0.0
    };
    let bounded = [
        ("job_latency_p50_s", median(&latency), "s"),
        ("jobs_per_s", per_s, "1/s"),
        ("cpu_s_per_job", cpu / latency.len().max(1) as f64, "s"),
        ("setup_s", median(&served.setup), "s"),
    ];
    let observed = [
        ("e2e.job_latency_tail_s", tail(&latency), "s"),
        ("e2e.submit_latency_p50_s", median(&submit), "s"),
        ("e2e.submit_latency_mean_s", mean(&submit), "s"),
        ("e2e.peak_rss_mb", served.peak_rss_mb, "MB"),
        (
            "e2e.failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("host.steal_share", steal_share, "ratio"),
        ("host.kept_share", kept_share, "ratio"),
        ("generator.late_p99_s", late_p99, "s"),
        ("generator.late_max_s", late_max, "s"),
    ];
    let metrics: Vec<(&str, f64, &str)> = if a.trace {
        layers.iter().chain(&observed).copied().collect()
    } else {
        bounded.to_vec()
    };

    eprintln!(
        "servebench: {} seed {}: {done} of {} window jobs done ({} warm-up); {failed} of {attempted} \
         failed (failed_ratio {:.4}); latency samples {}, submit samples {}, setup samples {}",
        w.name,
        a.seed,
        records.len(),
        served.warm_up.len(),
        failed as f64 / attempted.max(1) as f64,
        latency.len(),
        submit.len(),
        served.setup.len()
    );
    let mut submit_sorted = submit.clone();
    submit_sorted.sort_by(f64::total_cmp);
    for (label, sorted) in [
        ("job latency", &latency),
        ("submit latency", &submit_sorted),
    ] {
        let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
            .iter()
            .map(|&q| format!("{:.2}", quantile(sorted, q) * 1e3))
            .collect();
        eprintln!(
            "servebench: {label} ms at p10/p25/p50/p75/p90/max: {}",
            q.join(" / ")
        );
    }
    for (name, value, unit) in bounded.iter().chain(&observed).chain(&layers) {
        eprintln!("  {name:<30} {value:>16.6} {unit}");
    }
    let mut json_metrics = Json::obj();
    for (name, value, unit) in &metrics {
        json_metrics = json_metrics.with(name, metric(*value, unit));
    }
    let correct = failed == 0 && done > 0;
    let out = Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::U64(attempted as u64))
        .with("failed", Json::U64(failed as u64))
        .with("metrics", json_metrics);
    println!("{}", out.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_s") || name.ends_with(".s") {
        "s"
    } else if name.ends_with("bytes") || name.ends_with("bytes_written") {
        "B"
    } else if name.ends_with("ns_per_ratio") {
        "ns"
    } else if name.ends_with("yield") || name.ends_with("share") {
        "ratio"
    } else {
        "count"
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
