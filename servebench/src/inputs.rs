//! Workload definitions, seeded inputs, reference results and the
//! pre-seeded run ledger.
//!
//! Everything here happens before the daemon is spawned, so none of it is
//! inside `setup_s` or the load window.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, Ledger, NewEntry};
use tricluster_core::obs::{EventSink, Recorder, RunReport};
use tricluster_core::{
    cluster_metrics_observed, runreport, Metrics, MiningResult, Params, Session,
};
use tricluster_matrix::{io, Labels, Matrix3};
use tricluster_synth::{generate, recovery, SynthSpec};

/// How jobs arrive at the daemon.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// One client: submit, wait until done, submit the next. Cycles over
    /// `datasets` distinct uploads, and keeps going until the window has
    /// elapsed and every dataset was sent once.
    Closed { datasets: usize },
    /// A fixed-rate schedule, independent of completions. Each job is a
    /// new dataset, or (with `distinct`) one of that many, round-robin.
    Open { rate: f64, distinct: Option<usize> },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Dataset shape; the seed is replaced per dataset.
    pub spec: SynthSpec,
    /// `--threads` of every job.
    pub job_threads: usize,
    /// Daemon `--workers`.
    pub workers: usize,
    /// Daemon `--cache-entries`.
    pub cache_entries: usize,
    pub arrival: Arrival,
    /// Index lines in the ledger before the daemon starts.
    pub ledger_lines: usize,
    /// Recall of the embedded clusters that every dataset must reach.
    pub min_recall: Option<f64>,
}

/// The base spec of the `fig7 --smoke` sweep: 400×10×5, 4 clusters of
/// 50×4×3, 2% noise.
fn smoke_spec() -> SynthSpec {
    SynthSpec {
        n_genes: 400,
        n_samples: 10,
        n_times: 5,
        n_clusters: 4,
        gene_range: (50, 50),
        sample_range: (4, 4),
        time_range: (3, 3),
        noise: 0.02,
        ..SynthSpec::default()
    }
}

pub const WORKLOADS: &[&str] = &["paper-point", "job-stream", "warm-ledger"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match name {
            "paper-point" => Workload {
                name: "paper-point",
                spec: SynthSpec::paper_default(),
                job_threads: 2,
                workers: 1,
                // Every upload is a fresh parse, even when the window is
                // long enough for the datasets to come round again.
                cache_entries: 1,
                arrival: Arrival::Closed { datasets: 5 },
                ledger_lines: 0,
                min_recall: Some(1.0),
            },
            "job-stream" => Workload {
                name: "job-stream",
                spec: smoke_spec(),
                job_threads: 1,
                workers: 2,
                cache_entries: 8,
                arrival: Arrival::Open {
                    rate: 30.0,
                    distinct: None,
                },
                ledger_lines: 0,
                min_recall: None,
            },
            "warm-ledger" => Workload {
                name: "warm-ledger",
                spec: smoke_spec(),
                job_threads: 1,
                workers: 2,
                cache_entries: 8,
                arrival: Arrival::Open {
                    rate: 10.0,
                    distinct: Some(4),
                },
                ledger_lines: 10_000,
                min_recall: None,
            },
            _ => return None,
        })
    }

    /// The mining parameters of every job: the Figure 7 parameters for the
    /// dataset shape, at this workload's thread count.
    pub fn params(&self) -> Params {
        let mut p = tricluster_bench::fig7_params(&self.spec);
        p.threads = Some(self.job_threads);
        p
    }

    /// `params()` as the mine-style flags of a `POST /jobs` body. `{}` on
    /// an `f64` prints the shortest string that parses back exactly.
    pub fn param_flags(&self) -> Vec<String> {
        let p = self.params();
        vec![
            "--eps".into(),
            format!("{}", p.epsilon),
            "--mx".into(),
            p.min_genes.to_string(),
            "--my".into(),
            p.min_samples.to_string(),
            "--mz".into(),
            p.min_times.to_string(),
            "--threads".into(),
            self.job_threads.to_string(),
        ]
    }

    /// Daemon command-line flags (after `serve ADDR`).
    pub fn daemon_flags(&self, ledger: &Path) -> Vec<String> {
        vec![
            "--workers".into(),
            self.workers.to_string(),
            "--cache-entries".into(),
            self.cache_entries.to_string(),
            "--ledger".into(),
            ledger.display().to_string(),
        ]
    }

    /// Which dataset each job uploads: `(window, warm_up, datasets)`.
    ///
    /// An open loop first sends `2 × workers` warm-up jobs in a burst, so
    /// every worker thread has run and archived a job (and the dataset
    /// cache holds what it will hold) before the window opens. A closed
    /// loop picks its datasets as it goes, cycling over all of them.
    pub fn plan(&self, seconds: f64) -> (Vec<usize>, Vec<usize>, usize) {
        match self.arrival {
            Arrival::Closed { datasets } => (Vec::new(), Vec::new(), datasets),
            Arrival::Open { rate, distinct } => {
                let jobs = ((rate * seconds).round() as usize).max(1);
                let warm = 2 * self.workers;
                match distinct {
                    // Every job is a new upload, warm-up ones included.
                    None => (
                        (0..jobs).collect(),
                        (jobs..jobs + warm).collect(),
                        jobs + warm,
                    ),
                    Some(k) => (
                        (0..jobs).map(|i| i % k).collect(),
                        (0..warm).map(|i| i % k).collect(),
                        k,
                    ),
                }
            }
        }
    }
}

/// SplitMix64: decorrelates the per-dataset seeds derived from one run
/// seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Switches on histogram collection, exactly like the daemon's sink stack,
/// so reference reports carry the same sections as served ones.
pub struct HistogramTap;

impl EventSink for HistogramTap {
    fn enabled(&self) -> bool {
        false
    }
    fn wants_histograms(&self) -> bool {
        true
    }
}

/// What a served job's report is checked against.
pub struct Reference {
    /// Rendered JSON of each deterministic report section, by dotted path.
    pub sections: BTreeMap<String, String>,
    /// The reference run itself, kept only for the traced replay.
    pub run: Option<ReferenceRun>,
}

/// A full in-process run, reused by the replay to render the report.
pub struct ReferenceRun {
    pub matrix: Matrix3,
    pub result: MiningResult,
    pub report: RunReport,
    pub metrics: Metrics,
}

/// One uploaded dataset: its request body on disk and its reference.
pub struct Dataset {
    pub body_path: PathBuf,
    pub reference: Reference,
}

/// Generates dataset `index` of the run, writes its `POST /jobs` body to
/// `dir`, and mines the reference in process.
pub fn prepare_dataset(
    w: &Workload,
    seed: u64,
    index: usize,
    dir: &Path,
    keep_run: bool,
) -> Result<Dataset, String> {
    let mut spec = w.spec.clone();
    spec.seed = mix(seed, index as u64);
    let synth = generate(&spec);
    let (ng, ns, nt) = synth.matrix.dims();
    let mut tsv = Vec::new();
    io::write_stacked_tsv(&mut tsv, &synth.matrix, &Labels::default_for(ng, ns, nt))
        .map_err(|e| format!("writing TSV: {e}"))?;
    let tsv = String::from_utf8(tsv).map_err(|_| "TSV is not UTF-8".to_string())?;
    let flags = w.param_flags().into_iter().map(Json::Str).collect();
    let body = Json::obj()
        .with("label", Json::Str(format!("{}-{index}", w.name)))
        .with("dataset", Json::Str(tsv))
        .with("params", Json::Arr(flags))
        .render();
    let body_path = dir.join(format!("{}-{index:05}.json", w.name));
    write_synced(&body_path, body.as_bytes())?;

    // The reference mines what the daemon will mine: the matrix parsed
    // back from the uploaded text, not the generator's in-memory copy.
    let matrix = parse_upload(&body)?;
    let params = w.params();
    let result = Session::new(params)
        .run(&matrix, &HistogramTap)
        .map_err(|e| format!("reference run of {}: {e}", body_path.display()))?;
    if let Some(min) = w.min_recall {
        let recall = recovery::score(&synth.truth, &result.triclusters, 0.5).recall;
        if recall < min {
            return Err(format!(
                "dataset {index}: reference recall {recall} below {min}"
            ));
        }
    }
    let mut report = result.report.clone();
    let rec = Recorder::new();
    let metrics = cluster_metrics_observed(&matrix, &result.triclusters, &rec);
    report.merge(&rec.snapshot());
    let doc = runreport::report_to_json_v2(&matrix, &result, &report, &metrics);
    let sections = deterministic_sections(&doc);
    Ok(Dataset {
        body_path,
        reference: Reference {
            sections,
            run: keep_run.then_some(ReferenceRun {
                matrix,
                result,
                report,
                metrics,
            }),
        },
    })
}

/// Prepares datasets `0..n`. Single-threaded jobs are prepared on two
/// threads; multi-threaded ones already use both cores for the reference.
pub fn prepare_all(
    w: &Workload,
    seed: u64,
    n: usize,
    dir: &Path,
    keep_runs: bool,
) -> Result<Vec<Dataset>, String> {
    let stripes = if w.job_threads == 1 { 2 } else { 1 };
    let stripe = |s: usize| -> Result<Vec<(usize, Dataset)>, String> {
        (s..n)
            .step_by(stripes)
            .map(|i| Ok((i, prepare_dataset(w, seed, i, dir, keep_runs)?)))
            .collect()
    };
    let mut all = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..stripes)
            .map(|s| scope.spawn(move || stripe(s)))
            .collect();
        let mut all = stripe(0)?;
        for h in helpers {
            all.extend(h.join().expect("preparation thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, d)| d).collect())
}

/// The matrix inside a `POST /jobs` body, parsed the way the daemon
/// parses it.
pub fn parse_upload(body: &str) -> Result<Matrix3, String> {
    let doc = Json::parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    let tsv = doc
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or("body without a dataset")?;
    io::read_stacked_tsv(BufReader::new(tsv.as_bytes()))
        .map(|(m, _)| m)
        .map_err(|e| format!("dataset does not parse: {e}"))
}

/// Rendered input-determined sections of a v2 report (the sections the
/// repository's determinism gate compares).
pub fn deterministic_sections(doc: &Json) -> BTreeMap<String, String> {
    tricluster_bench::regress::DETERMINISTIC_SECTIONS
        .iter()
        .filter_map(|path| Some((path.join("."), doc.get_path(path)?.render())))
        .collect()
}

fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut f =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Creates a ledger at `dir` whose index already holds `lines` entries.
///
/// One entry is archived through [`Ledger::archive`] itself; its index
/// line is the template for the rest, which differ in id, sequence number,
/// hashes and request id. Only the index is seeded: `Ledger::archive`
/// reads the index, not the entry directories, so those are left out.
pub fn seed_ledger(dir: &Path, lines: usize) -> Result<(), String> {
    let ledger = Ledger::open(dir).map_err(|e| format!("opening ledger: {e}"))?;
    if lines == 0 {
        return Ok(());
    }
    let report = Json::obj()
        .with("clusters", Json::U64(4))
        .with(
            "timings",
            Json::obj().with("total_secs", Json::F64(0.004_213_557)),
        )
        .with("meta", runreport::meta_json(1))
        .with("serve", Json::obj().with("request_id", Json::U64(1)));
    let entry = NewEntry {
        kind: "serve",
        label: Some(content_hash(b"seed")),
        dataset_hash: content_hash(b"seed"),
        params_hash: content_hash(b"params"),
        report: &report,
        trace: None,
        flame: None,
    };
    let first_id = ledger
        .archive(&entry)
        .map_err(|e| format!("archiving the template entry: {e}"))?;
    let index_path = dir.join("index.jsonl");
    let template = std::fs::read_to_string(&index_path)
        .map_err(|e| format!("reading the template index line: {e}"))?;
    let template = Json::parse(template.trim()).map_err(|e| format!("template line: {e}"))?;
    let mut out = String::with_capacity(lines * (template.render().len() + 8));
    for seq in 1..=lines {
        let dataset = content_hash(format!("seeded-dataset-{}", seq % 997).as_bytes());
        let id = if seq == 1 {
            first_id.clone()
        } else {
            format!("r{seq:04}-{:08x}", mix(seq as u64, 7) as u32)
        };
        let mut line = template.clone();
        if let Json::Obj(fields) = &mut line {
            for (key, value) in fields.iter_mut() {
                match key.as_str() {
                    "id" => *value = Json::Str(id.clone()),
                    "label" | "dataset" => *value = Json::Str(dataset.clone()),
                    "request_id" => *value = Json::U64(seq as u64),
                    _ => {}
                }
            }
        }
        out.push_str(&line.render());
        out.push('\n');
    }
    write_synced(&index_path, out.as_bytes())
}
