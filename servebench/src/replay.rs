//! The traced run's per-layer replay.
//!
//! After the daemon run, every job's inputs are replayed in process, in
//! submission order, through the public function of each layer the served
//! job went through. Each call is timed; work counts come from the calls'
//! return values. The replay's counters must equal the served report's
//! `report.counters` exactly.

use crate::inputs::{Dataset, HistogramTap, Workload};
use crate::load::JobRecord;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tricluster_core::bicluster::{mine_biclusters_profiled, BiclusterStats};
use tricluster_core::obs::json::Json;
use tricluster_core::obs::ledger::{content_hash, Ledger, NewEntry};
use tricluster_core::obs::timeline::{self, Timeline};
use tricluster_core::obs::{names, Recorder};
use tricluster_core::rangegraph::{build_range_graph_workers, RangeGraphStats};
use tricluster_core::tricluster::mine_triclusters_profiled;
use tricluster_core::{cluster_metrics_observed, runreport, Bicluster, Params};
use tricluster_matrix::{io, Matrix3};

/// The counters that must match the served report exactly.
pub const CROSS_CHECKED: &[&str] = &[
    names::RG_EDGES,
    names::BC_NODES,
    names::BC_COMBOS,
    names::TC_EXTENSIONS,
    names::TC_REJECTED_SMALL,
];

/// Per-layer totals over the replayed jobs.
#[derive(Default)]
struct Totals {
    request_bytes: f64,
    submit_unaccounted: f64,
    json_parse: f64,
    hash: f64,
    tsv_parse: f64,
    cells: f64,
    rg_build: f64,
    rg: RangeGraphStats,
    bc_dfs: f64,
    bc: BiclusterStats,
    tc: f64,
    tc_extensions: f64,
    tc_rejected_small: f64,
    tc_kept: f64,
    metrics: f64,
    render: f64,
    render_bytes: f64,
    chrome: f64,
    chrome_bytes: f64,
    archive: f64,
    index_lines: f64,
    bytes_written: f64,
    layer_sum: f64,
    e2e: f64,
}

/// What one replayed slice produced.
struct SliceOut {
    t: usize,
    biclusters: Vec<Bicluster>,
    rg: RangeGraphStats,
    bc: BiclusterStats,
    rg_time: Duration,
    bc_time: Duration,
}

fn slice(m: &Matrix3, t: usize, params: &Params) -> SliceOut {
    let _span = timeline::span_with(names::T_SLICE, || format!("t={t}"));
    let started = Instant::now();
    let rg_span = timeline::span(names::SPAN_RANGE_GRAPH);
    let (graph, rg) = build_range_graph_workers(m, t, params, &HistogramTap, 1);
    drop(rg_span);
    let rg_time = started.elapsed();
    let started = Instant::now();
    let bc_span = timeline::span(names::SPAN_BICLUSTER);
    let (biclusters, _, bc) = mine_biclusters_profiled(m, &graph, params, true);
    drop(bc_span);
    SliceOut {
        t,
        biclusters,
        rg,
        bc,
        rg_time,
        bc_time: started.elapsed(),
    }
}

/// Mines every slice, striped over `threads` threads the way the miner
/// stripes them (the calling thread takes the first stripe).
fn slices(m: &Matrix3, params: &Params, threads: usize, tl: &Timeline) -> Vec<SliceOut> {
    let n_times = m.n_times();
    let threads = threads.clamp(1, n_times.max(1));
    let stripe = |w: usize| -> Vec<SliceOut> {
        (w..n_times)
            .step_by(threads)
            .map(|t| slice(m, t, params))
            .collect()
    };
    let mut out: Vec<SliceOut> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|w| {
                scope.spawn(move || {
                    let _tl = tl.attach("slice");
                    stripe(w)
                })
            })
            .collect();
        let mut all = stripe(0);
        for h in helpers {
            all.extend(h.join().expect("replay slice thread panicked"));
        }
        all
    });
    out.sort_by_key(|s| s.t);
    out
}

/// Replays the jobs the daemon finished `done`, warm-up jobs first, and
/// returns the per-layer metrics of the window's jobs, or the first
/// counter mismatch. Warm-up jobs are replayed but not counted, so the
/// replay's cache and ledger hold what the daemon's held.
pub fn replay(
    w: &Workload,
    datasets: &[Dataset],
    (warm_up, records): (&[JobRecord], &[JobRecord]),
    ledger_dir: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let params = w.params();
    let params_hash = content_hash(format!("{params:?}").as_bytes());
    let ledger = Ledger::open(ledger_dir).map_err(|e| format!("replay ledger: {e}"))?;
    let index = ledger_dir.join("index.jsonl");
    let mut index_lines = w.ledger_lines as f64;
    // The daemon's dataset cache, most recently used first.
    let mut cache: Vec<(String, Arc<Matrix3>)> = Vec::new();
    let mut sum = Totals::default();
    let mut measured = 0usize;
    let jobs = warm_up.iter().map(|r| (false, r));
    let jobs = jobs.chain(records.iter().map(|r| (true, r)));
    for (n, (counted, rec)) in jobs.filter(|(_, r)| r.latency().is_some()).enumerate() {
        let mut uncounted = Totals::default();
        let acc = if counted {
            measured += 1;
            &mut sum
        } else {
            &mut uncounted
        };
        let dataset = &datasets[rec.dataset];
        let run = dataset
            .reference
            .run
            .as_ref()
            .expect("traced runs keep the reference runs");
        let body = std::fs::read_to_string(&dataset.body_path)
            .map_err(|e| format!("reading {}: {e}", dataset.body_path.display()))?;

        // Ingest: JSON body, content hash, TSV parse on a cache miss.
        let started = Instant::now();
        let doc = Json::parse(&body).map_err(|e| format!("replayed body: {e}"))?;
        let json_parse = started.elapsed().as_secs_f64();
        let tsv = doc
            .get("dataset")
            .and_then(Json::as_str)
            .ok_or("replayed body without a dataset")?;
        let started = Instant::now();
        let hash = content_hash(tsv.as_bytes());
        let hash_s = started.elapsed().as_secs_f64();
        let (m, tsv_parse) = match cache.iter().position(|(h, _)| *h == hash) {
            Some(i) => {
                let hit = cache.remove(i);
                cache.insert(0, hit.clone());
                (hit.1, 0.0)
            }
            None => {
                let started = Instant::now();
                let (m, _) = io::read_stacked_tsv(BufReader::new(tsv.as_bytes()))
                    .map_err(|e| format!("replayed TSV: {e}"))?;
                let parse = started.elapsed().as_secs_f64();
                let (ng, ns, nt) = m.dims();
                acc.cells += (ng * ns * nt) as f64;
                let m = Arc::new(m);
                cache.insert(0, (hash.clone(), m.clone()));
                cache.truncate(w.cache_entries);
                (m, parse)
            }
        };
        drop(doc);

        // Mining, with a job timeline attached as the daemon's worker does.
        let tl = Timeline::new();
        let attached = tl.attach("serve-worker");
        timeline::instant(names::T_SV_STARTED);
        let started = Instant::now();
        let outs = slices(&m, &params, w.job_threads, &tl);
        let slices_wall = started.elapsed().as_secs_f64();
        let mut per_time = vec![Vec::new(); m.n_times()];
        let mut rg = RangeGraphStats::default();
        let mut bc = BiclusterStats::default();
        for out in outs {
            acc.rg_build += out.rg_time.as_secs_f64();
            acc.bc_dfs += out.bc_time.as_secs_f64();
            rg.absorb(&out.rg);
            bc.absorb(&out.bc);
            per_time[out.t] = out.biclusters;
        }
        let started = Instant::now();
        let tc_span = timeline::span(names::SPAN_TRICLUSTER);
        let (tris, _, tc) = mine_triclusters_profiled(&m, &per_time, &params, true);
        drop(tc_span);
        let tc_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let rec_sink = Recorder::new();
        let _ = cluster_metrics_observed(&m, &tris, &rec_sink);
        let metrics_s = started.elapsed().as_secs_f64();

        // The counters the served report must carry, exactly.
        let served = served_counters(rec)?;
        let replayed = [
            rg.edges,
            bc.nodes,
            bc.gene_combos,
            tc.extensions,
            tc.rejected_small,
        ];
        for (name, value) in CROSS_CHECKED.iter().zip(replayed) {
            let got = served.get(*name).copied().unwrap_or(0);
            if got != value {
                return Err(format!(
                    "job {}: served {name} = {got}, replayed = {value}",
                    rec.id.unwrap_or(0)
                ));
            }
        }

        // Report render (the document the daemon archives and serves).
        let started = Instant::now();
        let report =
            runreport::report_to_json_v2(&run.matrix, &run.result, &run.report, &run.metrics).with(
                "serve",
                Json::obj()
                    .with("request_id", Json::U64(n as u64 + 1))
                    .with("job_id", Json::U64(n as u64 + 1)),
            );
        let rendered = report.render_pretty();
        let render_s = started.elapsed().as_secs_f64();
        timeline::instant(names::T_SV_FINISHED);
        drop(attached);
        let started = Instant::now();
        let trace = tl
            .to_chrome_json()
            .with("request_id", Json::U64(n as u64 + 1))
            .render();
        let chrome_s = started.elapsed().as_secs_f64();

        // Archive into a ledger seeded exactly like the daemon's.
        let index_before = std::fs::metadata(&index).map_or(0, |m| m.len());
        let started = Instant::now();
        ledger
            .archive(&NewEntry {
                kind: "serve",
                label: Some(hash.clone()),
                dataset_hash: hash,
                params_hash: params_hash.clone(),
                report: &report,
                trace: Some(&trace),
                flame: None,
            })
            .map_err(|e| format!("replay archive: {e}"))?;
        let archive_s = started.elapsed().as_secs_f64();
        let index_after = std::fs::metadata(&index).map_or(0, |m| m.len());

        let ingest = json_parse + hash_s + tsv_parse;
        acc.request_bytes += body.len() as f64;
        acc.submit_unaccounted += rec.submit.map_or(0.0, |d| d.as_secs_f64()) - ingest;
        acc.json_parse += json_parse;
        acc.hash += hash_s;
        acc.tsv_parse += tsv_parse;
        acc.rg.absorb(&rg);
        acc.bc.absorb(&bc);
        acc.tc += tc_s;
        acc.tc_extensions += tc.extensions as f64;
        acc.tc_rejected_small += tc.rejected_small as f64;
        acc.tc_kept += tc.recorded.saturating_sub(tc.replaced) as f64;
        acc.metrics += metrics_s;
        acc.render += render_s;
        acc.render_bytes += rendered.len() as f64;
        acc.chrome += chrome_s;
        acc.chrome_bytes += trace.len() as f64;
        acc.archive += archive_s;
        acc.index_lines += index_lines;
        index_lines += 1.0;
        acc.bytes_written +=
            (rendered.len() + 1 + trace.len()) as f64 + (index_after - index_before) as f64;
        acc.layer_sum += ingest + slices_wall + tc_s + metrics_s + render_s + chrome_s + archive_s;
        acc.e2e += rec.latency().map_or(0.0, |d| d.as_secs_f64());
    }
    let n = measured.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = BTreeMap::new();
    out.insert("httpd.request_bytes", sum.request_bytes / n);
    out.insert("httpd.submit_unaccounted_s", sum.submit_unaccounted / n);
    out.insert("json.parse_s", sum.json_parse / n);
    out.insert("json.bytes", sum.request_bytes / n);
    out.insert("ledger.hash_s", sum.hash / n);
    out.insert("matrix.tsv_parse_s", sum.tsv_parse / n);
    out.insert("matrix.cells", sum.cells / n);
    out.insert("rangegraph.build_s", sum.rg_build / n);
    out.insert("rangegraph.pairs", sum.rg.pairs as f64 / n);
    out.insert("rangegraph.ratios", sum.rg.ratios as f64 / n);
    out.insert("rangegraph.edges", sum.rg.edges as f64 / n);
    out.insert(
        "rangegraph.ns_per_ratio",
        ratio(sum.rg_build * 1e9, sum.rg.ratios as f64),
    );
    out.insert("bicluster.dfs_s", sum.bc_dfs / n);
    out.insert("bicluster.dfs_nodes", sum.bc.nodes as f64 / n);
    out.insert("bicluster.gene_combos", sum.bc.gene_combos as f64 / n);
    out.insert(
        "bicluster.rejected_subsumed",
        sum.bc.rejected_subsumed as f64 / n,
    );
    out.insert(
        "bicluster.yield",
        ratio(
            sum.bc.recorded.saturating_sub(sum.bc.replaced) as f64,
            sum.bc.nodes as f64,
        ),
    );
    out.insert("tricluster.s", sum.tc / n);
    out.insert("tricluster.extensions", sum.tc_extensions / n);
    out.insert("tricluster.rejected_small", sum.tc_rejected_small / n);
    out.insert("tricluster.yield", ratio(sum.tc_kept, sum.tc_extensions));
    out.insert("metrics.s", sum.metrics / n);
    out.insert("runreport.render_s", sum.render / n);
    out.insert("runreport.bytes", sum.render_bytes / n);
    out.insert("timeline.chrome_s", sum.chrome / n);
    out.insert("timeline.bytes", sum.chrome_bytes / n);
    out.insert("ledger.archive_s", sum.archive / n);
    out.insert("ledger.index_lines", sum.index_lines / n);
    out.insert("ledger.bytes_written", sum.bytes_written / n);
    out.insert("replay.layer_sum_s", sum.layer_sum / n);
    out.insert("replay.e2e_s", sum.e2e / n);
    out.insert(
        "replay.unaccounted_share",
        1.0 - ratio(sum.layer_sum, sum.e2e),
    );
    Ok(out)
}

/// `report.counters` of a served job's final status body.
fn served_counters(rec: &JobRecord) -> Result<BTreeMap<String, u64>, String> {
    let body = rec
        .response
        .as_deref()
        .ok_or("job without a final status")?;
    let doc = Json::parse(body).map_err(|e| format!("served status: {e}"))?;
    let counters = doc
        .get_path(&["report", "report", "counters"])
        .and_then(Json::as_obj)
        .ok_or("served report without counters")?;
    Ok(counters
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect())
}
