//! Work counters of the paper's default Figure 7 point, pinned.
//!
//! The served benchmark times the paper point, but a wall clock on a
//! shared machine cannot tell a faster kernel from one that does less
//! work. These counters can: a change that alters the range graph or the
//! number of DFS nodes and gene-set combos changes the work per job, and
//! must say so by updating the values here. The mine takes seconds in
//! release and minutes in debug, so the test runs only in release
//! (`cargo test --release -p tricluster-bench --test paper_point`).

use tricluster_bench::fig7_params;
use tricluster_core::obs::names;
use tricluster_core::{mine, Params};
use tricluster_synth::{generate, SynthSpec};

/// `(counter, value)` at `SynthSpec::paper_default()` with seed 3.
const PINNED: &[(&str, u64)] = &[
    (names::RG_EDGES, 198_377),
    (names::BC_NODES, 367_839),
    (names::BC_COMBOS, 367_219),
    (names::TC_EXTENSIONS, 652_055),
    (names::TC_REJECTED_SMALL, 645_941),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "mines the full 4000x30x20 paper point: minutes unoptimised; run with --release"
)]
fn paper_point_work_counters_are_pinned() {
    let spec = SynthSpec {
        seed: 3,
        ..SynthSpec::paper_default()
    };
    let data = generate(&spec);
    let base = fig7_params(&spec);
    for threads in [1, 2] {
        let params = Params {
            threads: Some(threads),
            ..base.clone()
        };
        let result = mine(&data.matrix, &params).expect("paper point mines");
        assert!(!result.truncated, "threads={threads}: unbudgeted run");
        for &(name, want) in PINNED {
            assert_eq!(
                result.report.counter(name),
                want,
                "threads={threads}: {name}"
            );
        }
    }
}
