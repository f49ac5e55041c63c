//! `tricluster` — command-line TriCluster mining.
//!
//! ```text
//! tricluster mine <stacked.tsv> [--eps 0.01] [--eps-time E] [--mx 3] [--my 3]
//!                 [--mz 2] [--delta-x D] [--delta-y D] [--delta-z D]
//!                 [--merge ETA GAMMA] [--threads N] [--shifting] [--auto]
//!                 [--deadline SECS] [--max-memory BYTES]
//!                 [--names] [-v|-vv] [--trace] [--report-json out.json]
//! tricluster synth <out.tsv> [--genes 1000] [--samples 15] [--times 8]
//!                 [--clusters 8] [--noise 0.03] [--overlap 0.2] [--seed 42]
//! tricluster demo
//! tricluster runs <list|show|diff|top> <LEDGER-DIR> ...
//! tricluster watch <URL> [--interval SECS] [--once] [--get PATH] [--jobs]
//! tricluster serve <HOST:PORT> [--workers N] [--queue-depth N]
//!                 [--memory-budget BYTES] [--cap-deadline SECS]
//!                 [--cap-memory BYTES] [--cap-candidates N] [--cap-threads N]
//!                 [--max-body BYTES] [--ledger DIR] [--cache-entries N]
//! tricluster submit <URL> <stacked.tsv> [mine param flags] [--label L]
//!                 [--by-path] [--wait [--poll SECS] [--report-json out.json]]
//! tricluster submit <URL> --cancel ID | --shutdown drain|cancel
//! ```
//!
//! Exit codes: `0` success, `1` mining/runtime error (unreadable input,
//! non-finite cells, escaped panic), `2` usage error (unknown flag, invalid
//! parameter value).

use std::io::Write;
use std::process::ExitCode;

mod args;
mod commands;
mod serve;

use commands::CliError;

/// With `--features track-alloc`, route every heap allocation through the
/// byte-accounting allocator so run reports carry measured
/// `memory.alloc.*` counters (total bytes/calls, peak live bytes).
#[cfg(feature = "track-alloc")]
#[global_allocator]
static ALLOC: tricluster_core::obs::alloc::TrackingAlloc =
    tricluster_core::obs::alloc::TrackingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            let _ = writeln!(std::io::stderr(), "usage error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        Some("mine") => commands::mine(&argv[1..]),
        Some("synth") => commands::synth(&argv[1..]),
        Some("demo") => commands::demo(&argv[1..]),
        Some("runs") => commands::runs(&argv[1..]),
        Some("watch") => commands::watch(&argv[1..]),
        Some("serve") => serve::serve(&argv[1..]),
        Some("submit") => serve::submit(&argv[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `tricluster --help`"
        ))),
    }
}
