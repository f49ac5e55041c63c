//! Renders the paper's figures as SVG images into `./results/`:
//!
//! * `fig7.svg` — the six parameter-sensitivity sweeps (measured live),
//! * `fig8.svg` — sample-curves of mined cluster C0 (one subplot per time),
//! * `fig9.svg` — time-curves (one subplot per sample),
//! * `fig10.svg` — gene-curves over time (one subplot per sample).
//!
//! ```sh
//! cargo run --release -p tricluster-bench --bin plots
//! TRICLUSTER_FULL=1 cargo run --release -p tricluster-bench --bin plots
//! ```

use std::fs;
use std::path::Path;
use tricluster_bench::{fig7_params, fig7_sweeps, full_scale, measure};
use tricluster_core::obs::NullSink;
use tricluster_core::{mine, Params};
use tricluster_microarray::yeast::{self, YeastSpec};
use tricluster_plot::{Chart, SubplotGrid};

fn main() -> std::io::Result<()> {
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir)?;
    let full = full_scale();

    // ---- Figure 7 ----
    eprintln!(
        "measuring figure 7 sweeps ({} scale)…",
        if full { "paper" } else { "scaled" }
    );
    let mut grid = SubplotGrid::new(3);
    for (label, xlabel, points) in fig7_sweeps(full) {
        let series: Vec<(f64, f64)> = points
            .into_iter()
            .map(|(x, spec)| {
                let p = measure(&spec, x, fig7_params(&spec), &NullSink);
                (x, p.time.as_secs_f64())
            })
            .collect();
        grid = grid.add(
            Chart::new(label, xlabel, "seconds")
                .series("TriCluster", &series)
                .legend(false),
        );
    }
    fs::write(out_dir.join("fig7.svg"), grid.render())?;
    eprintln!("wrote results/fig7.svg");

    // ---- Figures 8–10 ----
    let spec = if full {
        YeastSpec::default()
    } else {
        YeastSpec::scaled(1500)
    };
    let ds = yeast::build(&spec);
    let params = Params::builder()
        .epsilon(yeast::PAPER_EPSILON)
        .epsilon_time(0.05)
        .min_genes(yeast::PAPER_MIN_GENES)
        .min_samples(yeast::PAPER_MIN_SAMPLES)
        .min_times(yeast::PAPER_MIN_TIMES)
        .build()
        .unwrap();
    let result = mine(&ds.matrix, &params).expect("plot inputs are valid");
    let c = result.triclusters.first().expect("cluster C0 mined");
    let genes: Vec<usize> = c.genes.to_vec();
    // plot a readable subset of genes as the curve family
    let shown: Vec<usize> = genes.iter().copied().take(12).collect();

    // Figure 8: expression vs gene index, one curve per sample, per time
    let mut fig8 = SubplotGrid::new(c.times.len().min(5));
    for &t in &c.times {
        let mut chart = Chart::new(
            format!("time {}", ds.labels.time(t)),
            "gene (rank in cluster)",
            "expression",
        );
        for &s in &c.samples {
            let pts: Vec<(f64, f64)> = genes
                .iter()
                .enumerate()
                .map(|(i, &g)| (i as f64, ds.matrix.get(g, s, t)))
                .collect();
            chart = chart.series(ds.labels.sample(s), &pts);
        }
        fig8 = fig8.add(chart);
    }
    fs::write(out_dir.join("fig8.svg"), fig8.render())?;
    eprintln!("wrote results/fig8.svg (sample-curves)");

    // Figure 9: expression vs gene, one curve per time, per sample
    let mut fig9 = SubplotGrid::new(c.samples.len().min(4));
    for &s in &c.samples {
        let mut chart = Chart::new(
            format!("sample {}", ds.labels.sample(s)),
            "gene (rank in cluster)",
            "expression",
        );
        for &t in &c.times {
            let pts: Vec<(f64, f64)> = genes
                .iter()
                .enumerate()
                .map(|(i, &g)| (i as f64, ds.matrix.get(g, s, t)))
                .collect();
            chart = chart.series(ds.labels.time(t), &pts);
        }
        fig9 = fig9.add(chart);
    }
    fs::write(out_dir.join("fig9.svg"), fig9.render())?;
    eprintln!("wrote results/fig9.svg (time-curves)");

    // Figure 10: expression vs time, one curve per gene, per sample
    let mut fig10 = SubplotGrid::new(c.samples.len().min(4));
    for &s in &c.samples {
        let mut chart = Chart::new(
            format!("sample {}", ds.labels.sample(s)),
            "time point",
            "expression",
        )
        .legend(false);
        for &g in &shown {
            let pts: Vec<(f64, f64)> = c
                .times
                .iter()
                .map(|&t| (t as f64, ds.matrix.get(g, s, t)))
                .collect();
            chart = chart.series(ds.labels.gene(g), &pts);
        }
        fig10 = fig10.add(chart);
    }
    fs::write(out_dir.join("fig10.svg"), fig10.render())?;
    eprintln!("wrote results/fig10.svg (gene-curves)");
    Ok(())
}
