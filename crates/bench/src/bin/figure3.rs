//! Regenerates Figure 3 of the paper: per-component execution timelines
//! and cluster CPU/GPU utilization for the baseline and the three
//! Murakkab configurations. The runs are `table2`'s, whose results
//! file carries their reports; this binary prints the timelines and
//! writes one chrome-trace file per configuration.
//!
//! Run with `cargo run -p murakkab-bench --bin figure3 [seed]`.

use murakkab_bench::{run_table2_configs, SEED};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED);
    let reports = run_table2_configs(seed).expect("figure 3 runs succeed");

    println!("Figure 3: Execution traces of the Video Understanding workflow (seed {seed})");
    println!("(lanes: # = component active; GPU%/CPU% sparklines below each timeline)\n");
    for report in &reports {
        println!("{}", report.figure3_block(96));
    }

    let baseline = &reports[0];
    let best = reports[1..]
        .iter()
        .min_by(|a, b| a.makespan_s.total_cmp(&b.makespan_s))
        .expect("non-empty");
    println!(
        "Murakkab completes the workflow in {:.0}-{:.0}s vs the baseline's {:.0}s (~{:.1}x speedup)",
        best.makespan_s,
        reports[1..]
            .iter()
            .map(|r| r.makespan_s)
            .fold(0.0, f64::max),
        baseline.makespan_s,
        baseline.makespan_s
            / reports[1..]
                .iter()
                .map(|r| r.makespan_s)
                .fold(0.0, f64::max)
    );

    for report in &reports {
        let name = format!(
            "figure3-{}.trace.json",
            report.label.to_lowercase().replace([' ', '+'], "-")
        );
        std::fs::write(&name, report.trace.to_chrome_trace()).ok();
    }
    println!("(wrote per-config *.trace.json files — open them in chrome://tracing or Perfetto)");
}
