//! Open-loop fleet serving sweep: offered load × arrival process, an
//! admission-control ablation and a shard-scaling sweep at the overload
//! point. The driver lives in `murakkab_bench::fleet_main`; the binary
//! sits in the root package so
//! `cargo run --release --bin fleet [seed] [--quick]` resolves.
//! `--quick` trims every axis to its smallest point (CI mode).

fn main() {
    let (seed, quick) = murakkab_bench::bench_args("fleet");
    murakkab_bench::fleet_main(seed, quick);
}
