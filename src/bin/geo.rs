//! Multi-region federation sweep: one consolidated region versus a
//! three-region geo-routed fleet under each routing policy, at equal
//! elastic-spot node-hours. The driver lives in
//! `murakkab_bench::geo_main`; the binary sits in the root package so
//! `cargo run --release --bin geo [seed] [--quick]` resolves.
//! `--quick` trims the horizon (CI mode).

fn main() {
    let (seed, quick) = murakkab_bench::bench_args("geo");
    murakkab_bench::geo_main(seed, quick);
}
