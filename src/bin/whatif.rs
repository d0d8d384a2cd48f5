//! What-if sweep: one overloaded serve run captured as a `RunTrace`,
//! then its traffic replayed counterfactually against a disaggregated
//! backend and a 4-cell fleet, with a typed diff per counterfactual.
//! The driver lives in `murakkab_bench::whatif_main`; the binary sits
//! in the root package so
//! `cargo run --release --bin whatif [seed] [--quick]` resolves.
//! `--quick` shortens the horizon (CI mode).

fn main() {
    let (seed, quick) = murakkab_bench::bench_args("whatif");
    murakkab_bench::whatif_main(seed, quick);
}
