//! Serving-backend sweep: one overloaded arrival log replayed against
//! the colocated and disaggregated prefill/decode backends on the same
//! fixed cluster. The driver lives in `murakkab_bench::disagg_main`;
//! the binary sits in the root package so
//! `cargo run --release --bin disagg [seed] [--quick]` resolves.
//! `--quick` shortens the horizon (CI mode).

fn main() {
    let (seed, quick) = murakkab_bench::bench_args("disagg");
    murakkab_bench::disagg_main(seed, quick);
}
