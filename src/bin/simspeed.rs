//! Sim-speed scoreboard: wall-clock throughput of the fleet serve loop
//! across a shard sweep, one digest per row. The bench lives in
//! `murakkab_bench::simspeed_main`; the binary sits in the root package
//! so `cargo run --release --bin simspeed [seed] [--quick]` resolves.
//! `--quick` trims the sweep and horizon (CI mode).

use murakkab_bench::SEED;

fn main() {
    let mut seed = SEED;
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Ok(s) = arg.parse() {
            seed = s;
        } else {
            eprintln!("usage: simspeed [seed] [--quick]");
            std::process::exit(2);
        }
    }
    murakkab_bench::simspeed_main(seed, quick);
}
