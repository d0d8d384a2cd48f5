//! The repository benchmark: end-to-end and per-layer timings of the
//! simulator's user-facing paths, each rep in a cold child process.
//!
//! ```text
//! cargo run --release --manifest-path examples/perf/Cargo.toml -- \
//!     --workload replay_day [--seed 42] [--seconds 25] [--trace 0|1]
//! ```
//!
//! The driver generates the workload's inputs from the seed, then runs
//! reps one child process at a time until `--seconds` have passed. It
//! prints every metric with its unit, checks the outputs, writes
//! `target/perf/results_<workload>.json` (and, traced,
//! `target/perf/trace_<workload>.json`), and ends with one JSON line:
//! the end-to-end medians untraced, the per-layer medians traced. It
//! exits 1 if any check failed. `README.md` documents the workloads,
//! the metrics and how to compare two commits.

mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Deserialize;
use serde_json::{json, Value};

use workloads::{Fingerprint, RepResult, Workload};

const USAGE: &str = "usage: murakkab_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  NAME is replay_day, capture_day, sharded_overload or geo_federation";

/// Untraced reps a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Seconds the calibration kernel takes on one CPU of a quiet 2-core KVM
/// guest (Xeon, AVX-512). Reported times are scaled to that host's
/// speed: measured seconds × `CAL_REF_S` / the kernel's seconds around
/// the rep.
const CAL_REF_S: f64 = 0.055;

/// The end-to-end metrics (untraced reps) and their units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (traced reps) and their units, in the order
/// the child reports them, then the one the driver derives.
const PER_LAYER: [(&str, &str); 24] = [
    ("json.parse_s", "s"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.write_s", "s"),
    ("json.write_mb_per_s", "MB/s"),
    ("json.bytes", "bytes"),
    ("session.new_s", "s"),
    ("orchestrator.plan_us_per_request", "us"),
    ("orchestrator.tasks_per_request", "count"),
    ("orchestrator.graph_kb_per_request", "KB"),
    ("serve.s", "s"),
    ("serve.cpu_s", "s"),
    ("serve.cpu_per_wall", "ratio"),
    ("serve.events_per_request", "count"),
    ("serve.ns_per_event", "ns"),
    ("serve.allocs_per_event", "count"),
    ("serve.allocs_per_request", "count"),
    ("serve.rss_growth_mb", "MB"),
    ("serve.kb_per_request", "KB"),
    ("fleet.cell_events_max_over_mean", "ratio"),
    ("fleet.steals", "count"),
    ("geo.cross_region_requests", "count"),
    ("geo.region_events_max_over_mean", "ratio"),
    ("report.digest_s", "s"),
    (TRACE_OVERHEAD, "%"),
];

const TRACE_OVERHEAD: &str = "bench.trace_overhead_pct";

/// Outcome fingerprints pinned at one seed.
#[derive(Deserialize)]
struct Pins {
    seed: u64,
    workloads: BTreeMap<String, Fingerprint>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        std::process::exit(child_main(&args[1..]));
    }
    match parse_args(&args) {
        Ok(args) => std::process::exit(run(&args)),
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} value {value:?} is not valid");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One rep in this process: `--child NAME INPUT_DIR OUTPUT_DIR 0|1`.
/// Prints the rep's result as one JSON line.
fn child_main(args: &[String]) -> i32 {
    let [name, input, out, traced] = args else {
        eprintln!("--child wants NAME INPUT_DIR OUTPUT_DIR 0|1");
        return 2;
    };
    let Some(workload) = Workload::from_name(name) else {
        eprintln!("unknown workload {name}");
        return 2;
    };
    match workloads::run_rep(workload, Path::new(input), Path::new(out), traced == "1") {
        Ok(result) => {
            println!(
                "{}",
                serde_json::to_string(&result).expect("results serialize")
            );
            0
        }
        Err(e) => {
            eprintln!("{name} rep failed: {e}");
            1
        }
    }
}

/// Runs one rep in a fresh child process and waits for it to exit.
fn spawn_rep(
    exe: &Path,
    w: Workload,
    input: &Path,
    out: &Path,
    traced: bool,
) -> Result<RepResult, String> {
    let output = Command::new(exe)
        .arg("--child")
        .arg(w.name())
        .arg(input)
        .arg(out)
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a rep: {e}"))?;
    if !output.status.success() {
        return Err(format!("rep exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("unreadable rep result: {e}"))
}

struct Rep {
    traced: bool,
    result: Result<RepResult, String>,
    failures: Vec<String>,
    /// `CAL_REF_S` over the mean calibration time around the rep: the
    /// factor that turns its measured seconds into reference seconds.
    scale: f64,
}

impl Rep {
    /// An end-to-end metric of this rep, times in reference seconds.
    fn e2e(&self, metric: &str) -> Option<f64> {
        let r = self.result.as_ref().ok()?;
        Some(match metric {
            "wall_s" => r.wall_s * self.scale,
            "cpu_s" => r.cpu_s * self.scale,
            "setup_s" => r.setup_s * self.scale,
            "peak_rss_mb" => r.peak_rss_mb,
            _ => unreachable!("END_TO_END names only these"),
        })
    }
}

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method).
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Summary {
            median: x,
            q1: x,
            q3: x,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: quartile(2),
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

fn run(args: &Args) -> i32 {
    let name = args.workload.name();
    let root = PathBuf::from("target/perf");
    let input = root.join("input").join(format!("{name}-{}", args.seed));
    let out = root.join("out").join(name);
    for dir in [&input, &out] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("creating {}: {e}", dir.display());
            return 1;
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("locating the benchmark binary: {e}");
            return 1;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "murakkab perf: {name}, seed {}, {} s, {}, {nproc} cores",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let t_gen = Instant::now();
    if let Err(e) = args.workload.generate(args.seed, &input) {
        eprintln!("generating {name} inputs: {e}");
        return 1;
    }
    println!(
        "inputs generated in {:.2} s under {}",
        t_gen.elapsed().as_secs_f64(),
        input.display()
    );

    // One child at a time; a traced run alternates untraced and traced
    // reps so both see the same phase of host noise. The calibration
    // kernel runs here, between children, so the child's own memory and
    // timings stay clean; each kernel run serves the reps on both sides
    // of it. A single-threaded workload runs pinned to one CPU and is
    // calibrated there; a threaded one may use every allowed CPU and is
    // calibrated on each. Children inherit the pin. The first call only
    // warms up.
    let mut cpus = probe::allowed_cpus();
    if !args.workload.threaded() {
        cpus.truncate(1);
    }
    probe::calibration_on(&cpus);
    let start = Instant::now();
    let mut before = probe::calibration_on(&cpus);
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let result = spawn_rep(&exe, args.workload, &input, &out, traced);
        let after = probe::calibration_on(&cpus);
        let rep = Rep {
            traced,
            result,
            failures: Vec::new(),
            scale: CAL_REF_S * 2.0 / (before + after),
        };
        before = after;
        print_rep(reps.len() + 1, &rep);
        reps.push(rep);
        let enough = if args.trace {
            reps.len() >= 2
        } else {
            reps.len() >= MIN_REPS
        };
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    check_reps(&mut reps, args);
    let failed = reps.iter().filter(|r| !r.failures.is_empty()).count();
    let of = |traced: bool| reps.iter().filter(move |r| r.traced == traced);
    let ok = |traced: bool| of(traced).filter_map(|r| r.result.as_ref().ok());

    let e2e: Vec<(&str, &str, Summary)> = END_TO_END
        .iter()
        .map(|&(metric, unit)| {
            let values: Vec<f64> = of(false).filter_map(|r| r.e2e(metric)).collect();
            (metric, unit, summarize(&values))
        })
        .collect();
    let layers: Vec<(&str, &str, Summary)> = if args.trace {
        let untraced_wall = summarize(
            &of(false)
                .filter_map(|r| r.e2e("wall_s"))
                .collect::<Vec<_>>(),
        )
        .median;
        PER_LAYER
            .iter()
            .map(|&(metric, unit)| {
                let values: Vec<f64> = of(true)
                    .filter_map(|rep| {
                        if metric == TRACE_OVERHEAD {
                            return Some((rep.e2e("wall_s")? / untraced_wall - 1.0) * 100.0);
                        }
                        let r = rep.result.as_ref().ok()?;
                        r.layers.iter().find(|(n, _)| n == metric).map(|&(_, v)| v)
                    })
                    .collect();
                (metric, unit, summarize(&values))
            })
            .collect()
    } else {
        Vec::new()
    };

    print_table("end-to-end (untraced reps)", &e2e);
    if args.trace {
        print_table("per-layer (traced reps)", &layers);
        print_self_times(ok(true));
        write_chrome_trace(&root.join(format!("trace_{name}.json")), ok(true));
    }
    for (i, rep) in reps.iter().enumerate() {
        for failure in &rep.failures {
            println!("FAILED rep {}: {failure}", i + 1);
        }
    }
    let correct = failed == 0;
    println!(
        "{} reps ({} failed) in {measured_s:.1} s; outputs {}",
        reps.len(),
        failed,
        if correct { "correct" } else { "INCORRECT" }
    );

    let results = root.join(format!("results_{name}.json"));
    let summary = json!({
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "measured_s": measured_s,
        "attempted": reps.len(),
        "failed": failed,
        "end_to_end": summaries_json(&e2e),
        "per_layer": summaries_json(&layers),
        "reps": reps.iter().map(rep_json).collect::<Vec<_>>(),
    });
    if let Err(e) = std::fs::write(
        &results,
        serde_json::to_string_pretty(&summary).unwrap_or_default(),
    ) {
        eprintln!("writing {}: {e}", results.display());
    }

    let reported = if args.trace { &layers } else { &e2e };
    let metrics: Vec<(String, Value)> = reported
        .iter()
        .map(|(metric, unit, s)| {
            (
                metric.to_string(),
                json!({"value": s.median, "unit": *unit}),
            )
        })
        .collect();
    let line = json!({
        "correct": correct,
        "attempted": reps.len(),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("the result line serializes")
    );
    i32::from(!correct)
}

/// Fills each rep's failures: its own checks, a digest that differs from
/// the first rep's, and, at the pin seed, a fingerprint off its pin.
fn check_reps(reps: &mut [Rep], args: &Args) {
    let pins: Pins = serde_json::from_str(include_str!("../pins.json")).expect("pins.json parses");
    let pin = (args.seed == pins.seed)
        .then(|| pins.workloads.get(args.workload.name()))
        .flatten();
    let first_digest = reps
        .iter()
        .find_map(|r| r.result.as_ref().ok().map(|x| x.digest));
    for rep in reps {
        let r = match &rep.result {
            Ok(r) => r,
            Err(e) => {
                rep.failures.push(e.clone());
                continue;
            }
        };
        rep.failures.extend(r.failures.iter().cloned());
        if Some(r.digest) != first_digest {
            rep.failures.push(format!(
                "digest {:#018x} differs from the first rep's {:#018x}",
                r.digest,
                first_digest.unwrap_or_default()
            ));
        }
        match pin {
            Some(pin) if *pin != r.fingerprint => rep.failures.push(format!(
                "fingerprint {} differs from the pinned {}",
                serde_json::to_string(&r.fingerprint).unwrap_or_default(),
                serde_json::to_string(pin).unwrap_or_default()
            )),
            None if args.seed == pins.seed => rep.failures.push(format!(
                "no pin for {} at seed {}; measured {}",
                args.workload.name(),
                pins.seed,
                serde_json::to_string(&r.fingerprint).unwrap_or_default()
            )),
            _ => {}
        }
    }
}

/// Prints one rep as measured (not scaled), with its scale factor.
fn print_rep(index: usize, rep: &Rep) {
    let kind = if rep.traced { "traced  " } else { "untraced" };
    match &rep.result {
        Ok(r) => println!(
            "rep {index:>3} {kind} wall {:.3} s  cpu {:.2} s  setup {:.4} s  peak {:.1} MB  \
             scale {:.3}  {} requests  {} events  {} cells  digest {:#018x}",
            r.wall_s,
            r.cpu_s,
            r.setup_s,
            r.peak_rss_mb,
            rep.scale,
            r.fingerprint.offered,
            r.events,
            r.cells,
            r.digest
        ),
        Err(e) => println!("rep {index:>3} {kind} FAILED: {e}"),
    }
}

fn print_table(title: &str, rows: &[(&str, &str, Summary)]) {
    println!("\n{title}");
    println!(
        "  {:<34} {:>6} {:>14} {:>14} {:>14} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for (metric, unit, s) in rows {
        println!(
            "  {metric:<34} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            s.median, s.q1, s.q3, s.n
        );
    }
}

/// Prints each span name's self time, as the median over traced reps of
/// its per-rep total.
fn print_self_times<'a>(traced: impl Iterator<Item = &'a RepResult>) {
    let mut per_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for rep in traced {
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for (name, secs) in probe::self_times(&rep.spans) {
            if !order.contains(&name) {
                order.push(name.clone());
            }
            *totals.entry(name).or_default() += secs;
        }
        for (name, secs) in totals {
            per_name.entry(name).or_default().push(secs);
        }
    }
    println!("\nspan self time (median over traced reps)");
    for name in order {
        let s = summarize(&per_name[&name]);
        println!("  {name:<34} {:>6} {:>14.6}", "s", s.median);
    }
}

/// Writes the traced reps' spans as Chrome-trace JSON (loadable in
/// Perfetto), one track per rep.
fn write_chrome_trace<'a>(path: &Path, traced: impl Iterator<Item = &'a RepResult>) {
    let mut events = Vec::new();
    for (i, rep) in traced.enumerate() {
        let tid = i + 1;
        events.push(json!({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": format!("traced rep {tid}")},
        }));
        for s in &rep.spans {
            events.push(json!({
                "name": s.name.clone(), "cat": "perf", "ph": "X", "pid": 1, "tid": tid,
                "ts": s.start_us, "dur": s.end_us - s.start_us,
                "args": {
                    "id": s.id, "parent": s.parent, "cpu_s": s.cpu_s, "allocs": s.allocs,
                    "rss_before_mb": s.rss_before_mb, "peak_after_mb": s.peak_after_mb,
                },
            }));
        }
    }
    let trace = json!({"traceEvents": events, "displayTimeUnit": "ms"});
    match std::fs::write(path, serde_json::to_string(&trace).unwrap_or_default()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
}

fn summaries_json(rows: &[(&str, &str, Summary)]) -> Value {
    Value::Object(
        rows.iter()
            .map(|(metric, unit, s)| {
                let v =
                    json!({"unit": *unit, "median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n});
                (metric.to_string(), v)
            })
            .collect(),
    )
}

/// One rep as measured (not scaled), with its scale factor.
fn rep_json(rep: &Rep) -> Value {
    match &rep.result {
        Ok(r) => json!({
            "traced": rep.traced,
            "scale": rep.scale,
            "wall_s": r.wall_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s,
            "peak_rss_mb": r.peak_rss_mb,
            "digest": format!("{:#018x}", r.digest),
            "requests": r.fingerprint.offered, "events": r.events, "cells": r.cells,
            "failures": rep.failures.clone(),
        }),
        Err(_) => json!({"traced": rep.traced, "failures": rep.failures.clone()}),
    }
}
