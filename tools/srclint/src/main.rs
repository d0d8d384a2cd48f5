//! Workspace source lint for determinism and panic hazards.
//!
//! The simulator's contract is bit-for-bit determinism: every report is
//! a pure function of the scenario spec. Three std idioms quietly break
//! that contract (or panic) and keep creeping back in review, so this
//! std-only tool greps for them mechanically:
//!
//! - **SL001** — `.partial_cmp(..)` on floats: NaN makes it return
//!   `None`, so the usual `.unwrap()` panics and `sort_by` falls back to
//!   an arbitrary order. Use `f64::total_cmp` with an explicit
//!   tie-break.
//! - **SL002** — `HashMap`/`HashSet`: iteration order is randomized per
//!   process, so any serialized or iterated-over state diverges between
//!   runs. Use `BTreeMap`/`BTreeSet`.
//! - **SL003** — wall clocks and OS entropy (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `from_entropy`): real time and real
//!   randomness have no place inside simulated time. Use `SimTime` and
//!   `SimRng`.
//!
//! Scans `crates/` and `src/` (not `vendor/`, whose shims wrap these
//! idioms deliberately, and not `tools/`). Legitimate uses are recorded
//! in `tools/srclint/allowlist.txt` as `<path> <code>` lines; an entry
//! that suppresses nothing is itself an error, so entries cannot outlive
//! the code they excuse. Exits 0 when clean, 1 on findings or unused
//! entries, 2 on IO failures.
//!
//! Run with `cargo run -p srclint`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Rule {
    code: &'static str,
    needles: &'static [&'static str],
    message: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        code: "SL001",
        needles: &[".partial_cmp("],
        message: "float `partial_cmp` panics or mis-sorts on NaN; \
                  use `f64::total_cmp` with an explicit tie-break",
    },
    Rule {
        code: "SL002",
        needles: &["HashMap", "HashSet"],
        message: "hash-map iteration order is nondeterministic; \
                  use `BTreeMap`/`BTreeSet`",
    },
    Rule {
        code: "SL003",
        needles: &["Instant::now", "SystemTime", "thread_rng", "from_entropy"],
        message: "wall clocks / OS entropy break simulation determinism; \
                  use `SimTime` and `SimRng`",
    },
];

struct Finding {
    path: String,
    line: usize,
    code: &'static str,
    snippet: String,
    message: &'static str,
}

fn main() {
    let root = workspace_root();
    let allowlist = load_allowlist(&root);
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_rs_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let Ok(source) = std::fs::read_to_string(file) else {
            eprintln!("srclint: unreadable file {}", file.display());
            std::process::exit(2);
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .display()
            .to_string();
        scan(&rel, &source, &mut findings);
    }
    let (findings, unused) = apply_allowlist(findings, &allowlist);

    if findings.is_empty() && unused.is_empty() {
        println!("srclint: {} file(s) clean", files.len());
        return;
    }
    let mut out = String::new();
    for f in &findings {
        let _ = writeln!(
            out,
            "{}:{}: {}: {}\n  {}\n  note: {}",
            f.path,
            f.line,
            f.code,
            f.snippet,
            rule_for(f.code).needles.join(" / "),
            f.message
        );
    }
    for (path, code) in &unused {
        let _ = writeln!(
            out,
            "tools/srclint/allowlist.txt: unused entry `{path} {code}` suppresses nothing; \
             delete it"
        );
    }
    let _ = write!(
        out,
        "srclint: {} finding(s) in {} file(s), {} unused allowlist entry(ies); allowlist \
         legitimate uses in tools/srclint/allowlist.txt",
        findings.len(),
        files.len(),
        unused.len()
    );
    println!("{out}");
    std::process::exit(1);
}

fn rule_for(code: &str) -> &'static Rule {
    RULES.iter().find(|r| r.code == code).expect("known code")
}

fn scan(rel: &str, source: &str, findings: &mut Vec<Finding>) {
    for (i, raw) in source.lines().enumerate() {
        // Strip line comments so prose mentioning an idiom doesn't trip
        // the lint (string literals can still match — allowlist those).
        let line = raw.split("//").next().unwrap_or(raw);
        for rule in RULES {
            if !rule.needles.iter().any(|n| line.contains(n)) {
                continue;
            }
            findings.push(Finding {
                path: rel.to_string(),
                line: i + 1,
                code: rule.code,
                snippet: raw.trim().to_string(),
                message: rule.message,
            });
        }
    }
}

/// Drops the findings an allowlist entry covers. Returns the findings
/// left and the entries that covered none.
fn apply_allowlist(
    findings: Vec<Finding>,
    allowlist: &[(String, String)],
) -> (Vec<Finding>, Vec<&(String, String)>) {
    let mut used = vec![false; allowlist.len()];
    let kept = findings
        .into_iter()
        .filter(|f| {
            let hit = allowlist
                .iter()
                .position(|(path, code)| *path == f.path && code == f.code);
            if let Some(i) = hit {
                used[i] = true;
            }
            hit.is_none()
        })
        .collect();
    let unused = allowlist
        .iter()
        .zip(used)
        .filter_map(|(entry, used)| (!used).then_some(entry))
        .collect();
    (kept, unused)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn load_allowlist(root: &Path) -> Vec<(String, String)> {
    let path = root.join("tools/srclint/allowlist.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.to_string()))
        })
        .collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("tools/srclint sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_suppresses_used_entries_and_reports_unused_ones() {
        let mut findings = Vec::new();
        scan("src/clock.rs", "let t = Instant::now();\n", &mut findings);
        scan("src/map.rs", "let m: HashMap<u32, u32>;\n", &mut findings);
        let allowlist = [
            ("src/clock.rs".to_string(), "SL003".to_string()),
            ("src/gone.rs".to_string(), "SL003".to_string()),
        ];
        let (kept, unused) = apply_allowlist(findings, &allowlist);
        let kept: Vec<_> = kept.iter().map(|f| (f.path.as_str(), f.code)).collect();
        assert_eq!(kept, [("src/map.rs", "SL002")]);
        assert_eq!(unused, [&allowlist[1]]);
    }
}
