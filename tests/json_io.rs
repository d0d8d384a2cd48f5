//! The vendored `serde_json` reader and writer: exact string round trips
//! over every escape class, linear-time parsing of large inputs, the
//! nesting-depth limit and `\u` escape decoding, byte-identical output
//! against a value-tree printer, byte-identical re-serialization of
//! every committed JSON file, and the typed reader's object rules. Every
//! trace, scenario and arrival log the workspace loads goes through this
//! parser.

use std::path::Path;
use std::time::{Duration, Instant};

use murakkab::{RequestOutcome, RequestRecord, Scenario};
use murakkab_trace::RunTrace;
use murakkab_traffic::{AdmissionDecision, Archetype, ArrivalProcess};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::Value;

/// One piece of a generated string: a character from one escape or
/// UTF-8 width class, or a run of printable ASCII.
fn piece() -> impl Strategy<Value = String> {
    let ch = |lo: u32, hi: u32| {
        (lo..hi).prop_map(|c| {
            char::from_u32(c)
                .expect("range holds no surrogates")
                .to_string()
        })
    };
    prop_oneof![
        Just("\"".to_string()),
        Just("\\".to_string()),
        ch(0, 0x20),
        ch(0x80, 0x800),
        ch(0x800, 0xD800),
        ch(0xE000, 0x1_0000),
        ch(0x1_0000, 0x11_0000),
        "[ -~]{1,16}",
    ]
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(piece(), 0..24).prop_map(|pieces| pieces.concat())
}

fn assert_round_trips(v: &Value) {
    for json in [
        serde_json::to_string(v).unwrap(),
        serde_json::to_string_pretty(v).unwrap(),
    ] {
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, v, "reparsed from {json:?}");
    }
}

proptest! {
    #[test]
    fn strings_round_trip_exactly(a in text(), b in text()) {
        let json = serde_json::to_string(&a).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), a.clone());
        assert_round_trips(&Value::Array(vec![
            Value::Str(a.clone()),
            Value::Str(b.clone()),
        ]));
        assert_round_trips(&Value::Object(vec![
            (a.clone(), Value::Str(b.clone())),
            (b, Value::Array(vec![Value::Object(vec![(a.clone(), Value::Str(a))])])),
        ]));
    }
}

/// Generous enough for a debug build on a loaded host; a parse that
/// re-scans the rest of the input per character takes hours here.
const LINEAR_BOUND: Duration = Duration::from_secs(10);

#[test]
fn large_single_string_parses_in_linear_time() {
    let unit = "plain ascii run, \"quoted\" \\ back\tslash \u{1} é € 😀 ";
    let s = unit.repeat(4 * 1024 * 1024 / unit.len() + 1);
    assert!(s.len() >= 4 * 1024 * 1024);
    let json = serde_json::to_string(&s).unwrap();
    let t0 = Instant::now();
    let back: String = serde_json::from_str(&json).unwrap();
    let took = t0.elapsed();
    assert!(
        took < LINEAR_BOUND,
        "{} MB string took {took:?}",
        json.len() >> 20
    );
    assert!(back == s, "4 MB string did not round-trip");
    assert!(serde_json::to_string(&back).unwrap() == json);
}

#[test]
fn large_array_of_short_strings_parses_in_linear_time() {
    let items: Vec<String> = (0..200_000).map(|i| format!("r{i}/ü")).collect();
    let json = serde_json::to_string(&items).unwrap();
    let t0 = Instant::now();
    let back: Vec<String> = serde_json::from_str(&json).unwrap();
    let took = t0.elapsed();
    assert!(took < LINEAR_BOUND, "200k-element array took {took:?}");
    assert!(back == items, "200k-element array did not round-trip");
    assert!(serde_json::to_string(&back).unwrap() == json);
}

/// `depth` nested containers around a `1`, alternating arrays and
/// `{"k": …}` objects.
fn nested(depth: usize) -> String {
    let mut json = String::new();
    for level in 0..depth {
        json.push_str(if level % 2 == 0 { "[" } else { "{\"k\":" });
    }
    json.push('1');
    for level in (0..depth).rev() {
        json.push(if level % 2 == 0 { ']' } else { '}' });
    }
    json
}

#[test]
fn nesting_up_to_128_levels_is_accepted() {
    for json in [nested(128), "[".repeat(128) + &"]".repeat(128)] {
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&v).unwrap(), json);
    }
}

#[test]
fn nesting_past_128_levels_is_a_typed_error() {
    for json in [
        nested(129),
        "[".repeat(129) + &"]".repeat(129),
        "{\"k\":".repeat(129) + "1" + &"}".repeat(129),
        "[".repeat(200_000) + &"]".repeat(200_000),
    ] {
        let err = serde_json::from_str::<Value>(&json).unwrap_err();
        assert!(
            err.to_string()
                .starts_with("nesting deeper than 128 at offset "),
            "got: {err}"
        );
    }
    // The same input through the trace loader the `trace` CLI uses.
    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    let err = RunTrace::from_json(&deep).unwrap_err();
    assert!(
        err.to_string()
            .contains("trace JSON: nesting deeper than 128"),
        "got: {err}"
    );
}

#[test]
fn surrogate_pairs_decode_to_one_astral_char() {
    for json in [r#""\ud83d\ude00""#, r#""\uD83D\uDE00""#] {
        assert_eq!(serde_json::from_str::<String>(json).unwrap(), "\u{1F600}");
    }
    assert_eq!(
        serde_json::from_str::<String>(r#""a\ud800\udc00b\udbff\udfff""#).unwrap(),
        "a\u{10000}b\u{10FFFF}"
    );
    assert_eq!(
        serde_json::from_str::<String>(r#""\u0041\u00e9\uFFFF""#).unwrap(),
        "Aé\u{FFFF}"
    );
}

#[test]
fn bad_unicode_escapes_are_rejected() {
    for json in [
        r#""\ud83d""#,       // lone high surrogate at the end
        r#""\ud83dx""#,      // high surrogate followed by a plain char
        r#""\ud83d\n""#,     // high surrogate followed by another escape
        r#""\ud83d\u0041""#, // high surrogate followed by a non-surrogate
        r#""\ud83d\ud83d""#, // two high surrogates
        r#""\ude00""#,       // lone low surrogate
        r#""\ude00\ud83d""#, // reversed pair
        r#""\u+041""#,       // sign accepted by integer parsing
        r#""\u-041""#,
        r#""\u004""#,                          // three digits
        r#""\u00g1""#,                         // non-hex digit
        "\"\\u\u{661}\u{662}\u{663}\u{664}\"", // non-ASCII digits
    ] {
        assert!(
            serde_json::from_str::<String>(json).is_err(),
            "{json} was accepted"
        );
    }
}

// ---------------------------------------------------------------------------
// The streaming writer against a value-tree printer
// ---------------------------------------------------------------------------

/// The writer as it was when it printed a [`Value`] tree: the oracle
/// the streaming serializer must match byte for byte.
fn oracle(v: &Value, indent: Option<usize>) -> String {
    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, val)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, val, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * depth {
                out.push(' ');
            }
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    let mut out = String::new();
    write_value(&mut out, v, indent, 0);
    out
}

/// Random [`Value`]s: strings over every escape class, every number
/// kind (negative, huge, non-finite, subnormal, negative zero), empty
/// and non-empty containers, and now and then a chain nested to the
/// 128-level limit.
struct AnyValue;

impl AnyValue {
    fn number(rng: &mut TestRng) -> Value {
        match rng.below(10) {
            0 => Value::U64(rng.next_u64()),
            1 => Value::U64(rng.below(1000)),
            2 => Value::I64(-(rng.below(1 << 40) as i64) - 1),
            3 => Value::I64(i64::MIN + rng.below(3) as i64),
            4 => Value::F64(f64::from_bits(rng.next_u64())),
            5 => Value::F64([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize]),
            6 => Value::F64([0.0, -0.0, f64::MIN_POSITIVE / 8.0, f64::MAX][rng.below(4) as usize]),
            7 => Value::F64(-(rng.unit_f64() * 1e6)),
            _ => Value::F64((rng.below(1_000_000) as f64) / 1000.0),
        }
    }

    fn leaf(rng: &mut TestRng) -> Value {
        match rng.below(6) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 | 3 => Self::number(rng),
            _ => Value::Str(text().generate(rng)),
        }
    }

    fn tree(rng: &mut TestRng, depth: usize) -> Value {
        if depth == 0 || rng.below(3) == 0 {
            return Self::leaf(rng);
        }
        let len = rng.below(5) as usize;
        if rng.below(2) == 0 {
            Value::Array((0..len).map(|_| Self::tree(rng, depth - 1)).collect())
        } else {
            Value::Object(
                (0..len)
                    .map(|_| (text().generate(rng), Self::tree(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

impl Strategy for AnyValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let mut v = Self::tree(rng, 4);
        if rng.below(8) == 0 {
            // Wrap to exactly 128 levels, the deepest the reader accepts.
            for level in 0..128 - depth_of(&v) {
                v = if level % 2 == 0 {
                    Value::Array(vec![v])
                } else {
                    Value::Object(vec![(text().generate(rng), v)])
                };
            }
        }
        v
    }
}

fn depth_of(v: &Value) -> usize {
    match v {
        Value::Array(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
        Value::Object(pairs) => 1 + pairs.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
        _ => 0,
    }
}

proptest! {
    #[test]
    fn streaming_writer_matches_the_tree_printer(v in AnyValue) {
        let compact = serde_json::to_string(&v).unwrap();
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert!(compact == oracle(&v, None), "compact output differs for {v:?}");
        prop_assert!(pretty == oracle(&v, Some(2)), "pretty output differs for {v:?}");
        let mut written = Vec::new();
        serde_json::to_writer_pretty(&mut written, &v).unwrap();
        prop_assert!(written == pretty.as_bytes());
        // Reading the output back and writing it again is the identity.
        let back: Value = serde_json::from_str(&compact).unwrap();
        prop_assert!(serde_json::to_string(&back).unwrap() == compact);
    }
}

// ---------------------------------------------------------------------------
// Committed files re-serialize byte for byte
// ---------------------------------------------------------------------------

fn committed_json(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no JSON under {}", dir.display());
    files
        .into_iter()
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect()
}

#[test]
fn committed_json_files_reserialize_byte_identically() {
    for (path, text) in committed_json("scenarios") {
        let scenario: Scenario = serde_json::from_str(&text).unwrap();
        assert!(
            scenario.to_json().unwrap() == text,
            "{path} changed through Scenario"
        );
    }
    for dir in ["scenarios", "traces", "tests/fixtures"] {
        for (path, text) in committed_json(dir) {
            let v: Value = serde_json::from_str(&text).unwrap();
            assert!(
                serde_json::to_string_pretty(&v).unwrap() == text,
                "{path} changed through Value"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The typed reader's object rules
// ---------------------------------------------------------------------------

fn record() -> RequestRecord {
    RequestRecord {
        id: 7,
        at_s: 1.5,
        tenant: "feeds".into(),
        archetype: Archetype::DocQa,
        class: "interactive".into(),
        outcome: Some(RequestOutcome {
            verdict: AdmissionDecision::Admitted,
            region: Some(1),
            cell: Some(0),
            first_token_s: Some(2.25),
            completed_s: None,
            slo_met: None,
        }),
    }
}

#[test]
fn struct_keys_may_come_in_any_order() {
    let json = r#"{"outcome": {"slo_met": null, "completed_s": null, "first_token_s": 2.25,
        "cell": 0, "region": 1, "verdict": "Admitted"}, "class": "interactive",
        "archetype": "DocQa", "tenant": "feeds", "at_s": 1.5, "id": 7}"#;
    assert_eq!(
        serde_json::from_str::<RequestRecord>(json).unwrap(),
        record()
    );
}

#[test]
fn unknown_keys_are_skipped_but_still_checked() {
    let good = serde_json::to_string(&record()).unwrap();
    let extra = r#"{"later": [1, {"x": "é", "y": [true, null, -2.5e3]}], "#;
    let json = good.replacen('{', extra, 1);
    assert_eq!(
        serde_json::from_str::<RequestRecord>(&json).unwrap(),
        record()
    );
    // A skipped value still obeys the nesting limit and the syntax.
    let deep = "[".repeat(128) + &"]".repeat(128);
    let json = good.replacen('{', &format!(r#"{{"deep": {deep}, "#), 1);
    let err = serde_json::from_str::<RequestRecord>(&json).unwrap_err();
    assert!(
        err.to_string()
            .starts_with("nesting deeper than 128 at offset "),
        "got: {err}"
    );
    for bad in [r#"{"x": [1,], "#, r#"{"x": "\q", "#, r#"{"x": tru, "#] {
        let json = good.replacen('{', bad, 1);
        assert!(
            serde_json::from_str::<RequestRecord>(&json).is_err(),
            "{bad} was accepted"
        );
    }
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let good = serde_json::to_string(&record()).unwrap();
    let json = good.replacen(
        r#""class":"interactive""#,
        r#""class":"interactive","id":8,"tenant":"other","class":"batch""#,
        1,
    );
    assert_eq!(
        serde_json::from_str::<RequestRecord>(&json).unwrap(),
        record()
    );
    // A later duplicate is skipped, not trusted: it must still parse.
    let json = good.replacen(r#""id":7"#, r#""id":7,"id":[1,"#, 1);
    assert!(serde_json::from_str::<RequestRecord>(&json).is_err());
}

#[test]
fn escaped_keys_are_decoded() {
    let good = serde_json::to_string(&record()).unwrap();
    let json = good.replacen(r#""at_s""#, r#""\u0061t_s""#, 1).replacen(
        r#""tenant""#,
        r#""ten\u0061nt""#,
        1,
    );
    assert_eq!(
        serde_json::from_str::<RequestRecord>(&json).unwrap(),
        record()
    );
}

#[test]
fn version_1_records_read_without_a_region() {
    let json = r#"{"verdict": "Admitted", "cell": 0, "first_token_s": 6.9,
        "completed_s": 11.3, "slo_met": true}"#;
    let outcome: RequestOutcome = serde_json::from_str(json).unwrap();
    assert_eq!(outcome.region, None);
    assert_eq!(outcome.cell, Some(0));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces/overload_small.json");
    let trace = RunTrace::from_json_file(path).unwrap();
    assert_eq!(trace.version, 1);
    assert!(trace
        .requests
        .iter()
        .all(|r| r.outcome.as_ref().is_some_and(|o| o.region.is_none())));
}

#[test]
fn a_missing_required_field_is_named() {
    let json = serde_json::to_string(&record())
        .unwrap()
        .replacen(r#""at_s":1.5,"#, "", 1);
    let err = serde_json::from_str::<RequestRecord>(&json).unwrap_err();
    assert_eq!(err.to_string(), "missing field `at_s`");
}

#[test]
fn an_enum_object_takes_exactly_one_tag() {
    let one = r#"{"Poisson": {"rate_per_s": 0.5}}"#;
    assert_eq!(
        serde_json::from_str::<ArrivalProcess>(one).unwrap(),
        ArrivalProcess::Poisson { rate_per_s: 0.5 }
    );
    for bad in [
        r#"{"Poisson": {"rate_per_s": 0.5}, "Poisson": {"rate_per_s": 0.5}}"#,
        r#"{"Poisson": {"rate_per_s": 0.5}, "Mmpp": {}}"#,
        r#"{}"#,
        r#"{"Nope": 1}"#,
        r#""Poisson""#,
    ] {
        assert!(
            serde_json::from_str::<ArrivalProcess>(bad).is_err(),
            "{bad} was accepted"
        );
    }
    assert!(serde_json::from_str::<Archetype>(r#"{"DocQa": null}"#).is_err());
    assert!(serde_json::from_str::<(u8, u8)>("[1]").is_err());
    assert!(serde_json::from_str::<(u8, u8)>("[1, 2, 3]").is_err());
    assert_eq!(serde_json::from_str::<(u8, u8)>("[1, 2]").unwrap(), (1, 2));
}

#[test]
fn numbers_coerce_as_the_value_classification_does() {
    assert_eq!(serde_json::from_str::<u32>("5.0").unwrap(), 5);
    assert_eq!(serde_json::from_str::<u32>("1e3").unwrap(), 1000);
    assert_eq!(serde_json::from_str::<i32>("-7.0").unwrap(), -7);
    assert_eq!(
        serde_json::from_str::<u64>("18446744073709551615").unwrap(),
        u64::MAX
    );
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808").unwrap(),
        i64::MIN
    );
    assert_eq!(serde_json::from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(serde_json::from_str::<f64>("-3").unwrap(), -3.0);
    assert!(serde_json::from_str::<f64>("null").unwrap().is_nan());
    assert_eq!(serde_json::from_str::<Option<f64>>("null").unwrap(), None);
    for bad in ["5.5", "-1", "null", "\"5\"", "1e20", "true"] {
        assert!(
            serde_json::from_str::<u32>(bad).is_err(),
            "{bad} read as u32"
        );
    }
    let err = serde_json::from_str::<u8>(" 256").unwrap_err();
    assert_eq!(err.to_string(), "integer out of range for u8 at offset 1");
    let err = serde_json::from_str::<Vec<u16>>("[1, \"x\"]").unwrap_err();
    assert_eq!(err.to_string(), "expected u16 at offset 4");
}
