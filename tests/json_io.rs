//! The vendored `serde_json` reader and writer: exact string round trips
//! over every escape class, linear-time parsing of large inputs, the
//! nesting-depth limit and `\u` escape decoding. Every trace, scenario
//! and arrival log the workspace loads goes through this parser.

use std::time::{Duration, Instant};

use murakkab_trace::RunTrace;
use proptest::prelude::*;
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
