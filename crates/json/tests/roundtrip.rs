//! Round-trip property tests for the offline JSON layer.
//!
//! The invariant every results file depends on: for any `Value` the
//! printer can emit, `parse(to_string(v)) == v` and printing is a
//! *fixpoint* — `to_string(parse(s)) == s` for printer-produced `s`
//! (both compact and pretty). Plus the strictness guarantees: non-finite
//! numbers never reach the wire (`ToJson for f64` maps them to `null`),
//! and the parser rejects `NaN`/`Infinity` spellings, trailing garbage,
//! and trailing commas.

use gncg_json::{object, parse, to_string, to_string_pretty, ToJson, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Random printable `Value`, depth-bounded. Numbers are drawn from the
/// printer's actual emission domain (finite f64, including integral
/// values which print without a decimal point and exotic magnitudes).
fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    let pick = if depth == 0 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..6)
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Number(match rng.gen_range(0..5) {
            0 => f64::from(rng.gen_range(-1000i32..1000)),
            1 => rng.gen_range(-1.0..1.0),
            2 => rng.gen_range(-1e12..1e12),
            3 => rng.gen_range(0.0..1.0) * 1e-8,
            _ => 0.0,
        }),
        3 => Value::String(random_string(rng)),
        4 => {
            let len = rng.gen_range(0..4);
            Value::Array((0..len).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..4);
            Value::Object(
                (0..len)
                    .map(|i| {
                        (
                            format!("k{i}_{}", rng.gen_range(0..100)),
                            random_value(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12);
    (0..len)
        .map(|_| {
            // cover escapes, control chars, and multibyte text
            match rng.gen_range(0..6) {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => char::from(rng.gen_range(0x20u8..0x7f)),
                4 => 'λ',
                _ => '\t',
            }
        })
        .collect()
}

/// A result-cache distance-matrix entry at n = 64: the bits of every
/// `f64` entry as 16 hex digits, 16·n² = 64 KiB in one string.
fn distance_matrix_entry(rng: &mut StdRng) -> Value {
    let n = 64usize;
    let hex: String = (0..n * n)
        .map(|_| format!("{:016x}", rng.gen_range(0.0..2.0f64).to_bits()))
        .collect();
    assert!(hex.len() >= 64 * 1024);
    object(vec![("n", n.to_json()), ("dist", Value::String(hex))])
}

/// `parse(print(v)) == v` and printing the reparse reproduces the
/// text byte for byte, compact and pretty.
fn assert_fixpoint(v: &Value, what: &str) {
    let compact = to_string(v);
    let reparsed = parse(&compact).unwrap_or_else(|e| panic!("{what}: {e} in {compact}"));
    assert_eq!(&reparsed, v, "{what}: value drifted through compact");
    // printing the reparse is a fixpoint: byte-for-byte stable
    assert_eq!(
        to_string(&reparsed),
        compact,
        "{what}: compact not a fixpoint"
    );

    let pretty = to_string_pretty(v);
    let reparsed_pretty = parse(&pretty).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(&reparsed_pretty, v, "{what}: value drifted through pretty");
    assert_eq!(
        to_string_pretty(&reparsed_pretty),
        pretty,
        "{what}: pretty not a fixpoint"
    );
}

#[test]
fn parse_serialize_parse_fixpoint() {
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xacc0_0000 + case);
        assert_fixpoint(&random_value(&mut rng, 3), &format!("case {case}"));
    }
    let mut rng = StdRng::seed_from_u64(0xacc0_d157);
    assert_fixpoint(&distance_matrix_entry(&mut rng), "64 KiB distance matrix");
}

#[test]
fn non_finite_numbers_never_serialize() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(bad.to_json(), Value::Null, "{bad} must map to null");
        let v = object(vec![("x", bad.to_json())]);
        let s = to_string(&v);
        assert_eq!(s, r#"{"x":null}"#);
        assert_eq!(parse(&s).unwrap(), v);
    }
    // a Number smuggled in by hand still never prints NaN/Infinity text
    let smuggled = to_string(&Value::Number(f64::NAN));
    assert!(
        parse(&smuggled).is_ok() || smuggled.is_empty(),
        "printer emitted unparseable text {smuggled:?}"
    );
}

#[test]
fn parser_rejects_non_finite_spellings() {
    for bad in [
        "NaN",
        "nan",
        "Infinity",
        "-Infinity",
        "inf",
        "-inf",
        "1e999x",
        "[NaN]",
        r#"{"x": Infinity}"#,
    ] {
        assert!(parse(bad).is_err(), "parser accepted {bad:?}");
    }
}

#[test]
fn parser_rejects_trailing_garbage_and_commas() {
    for bad in [
        "{} {}",
        "[1,2,]",
        r#"{"a":1,}"#,
        "1 2",
        "[1][2]",
        "",
        ",",
        r#"{"a"}"#,
    ] {
        assert!(parse(bad).is_err(), "parser accepted {bad:?}");
    }
}

#[test]
fn integral_numbers_roundtrip_without_decimal_point() {
    let v = Value::Number(42.0);
    assert_eq!(to_string(&v), "42");
    assert_eq!(parse("42").unwrap(), v);
    let neg = Value::Number(-7.0);
    assert_eq!(to_string(&neg), "-7");
    // large magnitudes keep full precision through the round trip
    let big = Value::Number(9007199254740991.0); // 2^53 − 1
    let s = to_string(&big);
    assert_eq!(parse(&s).unwrap(), big);
}
