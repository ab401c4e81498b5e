//! The `trace` report section is strictly opt-in: with `GNCG_TRACE`
//! off, `Report::save` must emit bytes identical to the plain
//! `to_string_pretty` serialization used before the observability layer
//! existed (so committed results, checkpoint replays, and downstream
//! parsers are unaffected); with it on, the saved file gains a `trace`
//! object carrying every counter.

use gncg_json::Value;
use gncg_sweep::Report;
use std::sync::Mutex;

// serializes GNCG_RESULTS_DIR mutation and the process-global trace gate
static LOCK: Mutex<()> = Mutex::new(());

/// Build a deterministic pseudo-random report from `seed` — a cheap
/// stand-in for a property-test generator.
fn arbitrary_report(seed: u64) -> Report {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut r = Report::new(
        &format!("trace_prop_{seed}"),
        "generated report for trace byte-identity property",
    );
    for i in 0..(1 + next() % 6) {
        let paper = (next() % 1000) as f64 / 8.0;
        let measured = (next() % 1000) as f64 / 8.0;
        match next() % 3 {
            0 => r.push(format!("i={i}"), paper, measured, measured >= paper, "gen"),
            1 => r.push_unreferenced(format!("i={i}"), measured, true, "gen"),
            _ => r.push_degenerate(format!("i={i}"), next() % 2 == 0, "gen"),
        }
    }
    r
}

fn save_bytes(r: &Report, tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("gncg_report_trace_{tag}_{}", std::process::id()));
    std::env::set_var("GNCG_RESULTS_DIR", &dir);
    let path = r.save().unwrap();
    std::env::remove_var("GNCG_RESULTS_DIR");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    text
}

fn lookup<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn trace_off_save_is_byte_identical_to_plain_serialization() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gncg_trace::set_enabled(false);
    for seed in 0..16u64 {
        let r = arbitrary_report(seed);
        let saved = save_bytes(&r, "off");
        assert_eq!(
            saved,
            gncg_json::to_string_pretty(&r),
            "seed {seed}: GNCG_TRACE=0 save drifted from the pre-trace format"
        );
        assert!(!saved.contains("\"trace\""), "seed {seed}: stray trace key");
    }
}

#[test]
fn trace_on_save_appends_counter_section() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gncg_trace::set_enabled(true);
    gncg_trace::incr(gncg_trace::Counter::BestResponseEvals);
    let r = arbitrary_report(99);
    let saved = save_bytes(&r, "on");
    gncg_trace::set_enabled(false);

    let parsed = gncg_json::parse(&saved).unwrap();
    // everything before the trace section still matches the plain report
    assert_eq!(
        lookup(&parsed, "id"),
        Some(&Value::String("trace_prop_99".into()))
    );
    let trace = lookup(&parsed, "trace").expect("trace section missing with GNCG_TRACE=1");
    let counters = lookup(trace, "counters").expect("trace.counters missing");
    for name in gncg_trace::COUNTER_NAMES {
        assert!(
            lookup(counters, name).is_some(),
            "counter {name} missing from trace section"
        );
    }
}
