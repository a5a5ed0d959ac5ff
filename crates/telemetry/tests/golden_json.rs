//! Golden-file test for the span exporter.
//!
//! The rendered bytes are part of the replay `--trace` output and the
//! server's `/trace` surface, so any drift must be a conscious decision.
//! Regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p telemetry --test golden_json
//! ```

use telemetry::export::trace_json;
use telemetry::{AttrValue, Span, SpanId};

fn check_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, format!("{rendered}\n")).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered,
        expected.trim_end(),
        "rendered JSON drifted from {}; rerun with BLESS=1 if intentional",
        path.display()
    );
}

/// A deterministic job → stage → shard tree, as the server records it: the
/// job span finishes last, children carry the attrs the instrumentation
/// attaches, and one name exercises the sanitizer.
fn sample_spans() -> Vec<Span> {
    vec![
        Span {
            id: SpanId(2),
            parent: SpanId(1),
            name: "queue_wait",
            thread: 2,
            start_micros: 100,
            duration_micros: 40,
            attrs: vec![],
        },
        Span {
            id: SpanId(3),
            parent: SpanId(1),
            name: "compile",
            thread: 2,
            start_micros: 140,
            duration_micros: 210,
            attrs: vec![
                ("cache_hits", AttrValue::U64(3)),
                ("tenant", AttrValue::Str("alice \"prod\"")),
            ],
        },
        Span {
            id: SpanId(5),
            parent: SpanId(4),
            name: "shard",
            thread: 3,
            start_micros: 360,
            duration_micros: 500,
            attrs: vec![("shard", AttrValue::U64(0)), ("shots", AttrValue::U64(64))],
        },
        Span {
            id: SpanId(4),
            parent: SpanId(1),
            name: "simulate",
            thread: 2,
            start_micros: 350,
            duration_micros: 520,
            attrs: vec![
                ("qubits", AttrValue::U64(5)),
                ("regime", AttrValue::Str("shot_parallel")),
            ],
        },
        Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            name: "job",
            thread: 2,
            start_micros: 100,
            duration_micros: 780,
            attrs: vec![("shots", AttrValue::U64(64))],
        },
    ]
}

#[test]
fn trace_event_export_matches_golden() {
    check_golden("trace_events.json", &trace_json(&sample_spans()));
}
