//! Span exporter: Chrome Trace Event Format.
//!
//! The renderer is a pure function of the span records, so output is
//! byte-deterministic for a fixed input — which is what lets the golden test
//! pin it.

use crate::span::{AttrValue, Span};

/// Appends `text` without escape sequences: `"` and `\` become `'`, other
/// control characters become spaces (the same lossy rule as the server wire
/// format and `verify` diagnostics).
fn push_sanitized(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' | '\\' => out.push('\''),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
}

/// Appends `"key":"value"` (comma-separated) to a flat JSON object body.
fn push_str_field(out: &mut String, key: &str, value: &str) {
    if !out.is_empty() && !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    push_sanitized(out, key);
    out.push_str("\":\"");
    push_sanitized(out, value);
    out.push('"');
}

/// Appends `"key":N` (comma-separated) to a flat JSON object body.
fn push_num_field(out: &mut String, key: &str, value: u64) {
    if !out.is_empty() && !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    push_sanitized(out, key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

/// Renders spans in Chrome Trace Event Format — load the result in
/// <https://ui.perfetto.dev> (or `chrome://tracing`) for a flamegraph.
///
/// Every span becomes one complete (`"ph":"X"`) event with microsecond
/// `ts`/`dur`, `pid` fixed at 1 and `tid` set to the telemetry thread id;
/// the span/parent ids ride along in `args` so the job → stage → shard
/// hierarchy survives even across threads.
pub fn trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "name", span.name);
        push_str_field(&mut out, "ph", "X");
        push_num_field(&mut out, "ts", span.start_micros);
        push_num_field(&mut out, "dur", span.duration_micros);
        push_num_field(&mut out, "pid", 1);
        push_num_field(&mut out, "tid", span.thread);
        out.push_str(",\"args\":{");
        let mut args = String::new();
        push_num_field(&mut args, "span_id", span.id.0);
        push_num_field(&mut args, "parent_id", span.parent.0);
        for (key, value) in &span.attrs {
            match value {
                AttrValue::U64(n) => push_num_field(&mut args, key, *n),
                AttrValue::Str(s) => push_str_field(&mut args, key, s),
            }
        }
        out.push_str(&args);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn span(id: u64, parent: u64, name: &'static str) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            name,
            thread: 1,
            start_micros: 10 * id,
            duration_micros: 5,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn sanitizes_quotes_and_controls() {
        let mut out = String::new();
        push_str_field(&mut out, "k", "a\"b\\c\nd");
        assert_eq!(out, "\"k\":\"a'b'c d\"");
    }

    #[test]
    fn trace_json_shapes_events() {
        let json = trace_json(&[span(1, 0, "job"), span(2, 1, "compile")]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"span_id\":2,\"parent_id\":1"));
    }
}
