//! CSV and file exporters for snapshots.
//!
//! [`to_csv`] is the single CSV serialiser for the whole workspace;
//! `rtm_core::experiments::to_csv` re-exports it so experiment drivers
//! and the observability exporters cannot drift apart. Span snapshots
//! additionally export as [`folded_stacks`] (the flamegraph collapsed
//! format: one `path value` line per stack) and as [`chrome_trace`]
//! (Chrome/Perfetto `trace_event` JSON, loadable in `about:tracing`).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::span::{SpanRecord, SpanTraceSnapshot};

/// Serialises rows of cells as RFC-4180-style CSV (quotes doubled,
/// cells containing commas/quotes/newlines quoted).
pub fn to_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .map(|cell| {
                if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            })
            .collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Renders a span snapshot in the flamegraph *collapsed stack* format:
/// one `root;child;leaf value` line per distinct stack, where the value
/// is the stack's total *self* cycles (time not covered by retained
/// children). Lines are sorted by path and zero-valued stacks —
/// instants among them — are omitted, so equal snapshots render
/// byte-identically and the output feeds `flamegraph.pl` / speedscope
/// / `inferno` unchanged.
pub fn folded_stacks(snap: &SpanTraceSnapshot) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in &snap.spans {
        let cycles = snap.self_cycles(span);
        if cycles > 0 {
            *stacks.entry(snap.path_of(span)).or_insert(0) += cycles;
        }
    }
    let mut out = String::new();
    for (path, cycles) in stacks {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&cycles.to_string());
        out.push('\n');
    }
    out
}

/// Renders a span snapshot as Chrome `trace_event` JSON (complete `X`
/// events, an instant with `dur` 0; 1 simulated cycle = 1 µs), loadable
/// in `about:tracing` or Perfetto. Span ids and parents ride along in
/// `args`, with the span's attributes beside them as an `attrs` object
/// (as in the dump; a `request`'s `id` attribute is not its span id).
pub fn chrome_trace(snap: &SpanTraceSnapshot) -> Json {
    let event = |s: &SpanRecord| {
        let mut args = vec![
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
        ];
        args.extend(s.attrs_json().map(|attrs| ("attrs", attrs)));
        Json::obj(vec![
            ("name", Json::Str(s.name.clone())),
            ("ph", Json::Str("X".to_string())),
            ("ts", Json::Num(s.start_cycle as f64)),
            ("dur", Json::Num(s.duration() as f64)),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(0.0)),
            ("args", Json::obj(args)),
        ])
    };
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ns".to_string())),
        (
            "traceEvents",
            Json::Arr(snap.spans.iter().map(event).collect()),
        ),
    ])
}

/// Writes a JSON document to `path` in pretty form. `.csv` paths are
/// not special-cased here; callers pick the representation.
pub fn write_json(path: &Path, doc: &Json) -> io::Result<()> {
    std::fs::write(path, doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTrace;

    #[test]
    fn csv_quotes_special_cells() {
        let rows = vec![
            vec!["a".into(), "b,c".into()],
            vec!["say \"hi\"".into(), "plain".into()],
        ];
        assert_eq!(to_csv(&rows), "a,\"b,c\"\n\"say \"\"hi\"\"\",plain\n");
    }

    fn sample_spans() -> SpanTraceSnapshot {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let req = t.record(0, "request", 0, 100, &[("id", 1), ("group", 4)]);
        t.record(req, "queue", 0, 30, &[]);
        let d = t.record(req, "dispatch", 30, 95, &[]);
        t.record(d, "plan_shift", 30, 70, &[("distance", 3), ("parts", 1)]);
        // Second request hitting the same stack shapes.
        let req2 = t.record(0, "request", 100, 140, &[("id", 2), ("group", 4)]);
        t.record(req2, "queue", 100, 110, &[]);
        // A back-pressure instant: no self cycles, so no folded line.
        t.record(0, "backpressure", 105, 105, &[("group", 4)]);
        t.snapshot()
    }

    #[test]
    fn folded_stacks_aggregate_self_cycles_by_path() {
        let folded = folded_stacks(&sample_spans());
        let lines: Vec<&str> = folded.lines().collect();
        // Sorted by path; "request" self = (100-30-65) + (40-10).
        assert_eq!(
            lines,
            vec![
                "request 35",
                "request;dispatch 25",
                "request;dispatch;plan_shift 40",
                "request;queue 40",
            ]
        );
    }

    #[test]
    fn folded_stacks_omit_zero_frames() {
        let t = SpanTrace::new();
        t.set_enabled(true);
        let a = t.record(0, "outer", 0, 10, &[]);
        t.record(a, "inner", 0, 10, &[]); // covers outer fully
        let folded = folded_stacks(&t.snapshot());
        assert_eq!(folded, "outer;inner 10\n");
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let doc = chrome_trace(&sample_spans());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 7);
        let first = &events[0];
        assert_eq!(first.get("name").unwrap().as_str(), Some("request"));
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(first.get("dur").unwrap().as_u64(), Some(100));
        let args = first.get("args").unwrap();
        assert_eq!(args.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        let attr = |e: &Json, key: &str| e.get("args")?.get("attrs")?.get(key)?.as_u64();
        assert_eq!(attr(first, "id"), Some(1));
        assert_eq!(attr(first, "group"), Some(4));
        assert!(events[1].get("args").unwrap().get("attrs").is_none());
        // The instant is an `X` event of zero duration.
        let instant = &events[6];
        assert_eq!(instant.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(instant.get("dur").unwrap().as_u64(), Some(0));
        assert_eq!(attr(instant, "group"), Some(4));
        // Parseable by our own JSON reader (and thus well-formed).
        assert!(Json::parse(&doc.pretty()).is_ok());
    }
}
