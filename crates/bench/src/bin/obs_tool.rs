//! Observability tooling: render span dumps and gate benchmark
//! documents against their baselines.
//!
//! ```text
//! obs-tool flame events.json --out profile.folded
//! obs-tool chrome events.json --out trace.json
//! obs-tool compare BENCH_old.json BENCH_new.json --max-regress 5%
//! ```
//!
//! `flame` renders the span trace of an `--events` dump as folded
//! stacks — one `path value` line per call path, ready for any
//! flamegraph renderer; instants have no self time, so they print no
//! line. `chrome` renders the same spans as a Chrome `trace_event`
//! document for `chrome://tracing` / Perfetto. Both read only a
//! `"schema_version": 2` dump and exit 2 on anything else.
//!
//! `compare` diffs two stamped `BENCH_*.json` artefacts row by row:
//! rows pair up by their string-field identity, and every numeric
//! model field is checked against the baseline (wall-clock and memory
//! measurements are skipped — they are noise, not model output). A
//! whole-number field (a count, a cycle total, a byte size) must equal
//! the baseline exactly; a fractional one may move by at most the
//! `--max-regress` fraction of the baseline, in either direction.
//! Exit codes: 0 ok, 1 drift (or baseline rows missing), 2
//! usage/schema errors — mismatched `schema` or `schema_version`
//! fields refuse to compare.

use rtm_obs::export::{chrome_trace, folded_stacks};
use rtm_obs::json::Json;
use rtm_obs::span::{SpanTraceSnapshot, TRACE_SCHEMA_VERSION};

fn usage() -> ! {
    eprintln!(
        "usage:\n  obs-tool flame <events.json> [--out <file>]\n  \
         obs-tool chrome <events.json> [--out <file>]\n  \
         obs-tool compare <old.json> <new.json> [--max-regress <pct>[%]]"
    );
    std::process::exit(2);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

/// Decodes an `--events` dump; exits 2 unless it is a well-formed
/// dump of the current schema version.
fn load_spans(path: &str) -> SpanTraceSnapshot {
    SpanTraceSnapshot::from_json(&read_json(path)).unwrap_or_else(|| {
        eprintln!(
            "error: {path}: expected a \"schema_version\": {TRACE_SCHEMA_VERSION} \
             span trace dump (no span may be its own parent)"
        );
        std::process::exit(2);
    })
}

fn emit(out: Option<&str>, content: &str) {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{content}"),
    }
}

/// Parses `5`, `5%` or `2.5%` as a fraction (percent either way).
fn parse_pct(v: &str) -> Option<f64> {
    let v = v.strip_suffix('%').unwrap_or(v);
    let pct: f64 = v.parse().ok()?;
    (pct >= 0.0).then_some(pct / 100.0)
}

/// A row's identity: every string field, in document order. Rows pair
/// up across the two artefacts when these match exactly.
fn row_identity(row: &Json) -> Vec<(String, String)> {
    match row {
        Json::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Str(s) => Some((k.clone(), s.clone())),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn identity_label(id: &[(String, String)]) -> String {
    id.iter()
        .map(|(_, v)| v.as_str())
        .collect::<Vec<_>>()
        .join("/")
}

/// Wall-clock and host-memory measurements vary run to run; only model
/// output gates.
fn is_measurement(field: &str) -> bool {
    field == "wall_ms"
        || field == "rerun_wall_ms"
        || field.starts_with("secs_")
        || field.starts_with("speedup")
        || field.starts_with("peak_rss")
        || field == "throughput_req_per_sec"
}

fn compare(old_path: &str, new_path: &str, max_regress: f64) -> i32 {
    let old = read_json(old_path);
    let new = read_json(new_path);
    for key in ["schema", "schema_version"] {
        let (a, b) = (old.get(key), new.get(key));
        if a != b {
            let show =
                |j: Option<&Json>| j.map_or("<missing>".to_string(), |j| j.pretty().trim().into());
            eprintln!(
                "error: {key} mismatch: {} vs {} — refusing to compare",
                show(a),
                show(b)
            );
            std::process::exit(2);
        }
    }
    let rows_of = |doc: &Json, path: &str| -> Vec<Json> {
        doc.get("rows")
            .or_else(|| doc.get("benches"))
            .and_then(|r| match r {
                Json::Arr(rows) => Some(rows.clone()),
                _ => None,
            })
            .unwrap_or_else(|| {
                eprintln!("error: {path}: no \"rows\" or \"benches\" array");
                std::process::exit(2);
            })
    };
    let old_rows = rows_of(&old, old_path);
    let new_rows = rows_of(&new, new_path);

    let mut failures = 0usize;
    let mut checked = 0usize;
    for old_row in &old_rows {
        let id = row_identity(old_row);
        let label = identity_label(&id);
        let Some(new_row) = new_rows.iter().find(|r| row_identity(r) == id) else {
            eprintln!("MISSING  {label}: row absent from {new_path}");
            failures += 1;
            continue;
        };
        let Json::Obj(pairs) = old_row else { continue };
        for (field, old_val) in pairs {
            let Json::Num(old_num) = old_val else {
                continue;
            };
            if is_measurement(field) {
                continue;
            }
            let Some(new_num) = new_row.get(field).and_then(Json::as_f64) else {
                eprintln!("MISSING  {label}.{field}: field absent from {new_path}");
                failures += 1;
                continue;
            };
            checked += 1;
            // Simulated counts are deterministic, so any move is drift;
            // a fractional field may move within the tolerance.
            if old_num.fract() == 0.0 {
                if new_num != *old_num {
                    eprintln!(
                        "DRIFT    {label}.{field}: {old_num} -> {new_num} (counts match exactly)"
                    );
                    failures += 1;
                }
                continue;
            }
            let moved = (new_num - old_num) / old_num.abs();
            if moved.abs() > max_regress {
                eprintln!(
                    "DRIFT    {label}.{field}: {old_num} -> {new_num} \
                     ({:+.2}%, limit ±{:.2}%)",
                    moved * 100.0,
                    max_regress * 100.0
                );
                failures += 1;
            }
        }
    }
    for new_row in &new_rows {
        let id = row_identity(new_row);
        if !old_rows.iter().any(|r| row_identity(r) == id) {
            eprintln!(
                "NEW      {}: no baseline row (informational)",
                identity_label(&id)
            );
        }
    }
    if failures > 0 {
        eprintln!(
            "FAIL: {failures} drift(s) across {} baseline row(s)",
            old_rows.len()
        );
        1
    } else {
        eprintln!(
            "OK: {checked} field(s) across {} row(s): counts exact, fractions within ±{:.2}%",
            old_rows.len(),
            max_regress * 100.0
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("flame") | Some("chrome") if args.len() >= 2 => {
            let mut out = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--out" if i + 1 < args.len() => {
                        out = Some(args[i + 1].as_str());
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            let spans = load_spans(&args[1]);
            if args[0] == "flame" {
                emit(out, &folded_stacks(&spans));
            } else {
                let mut text = chrome_trace(&spans).pretty();
                text.push('\n');
                emit(out, &text);
            }
        }
        Some("compare") if args.len() >= 3 => {
            let mut max_regress = 0.05;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--max-regress" if i + 1 < args.len() => {
                        max_regress = parse_pct(&args[i + 1]).unwrap_or_else(|| {
                            eprintln!("error: --max-regress: bad percentage {}", args[i + 1]);
                            std::process::exit(2);
                        });
                        i += 2;
                    }
                    _ => usage(),
                }
            }
            std::process::exit(compare(&args[1], &args[2], max_regress));
        }
        _ => usage(),
    }
}
