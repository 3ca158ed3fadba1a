//! End-to-end check that the `repro` binary writes well-formed rtm-obs
//! artefacts — a metrics registry snapshot, a labeled-metric snapshot
//! and the span trace — and that the single-threaded metric dumps and
//! the trace's totals and folded stacks match golden values.

use rtm_obs::export::folded_stacks;
use rtm_obs::json::Json;
use rtm_obs::metrics::RegistrySnapshot;
use rtm_obs::span::SpanTraceSnapshot;
use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a digest of the fig14 `--metrics` dump below.
const FIG14_METRICS_DIGEST: u64 = 0x4812_8f31_f67b_31ad;
/// FNV-1a digest of the front-door `--metrics` dump below.
const FRONT_METRICS_DIGEST: u64 = 0x0ca9_9313_8b1e_19ff;
/// FNV-1a digest of the front-door `--labels` dump below.
const FRONT_LABELS_DIGEST: u64 = 0x9d14_daf9_a6c7_b3c7;
/// Span ids handed out by the fig14 run below.
const FIG14_TRACE_TOTAL: u64 = 397_695;
/// Spans the fig14 run's ring evicted.
const FIG14_TRACE_DROPPED: u64 = 393_599;
/// FNV-1a digest of the folded stacks of the fig14 run's trace.
const FIG14_FOLDED_DIGEST: u64 = 0xf027_3815_8670_8cee;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtm-obs-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn repro(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn digest_of(path: &Path) -> u64 {
    fnv1a(&std::fs::read(path).expect("dump written"))
}

#[test]
fn repro_fig14_writes_metrics_and_events() {
    let dir = temp_dir("fig14");
    let metrics_path = dir.join("m.json");
    let events_path = dir.join("e.json");
    repro(&[
        "--exp",
        "fig14",
        "--quick",
        // Short traces keep the debug-build test fast; the sweep
        // still exercises every workload and variant.
        "--accesses",
        "2000",
        "--threads",
        "1",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--events",
        events_path.to_str().unwrap(),
    ]);

    let text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert!(!text.trim().is_empty(), "metrics file is empty");
    let doc = Json::parse(&text).expect("metrics JSON parses");
    let snap = RegistrySnapshot::from_json(&doc).expect("snapshot decodes");
    assert!(snap.counter("shift.count").expect("shift.count") > 0);
    assert!(
        snap.counter("shift.split.count")
            .expect("shift.split.count")
            > 0
    );
    let h = snap
        .histogram("shift.latency_cycles")
        .expect("latency histogram");
    assert!(h.count > 0);
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
    assert!(h.p99 <= h.max);
    assert_eq!(digest_of(&metrics_path), FIG14_METRICS_DIGEST);

    let text = std::fs::read_to_string(&events_path).expect("events file written");
    let doc = Json::parse(&text).expect("events JSON parses");
    let spans = SpanTraceSnapshot::from_json(&doc).expect("trace decodes");
    let count = |name: &str| spans.spans.iter().filter(|s| s.name == name).count();
    assert!(count("plan_shift") >= 1);
    assert!(count("pecc_verify") >= 1);
    for plan in spans.spans.iter().filter(|s| s.name == "plan_shift") {
        assert!(plan.attr("distance").is_some() && plan.attr("parts").is_some());
    }
    assert!(
        spans.spans.windows(2).all(|w| w[0].id < w[1].id),
        "the sweep's spans must be ordered by id"
    );
    assert_eq!(spans.total, FIG14_TRACE_TOTAL);
    assert_eq!(spans.dropped, FIG14_TRACE_DROPPED);
    assert_eq!(fnv1a(folded_stacks(&spans).as_bytes()), FIG14_FOLDED_DIGEST);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_front_door_dumps_match_golden_digests() {
    let dir = temp_dir("front");
    let metrics_path = dir.join("m.json");
    let labels_path = dir.join("l.json");
    repro(&[
        "--exp",
        "serve",
        "--tenants",
        "500",
        "--quick",
        "--threads",
        "1",
        "--metrics",
        metrics_path.to_str().unwrap(),
        "--labels",
        labels_path.to_str().unwrap(),
    ]);

    // Every labeled entry is a front-door cell: 3 policies x 3 classes
    // x 5 per-class metrics plus one fairness gauge per policy.
    let text = std::fs::read_to_string(&labels_path).expect("labels file written");
    let doc = Json::parse(&text).expect("labels JSON parses");
    let entries = doc.as_arr().expect("labels dump is an array");
    assert_eq!(entries.len(), 48);
    assert!(entries.iter().all(|e| e
        .get("name")
        .and_then(Json::as_str)
        .is_some_and(|n| n.starts_with("front."))));

    assert_eq!(digest_of(&metrics_path), FRONT_METRICS_DIGEST);
    assert_eq!(digest_of(&labels_path), FRONT_LABELS_DIGEST);

    std::fs::remove_dir_all(&dir).ok();
}
