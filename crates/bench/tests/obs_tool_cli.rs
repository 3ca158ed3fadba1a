//! Command-line contract of `obs-tool`: `flame|chrome` render only a
//! `"schema_version": 2` span trace dump, and refuse anything else with
//! exit 2, a message on stderr and nothing on stdout; `compare` holds a
//! document's whole-number model fields to the baseline exactly and its
//! fractional ones within `--max-regress` either way (exit 1 on drift),
//! and refuses documents of another schema (exit 2).

use std::path::PathBuf;
use std::process::Output;

fn obs_tool(tag: &str, dump: &str, command: &str) -> Output {
    let path = std::env::temp_dir().join(format!("rtm-obs-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, dump).expect("dump written");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs-tool"))
        .arg(command)
        .arg(&path)
        .output()
        .expect("obs-tool spawns");
    let _ = std::fs::remove_file(PathBuf::from(&path));
    out
}

#[test]
fn flame_and_chrome_refuse_unreadable_dumps() {
    let cases = [
        // A dump from before the one trace: no stamp, with the spans
        // nested in an events document.
        (
            "unstamped",
            r#"{"total": 1, "dropped": 0, "events": [],
                "spans": {"total": 1, "dropped": 0,
                          "spans": [{"id": 1, "parent": 0, "name": "x", "start": 0, "end": 5}]}}"#,
        ),
        (
            "version-1",
            r#"{"schema_version": 1, "total": 1, "dropped": 0,
                "spans": [{"id": 1, "parent": 0, "name": "x", "start": 0, "end": 5}]}"#,
        ),
        // A span that is its own parent would be its own child.
        (
            "self-parent",
            r#"{"schema_version": 2, "total": 1, "dropped": 0,
                "spans": [{"id": 1, "parent": 1, "name": "x", "start": 0, "end": 5}]}"#,
        ),
    ];
    for (tag, dump) in cases {
        for command in ["flame", "chrome"] {
            let out = obs_tool(tag, dump, command);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{tag} {command}: {stderr}");
            assert!(
                stderr.contains("error:") && stderr.contains("schema_version"),
                "{tag} {command}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{tag} {command} printed output");
        }
    }
}

#[test]
fn flame_renders_a_version_2_dump() {
    let dump = r#"{"schema_version": 2, "total": 3, "dropped": 0, "spans": [
        {"id": 1, "parent": 0, "name": "plan_shift", "start": 0, "end": 5,
         "attrs": {"distance": 2, "parts": 1}},
        {"id": 2, "parent": 1, "name": "sts_pulse", "start": 0, "end": 4,
         "attrs": {"distance": 2}},
        {"id": 3, "parent": 0, "name": "backpressure", "start": 9, "end": 9,
         "attrs": {"group": 4}}]}"#;
    let out = obs_tool("ok", dump, "flame");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "plan_shift 1\nplan_shift;sts_pulse 4\n"
    );
}

/// `obs-tool compare old new --max-regress 5%` on two documents.
fn compare(tag: &str, old: &str, new: &str) -> Output {
    let path = |side: &str| {
        std::env::temp_dir().join(format!(
            "rtm-obs-cli-compare-{tag}-{side}-{}.json",
            std::process::id()
        ))
    };
    let (old_path, new_path) = (path("old"), path("new"));
    std::fs::write(&old_path, old).expect("baseline written");
    std::fs::write(&new_path, new).expect("document written");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs-tool"))
        .arg("compare")
        .arg(&old_path)
        .arg(&new_path)
        .args(["--max-regress", "5%"])
        .output()
        .expect("obs-tool spawns");
    let _ = std::fs::remove_file(old_path);
    let _ = std::fs::remove_file(new_path);
    out
}

/// A one-row bench document: a count, two fractional model fields and a
/// wall time.
fn bench_doc(schema: &str, cycles: u64, ratio: f64, throughput: f64, wall_ms: f64) -> String {
    format!(
        r#"{{"schema": "{schema}", "schema_version": 1, "rows": [
            {{"workload": "canneal", "cycles": {cycles}, "fairness_ratio": {ratio},
              "throughput_req_per_kcycle": {throughput}, "wall_ms": {wall_ms}}}]}}"#
    )
}

#[test]
fn compare_holds_counts_exactly_and_fractions_within_tolerance() {
    let doc = |cycles, ratio, throughput, wall_ms| {
        bench_doc("rtm-bench-test/v1", cycles, ratio, throughput, wall_ms)
    };
    let base = doc(1000, 1.25, 2.5, 10.0);
    let cases = [
        ("identical", doc(1000, 1.25, 2.5, 10.0), 0),
        // Wall time is a measurement, not model output.
        ("wall-time", doc(1000, 1.25, 2.5, 99.0), 0),
        ("count-up", doc(1001, 1.25, 2.5, 10.0), 1),
        ("count-down", doc(999, 1.25, 2.5, 10.0), 1),
        // +4 % and -4 %: inside the 5 % tolerance either way.
        ("fraction-up", doc(1000, 1.3, 2.5, 10.0), 0),
        ("fraction-down", doc(1000, 1.2, 2.5, 10.0), 0),
        // -5.6 %: a drop is drift too, not only a rise.
        ("fraction-drop", doc(1000, 1.18, 2.5, 10.0), 1),
        // +10 % throughput: no field counts as higher-is-better.
        ("throughput-rise", doc(1000, 1.25, 2.75, 10.0), 1),
    ];
    for (tag, new, code) in cases {
        let out = compare(tag, &base, &new);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{tag}: {stderr}");
        assert_eq!(stderr.contains("DRIFT"), code == 1, "{tag}: {stderr}");
    }
}

#[test]
fn compare_refuses_another_schema() {
    let old = bench_doc("rtm-bench-test/v1", 1000, 1.25, 2.5, 10.0);
    let new = bench_doc("rtm-bench-other/v1", 1000, 1.25, 2.5, 10.0);
    let out = compare("schema", &old, &new);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("schema mismatch"), "{stderr}");
}
