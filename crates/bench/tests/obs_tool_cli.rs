//! Command-line contract of `obs-tool flame|chrome`: they render only a
//! `"schema_version": 2` span trace dump, and refuse anything else with
//! exit 2, a message on stderr and nothing on stdout.

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
