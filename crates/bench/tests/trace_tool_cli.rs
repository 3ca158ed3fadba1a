//! Command-line contract of `trace-tool`: an optional count or seed that
//! is present but malformed is a usage error (exit 2), never a silent
//! default; an absent one keeps its default.

use std::path::PathBuf;
use std::process::{Command, Output};

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(args)
        .output()
        .expect("trace-tool spawns")
}

#[test]
fn malformed_optional_arguments_exit_2() {
    let dir = std::env::temp_dir().join(format!("rtm-trace-tool-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file: PathBuf = dir.join("t.rtmt");
    let path = file.to_str().expect("utf-8 temp path");

    let bad_seed = trace_tool(&["record", "canneal", "300", path, "notaseed"]);
    assert_eq!(bad_seed.status.code(), Some(2));
    assert!(!file.exists(), "a rejected record writes nothing");

    let ok = trace_tool(&["record", "canneal", "300", path]);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("(seed 2015)"));

    assert_eq!(
        trace_tool(&["serve", path, "fcfs", "abc"]).status.code(),
        Some(2)
    );
    let served = trace_tool(&["serve", path, "fcfs", "100"]);
    assert!(served.status.success());
    assert!(String::from_utf8_lossy(&served.stdout).contains("requests:      100"));
    let whole = trace_tool(&["serve", path, "fcfs"]);
    assert!(String::from_utf8_lossy(&whole.stdout).contains("requests:      300"));
    let _ = std::fs::remove_dir_all(&dir);
}
