//! Command-line contract of the `bench` harness: usage errors exit 2
//! and write nothing, and a passing suite writes a stamped document.

use rtm_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory per case, so a stray default
/// `BENCH_<suite>.json` write would show up too.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtm-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench spawns")
}

/// `(engine, experiment)` of every row of a `benches` array.
fn row_ids(doc: &Json) -> Vec<(String, String)> {
    let Some(Json::Arr(rows)) = doc.get("benches") else {
        panic!("no benches array");
    };
    rows.iter()
        .map(|r| {
            let field = |k| match r.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("row field {k}: {other:?}"),
            };
            (field("engine"), field("experiment"))
        })
        .collect()
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let cases: [(&str, &[&str]); 8] = [
        ("no-suite", &[]),
        ("unknown-suite", &["nope", "--out", "out.json"]),
        ("check", &["engine", "--out", "out.json", "--check"]),
        (
            "min-speedup",
            &["serve", "--out", "out.json", "--min-speedup", "2.5"],
        ),
        (
            "max-rss-mb",
            &["scale", "--out", "out.json", "--max-rss-mb", "2048"],
        ),
        (
            "model-out",
            &["engine", "--out", "out.json", "--model-out", "x"],
        ),
        (
            "threads-0",
            &["engine", "--out", "out.json", "--threads", "0"],
        ),
        ("out-no-value", &["engine", "--quick", "--out"]),
    ];
    for (tag, args) in cases {
        let dir = empty_dir(tag);
        let out = bench(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(stderr.contains("error:"), "{tag}: {stderr}");
        let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
        assert!(left.is_empty(), "{tag}: wrote {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn engine_quick_writes_a_stamped_document() {
    let dir = empty_dir("engine");
    let out = bench(&dir, &["engine", "--quick", "--out", "engine.json"]);
    assert!(
        out.status.success(),
        "bench engine failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("engine.json")).expect("document written");
    let doc = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str("rtm-bench-engine/v1".into()))
    );
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
    assert!(matches!(doc.get("git_commit"), Some(Json::Str(s)) if !s.is_empty()));

    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let baseline = Json::parse(&std::fs::read_to_string(baseline).expect("committed baseline"))
        .expect("valid baseline");
    assert_eq!(row_ids(&doc), row_ids(&baseline));
    assert_eq!(row_ids(&doc).len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}
