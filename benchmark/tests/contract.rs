//! `BENCHMARK.json` and the binary agree: every declared workload runs,
//! every declared metric is emitted with its declared unit, and a
//! `--quick` run of each workload passes all of its correctness checks.

use std::process::Command;

use rtm_obs::json::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}: {entry}"))
}

/// The last stdout line of a `--quick` run.
fn quick_result(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--workload", workload, "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

#[test]
fn manifest_bounds_follow_the_contract() {
    let doc = manifest();
    let bound = |e: &Json| e.get("bound").and_then(Json::as_f64).expect("bound");
    let e2e = list(&doc, "end_to_end");
    let setup = e2e
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(field(setup, "unit"), "s");
    assert_eq!(field(setup, "better"), "lower");
    for e in e2e {
        assert!((0.0..=0.25).contains(&bound(e)), "{e}");
        assert!(bound(e) <= bound(setup), "setup_s has the largest bound");
    }
}

#[test]
fn quick_runs_emit_every_declared_metric_and_pass_their_checks() {
    let doc = manifest();
    for w in list(&doc, "workloads") {
        let name = field(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = quick_result(name, trace);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{name}: {r}");
            assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{name}");
            assert!(
                r.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{name}"
            );
            let Some(Json::Obj(metrics)) = r.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let declared = list(&doc, key);
            assert_eq!(metrics.len(), declared.len(), "{name} --trace {trace}");
            for d in declared {
                let metric = field(d, "name");
                let got = r
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .unwrap_or_else(|| panic!("{name} does not emit {metric}"));
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(field(d, "unit"))
                );
                let value = got.get("value").and_then(Json::as_f64).expect("value");
                assert!(value.is_finite(), "{name} {metric} = {value}");
            }
        }
    }
}
