//! Metric names, units and one workload's measured report.

use crate::stats::{median, quartiles};
use rtm_obs::json::Json;

/// A metric the benchmark emits: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics (host time and memory), emitted by every untraced
/// run of every workload.
pub const END_TO_END: [MetricDef; 3] = [
    m("ops_per_s", "ops/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every traced run. A layer the workload
/// does not execute reports 0.
pub const PER_LAYER: [MetricDef; 42] = [
    m("trace.gen_ns_per_access", "ns"),
    m("mem.hier_self_ns_per_access", "ns"),
    m("mem.l1_miss_ratio", "ratio"),
    m("mem.l2_miss_ratio", "ratio"),
    m("llc.calls", "count"),
    m("llc.ns_per_call", "ns"),
    m("llc.self_ns_per_call", "ns"),
    m("llc.hit_ratio", "ratio"),
    m("llc.zero_shift_ratio", "ratio"),
    m("cache.ns_per_access", "ns"),
    m("ctl.plans", "count"),
    m("ctl.ns_per_plan", "ns"),
    m("ctl.subshifts_per_plan", "count"),
    m("ctl.shift_cycles", "cycles"),
    m("fault.samples", "count"),
    m("fault.ns_per_sample", "ns"),
    m("fault.error_ratio", "ratio"),
    m("serve.source_ns_per_req", "ns"),
    m("serve.llc_ns_per_req", "ns"),
    m("serve.self_ns_per_req", "ns"),
    m("serve.peak_queued", "count"),
    m("serve.backpressure_stalls", "count"),
    m("serve.queue_delay_p99_cycles", "cycles"),
    m("lane.ops_per_s", "ops/s"),
    m("lane.oracle_ops_per_s", "ops/s"),
    m("lane.parallel_efficiency", "ratio"),
    m("lane.fused_ratio", "ratio"),
    m("front.arrivals_ns_per_req", "ns"),
    m("front.admit_ns_per_req", "ns"),
    m("front.serve_self_ns_per_req", "ns"),
    m("front.shed_ratio", "ratio"),
    m("front.peak_in_flight", "count"),
    m("stripe.read_ns", "ns"),
    m("stripe.write_ns", "ns"),
    m("stripe.fault_ns_per_sample", "ns"),
    m("stripe.self_ns_per_access", "ns"),
    m("stripe.shift_steps", "count"),
    m("stripe.dues", "count"),
    m("stripe.materialised_groups", "count"),
    m("obs.registry_overhead_ratio", "ratio"),
    m("par.sweep_speedup", "ratio"),
    m("traced.overhead_ratio", "ratio"),
];

/// The unit of a known metric.
///
/// # Panics
///
/// Panics on a name outside [`END_TO_END`] and [`PER_LAYER`] (a bug in
/// a workload).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unregistered metric {name}"))
        .unit
}

/// Correctness checks: each is counted; failures are named on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Names of the checks that failed.
    pub failed: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("CHECK FAILED: {name}");
            self.failed.push(name.to_string());
        }
    }
}

/// One measured metric; when `value` is a statistic of per-rep values,
/// `stat` names it and `samples` holds them.
#[derive(Debug, Clone)]
struct Row {
    name: &'static str,
    value: f64,
    stat: &'static str,
    samples: Vec<f64>,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the workload's inputs were derived from.
    pub seed: u64,
    rows: Vec<Row>,
    /// Correctness checks.
    pub checks: Checks,
    /// Digest of the model outputs (identical for identical simulated
    /// results).
    pub digest: u64,
    /// Named model outputs printed beside the digest.
    pub model: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            rows: Vec::new(),
            checks: Checks::default(),
            digest: 0,
            model: Vec::new(),
        }
    }

    /// Records a single measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_stat(name, "", value, Vec::new());
    }

    /// Records `value`, the statistic `stat` of per-rep `samples`.
    pub fn set_stat(
        &mut self,
        name: &'static str,
        stat: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) {
        unit_of(name);
        self.rows.push(Row {
            name,
            value,
            stat,
            samples,
        });
    }

    /// Records the median of per-rep samples.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set_stat(name, "median", median(&samples), samples);
    }

    /// The value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Human-readable rows: every recorded metric with its unit (and
    /// min/max/quartiles/n for medians), the checks and the digest.
    pub fn render(&self) -> String {
        let mut out = format!("{}  seed {}\n", self.workload, self.seed);
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<30} {:>14} {:<6}",
                r.name,
                sig(r.value),
                unit_of(r.name)
            ));
            if !r.samples.is_empty() {
                let (q1, q3) = quartiles(&r.samples);
                let lo = r.samples.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = r.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                out.push_str(&format!(
                    " {} of n={} (min {}, max {}, q1 {}, q3 {})",
                    r.stat,
                    r.samples.len(),
                    sig(lo),
                    sig(hi),
                    sig(q1),
                    sig(q3)
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  {:<30} {:>14} of {}\n",
            "failed_checks",
            self.checks.failed.len(),
            self.checks.attempted
        ));
        let model: Vec<String> = self
            .model
            .iter()
            .map(|(k, v)| format!("{k}={}", sig(*v)))
            .collect();
        out.push_str(&format!(
            "  {:<30} {:>14x} {}\n",
            "model_digest",
            self.digest,
            model.join(" ")
        ));
        out
    }

    /// The detail object: every recorded metric with its unit (and, for
    /// a statistic of reps, its name and the samples), the checks, and
    /// the model digest.
    pub fn detail(&self) -> Json {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(r.value)),
                    ("unit".to_string(), Json::Str(unit_of(r.name).to_string())),
                ];
                if !r.samples.is_empty() {
                    fields.push(("stat".to_string(), Json::Str(r.stat.to_string())));
                    fields.push((
                        "samples".to_string(),
                        Json::Arr(r.samples.iter().map(|&s| Json::Num(s)).collect()),
                    ));
                }
                (r.name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::Str(self.seed.to_string())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            (
                "failed_checks",
                Json::Arr(self.checks.failed.iter().cloned().map(Json::Str).collect()),
            ),
            ("model_digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "model",
                Json::Obj(
                    self.model
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The result object of the benchmark contract: `correct`,
    /// `attempted`, `failed` and either every end-to-end metric
    /// (`traced == false`) or every per-layer metric, unused layers as 0.
    ///
    /// # Panics
    ///
    /// Panics if an untraced report lacks an end-to-end metric.
    pub fn result(&self, traced: bool) -> Json {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics = defs
            .iter()
            .map(|d| {
                let value = match self.value(d.name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => panic!("{}: end-to-end metric {} missing", self.workload, d.name),
                };
                (
                    d.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.checks.failed.is_empty())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed.len() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Six significant digits, plain notation where that stays short.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs().log10().floor() as i32;
    if (-4..9).contains(&mag) {
        format!("{:.*}", (5 - mag).max(0) as usize, v)
    } else {
        format!("{v:.5e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.unit);
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn workload_names_are_valid() {
        for w in crate::workloads::NAMES {
            assert!(valid_name(w), "{w}");
        }
    }

    #[test]
    fn traced_result_fills_unused_layers_with_zero() {
        let mut r = Report::new("w", 1);
        r.set("llc.calls", 3.0);
        let j = r.result(true);
        let metrics = j.get("metrics").unwrap();
        let calls = metrics.get("llc.calls").unwrap();
        assert_eq!(calls.get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(calls.get("unit").unwrap().as_str(), Some("count"));
        let unused = metrics.get("stripe.dues").unwrap();
        assert_eq!(unused.get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn failed_checks_flip_correct() {
        let mut r = Report::new("w", 1);
        r.set_median("ops_per_s", vec![1.0, 3.0, 2.0]);
        r.set("setup_s", 0.5);
        r.set("peak_rss_mb", 10.0);
        r.checks.check("ok", true);
        r.checks.check("broken", false);
        let j = r.result(false);
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("attempted").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("failed").unwrap().as_u64(), Some(1));
        let ops = j.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn sig_keeps_six_digits() {
        assert_eq!(sig(1234.56789), "1234.57");
        assert_eq!(sig(0.0123456789), "0.0123457");
        assert_eq!(sig(3.2e10), "3.20000e10");
    }
}
