//! The error-aware shift controller (the paper's Fig. 9) in its
//! statistical form: planning, latency accounting and residual-risk
//! bookkeeping for the architecture simulator.
//!
//! Four policies mirror the paper's evaluated configurations:
//!
//! | policy | paper label | behaviour |
//! |---|---|---|
//! | [`ShiftPolicy::Unconstrained`] | baseline / plain p-ECC | one shift per request, any distance |
//! | [`ShiftPolicy::StepByStep`] | p-ECC-O | 1-step shift-and-write operations only |
//! | [`ShiftPolicy::FixedSafe`] | p-ECC-S worst | static safe distance from the worst-case access rate |
//! | [`ShiftPolicy::Adaptive`] | p-ECC-S adaptive | run-time interval counter indexes the Table 3(b) thresholds |

use crate::safety::SafetyBudget;
use crate::sequence::{SequenceTable, PECC_CHECK_CYCLES};
use rtm_model::rates::MAX_TABULATED_DISTANCE;
use rtm_model::sts::StsTiming;
use rtm_obs::metrics::{IntHistogram, RunCounts, DEFAULT_BUCKETS};
use rtm_pecc::code::Verdict;
use rtm_pecc::layout::ProtectionKind;
use rtm_util::units::Cycles;

/// Bucket bounds of the `shift.distance` histogram.
const DISTANCE_BUCKETS: [f64; 11] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 16.0, 32.0, 64.0];

/// How the controller bounds shift distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftPolicy {
    /// No distance constraint: each request is one shift operation.
    Unconstrained,
    /// Every request is served with 1-step shift-and-write operations
    /// (the p-ECC-O discipline).
    StepByStep,
    /// A static safe distance computed for `worst_intensity` shift
    /// operations per second ("p-ECC-S worst").
    FixedSafe {
        /// The worst-case (peak) shift intensity the memory supports.
        worst_intensity_hz: u64,
    },
    /// Run-time adaptive safe distance from the inter-shift interval
    /// ("p-ECC-S adaptive").
    Adaptive,
}

impl ShiftPolicy {
    /// The paper's "p-ECC-S worst" preset: the static safe distance of a
    /// 128 MB memory provisioned for up to 83 M accesses/s (Section 5.2).
    pub const WORST_CASE: ShiftPolicy = ShiftPolicy::FixedSafe {
        worst_intensity_hz: 83_000_000,
    };
}

/// A planned shift transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftPlan {
    /// Sub-shift distances (each ≤ the geometry's max shift).
    pub sequence: Vec<u32>,
    /// Total latency: STS stages plus one p-ECC check per sub-shift.
    pub latency: Cycles,
    /// Number of p-ECC checks performed.
    pub checks: u32,
    /// Probability that this transaction raises a DUE (detected
    /// uncorrectable position error).
    pub due_risk: f64,
    /// Probability that this transaction silently corrupts data
    /// (undetected or mis-corrected position error).
    pub sdc_risk: f64,
    /// Expected number of corrective back-shifts (each also costs a
    /// shift + check, folded into expected latency by callers that care;
    /// the paper treats this as negligible for performance).
    pub expected_corrections: f64,
}

impl ShiftPlan {
    /// Total steps moved.
    pub fn distance(&self) -> u32 {
        self.sequence.iter().sum()
    }
}

/// A batched shift command stream: one STS setup, N entries. Produced
/// by [`ShiftController::plan_shift_batch`] when the serving layer
/// coalesces consecutive same-stripe-group requests.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Per-entry plans, in stream order; entries after the first are
    /// continuations (their first sub-shift pays no stage-2 settle).
    pub plans: Vec<ShiftPlan>,
    /// End-to-end latency of the stream.
    pub latency: Cycles,
    /// Total cycles saved versus planning every entry standalone.
    pub saved_cycles: u64,
}

/// Running statistics the controller maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Shift requests served.
    pub requests: u64,
    /// Physical shift operations issued (sub-shifts).
    pub operations: u64,
    /// Total steps moved.
    pub steps: u64,
    /// Total latency spent shifting.
    pub shift_cycles: u64,
    /// p-ECC checks performed.
    pub checks: u64,
    /// Requests served as batch continuations (STS driver already
    /// armed by the preceding request of the same stream).
    pub batched_requests: u64,
    /// Cycles saved by batching: one stage-2 settle per continuation.
    pub batch_saved_cycles: u64,
    /// Accumulated DUE probability (sums to expected DUE count).
    pub expected_dues: f64,
    /// Accumulated SDC probability.
    pub expected_sdcs: f64,
}

/// The position-error-aware shift controller.
#[derive(Debug, Clone)]
pub struct ShiftController {
    kind: ProtectionKind,
    policy: ShiftPolicy,
    timing: StsTiming,
    budget: SafetyBudget,
    table: SequenceTable,
    /// `FixedSafe`'s static safe distance, computed once (1 under the
    /// other policies, which never read it).
    safe_cap: u32,
    /// Every plan the policy can return for a request of up to
    /// `table.max_distance()` steps, costed once at construction:
    /// `plans[d - 1]` holds one plan per Pareto option of
    /// `table.options(d)` under `Adaptive`, and the policy's one
    /// sequence under the others.
    plans: Vec<Vec<ShiftPlan>>,
    /// The plan of the last request longer than the table covers.
    spill: Option<ShiftPlan>,
    stats: ControllerStats,
    /// Cycle timestamp of the previous shift request (for the adapter).
    last_shift_at: Option<u64>,
    /// What the `shift.*` metrics need beyond `stats`, while the
    /// registry is on.
    counts: RunCounts<ShiftCounts>,
}

/// The `shift.*` metrics a controller's requests feed that its
/// [`ControllerStats`] do not hold, counted per request; each request
/// lands once in each histogram.
#[derive(Debug)]
struct ShiftCounts {
    /// `stats` as last published.
    published: ControllerStats,
    splits: u64,
    latency: IntHistogram,
    distance: IntHistogram,
}

impl Default for ShiftCounts {
    fn default() -> Self {
        Self {
            published: ControllerStats::default(),
            splits: 0,
            latency: IntHistogram::new(&DEFAULT_BUCKETS),
            distance: IntHistogram::new(&DISTANCE_BUCKETS),
        }
    }
}

impl ShiftController {
    /// Creates a controller with the paper's timing and rate
    /// calibration for the given protection scheme and policy.
    pub fn new(kind: ProtectionKind, policy: ShiftPolicy) -> Self {
        Self::with_parts(
            kind,
            policy,
            StsTiming::paper(),
            SafetyBudget::new(
                rtm_model::rates::OutOfStepRates::paper_calibration(),
                crate::safety::PAPER_RELIABILITY_TARGET,
                kind.strength(),
            ),
            MAX_TABULATED_DISTANCE,
        )
    }

    /// Fully parameterised constructor.
    pub fn with_parts(
        kind: ProtectionKind,
        policy: ShiftPolicy,
        timing: StsTiming,
        budget: SafetyBudget,
        max_distance: u32,
    ) -> Self {
        let max_part = match kind {
            ProtectionKind::OverheadRegion { .. } => 1,
            _ => max_distance,
        };
        let table = SequenceTable::build(&budget, &timing, max_distance.max(1), max_part.max(1));
        let safe_cap = match policy {
            ShiftPolicy::FixedSafe { worst_intensity_hz } => budget
                .safe_distance_at(worst_intensity_hz as f64)
                .unwrap_or(1),
            _ => 1,
        };
        let mut ctl = Self {
            kind,
            policy,
            timing,
            budget,
            table,
            safe_cap,
            plans: Vec::new(),
            spill: None,
            stats: ControllerStats::default(),
            last_shift_at: None,
            counts: RunCounts::new(),
        };
        ctl.plans = ctl.cost_plans();
        ctl
    }

    /// Costs every plan the policy can return from the table. Each part
    /// distance's risk is classified once and summed per plan in
    /// sequence order, as [`Self::cost_sequence`] sums it, so every plan
    /// is bit-identical to the costing of its sequence.
    fn cost_plans(&self) -> Vec<Vec<ShiftPlan>> {
        let max = self.table.max_distance();
        let risks: Vec<_> = (1..=max).map(|d| self.classify_risk(d)).collect();
        let cost = |sequence: &[u32]| self.cost_with(sequence, |d| risks[d as usize - 1]);
        (1..=max)
            .map(|d| match self.policy {
                ShiftPolicy::Adaptive => self
                    .table
                    .options(d)
                    .iter()
                    .map(|o| cost(&o.sequence))
                    .collect(),
                _ => vec![cost(&self.policy_sequence(d, 0))],
            })
            .collect()
    }

    /// The protection scheme in force.
    pub fn kind(&self) -> ProtectionKind {
        self.kind
    }

    /// The active policy.
    pub fn policy(&self) -> ShiftPolicy {
        self.policy
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Plans a shift of `distance` steps requested at absolute cycle
    /// time `now_cycles`, updates statistics, and returns the plan.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` or exceeds the planning table.
    pub fn plan_shift(&mut self, distance: u32, now_cycles: u64) -> ShiftPlan {
        self.plan_distance(distance, now_cycles, false)
    }

    /// Plans a shift that *continues* a batched command stream: the
    /// directly preceding request on this controller keeps the STS
    /// driver armed, so this transaction's first sub-shift skips the
    /// stage-2 settle ([`StsTiming::setup_cycles`] cheaper than a
    /// standalone [`Self::plan_shift`]). Sequence selection, p-ECC
    /// checks and risk accounting are *identical* to the standalone
    /// plan — batching buys latency, never safety.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` or exceeds the planning table.
    pub fn plan_shift_continuation(&mut self, distance: u32, now_cycles: u64) -> ShiftPlan {
        self.plan_distance(distance, now_cycles, true)
    }

    /// Plans a whole batched shift command stream: the first entry is
    /// a standalone plan (pays the STS setup), every later entry a
    /// continuation, with time advancing by each plan's latency so the
    /// interval adapter sees the true back-to-back spacing.
    ///
    /// # Panics
    ///
    /// Panics if `distances` is empty or any entry is zero.
    pub fn plan_shift_batch(&mut self, distances: &[u32], now_cycles: u64) -> BatchPlan {
        assert!(!distances.is_empty(), "a batch needs at least one shift");
        let mut plans = Vec::with_capacity(distances.len());
        let mut t = now_cycles;
        let mut saved = 0u64;
        for (i, &d) in distances.iter().enumerate() {
            let plan = if i == 0 {
                self.plan_shift(d, t)
            } else {
                saved += self.timing.setup_cycles().count();
                self.plan_shift_continuation(d, t)
            };
            t += plan.latency.count();
            plans.push(plan);
        }
        BatchPlan {
            latency: Cycles(t - now_cycles),
            saved_cycles: saved,
            plans,
        }
    }

    fn plan_distance(&mut self, distance: u32, now_cycles: u64, fused: bool) -> ShiftPlan {
        let (plan, latency) = self.charge_shift(distance, now_cycles, fused);
        ShiftPlan {
            latency,
            ..plan.clone()
        }
    }

    /// Serves a request like [`Self::plan_shift`] (or, when `fused`,
    /// [`Self::plan_shift_continuation`]) and lends the costed plan it
    /// picked together with the latency it charged: the plan's own
    /// latency, less one stage-2 settle when `fused`. The plan is
    /// borrowed from the table costed at construction, so a request
    /// the table covers allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `distance == 0` or exceeds the planning table.
    pub fn charge_shift(
        &mut self,
        distance: u32,
        now_cycles: u64,
        fused: bool,
    ) -> (&ShiftPlan, Cycles) {
        assert!(distance > 0, "zero-distance shifts are no-ops");
        let interval = match self.last_shift_at {
            Some(prev) => now_cycles.saturating_sub(prev),
            // Cold start: the adapter has no interval measurement yet,
            // so it must assume the worst (back-to-back traffic) and
            // use the safest sequence.
            None => 0,
        };
        self.last_shift_at = Some(now_cycles);

        let index = distance as usize - 1;
        if index >= self.plans.len() {
            self.spill = Some(self.cost_sequence(&self.policy_sequence(distance, interval)));
        }
        let plan = match self.plans.get(index) {
            Some(costed) => match self.policy {
                ShiftPolicy::Adaptive => &costed[self.table.select_index(distance, interval)],
                _ => &costed[0],
            },
            None => self.spill.as_ref().expect("costed above"),
        };
        // The armed driver skips one stage-2 settle on the first
        // sub-shift. Checks and risk stay as costed: batching shortens
        // latency, never weakens the safety argument.
        let saved = fused.then(|| self.timing.setup_cycles().count());
        let latency = plan.latency.count() - saved.unwrap_or(0);
        if let Some(saved) = saved {
            self.stats.batched_requests += 1;
            self.stats.batch_saved_cycles += saved;
        }
        self.stats.requests += 1;
        self.stats.operations += plan.sequence.len() as u64;
        self.stats.steps += distance as u64;
        self.stats.shift_cycles += latency;
        self.stats.checks += plan.checks as u64;
        self.stats.expected_dues += plan.due_risk;
        self.stats.expected_sdcs += plan.sdc_risk;
        if let Some(counts) = self.counts.get() {
            counts.splits += u64::from(plan.sequence.len() > 1);
            counts.latency.record(latency);
            counts.distance.record(u64::from(distance));
        }
        if rtm_obs::global().spans().enabled() {
            record_spans(&self.timing, distance, plan, now_cycles, latency, fused);
        }
        (plan, Cycles(latency))
    }

    /// The sub-shift sequence the policy serves a `distance`-step
    /// request with after `interval` idle cycles.
    fn policy_sequence(&self, distance: u32, interval: u64) -> Vec<u32> {
        match self.policy {
            // Unprotected or plain p-ECC without distance constraint.
            ShiftPolicy::Unconstrained => vec![distance],
            ShiftPolicy::StepByStep => vec![1; distance as usize],
            ShiftPolicy::FixedSafe { .. } => split_by_cap(distance, self.safe_cap),
            ShiftPolicy::Adaptive => self.table.select(distance, interval).sequence.clone(),
        }
    }

    /// Publishes the `shift.*` and `pecc.checks` metrics of the requests
    /// since the last publication into the global registry (nothing
    /// while the registry was off when the controller was built). Runs
    /// call this at their boundary; a dropped controller publishes
    /// then.
    pub fn flush_metrics(&mut self) {
        let Some(counts) = self.counts.get() else {
            return;
        };
        let (now, was) = (self.stats, counts.published);
        let reg = rtm_obs::global().registry();
        if now.requests > was.requests {
            // Every request recorded all four, `pecc.checks` at zero on
            // an unprotected scheme.
            reg.counter_add("shift.count", now.requests - was.requests);
            reg.counter_add("shift.operations", now.operations - was.operations);
            reg.counter_add("shift.steps", now.steps - was.steps);
            reg.counter_add("pecc.checks", now.checks - was.checks);
        }
        reg.counters_add(&[("shift.split.count", counts.splits)]);
        if now.batched_requests > was.batched_requests {
            reg.counter_add(
                "shift.batch.continuations",
                now.batched_requests - was.batched_requests,
            );
            reg.counter_add(
                "shift.batch.saved_cycles",
                now.batch_saved_cycles - was.batch_saved_cycles,
            );
        }
        reg.histogram_merge("shift.latency_cycles", &counts.latency);
        reg.histogram_merge("shift.distance", &counts.distance);
        *counts = ShiftCounts {
            published: now,
            ..ShiftCounts::default()
        };
    }

    /// Computes latency and residual risk for an explicit sequence
    /// without updating statistics (used by what-if exploration).
    pub fn cost_sequence(&self, sequence: &[u32]) -> ShiftPlan {
        self.cost_with(sequence, |d| self.classify_risk(d))
    }

    /// [`Self::cost_sequence`] with each part's (SDC, DUE, corrections)
    /// split supplied by `risk`.
    fn cost_with(&self, sequence: &[u32], risk: impl Fn(u32) -> (f64, f64, f64)) -> ShiftPlan {
        let protected = self.protected();
        let mut latency = 0u64;
        let mut due = 0.0f64;
        let mut sdc = 0.0f64;
        let mut corrections = 0.0f64;
        for &d in sequence {
            latency += self.shift_latency(d).count();
            let (s, u, c) = risk(d);
            sdc += s;
            due += u;
            corrections += c;
        }
        ShiftPlan {
            sequence: sequence.to_vec(),
            latency: Cycles(latency),
            checks: if protected { sequence.len() as u32 } else { 0 },
            due_risk: due,
            sdc_risk: sdc,
            expected_corrections: corrections,
        }
    }

    /// Latency of one `distance`-step sub-shift: its STS pulse plus the
    /// p-ECC check that follows it when the scheme is protected. Costs
    /// no risk and allocates nothing.
    pub fn shift_latency(&self, distance: u32) -> Cycles {
        let check = if self.protected() {
            PECC_CHECK_CYCLES
        } else {
            0
        };
        Cycles(self.timing.shift_cycles(distance).count() + check)
    }

    fn protected(&self) -> bool {
        !matches!(self.kind, ProtectionKind::None)
    }

    /// Splits the error probability mass of one `d`-step shift into
    /// (SDC, DUE, expected corrections) under the active protection.
    fn classify_risk(&self, d: u32) -> (f64, f64, f64) {
        let rates = self.budget.rates();
        let mut sdc = 0.0;
        let mut due = 0.0;
        let mut corrections = 0.0;
        for k in 1..=4u32 {
            let p = rates.rate(d, k);
            if p <= 0.0 {
                continue;
            }
            match self.kind.classify_offset(k as i32) {
                Verdict::Clean => sdc += p, // unprotected or aliased: silently wrong
                Verdict::Correctable(c) => {
                    if c == k as i32 {
                        corrections += p; // repaired on the spot
                    } else {
                        sdc += p; // mis-correction: silently wrong
                    }
                }
                Verdict::Uncorrectable => due += p,
            }
        }
        (sdc, due, corrections)
    }

    /// Expected latency of a plan *including* the occasional corrective
    /// back-shift: each expected correction costs a 1-step shift, a
    /// re-check, and the Table 5 correction pipeline slot. The paper
    /// treats this as negligible for performance — this method shows
    /// why (the expectation adds ~10⁻⁴ cycles per shift).
    pub fn expected_latency_with_corrections(&self, plan: &ShiftPlan) -> f64 {
        let correction_cost = (self.timing.shift_cycles(1).count() + PECC_CHECK_CYCLES) as f64;
        plan.latency.count() as f64 + plan.expected_corrections * correction_cost
    }

    /// The planning table (diagnostic / experiment plotting).
    pub fn sequence_table(&self) -> &SequenceTable {
        &self.table
    }

    /// The safety budget in force.
    pub fn budget(&self) -> &SafetyBudget {
        &self.budget
    }

    /// Resets run-time state (stats and interval tracking), publishing
    /// the metrics of the requests so far first.
    pub fn reset(&mut self) {
        self.flush_metrics();
        self.stats = ControllerStats::default();
        if let Some(counts) = self.counts.get() {
            counts.published = self.stats;
        }
        self.last_shift_at = None;
    }
}

impl Drop for ShiftController {
    fn drop(&mut self) {
        // A run unwinding from a panic publishes nothing: its results
        // are lost anyway.
        if !std::thread::panicking() {
            self.flush_metrics();
        }
    }
}

/// Records a transaction's spans: it nests under whatever span the
/// caller entered (a serving-layer dispatch, or nothing for standalone
/// runs), then unfolds into its pulse/check sequence. A `fused` batch
/// continuation's *first* pulse is the stage-1-only continuation pulse,
/// so the children still tile the charged `latency` exactly.
fn record_spans(
    timing: &StsTiming,
    distance: u32,
    plan: &ShiftPlan,
    now_cycles: u64,
    latency: u64,
    fused: bool,
) {
    let spans = rtm_obs::global().spans();
    let parts = plan.sequence.len() as u64;
    let cap = plan.sequence.iter().copied().max().unwrap_or(distance);
    let attrs = [
        ("distance", u64::from(distance)),
        ("parts", parts),
        ("cap", u64::from(cap)),
    ];
    // `cap` rides on the span only when the plan splits.
    let attrs = if parts > 1 { &attrs[..] } else { &attrs[..2] };
    let plan_span = spans.record(
        rtm_obs::span::current_parent(),
        "plan_shift",
        now_cycles,
        now_cycles + latency,
        attrs,
    );
    // The statistical controller does not sample faults, so every
    // planned check lands clean; sampled verdicts come from the
    // bit-accurate stripe.
    let mut t = now_cycles;
    for (i, &d) in plan.sequence.iter().enumerate() {
        let cycles = if fused && i == 0 {
            timing.continuation_shift_cycles(d).count()
        } else {
            timing.shift_cycles(d).count()
        };
        spans.record(
            plan_span,
            "sts_pulse",
            t,
            t + cycles,
            &[("distance", u64::from(d))],
        );
        t += cycles;
        if plan.checks > 0 {
            spans.record(plan_span, "pecc_verify", t, t + PECC_CHECK_CYCLES, &[]);
            t += PECC_CHECK_CYCLES;
        }
    }
}

/// Splits `distance` into parts of at most `cap`, largest first.
fn split_by_cap(distance: u32, cap: u32) -> Vec<u32> {
    assert!(cap >= 1);
    let mut out = Vec::new();
    let mut rest = distance;
    while rest > 0 {
        let part = rest.min(cap);
        out.push(part);
        rest -= part;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_is_single_shift() {
        let mut ctl = ShiftController::new(ProtectionKind::None, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        assert_eq!(plan.sequence, vec![7]);
        assert_eq!(plan.checks, 0);
        // All error mass is silent for an unprotected memory.
        assert!(plan.sdc_risk > 1e-3 * 0.9);
        assert_eq!(plan.due_risk, 0.0);
    }

    #[test]
    fn step_by_step_is_all_ones_with_checks() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let plan = ctl.plan_shift(7, 0);
        assert_eq!(plan.sequence, vec![1; 7]);
        assert_eq!(plan.checks, 7);
        assert_eq!(plan.latency, Cycles(28)); // Table 3(b) last row
    }

    #[test]
    fn fixed_safe_uses_conservative_distance() {
        // 83 M accesses/s → safe distance 3 (Section 5.2).
        let mut ctl = ShiftController::new(
            ProtectionKind::SECDED,
            ShiftPolicy::FixedSafe {
                worst_intensity_hz: 83_000_000,
            },
        );
        let plan = ctl.plan_shift(7, 0);
        assert_eq!(plan.sequence, vec![3, 3, 1]);
    }

    #[test]
    fn adaptive_relaxes_with_idle_time() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        // Cold start: no interval measured yet, so the safest sequence.
        assert_eq!(ctl.plan_shift(7, 0).sequence, vec![1; 7]);
        // Immediately after (interval 4): still conservative.
        let tight = ctl.plan_shift(7, 4);
        assert!(tight.sequence.len() >= 4, "{:?}", tight.sequence);
        // After a long idle gap, single-shot.
        let relaxed = ctl.plan_shift(7, 10_000_000);
        assert_eq!(relaxed.sequence, vec![7]);
    }

    #[test]
    fn adaptive_latency_beats_step_by_step() {
        let mut adaptive = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut stepwise = ShiftController::new(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let mut t = 0u64;
        let mut lat_a = 0u64;
        let mut lat_s = 0u64;
        for _ in 0..1000 {
            t += 100; // moderately busy: 100-cycle intervals
            lat_a += adaptive.plan_shift(4, t).latency.count();
            lat_s += stepwise.plan_shift(4, t).latency.count();
        }
        assert!(lat_a < lat_s, "adaptive {lat_a} vs step-by-step {lat_s}");
    }

    #[test]
    fn secded_converts_k1_mass_to_corrections() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        let rates = rtm_model::rates::OutOfStepRates::paper_calibration();
        // ±1 mass becomes corrections, ±2 mass becomes DUE risk, deeper
        // aliases become SDC.
        assert!((plan.expected_corrections - rates.rate(7, 1)).abs() < 1e-12);
        assert!((plan.due_risk - rates.rate(7, 2)).abs() < 1e-25);
        assert!(plan.sdc_risk < rates.rate(7, 2) * 1e-6);
    }

    #[test]
    fn sed_detects_but_does_not_correct() {
        let mut ctl = ShiftController::new(ProtectionKind::Sed, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        let rates = rtm_model::rates::OutOfStepRates::paper_calibration();
        // ±1 detected (DUE); ±2 silently accepted (SDC).
        assert!((plan.due_risk - rates.rate(7, 1)).abs() < 1e-12);
        assert!((plan.sdc_risk - rates.rate(7, 2)).abs() < 1e-25);
        assert_eq!(plan.expected_corrections, 0.0);
    }

    #[test]
    fn safe_sequences_reduce_due_risk() {
        let mut unconstrained =
            ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let mut safe = ShiftController::new(
            ProtectionKind::SECDED,
            ShiftPolicy::FixedSafe {
                worst_intensity_hz: 83_000_000,
            },
        );
        let loose = unconstrained.plan_shift(7, 0);
        let tight = safe.plan_shift(7, 0);
        assert!(
            tight.due_risk < loose.due_risk / 1e4,
            "safe {:.3e} vs loose {:.3e}",
            tight.due_risk,
            loose.due_risk
        );
        // ... at a modest latency premium.
        assert!(tight.latency > loose.latency);
        assert!(tight.latency.count() < 3 * loose.latency.count());
    }

    #[test]
    fn stats_accumulate() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        ctl.plan_shift(3, 0);
        ctl.plan_shift(4, 1000);
        let s = *ctl.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.steps, 7);
        assert!(s.operations >= 2);
        assert!(s.shift_cycles > 0);
        assert!(s.expected_dues > 0.0);
        ctl.reset();
        assert_eq!(ctl.stats().requests, 0);
    }

    #[test]
    fn corrections_are_negligible_for_latency() {
        // The paper treats correction latency as noise; the expectation
        // confirms it: well under a thousandth of a cycle per shift.
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let plan = ctl.plan_shift(7, 0);
        let base = plan.latency.count() as f64;
        let with = ctl.expected_latency_with_corrections(&plan);
        assert!(with > base, "expectation must add something");
        assert!(with - base < 1e-2, "correction overhead {}", with - base);
    }

    #[test]
    fn split_by_cap_covers_distance() {
        assert_eq!(split_by_cap(7, 3), vec![3, 3, 1]);
        assert_eq!(split_by_cap(6, 3), vec![3, 3]);
        assert_eq!(split_by_cap(2, 7), vec![2]);
        assert_eq!(split_by_cap(5, 1), vec![1; 5]);
    }

    #[test]
    #[should_panic]
    fn zero_distance_rejected() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let _ = ctl.plan_shift(0, 0);
    }

    #[test]
    fn continuation_saves_exactly_the_setup() {
        // Prime both controllers identically, then serve the same
        // request standalone vs as a batch continuation: the
        // continuation is cheaper by exactly one stage-2 settle and
        // identical in sequence, checks and risk.
        let mut standalone = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut fused = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        standalone.plan_shift(5, 0);
        fused.plan_shift(5, 0);
        let a = standalone.plan_shift(7, 40);
        let b = fused.plan_shift_continuation(7, 40);
        let setup = StsTiming::paper().setup_cycles().count();
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.due_risk, b.due_risk);
        assert_eq!(a.sdc_risk, b.sdc_risk);
        assert_eq!(a.latency.count(), b.latency.count() + setup);
        assert_eq!(fused.stats().batched_requests, 1);
        assert_eq!(fused.stats().batch_saved_cycles, setup);
        assert_eq!(standalone.stats().batched_requests, 0);
    }

    #[test]
    fn batch_amortises_one_setup_per_continuation() {
        let mut batched = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut serial = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let batch = batched.plan_shift_batch(&[3, 3, 3], 100);
        // Replay the same stream without fusion, at the stream's own
        // (longer) timestamps so the interval adapter is no laxer.
        let mut t = 100u64;
        let mut serial_latency = 0u64;
        for plan in &batch.plans {
            let p = serial.plan_shift(plan.distance(), t);
            t += plan.latency.count();
            serial_latency += p.latency.count();
        }
        let setup = StsTiming::paper().setup_cycles().count();
        assert_eq!(batch.plans.len(), 3);
        assert_eq!(batch.saved_cycles, 2 * setup);
        assert_eq!(batch.latency.count(), serial_latency - batch.saved_cycles);
        assert_eq!(batched.stats().requests, 3);
        assert_eq!(batched.stats().batched_requests, 2);
        // Safety accounting is identical to the unfused replay.
        assert_eq!(batched.stats().checks, serial.stats().checks);
        assert_eq!(batched.stats().expected_dues, serial.stats().expected_dues);
        assert_eq!(batched.stats().expected_sdcs, serial.stats().expected_sdcs);
    }

    #[test]
    fn charged_plans_equal_owned_plans() {
        // The lent plan with its charged latency is the owned plan, and
        // both paths keep identical statistics.
        let policies = [
            (ProtectionKind::None, ShiftPolicy::Unconstrained),
            (ProtectionKind::SECDED_O, ShiftPolicy::StepByStep),
            (ProtectionKind::SECDED, ShiftPolicy::WORST_CASE),
            (ProtectionKind::SECDED, ShiftPolicy::Adaptive),
        ];
        for (kind, policy) in policies {
            let mut owned = ShiftController::new(kind, policy);
            let mut lent = ShiftController::new(kind, policy);
            let mut t = 0u64;
            for (i, d) in [7u32, 1, 3, 7, 2, 5, 4, 6, 7, 1].into_iter().enumerate() {
                t += 37 * (i as u64 % 4) * (i as u64 % 4);
                let fused = i % 3 == 2;
                let want = if fused {
                    owned.plan_shift_continuation(d, t)
                } else {
                    owned.plan_shift(d, t)
                };
                let (plan, latency) = lent.charge_shift(d, t, fused);
                assert_eq!(latency, want.latency, "{policy:?} d={d}");
                assert_eq!(
                    ShiftPlan {
                        latency,
                        ..plan.clone()
                    },
                    want
                );
            }
            assert_eq!(owned.stats(), lent.stats(), "{policy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_batch_rejected() {
        let mut ctl = ShiftController::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let _ = ctl.plan_shift_batch(&[], 0);
    }

    #[test]
    fn plan_spans_tile_the_transaction_exactly() {
        // The span trace is process-global; this is the only test in
        // the crate that enables it, and it scopes its assertions to
        // the one plan_shift span it creates.
        let spans = rtm_obs::global().spans();
        spans.reset();
        spans.set_enabled(true);
        let mut ctl = ShiftController::new(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let plan = ctl.plan_shift(5, 1_000);
        spans.set_enabled(false);
        let snap = spans.snapshot();
        let plan_span = snap
            .spans
            .iter()
            .find(|s| s.name == "plan_shift")
            .expect("plan_shift span recorded");
        assert_eq!(plan_span.start_cycle, 1_000);
        assert_eq!(plan_span.duration(), plan.latency.count());
        assert_eq!(plan_span.attr("distance"), Some(5));
        assert_eq!(plan_span.attr("parts"), Some(5));
        assert_eq!(
            plan_span.attr("cap"),
            Some(1),
            "a split plan carries its cap"
        );
        // Children tile the parent exactly: 5 pulses + 5 checks.
        let children = snap.children_of(plan_span.id);
        assert_eq!(children.len(), 10);
        for pulse in children.iter().filter(|c| c.name == "sts_pulse") {
            assert_eq!(pulse.attr("distance"), Some(1));
        }
        let child_sum: u64 = children.iter().map(|c| c.duration()).sum();
        assert_eq!(child_sum, plan.latency.count());
        assert_eq!(snap.self_cycles(plan_span), 0);
        let verify_sum: u64 = children
            .iter()
            .filter(|c| c.name == "pecc_verify")
            .map(|c| c.duration())
            .sum();
        assert_eq!(verify_sum, plan.checks as u64 * PECC_CHECK_CYCLES);
        spans.reset();

        // Fused continuations must tile too: the first pulse span is
        // the stage-1-only continuation pulse, so children still sum
        // to the (shorter) plan latency with zero self time.
        spans.set_enabled(true);
        let fused = ctl.plan_shift_continuation(5, 2_000);
        spans.set_enabled(false);
        let snap = spans.snapshot();
        let fused_span = snap
            .spans
            .iter()
            .find(|s| s.name == "plan_shift" && s.start_cycle == 2_000)
            .expect("fused plan_shift span recorded");
        assert_eq!(fused_span.duration(), fused.latency.count());
        let children = snap.children_of(fused_span.id);
        let child_sum: u64 = children.iter().map(|c| c.duration()).sum();
        assert_eq!(child_sum, fused.latency.count());
        assert_eq!(snap.self_cycles(fused_span), 0);
        spans.reset();

        // Every policy's plan carries `cap`, its largest pulse, exactly
        // when it splits.
        let policies = [
            (ProtectionKind::SECDED, ShiftPolicy::WORST_CASE),
            (ProtectionKind::SECDED, ShiftPolicy::Adaptive),
            (ProtectionKind::None, ShiftPolicy::Unconstrained),
        ];
        for (kind, policy) in policies {
            let mut ctl = ShiftController::new(kind, policy);
            spans.set_enabled(true);
            for d in 1..=7 {
                ctl.plan_shift(d, 10_000 * d as u64);
            }
            spans.set_enabled(false);
            let snap = spans.snapshot();
            spans.reset();
            let plans: Vec<_> = snap
                .spans
                .iter()
                .filter(|s| s.name == "plan_shift")
                .collect();
            assert_eq!(plans.len(), 7);
            for p in plans {
                let pulses: Vec<u64> = snap
                    .children_of(p.id)
                    .iter()
                    .filter(|c| c.name == "sts_pulse")
                    .map(|c| c.attr("distance").expect("pulse distance"))
                    .collect();
                assert_eq!(p.attr("parts"), Some(pulses.len() as u64));
                assert_eq!(p.attr("distance"), Some(pulses.iter().sum()));
                let cap = (pulses.len() > 1).then(|| *pulses.iter().max().unwrap());
                assert_eq!(p.attr("cap"), cap, "{policy:?}");
            }
        }
    }
}
