//! Recording wrappers and exact replays: how the traced runs split host
//! time across layers without putting a clock inside any crate.
//!
//! A traced run records, at a crate's public boundary, every call the
//! layer above made (an [`LlcModel`] wrapper, a [`RequestSource`]
//! wrapper). Each layer is then replayed alone on a fresh instance built
//! the same way, timed in bulk, and checked to answer every call exactly
//! as it did in the recorded run. Bulk replays carry no per-call clock
//! reads (two cost ~80 ns on the reference host, the order of a whole
//! LLC directory lookup), and a replay that reconciles exactly times the
//! same work the recorded run did.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use crate::report::Checks;
use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_cost::energy::LlcActivity;
use rtm_cost::technology::LlcDesign;
use rtm_mem::cache::{AccessKind, Cache};
use rtm_mem::llc::{LlcModel, LlcResponse, LlcStats, RacetrackLlc, ScaleStats};
use rtm_model::{DeviceParams, Engine};
use rtm_pecc::layout::ProtectionKind;
use rtm_serve::{Completion, GroupRouter, RequestSource, SourcePoll};
use rtm_trace::MemAccess;
use rtm_track::fault::{FaultModel, FaultModelChoice};
use rtm_util::units::Seconds;

/// One call into the statistical LLC and what it answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcCall {
    /// Byte address.
    pub addr: u64,
    /// Write versus read.
    pub write: bool,
    /// Simulated time of the call.
    pub now: u64,
    /// Service latency answered.
    pub latency: u64,
    /// Hit answered.
    pub hit: bool,
}

fn kind(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// How to rebuild the LLC a log was recorded against.
#[derive(Debug, Clone, Copy)]
pub struct LlcSpec {
    /// Protection scheme.
    pub kind: ProtectionKind,
    /// Safe-distance policy.
    pub policy: ShiftPolicy,
    /// Banks (one shift controller each).
    pub banks: u32,
    /// Seed of the engine fault sampler, if the LLC samples outcomes.
    pub fault_seed: Option<u64>,
}

impl LlcSpec {
    /// A fresh LLC, exactly as the recorded run built it.
    pub fn build(&self) -> RacetrackLlc {
        let llc = RacetrackLlc::with_banks(self.kind, self.policy, self.banks);
        match self.fault_seed {
            Some(seed) => llc.with_fault_model(FaultModelChoice::Engine, Engine::Analytic, seed),
            None => llc,
        }
    }
}

/// An [`LlcModel`] that forwards to a [`RacetrackLlc`] and logs every
/// access with its response.
pub struct RecordingLlc {
    inner: RacetrackLlc,
    log: Rc<RefCell<Vec<LlcCall>>>,
}

impl RecordingLlc {
    /// Wraps `inner`; calls land in `log`.
    pub fn new(inner: RacetrackLlc, log: Rc<RefCell<Vec<LlcCall>>>) -> Self {
        Self { inner, log }
    }
}

impl LlcModel for RecordingLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, now_cycles: u64) -> LlcResponse {
        let r = self.inner.access(addr, kind, now_cycles);
        self.log.borrow_mut().push(LlcCall {
            addr,
            write: kind == AccessKind::Write,
            now: now_cycles,
            latency: r.latency_cycles,
            hit: r.hit,
        });
        r
    }

    fn stats(&self) -> LlcStats {
        self.inner.stats()
    }

    fn design(&self) -> &LlcDesign {
        self.inner.design()
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        self.inner.activity(duration)
    }

    fn scale_stats(&self) -> ScaleStats {
        self.inner.scale_stats()
    }
}

/// Host time and work of the LLC and the layers beneath it, summed over
/// one or more replayed logs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LlcLayers {
    /// LLC accesses.
    pub calls: u64,
    /// LLC hits.
    pub hits: u64,
    /// Accesses that needed no shift.
    pub zero_shift: u64,
    /// Seconds in `RacetrackLlc::access` (everything below included).
    pub llc_s: f64,
    /// Seconds in the LLC's `Cache::access`.
    pub cache_s: f64,
    /// Seconds in `ShiftController::plan_shift`.
    pub ctl_s: f64,
    /// Seconds in fault sampling.
    pub fault_s: f64,
    /// Shift plans.
    pub plans: u64,
    /// Sub-shifts over all plans.
    pub subshifts: u64,
    /// Planned shift latency in cycles.
    pub shift_cycles: u64,
    /// Fault samples drawn.
    pub samples: u64,
    /// Samples that were position errors.
    pub errors: u64,
}

impl LlcLayers {
    /// Adds another replay's totals.
    pub fn add(&mut self, o: &LlcLayers) {
        self.calls += o.calls;
        self.hits += o.hits;
        self.zero_shift += o.zero_shift;
        self.llc_s += o.llc_s;
        self.cache_s += o.cache_s;
        self.ctl_s += o.ctl_s;
        self.fault_s += o.fault_s;
        self.plans += o.plans;
        self.subshifts += o.subshifts;
        self.shift_cycles += o.shift_cycles;
        self.samples += o.samples;
        self.errors += o.errors;
    }
}

/// Replays `log` through a fresh LLC, its cache directory, its shift
/// controllers and its fault sampler, timing each layer alone and
/// checking each against the recording:
///
/// * the LLC answers every call with the recorded latency and hit;
/// * the cache directory alone hits exactly as often as the LLC did;
/// * the controllers, fed the distances `predicted_shift_distance`
///   reports before each access, plan exactly the LLC's shift cycles
///   and sub-shifts;
/// * the fault sampler, fed those sub-shifts, draws exactly the LLC's
///   sampled shifts and errors.
pub fn replay_llc(spec: &LlcSpec, log: &[LlcCall], checks: &mut Checks) -> LlcLayers {
    let mut llc = spec.build();
    let start = Instant::now();
    let mut mismatched = 0u64;
    for c in log {
        let r = llc.access(c.addr, kind(c.write), c.now);
        mismatched += u64::from(r.latency_cycles != c.latency || r.hit != c.hit);
    }
    let llc_s = start.elapsed().as_secs_f64();
    let stats = llc.stats();
    checks.check("llc replay answers every call as recorded", mismatched == 0);

    // Untimed pass: the shift each access needs, per bank, in order.
    let mut probe = LlcSpec {
        fault_seed: None,
        ..*spec
    }
    .build();
    let mut shifts = Vec::new();
    for c in log {
        let d = probe.predicted_shift_distance(c.addr);
        if d > 0 {
            let bank = probe.group_of(c.addr) % spec.banks as usize;
            shifts.push((bank, d, c.now));
        }
        probe.access(c.addr, kind(c.write), c.now);
    }

    // The directory RacetrackLlc::with_banks builds: 16 ways of 64 B
    // lines, bank-major over groups of data_len / 16 sets.
    let sets_per_group = llc.geometry().data_len() as u32 / 16;
    let mut cache = Cache::new(llc.design().capacity_bytes, 16, 64)
        .with_bank_layout(spec.banks, sets_per_group);
    let start = Instant::now();
    let mut hits = 0u64;
    for c in log {
        hits += u64::from(cache.access(c.addr, kind(c.write)).is_hit());
    }
    let cache_s = start.elapsed().as_secs_f64();
    checks.check(
        "cache replay hits exactly as the llc did",
        hits == stats.cache.hits,
    );

    let mut controllers: Vec<ShiftController> = (0..spec.banks)
        .map(|_| ShiftController::new(spec.kind, spec.policy))
        .collect();
    let mut subshifts: Vec<u32> = Vec::with_capacity(shifts.len());
    let mut shift_cycles = 0u64;
    let start = Instant::now();
    for &(bank, d, now) in &shifts {
        let plan = controllers[bank].plan_shift(d, now);
        shift_cycles += plan.latency.count();
        subshifts.extend_from_slice(&plan.sequence);
    }
    let ctl_s = start.elapsed().as_secs_f64();
    checks.check(
        "controller replay plans the llc's shift cycles exactly",
        shift_cycles == stats.shift_cycles && subshifts.len() as u64 == stats.shift_ops,
    );

    let (mut fault_s, mut samples, mut errors) = (0.0, 0u64, 0u64);
    if let Some(seed) = spec.fault_seed {
        let mut model =
            FaultModelChoice::Engine.build(Engine::Analytic, &DeviceParams::table1(), seed);
        let start = Instant::now();
        for &d in &subshifts {
            errors += u64::from(!model.sample(d).is_success());
        }
        fault_s = start.elapsed().as_secs_f64();
        samples = subshifts.len() as u64;
        checks.check(
            "fault replay draws the llc's samples and errors exactly",
            samples == stats.sampled_shifts && errors == stats.observed_errors,
        );
    }

    LlcLayers {
        calls: log.len() as u64,
        hits: stats.cache.hits,
        zero_shift: stats.zero_shift_accesses,
        llc_s,
        cache_s,
        ctl_s,
        fault_s,
        plans: shifts.len() as u64,
        subshifts: subshifts.len() as u64,
        shift_cycles,
        samples,
        errors,
    }
}

/// One call a serving simulator made into its request source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceCall {
    /// `poll(now)` answered `Ready`; the access is the next admission's.
    Ready(u64),
    /// `poll(now)` answered `NotBefore(cycle)`.
    NotBefore(u64, u64),
    /// `poll(now)` answered `Exhausted`.
    Exhausted(u64),
    /// `admitted(id, now)`.
    Admitted(u64, u64),
    /// `completed` with the completion at this index.
    Completed(usize),
}

/// A [`RequestSource`] wrapper that records every call and its answer.
pub struct RecordingSource<S> {
    inner: S,
    calls: Vec<SourceCall>,
    pending: Option<MemAccess>,
    /// Admitted accesses, by admission id.
    admitted: Vec<MemAccess>,
    /// Completions, in completion order.
    completions: Vec<Completion>,
    peak_outstanding: u64,
}

impl<S: RequestSource> RecordingSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: Vec::new(),
            pending: None,
            admitted: Vec::new(),
            completions: Vec::new(),
            peak_outstanding: 0,
        }
    }

    /// Splits into the wrapped source and what was recorded.
    pub fn into_inner(self) -> (S, Recorded) {
        (
            self.inner,
            Recorded {
                calls: self.calls,
                admitted: self.admitted,
                completions: self.completions,
                peak_outstanding: self.peak_outstanding,
            },
        )
    }
}

impl<S: RequestSource> RequestSource for RecordingSource<S> {
    fn poll(&mut self, now: u64) -> SourcePoll {
        let answer = self.inner.poll(now);
        self.calls.push(match answer {
            SourcePoll::Ready(a) => {
                self.pending = Some(a);
                SourceCall::Ready(now)
            }
            SourcePoll::NotBefore(t) => SourceCall::NotBefore(now, t),
            SourcePoll::Exhausted => SourceCall::Exhausted(now),
        });
        answer
    }

    fn admitted(&mut self, id: u64, now: u64) {
        self.inner.admitted(id, now);
        self.calls.push(SourceCall::Admitted(id, now));
        let a = self.pending.take().expect("admission follows a Ready poll");
        self.admitted.push(a);
        let outstanding = self.admitted.len() - self.completions.len();
        self.peak_outstanding = self.peak_outstanding.max(outstanding as u64);
    }

    fn completed(&mut self, completion: &Completion) {
        self.inner.completed(completion);
        self.calls
            .push(SourceCall::Completed(self.completions.len()));
        self.completions.push(*completion);
    }
}

/// What a [`RecordingSource`] saw.
pub struct Recorded {
    calls: Vec<SourceCall>,
    admitted: Vec<MemAccess>,
    completions: Vec<Completion>,
    /// Most admitted-but-incomplete requests at any instant.
    pub peak_outstanding: u64,
}

impl Recorded {
    /// Replays the recorded calls into `fresh`, a source built exactly
    /// like the recorded one. Returns the host seconds the replay took;
    /// checks that every poll answered as recorded.
    pub fn replay<S: RequestSource>(&self, fresh: &mut S, checks: &mut Checks) -> f64 {
        let mut next = 0usize;
        let mut mismatched = 0u64;
        let start = Instant::now();
        for &call in &self.calls {
            let ok = match call {
                SourceCall::Ready(now) => {
                    matches!(fresh.poll(now), SourcePoll::Ready(a) if Some(&a) == self.admitted.get(next))
                }
                SourceCall::NotBefore(now, t) => fresh.poll(now) == SourcePoll::NotBefore(t),
                SourceCall::Exhausted(now) => fresh.poll(now) == SourcePoll::Exhausted,
                SourceCall::Admitted(id, now) => {
                    fresh.admitted(id, now);
                    next += 1;
                    true
                }
                SourceCall::Completed(i) => {
                    fresh.completed(black_box(&self.completions[i]));
                    true
                }
            };
            mismatched += u64::from(!ok);
        }
        let secs = start.elapsed().as_secs_f64();
        checks.check(
            "source replay answers every poll as recorded",
            mismatched == 0,
        );
        secs
    }

    /// The LLC calls the simulator made, reconstructed from completions:
    /// a request was dispatched at `cycle - service - fill` and hit iff
    /// it needed no fill. Sorting by (dispatch cycle, bank) restores the
    /// order within every bank; banks own disjoint sets, groups and
    /// controllers, so their relative order does not matter.
    pub fn llc_log(&self, banks: u32) -> Vec<LlcCall> {
        let router = GroupRouter::paper(banks);
        let mut log: Vec<LlcCall> = self
            .completions
            .iter()
            .map(|c| {
                let a = self.admitted[c.id as usize];
                LlcCall {
                    addr: a.addr,
                    write: a.is_write,
                    now: c.cycle - c.service - c.fill,
                    latency: c.service,
                    hit: c.fill == 0,
                }
            })
            .collect();
        log.sort_unstable_by_key(|c| (c.now, router.bank_of(c.addr)));
        log
    }
}

/// A [`FaultModel`] wrapper that logs each sampled distance and the
/// outcome's step offset (`i8::MIN` for a stop-in-middle outcome).
pub struct RecordingFaults<F> {
    inner: F,
    log: Rc<RefCell<Vec<(u8, i8)>>>,
}

impl<F: FaultModel> RecordingFaults<F> {
    /// Wraps `inner`; samples land in `log`.
    pub fn new(inner: F, log: Rc<RefCell<Vec<(u8, i8)>>>) -> Self {
        Self { inner, log }
    }
}

/// A sampled outcome as one byte: its step offset, or `i8::MIN` when the
/// walls stopped between notches.
pub fn outcome_code(o: rtm_model::ShiftOutcome) -> i8 {
    o.step_offset().map_or(i8::MIN, |k| {
        i8::try_from(k).expect("step offsets are small")
    })
}

impl<F: FaultModel> FaultModel for RecordingFaults<F> {
    fn sample(&mut self, distance: u32) -> rtm_model::ShiftOutcome {
        let o = self.inner.sample(distance);
        let d = u8::try_from(distance).expect("stripe shifts stay within a segment");
        self.log.borrow_mut().push((d, outcome_code(o)));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
    use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
    use rtm_trace::{TraceGenerator, WorkloadProfile};

    #[test]
    fn hierarchy_llc_log_replays_exactly() {
        let spec = LlcSpec {
            kind: ProtectionKind::SECDED,
            policy: ShiftPolicy::Adaptive,
            banks: 1,
            fault_seed: Some(9),
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut hier = Hierarchy::with_llc(
            Box::new(RecordingLlc::new(spec.build(), log.clone())),
            LlcChoice::RacetrackUnprotected,
        );
        let p = WorkloadProfile::by_name("canneal").unwrap();
        let r = hier.run_trace(&TraceGenerator::new(p, 3).take_vec(20_000));
        let mut checks = Checks::default();
        let layers = replay_llc(&spec, &log.borrow(), &mut checks);
        assert!(checks.failed.is_empty(), "{:?}", checks.failed);
        assert_eq!(checks.attempted, 4);
        assert_eq!(layers.calls, r.llc.cache.accesses());
        assert_eq!(layers.shift_cycles, r.llc.shift_cycles);
        assert!(layers.samples > 0);
    }

    #[test]
    fn serve_run_reconstructs_and_replays_exactly() {
        let p = WorkloadProfile::by_name("ferret").unwrap();
        let trace = TraceGenerator::new(p, 5).take_vec(5_000);
        let cfg = ServeConfig::new(SchedPolicy::ShiftAware)
            .with_paced(false)
            .with_requests(trace.len() as u64);
        let mut source = RecordingSource::new(trace.iter().copied());
        let r = ServeSim::new(cfg).run_source(&mut source);
        let (_, rec) = source.into_inner();
        let mut checks = Checks::default();
        rec.replay(&mut trace.iter().copied(), &mut checks);
        let spec = LlcSpec {
            kind: cfg.protection,
            policy: cfg.shift_policy,
            banks: cfg.banks,
            fault_seed: None,
        };
        let layers = replay_llc(&spec, &rec.llc_log(cfg.banks), &mut checks);
        assert!(checks.failed.is_empty(), "{:?}", checks.failed);
        assert_eq!(layers.shift_cycles, r.llc.shift_cycles);
        assert!(rec.peak_outstanding <= 32);
    }

    #[test]
    fn a_diverging_replay_is_caught() {
        let spec = LlcSpec {
            kind: ProtectionKind::SECDED,
            policy: ShiftPolicy::Adaptive,
            banks: 1,
            fault_seed: None,
        };
        let log = vec![LlcCall {
            addr: 0x40,
            write: false,
            now: 0,
            latency: 1,
            hit: true,
        }];
        let mut checks = Checks::default();
        replay_llc(&spec, &log, &mut checks);
        assert!(checks.failed.iter().any(|f| f.starts_with("llc replay")));
    }
}
