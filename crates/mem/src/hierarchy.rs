//! The full memory hierarchy: trace in, statistics out.
//!
//! An in-order, unit-IPC core model serialises the merged four-core
//! access stream (matching the paper's single-request-at-a-time
//! assumption for the adaptive shift controller): each access advances
//! the clock by its gap instructions plus the latency of the deepest
//! level it had to reach.
//!
//! The single-request assumption is *not* baked in: a hierarchy can be
//! built around any [`LlcModel`] via [`Hierarchy::with_llc`], reusing
//! the L1/L2 front end unchanged. `rtm-serve` lifts the assumption
//! beside the hierarchy: its bank-parallel serving layer
//! (per-stripe-group queues, multiple in-flight requests) drives a
//! banked racetrack LLC directly.

use crate::cache::{AccessKind, Cache};
use crate::llc::{
    LlcDirectory, LlcModel, LlcResponse, LlcStats, RacetrackLlc, ScaleStats, ShiftBackEnd,
    SimpleLlc,
};
use rtm_controller::controller::ShiftPolicy;
use rtm_cost::energy::{LlcActivity, LlcEnergyModel};
use rtm_cost::overhead::Scheme;
use rtm_cost::technology::{CacheTech, LlcDesign, SystemConfig};
use rtm_obs::metrics::{IntHistogram, RunCounts, DEFAULT_BUCKETS};
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::{MemAccess, TraceGenerator};
use rtm_util::units::{Picojoules, Seconds};

/// The LLC configurations the paper's Figs. 16-18 compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlcChoice {
    /// 4 MB SRAM LLC.
    SramBaseline,
    /// 32 MB STT-RAM LLC.
    SttRam,
    /// 128 MB racetrack LLC with zero-cost, error-free shifts
    /// ("RM-Ideal").
    RacetrackIdeal,
    /// Racetrack LLC without any position-error protection.
    RacetrackUnprotected,
    /// Racetrack LLC with SECDED p-ECC-O (1-step shift-and-write).
    RacetrackPeccO,
    /// Racetrack LLC with SECDED p-ECC and the worst-case safe
    /// distance.
    RacetrackPeccSWorst,
    /// Racetrack LLC with SECDED p-ECC and the adaptive safe distance.
    RacetrackPeccSAdaptive,
}

impl LlcChoice {
    /// All seven configurations in the paper's legend order.
    pub const ALL: [LlcChoice; 7] = [
        LlcChoice::SramBaseline,
        LlcChoice::SttRam,
        LlcChoice::RacetrackIdeal,
        LlcChoice::RacetrackUnprotected,
        LlcChoice::RacetrackPeccO,
        LlcChoice::RacetrackPeccSAdaptive,
        LlcChoice::RacetrackPeccSWorst,
    ];

    /// The Table 5 scheme whose check energy applies, if any.
    pub fn scheme(&self) -> Option<Scheme> {
        match self {
            LlcChoice::RacetrackPeccO => Some(Scheme::PeccO),
            LlcChoice::RacetrackPeccSWorst => Some(Scheme::PeccSWorst),
            LlcChoice::RacetrackPeccSAdaptive => Some(Scheme::PeccSAdaptive),
            _ => None,
        }
    }

    /// Whether this is a racetrack design.
    pub fn is_racetrack(&self) -> bool {
        !matches!(self, LlcChoice::SramBaseline | LlcChoice::SttRam)
    }

    /// The protection scheme and shift policy of a racetrack preset, or
    /// `None` for SRAM and STT-RAM. RM-Ideal's are unprotected and
    /// unconstrained; [`LlcChoice::llc`] also makes its shifts free.
    pub fn racetrack_parts(&self) -> Option<(ProtectionKind, ShiftPolicy)> {
        match self {
            LlcChoice::SramBaseline | LlcChoice::SttRam => None,
            LlcChoice::RacetrackIdeal | LlcChoice::RacetrackUnprotected => {
                Some((ProtectionKind::None, ShiftPolicy::Unconstrained))
            }
            LlcChoice::RacetrackPeccO => Some((ProtectionKind::SECDED_O, ShiftPolicy::StepByStep)),
            LlcChoice::RacetrackPeccSWorst => {
                Some((ProtectionKind::SECDED, ShiftPolicy::WORST_CASE))
            }
            LlcChoice::RacetrackPeccSAdaptive => {
                Some((ProtectionKind::SECDED, ShiftPolicy::Adaptive))
            }
        }
    }

    /// The LLC this preset simulates: the one mapping both
    /// [`Hierarchy::new`] and [`run_shared`] read. Racetrack presets are
    /// single-bank shift back ends of the 128 MB racetrack LLC.
    pub fn llc(&self) -> LaneLlc {
        match self {
            LlcChoice::SramBaseline => LaneLlc::Flat(SimpleLlc::new(LlcDesign::sram())),
            LlcChoice::SttRam => LaneLlc::Flat(SimpleLlc::new(LlcDesign::stt_ram())),
            LlcChoice::RacetrackIdeal => LaneLlc::Racetrack(ShiftBackEnd::ideal(1)),
            racetrack => {
                let (kind, policy) = racetrack.racetrack_parts().expect("a racetrack preset");
                LaneLlc::Racetrack(ShiftBackEnd::new(kind, policy, 1))
            }
        }
    }
}

/// The LLC of one lane of a shared pass ([`run_shared`]).
#[derive(Debug, Clone)]
pub enum LaneLlc {
    /// A flat-latency LLC with a directory of its own.
    Flat(SimpleLlc),
    /// A racetrack shift back end, served from the pass's one racetrack
    /// directory.
    Racetrack(ShiftBackEnd),
}

impl std::fmt::Display for LlcChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlcChoice::SramBaseline => write!(f, "SRAM"),
            LlcChoice::SttRam => write!(f, "STT-RAM"),
            LlcChoice::RacetrackIdeal => write!(f, "RM-Ideal"),
            LlcChoice::RacetrackUnprotected => write!(f, "RM w/o p-ECC"),
            LlcChoice::RacetrackPeccO => write!(f, "RM p-ECC-O"),
            LlcChoice::RacetrackPeccSWorst => write!(f, "RM p-ECC-S worst"),
            LlcChoice::RacetrackPeccSAdaptive => write!(f, "RM p-ECC-S adaptive"),
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Configuration simulated.
    pub choice: LlcChoice,
    /// Memory accesses driven.
    pub accesses: u64,
    /// Instructions retired (memory + gap).
    pub instructions: u64,
    /// Total execution cycles.
    pub cycles: u64,
    /// Wall-clock duration at the core clock.
    pub duration: Seconds,
    /// L1 miss count (summed over cores).
    pub l1_misses: u64,
    /// L2 miss count.
    pub l2_misses: u64,
    /// LLC statistics.
    pub llc: crate::llc::LlcStats,
    /// LLC activity for energy accounting.
    pub activity: LlcActivity,
    /// Main-memory accesses (LLC misses + writebacks).
    pub dram_accesses: u64,
    /// Cycles spent on LLC shifts (0 for SRAM/STT-RAM).
    pub shift_cycles: u64,
    /// Lazily-materialised state occupancy (all zero for flat models).
    pub scale: crate::llc::ScaleStats,
}

impl SimResult {
    /// Records this run's summary gauges into the global metrics
    /// registry (no-op while observability is off).
    ///
    /// Kept separate from [`Hierarchy::result`] so parallel sweeps can
    /// record results *after* their workers join, in deterministic
    /// cell order — concurrent `gauge_set`s from inside workers would
    /// leave whichever cell finished last in the snapshot.
    pub fn record_metrics(&self) {
        let reg = rtm_obs::global().registry();
        if reg.enabled() {
            reg.gauge_set("hier.cycles", self.cycles as f64);
            reg.gauge_set("energy.llc_dynamic_pj", self.llc_dynamic_energy().value());
            reg.gauge_set("energy.llc_total_pj", self.llc_total_energy().value());
            reg.gauge_set("energy.system_pj", self.system_energy().value());
            self.scale.record(reg);
        }
    }

    /// Average shift intensity over the run (shift operations per
    /// second of simulated time).
    pub fn shift_intensity(&self) -> f64 {
        if self.duration.as_secs() == 0.0 {
            0.0
        } else {
            self.llc.shift_ops as f64 / self.duration.as_secs()
        }
    }

    /// MTTF implied by the accumulated DUE probability mass:
    /// `duration / expected_dues`.
    pub fn due_mttf(&self) -> Seconds {
        if self.llc.expected_dues <= 0.0 {
            Seconds(f64::INFINITY)
        } else {
            Seconds(self.duration.as_secs() / self.llc.expected_dues)
        }
    }

    /// MTTF implied by the accumulated SDC probability mass.
    pub fn sdc_mttf(&self) -> Seconds {
        if self.llc.expected_sdcs <= 0.0 {
            Seconds(f64::INFINITY)
        } else {
            Seconds(self.duration.as_secs() / self.llc.expected_sdcs)
        }
    }

    /// LLC dynamic energy under the configuration's energy model.
    pub fn llc_dynamic_energy(&self) -> Picojoules {
        self.energy_model().dynamic_energy(&self.activity)
    }

    /// LLC total (dynamic + leakage) energy.
    pub fn llc_total_energy(&self) -> Picojoules {
        self.energy_model().total_energy(&self.activity)
    }

    /// System energy proxy for Fig. 18: LLC total energy plus DRAM
    /// dynamic energy (L1/L2 are identical across configurations and
    /// cancel in the comparison; we include them as a constant via the
    /// hierarchy's counters anyway).
    pub fn system_energy(&self) -> Picojoules {
        let sys = SystemConfig::paper(CacheTech::Racetrack);
        let dram = sys.memory.access_energy * self.dram_accesses as f64;
        self.llc_total_energy() + dram
    }

    fn energy_model(&self) -> LlcEnergyModel {
        let design = match self.choice {
            LlcChoice::SramBaseline => LlcDesign::sram(),
            LlcChoice::SttRam => LlcDesign::stt_ram(),
            _ => LlcDesign::racetrack(),
        };
        LlcEnergyModel::new(
            design,
            self.choice.scheme(),
            RacetrackLlc::STRIPES_PER_GROUP,
        )
    }
}

/// The level an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    L1,
    L2,
    Llc,
}

/// The private L1s and the shared L2 in front of the LLC, with the
/// platform's latencies.
#[derive(Debug, Clone)]
struct UpperCaches {
    config: SystemConfig,
    l1: Vec<Cache>,
    l2: Cache,
}

impl UpperCaches {
    /// The paper's Table 4 L1s and L2. They, main memory and the clock
    /// are the same under every LLC technology, so one front end serves
    /// every LLC of a shared pass.
    fn new() -> Self {
        let config = SystemConfig::paper(CacheTech::Racetrack);
        Self {
            l1: (0..config.cores)
                .map(|_| Cache::new(config.l1.capacity_bytes, config.l1.ways, config.line_bytes))
                .collect(),
            l2: Cache::new(config.l2.capacity_bytes, config.l2.ways, config.line_bytes),
            config,
        }
    }

    /// Looks `a` up in its core's L1 and, on a miss, in the L2; returns
    /// the level that serves it.
    fn walk(&mut self, a: &MemAccess, kind: AccessKind) -> Level {
        let core = (a.core as usize) % self.l1.len();
        if self.l1[core].access(a.addr, kind).is_hit() {
            Level::L1
        } else if self.l2.access(a.addr, kind).is_hit() {
            Level::L2
        } else {
            Level::Llc
        }
    }
}

/// The in-order core's clock and retired work: one per simulated
/// platform.
#[derive(Debug, Clone, Default)]
struct Core {
    cycles: u64,
    instructions: u64,
    accesses: u64,
    dram_accesses: u64,
    /// What the `hier.*` metrics need beyond the fields above, while
    /// the registry is on.
    counts: RunCounts<HierCounts>,
}

/// The `hier.*` metrics a platform's accesses feed that [`Core`] does
/// not hold, counted per access; each access lands once in the latency
/// histogram, whose count is the accesses.
#[derive(Debug)]
struct HierCounts {
    /// `Core::dram_accesses` as last published.
    published_dram: u64,
    l1_misses: u64,
    l2_misses: u64,
    latency: IntHistogram,
}

impl Default for HierCounts {
    fn default() -> Self {
        Self {
            published_dram: 0,
            l1_misses: 0,
            l2_misses: 0,
            latency: IntHistogram::new(&DEFAULT_BUCKETS),
        }
    }
}

impl Core {
    /// Retires `a`'s gap instructions at 1 IPC; returns the cycle `a`
    /// issues at.
    fn issue(&mut self, a: &MemAccess) -> u64 {
        self.accesses += 1;
        self.instructions += 1 + a.gap_instructions as u64;
        self.cycles += a.gap_instructions as u64;
        self.cycles
    }

    /// Charges the latency of an access served at `level` (`llc` is the
    /// LLC's response when it got there) and returns it.
    fn complete(&mut self, config: &SystemConfig, level: Level, llc: Option<LlcResponse>) -> u64 {
        let mut latency = config.l1.access_cycles;
        if level != Level::L1 {
            latency += config.l2.access_cycles;
        }
        let mut dram = 0;
        if let Some(r) = llc {
            latency += r.latency_cycles;
            if !r.hit {
                latency += config.memory.access_cycles;
                dram += 1;
            }
            dram += u64::from(r.writeback);
        }
        self.dram_accesses += dram;
        self.cycles += latency;
        if let Some(counts) = self.counts.get() {
            counts.l1_misses += u64::from(level != Level::L1);
            counts.l2_misses += u64::from(level == Level::Llc);
            counts.latency.record(latency);
        }
        latency
    }

    /// Publishes the `hier.*` metrics of the accesses since the last
    /// publication into the global registry.
    fn flush_metrics(&mut self) {
        if let Some(counts) = self.counts.get() {
            let dram = self.dram_accesses - counts.published_dram;
            let reg = rtm_obs::global().registry();
            reg.counters_add(&[
                ("hier.l1_misses", counts.l1_misses),
                ("hier.l2_misses", counts.l2_misses),
                ("hier.dram_accesses", dram),
                ("hier.accesses", counts.latency.count()),
            ]);
            reg.histogram_merge("hier.access_latency_cycles", &counts.latency);
            *counts = HierCounts {
                published_dram: self.dram_accesses,
                ..HierCounts::default()
            };
        }
    }

    /// This platform's result, given its LLC's counters.
    fn result(
        &self,
        choice: LlcChoice,
        upper: &UpperCaches,
        llc: LlcStats,
        activity: impl FnOnce(Seconds) -> LlcActivity,
        scale: ScaleStats,
    ) -> SimResult {
        let duration = Seconds(self.cycles as f64 / upper.config.clock_hz);
        // Per-run gauges are NOT recorded here: results are built inside
        // parallel sweep workers, where concurrent last-writer-wins
        // `gauge_set`s would make the registry depend on scheduling.
        // Callers that want the gauges invoke
        // [`SimResult::record_metrics`] after their parallel section.
        SimResult {
            choice,
            accesses: self.accesses,
            instructions: self.instructions,
            cycles: self.cycles,
            duration,
            l1_misses: upper.l1.iter().map(|c| c.stats().misses).sum(),
            l2_misses: upper.l2.stats().misses,
            llc,
            activity: activity(duration),
            dram_accesses: self.dram_accesses,
            shift_cycles: llc.shift_cycles,
            scale,
        }
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        // A run unwinding from a panic publishes nothing: its results
        // are lost anyway.
        if !std::thread::panicking() {
            self.flush_metrics();
        }
    }
}

fn kind_of(a: &MemAccess) -> AccessKind {
    if a.is_write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// The simulated platform.
pub struct Hierarchy {
    choice: LlcChoice,
    upper: UpperCaches,
    llc: Box<dyn LlcModel>,
    core: Core,
}

impl Hierarchy {
    /// Builds the paper's Table 4 platform with the chosen LLC.
    pub fn new(choice: LlcChoice) -> Self {
        let llc: Box<dyn LlcModel> = match choice.llc() {
            LaneLlc::Flat(llc) => Box::new(llc),
            LaneLlc::Racetrack(back) => Box::new(RacetrackLlc::with_back_end(back)),
        };
        Self::with_llc(llc, choice)
    }

    /// Builds the platform with a *custom* racetrack LLC configuration
    /// (protection kind × policy combinations beyond the named
    /// [`LlcChoice`] presets, e.g. the SED and plain-SECDED variants of
    /// Figs. 10-11). Results are labelled with the closest preset for
    /// energy-model purposes: `RacetrackUnprotected`.
    pub fn with_racetrack(kind: ProtectionKind, policy: ShiftPolicy) -> Self {
        Self::from_racetrack_llc(RacetrackLlc::new(kind, policy))
    }

    /// [`Hierarchy::with_racetrack`] with per-shift outcome sampling
    /// through `fault_model` (see [`RacetrackLlc::with_fault_model`]) —
    /// the full scheme × fault-model matrix entry point. Latency, risk
    /// and cache behaviour are identical to the unsampled hierarchy;
    /// the run additionally tallies observed sampled errors in
    /// [`crate::llc::LlcStats::sampled_shifts`] /
    /// [`crate::llc::LlcStats::observed_errors`].
    pub fn with_racetrack_faults(
        kind: ProtectionKind,
        policy: ShiftPolicy,
        fault_model: rtm_track::fault::FaultModelChoice,
        engine: rtm_model::analytic::Engine,
        seed: u64,
    ) -> Self {
        Self::from_racetrack_llc(RacetrackLlc::new(kind, policy).with_fault_model(
            fault_model,
            engine,
            seed,
        ))
    }

    fn from_racetrack_llc(llc: RacetrackLlc) -> Self {
        Self::with_llc(Box::new(llc), LlcChoice::RacetrackUnprotected)
    }

    /// Builds the platform around an arbitrary LLC backend, such as a
    /// wrapper that records or reshapes a [`RacetrackLlc`]'s responses,
    /// so the L1/L2 front end and all accounting stay identical to the
    /// paper's configuration. `choice` labels the result for
    /// energy-model purposes.
    pub fn with_llc(llc: Box<dyn LlcModel>, choice: LlcChoice) -> Self {
        Self {
            choice,
            upper: UpperCaches::new(),
            llc,
            core: Core::default(),
        }
    }

    /// The configuration being simulated.
    pub fn choice(&self) -> LlcChoice {
        self.choice
    }

    /// Drives one access through the hierarchy, returning its latency.
    pub fn access(&mut self, a: &MemAccess) -> u64 {
        let kind = kind_of(a);
        let now = self.core.issue(a);
        let level = self.upper.walk(a, kind);
        let llc = (level == Level::Llc).then(|| self.llc.access(a.addr, kind, now));
        self.core.complete(&self.upper.config, level, llc)
    }

    /// Runs `n` accesses from the generator and summarises, publishing
    /// the run's per-access metrics.
    pub fn run(&mut self, gen: &mut TraceGenerator, n: u64) -> SimResult {
        for _ in 0..n {
            let a = gen.next_access();
            self.access(&a);
        }
        self.flush_metrics();
        self.result()
    }

    /// Replays a pre-recorded access stream (see
    /// [`rtm_trace::replay`]) and summarises, publishing the run's
    /// per-access metrics.
    pub fn run_trace(&mut self, accesses: &[MemAccess]) -> SimResult {
        for a in accesses {
            self.access(a);
        }
        self.flush_metrics();
        self.result()
    }

    /// Publishes the `hier.*` metrics and the LLC's per-access metrics
    /// counted so far into the global registry. [`Self::run`] and
    /// [`Self::run_trace`] call it; a hierarchy driven access by access
    /// publishes when it is flushed or dropped.
    pub fn flush_metrics(&mut self) {
        self.core.flush_metrics();
        self.llc.flush_metrics();
    }

    /// Snapshot of the current state as a result record.
    pub fn result(&self) -> SimResult {
        self.core.result(
            self.choice,
            &self.upper,
            self.llc.stats(),
            |duration| self.llc.activity(duration),
            self.llc.scale_stats(),
        )
    }
}

/// Runs `n` accesses from `gen` through one L1/L2 front end and serves
/// every access that reaches the LLC through each of `llcs`, each lane at
/// its own clock. Flat lanes each own their directory; racetrack lanes
/// share one directory of the 128 MB racetrack LLC. Returns one result
/// per lane, in order and labelled with its [`LlcChoice`], each equal to
/// the [`Hierarchy::run`] of that lane's LLC alone: a
/// [`LlcChoice::llc`] preset equals [`Hierarchy::new`], and any other
/// racetrack back end the [`RacetrackLlc`] built with it.
///
/// Sharing is exact because nothing above the shift controllers reads
/// the clock and no level back-invalidates another: the trace, the
/// L1/L2 caches, the racetrack directory and its head registers see the
/// same address stream under every lane, so each access's L1/L2 outcome
/// is the same for all of them, and so are its racetrack hits,
/// writebacks and shift distance. Only LLC latencies differ, and each
/// lane keeps its own clock. Every lane counts the same per-access
/// metrics its own [`Hierarchy`] would and publishes them when the pass
/// ends; counters and integer-valued histograms do not depend on their
/// order, while the span ring interleaves the lanes access by access.
///
/// # Panics
///
/// Panics if the racetrack back ends' bank counts differ.
pub fn run_shared(
    llcs: Vec<(LlcChoice, LaneLlc)>,
    gen: &mut TraceGenerator,
    n: u64,
) -> Vec<SimResult> {
    if llcs.is_empty() {
        return Vec::new();
    }
    let banks: Vec<u32> = llcs
        .iter()
        .filter_map(|(_, llc)| match llc {
            LaneLlc::Racetrack(back) => Some(back.banks()),
            LaneLlc::Flat(_) => None,
        })
        .collect();
    assert!(
        banks.windows(2).all(|b| b[0] == b[1]),
        "back ends sharing a directory must share its bank layout"
    );
    let mut upper = UpperCaches::new();
    let mut dir = banks
        .first()
        .map(|&b| LlcDirectory::new(LlcDesign::racetrack(), b));
    let mut lanes: Vec<(LlcChoice, Core, LaneLlc)> = llcs
        .into_iter()
        .map(|(choice, llc)| (choice, Core::default(), llc))
        .collect();
    for _ in 0..n {
        let a = gen.next_access();
        let kind = kind_of(&a);
        let level = upper.walk(&a, kind);
        let placed = match (&mut dir, level) {
            (Some(dir), Level::Llc) => Some(dir.place(a.addr, kind)),
            _ => None,
        };
        for (_, core, llc) in &mut lanes {
            let now = core.issue(&a);
            let response = (level == Level::Llc).then(|| match llc {
                LaneLlc::Flat(llc) => llc.access(a.addr, kind, now),
                LaneLlc::Racetrack(back) => {
                    back.serve(placed.as_ref().expect("placed at the LLC"), now, false)
                }
            });
            core.complete(&upper.config, level, response);
        }
    }
    for (_, core, llc) in &mut lanes {
        core.flush_metrics();
        if let LaneLlc::Racetrack(back) = llc {
            back.flush_metrics();
        }
    }
    lanes
        .iter()
        .map(|(choice, core, llc)| match llc {
            LaneLlc::Flat(llc) => core.result(
                *choice,
                &upper,
                llc.stats(),
                |duration| llc.activity(duration),
                llc.scale_stats(),
            ),
            LaneLlc::Racetrack(back) => {
                let dir = dir.as_ref().expect("racetrack lanes have a directory");
                core.result(
                    *choice,
                    &upper,
                    back.stats(dir),
                    |duration| back.activity(dir, duration),
                    dir.scale_stats(),
                )
            }
        })
        .collect()
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("choice", &self.choice)
            .field("cycles", &self.core.cycles)
            .field("accesses", &self.core.accesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::WorkloadProfile;

    fn run(choice: LlcChoice, workload: &str, n: u64) -> SimResult {
        let p = WorkloadProfile::by_name(workload).unwrap();
        let mut sys = Hierarchy::new(choice);
        sys.run(&mut TraceGenerator::new(p, 42), n)
    }

    #[test]
    fn counters_balance() {
        let r = run(LlcChoice::SramBaseline, "swaptions", 50_000);
        assert_eq!(r.accesses, 50_000);
        assert!(r.instructions >= r.accesses);
        assert!(r.cycles >= r.instructions / 2);
        assert!(r.l1_misses <= r.accesses);
        assert!(r.l2_misses <= r.l1_misses);
        assert!(r.llc.cache.accesses() == r.l2_misses);
    }

    #[test]
    fn hot_workload_mostly_hits_l1() {
        let r = run(LlcChoice::SramBaseline, "swaptions", 100_000);
        assert!(
            (r.l1_misses as f64) < 0.5 * r.accesses as f64,
            "l1 misses {} of {}",
            r.l1_misses,
            r.accesses
        );
    }

    #[test]
    fn capacity_sensitive_workload_prefers_bigger_llc() {
        // canneal's 100 MB working set thrashes a 4 MB SRAM LLC but
        // largely fits the 128 MB racetrack LLC.
        let sram = run(LlcChoice::SramBaseline, "canneal", 300_000);
        let rm = run(LlcChoice::RacetrackIdeal, "canneal", 300_000);
        assert!(
            rm.dram_accesses * 2 < sram.dram_accesses * 3,
            "rm {} vs sram {}",
            rm.dram_accesses,
            sram.dram_accesses
        );
        // Note: cold-start compulsory misses dominate short runs, so the
        // execution-time gap grows with run length (exercised in the
        // experiment drivers with longer traces).
    }

    #[test]
    fn insensitive_workload_sees_little_gain() {
        let sram = run(LlcChoice::SramBaseline, "blackscholes", 200_000);
        let rm = run(LlcChoice::RacetrackIdeal, "blackscholes", 200_000);
        let ratio = rm.cycles as f64 / sram.cycles as f64;
        assert!((0.8..1.2).contains(&ratio), "cycle ratio {ratio}");
    }

    #[test]
    fn protection_adds_bounded_slowdown() {
        let ideal = run(LlcChoice::RacetrackUnprotected, "streamcluster", 200_000);
        let adaptive = run(LlcChoice::RacetrackPeccSAdaptive, "streamcluster", 200_000);
        let pecc_o = run(LlcChoice::RacetrackPeccO, "streamcluster", 200_000);
        assert!(adaptive.cycles >= ideal.cycles);
        assert!(pecc_o.cycles >= adaptive.cycles);
        // Fig. 16: even p-ECC-O costs only a few percent of execution
        // time on average.
        let worst_ratio = pecc_o.cycles as f64 / ideal.cycles as f64;
        assert!(worst_ratio < 1.30, "p-ECC-O slowdown {worst_ratio}");
    }

    #[test]
    fn due_risk_orders_match_fig11() {
        let unprot = run(LlcChoice::RacetrackUnprotected, "canneal", 150_000);
        let adaptive = run(LlcChoice::RacetrackPeccSAdaptive, "canneal", 150_000);
        // Unprotected: everything is silent corruption, no DUEs.
        assert_eq!(unprot.llc.expected_dues, 0.0);
        assert!(unprot.llc.expected_sdcs > 0.0);
        // Adaptive p-ECC-S: SDCs essentially eliminated, DUEs tiny.
        assert!(adaptive.llc.expected_sdcs < unprot.llc.expected_sdcs * 1e-9);
        assert!(adaptive.due_mttf().as_secs() > unprot.sdc_mttf().as_secs());
    }

    #[test]
    fn shift_intensity_is_positive_for_racetrack() {
        let r = run(LlcChoice::RacetrackPeccSAdaptive, "canneal", 100_000);
        assert!(r.shift_intensity() > 0.0);
        assert!(r.llc.shift_steps > 0);
        assert!(r.llc.zero_shift_accesses > 0);
    }

    #[test]
    fn energy_accounting_runs() {
        let r = run(LlcChoice::RacetrackPeccSAdaptive, "vips", 100_000);
        let dyn_e = r.llc_dynamic_energy();
        let tot = r.llc_total_energy();
        assert!(dyn_e.value() > 0.0);
        assert!(tot.value() > dyn_e.value());
        assert!(r.system_energy().value() > tot.value());
    }

    #[test]
    fn sram_has_no_shifts() {
        let r = run(LlcChoice::SramBaseline, "canneal", 100_000);
        assert_eq!(r.llc.shift_ops, 0);
        assert_eq!(r.shift_cycles, 0);
        assert_eq!(r.llc.expected_sdcs, 0.0);
    }

    #[test]
    fn upper_levels_are_technology_independent() {
        // One L1/L2 front end serves every LLC of a shared pass: only
        // the LLC differs between the technologies' platforms.
        let rm = SystemConfig::paper(CacheTech::Racetrack);
        for tech in [CacheTech::Sram, CacheTech::SttRam] {
            let other = SystemConfig::paper(tech);
            assert_eq!(
                SystemConfig {
                    llc: rm.llc,
                    ..other
                },
                rm,
                "{tech:?}"
            );
        }
    }

    #[test]
    fn all_seven_choices_run() {
        for c in LlcChoice::ALL {
            let r = run(c, "x264", 30_000);
            assert_eq!(r.accesses, 30_000, "{c}");
        }
    }
}
