//! Last-level-cache backends: flat-latency SRAM / STT-RAM models and
//! the racetrack model with head-position tracking and the error-aware
//! shift controller.

use crate::cache::{AccessKind, AccessResult, Cache, CacheStats, Way};
use rtm_controller::controller::{ShiftController, ShiftPolicy};
use rtm_cost::energy::LlcActivity;
use rtm_cost::technology::LlcDesign;
use rtm_model::analytic::Engine;
use rtm_model::params::DeviceParams;
use rtm_obs::metrics::{IntHistogram, RunCounts, DEFAULT_BUCKETS};
use rtm_pecc::layout::ProtectionKind;
use rtm_track::fault::{FaultModel, FaultModelChoice, SelectedFaultModel};
use rtm_track::geometry::StripeGeometry;
use rtm_util::arena::PagedBytes;
use rtm_util::div::Divisor;
use rtm_util::units::Seconds;

/// Counters common to all LLC backends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlcStats {
    /// Cache-level counters.
    pub cache: CacheStats,
    /// Shift operations issued (racetrack only).
    pub shift_ops: u64,
    /// Total shift steps (racetrack only).
    pub shift_steps: u64,
    /// Cycles spent shifting (STS pulses plus the p-ECC checks on the
    /// critical path — [`Self::verify_cycles`] is the check portion).
    pub shift_cycles: u64,
    /// Critical-path cycles spent in p-ECC position checks (a subset
    /// of [`Self::shift_cycles`]). Off-critical-path parking shifts
    /// contribute neither here nor to `shift_cycles`.
    pub verify_cycles: u64,
    /// Accesses that required no shift (head already aligned).
    pub zero_shift_accesses: u64,
    /// Expected detected-uncorrectable position errors (probability
    /// mass accumulated over the run, all stripes).
    pub expected_dues: f64,
    /// Expected silent corruptions.
    pub expected_sdcs: f64,
    /// Per-shift outcomes drawn by the optional fault-sampling engine
    /// (0 when sampling is off).
    pub sampled_shifts: u64,
    /// Sampled outcomes that were position errors.
    pub observed_errors: u64,
}

/// What an LLC access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcResponse {
    /// Whether the line was present.
    pub hit: bool,
    /// Total LLC service latency in cycles (shift + array access),
    /// excluding any DRAM time on a miss (the hierarchy adds that).
    pub latency_cycles: u64,
    /// Whether a dirty victim had to be written back to memory.
    pub writeback: bool,
}

/// Occupancy of the lazily materialised per-group state, kept separate
/// from [`LlcStats`] so the lane-path oracle-equality gates (which merge
/// and compare `LlcStats` per bank) are untouched by scale accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Stripe groups the configured capacity spans.
    pub configured_groups: u64,
    /// Groups whose state has been touched (head register written).
    pub materialised_groups: u64,
    /// Zero-shift accesses answered while the group's state was still
    /// untouched (the pristine fast path).
    pub pristine_hits: u64,
    /// Approximate heap bytes held by per-group state (head store pages
    /// plus arena slots where applicable).
    pub arena_bytes: u64,
}

impl ScaleStats {
    /// Records the occupancy gauges into the given registry.
    pub fn record(&self, reg: &rtm_obs::metrics::MetricsRegistry) {
        reg.gauge_set("scale.configured_groups", self.configured_groups as f64);
        reg.gauge_set("scale.materialised_groups", self.materialised_groups as f64);
        reg.gauge_set("scale.pristine_hits", self.pristine_hits as f64);
        reg.gauge_set("scale.arena_bytes", self.arena_bytes as f64);
    }
}

/// Interface the hierarchy drives.
pub trait LlcModel {
    /// Performs an access at absolute time `now_cycles`.
    fn access(&mut self, addr: u64, kind: AccessKind, now_cycles: u64) -> LlcResponse;

    /// Counters so far.
    fn stats(&self) -> LlcStats;

    /// The design point (latency/energy constants).
    fn design(&self) -> &LlcDesign;

    /// Activity record for energy accounting; `duration` is filled by
    /// the caller that knows wall-clock time.
    fn activity(&self, duration: Seconds) -> LlcActivity;

    /// Occupancy of lazily materialised state. Backends without lazy
    /// state (flat-latency models) report the default all-zero record.
    fn scale_stats(&self) -> ScaleStats {
        ScaleStats::default()
    }

    /// Publishes the metrics this backend counted into the global
    /// registry; the hierarchy calls it where its run ends. Backends
    /// that count nothing keep the default no-op.
    fn flush_metrics(&mut self) {}
}

/// A flat-latency LLC (SRAM or STT-RAM).
#[derive(Debug, Clone)]
pub struct SimpleLlc {
    cache: Cache,
    design: LlcDesign,
}

impl SimpleLlc {
    /// Builds the LLC for a design point with 64 B lines, 16 ways.
    pub fn new(design: LlcDesign) -> Self {
        Self {
            cache: Cache::new(design.capacity_bytes, 16, 64),
            design,
        }
    }
}

impl LlcModel for SimpleLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, _now: u64) -> LlcResponse {
        let r = self.cache.access(addr, kind);
        let latency = match kind {
            AccessKind::Read => self.design.read_cycles,
            AccessKind::Write => self.design.write_cycles,
        };
        LlcResponse {
            hit: r.is_hit(),
            latency_cycles: latency,
            writeback: matches!(
                r,
                AccessResult::Miss {
                    writeback: Some(_),
                    ..
                }
            ),
        }
    }

    fn stats(&self) -> LlcStats {
        LlcStats {
            cache: *self.cache.stats(),
            ..LlcStats::default()
        }
    }

    fn design(&self) -> &LlcDesign {
        &self.design
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        let s = self.cache.stats();
        LlcActivity {
            reads: s.reads,
            writes: s.writes + s.writebacks,
            shift_steps: 0,
            shift_ops: 0,
            pecc_checks: 0,
            pecc_corrections: 0,
            duration,
        }
    }
}

/// Idle head management policy, in the spirit of the head-management
/// prior work the paper builds on (TapeCache / cross-layer design):
/// what a stripe group's head does between requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HeadPolicy {
    /// Leave the head where the last access put it (the paper's
    /// configuration).
    #[default]
    Stay,
    /// During idle time, drift the head back to the centre of its
    /// range, halving the expected on-demand distance for random
    /// access at the cost of extra (off-critical-path) shift energy
    /// and risk.
    ReturnToCentre,
}

/// The clock-independent half of the racetrack LLC: the tag directory
/// and the per-group head registers.
///
/// Data mapping follows the paper (and STAG): each 64-byte line is
/// interleaved bit-by-bit over a group of 512 stripes sharing one shift
/// command; a group of 64-domain stripes therefore holds 64 lines, and
/// consecutive physical lines sit in adjacent domains. Every group has
/// its own head-position register.
///
/// Which way a line lands in, whether an access hits or evicts a dirty
/// victim, and how far its group's head must move depend only on the
/// address stream, never on when an access arrives or how its shift is
/// planned, so one directory can drive several [`ShiftBackEnd`]s.
#[derive(Debug, Clone)]
pub(crate) struct LlcDirectory {
    cache: Cache,
    design: LlcDesign,
    geometry: StripeGeometry,
    /// Lines per stripe group.
    group_lines: Divisor,
    /// Banks the stripe groups interleave over (`group % banks`).
    banks: Divisor,
    /// Current head position of each stripe group, stored sparsely:
    /// untouched groups cost nothing and read as head 0 (the
    /// fabrication state), so a GB-scale LLC only pays for the groups a
    /// trace actually visits.
    heads: PagedBytes,
    /// The head position each domain of a group is accessed at
    /// ([`StripeGeometry::head_position_for`], tabulated once).
    head_for_domain: Box<[u8]>,
    /// Accesses that required no shift (head already aligned).
    zero_shift: u64,
    /// Zero-shift accesses served while the group's head register was
    /// still untouched (lazy fast path; subset of `zero_shift`).
    pristine_hits: u64,
}

/// What an [`LlcDirectory`] resolved for one access: everything about
/// it that no shift controller can change.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    hit: bool,
    writeback: bool,
    /// The stripe group the line lives in.
    group: usize,
    /// The bank serving that group.
    bank: usize,
    /// Steps the group's head moved onto the line (0 when aligned).
    distance: u32,
    /// Array read or write cycles.
    array_cycles: u64,
}

/// A set's place in the racetrack LLC directory's storage: the index of
/// its first way in the tag and state arrays. [`RacetrackLlc::resolve`]
/// makes one per address so that a [`GroupProbe`] can score the address
/// any number of times without a division; nothing else makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetSlot(u32);

/// An address's coordinates in the racetrack LLC directory: its stripe
/// group, its set's storage slot and the bank serving the group. No
/// access moves any of them, so a scheduler resolves each request once,
/// when it queues, and serves it from these coordinates
/// ([`RacetrackLlc::access_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSite {
    /// The stripe group the address's line lands in. Every way of a set
    /// lies in the same group (four consecutive sets share one), so this
    /// holds whichever way the line occupies.
    pub group: usize,
    /// The storage slot of the address's set.
    pub set: SetSlot,
    /// The bank whose controller serves the group: `group % banks`.
    pub bank: u32,
}

impl LlcDirectory {
    /// An empty directory for `design` (64 B lines, 16 ways, the
    /// paper's stripe geometry) whose stripe groups interleave over
    /// `banks`.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity divides into whole stripe groups of
    /// 64 lines, and into at most 2^32 lines (a [`SetSlot`] is a `u32`).
    pub(crate) fn new(design: LlcDesign, banks: u32) -> Self {
        let geometry = StripeGeometry::paper_default();
        let group_lines = geometry.data_len() as u64;
        let lines = design.capacity_bytes / 64;
        assert!(
            design.capacity_bytes.is_multiple_of(64 * group_lines) && lines > 0,
            "LLC capacity {} B does not divide into whole {group_lines}-line stripe groups",
            design.capacity_bytes
        );
        assert!(
            lines <= 1 << 32,
            "LLC capacity {} B exceeds the directory's 2^32 lines",
            design.capacity_bytes
        );
        // A group's lines sit contiguously in storage (below), so a
        // line's domain is its storage index masked to the group size.
        assert!(group_lines.is_power_of_two(), "stripe groups of 2^n lines");
        // Bank-major directory storage: each bank's (4-set-per-group,
        // round-robin-interleaved) sets become one contiguous slice, so
        // a per-bank serving worker touches — and faults in — only its
        // own banks' share of the arrays.
        let sets_per_group = geometry.data_len() as u32 / 16;
        let cache =
            Cache::new(design.capacity_bytes, 16, 64).with_bank_layout(banks, sets_per_group);
        let head_for_domain = (0..geometry.data_len())
            .map(|d| geometry.head_position_for(d) as u8)
            .collect();
        Self {
            cache,
            design,
            geometry,
            group_lines: Divisor::new(group_lines),
            banks: Divisor::new(u64::from(banks)),
            heads: PagedBytes::new((lines / group_lines) as usize),
            head_for_domain,
            zero_shift: 0,
            pristine_hits: 0,
        }
    }

    /// Looks `addr` up (allocating on a miss) and moves its group's
    /// head onto the line's domain: [`Self::place_at`] of its resolved
    /// site and the way it would touch.
    pub(crate) fn place(&mut self, addr: u64, kind: AccessKind) -> Placement {
        let site = self.resolve(addr);
        let way = self.way(site.set, addr);
        self.place_at(site, way, addr, kind)
    }

    /// Accesses `addr` on `way` of its resolved `site`, the way
    /// [`Self::way`] found with no access to the set since, and moves
    /// the group's head onto the line's domain. Divides nothing and
    /// searches no tags.
    pub(crate) fn place_at(
        &mut self,
        site: LineSite,
        way: Way,
        addr: u64,
        kind: AccessKind,
    ) -> Placement {
        let group = site.group;
        let r = self.cache.access_way(site.set.0 as usize, addr, way, kind);
        let target = self.head_at(site.set, way);
        let current = self.heads.get(group);
        if target == current {
            self.zero_shift += 1;
            if !self.heads.is_touched(group) {
                // The group's head register has never been written: the
                // access was answered entirely from fabrication-state
                // defaults without materialising anything.
                self.pristine_hits += 1;
            }
        } else {
            self.heads.set(group, target);
        }
        Placement {
            hit: r.is_hit(),
            writeback: matches!(
                r,
                AccessResult::Miss {
                    writeback: Some(_),
                    ..
                }
            ),
            group,
            bank: site.bank as usize,
            distance: current.abs_diff(target) as u32,
            array_cycles: self.array_cycles(kind),
        }
    }

    /// Array read or write cycles.
    fn array_cycles(&self, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => self.design.read_cycles,
            AccessKind::Write => self.design.write_cycles,
        }
    }

    /// Moves a group's head to the centre of its range; returns the
    /// steps moved (0 when it was already there).
    fn park(&mut self, group: usize) -> u32 {
        let rest = (self.geometry.max_shift() / 2) as u8;
        let current = self.heads.get(group);
        if current != rest {
            self.heads.set(group, rest);
        }
        current.abs_diff(rest) as u32
    }

    /// Maps a (set, way) slot to its stripe group and domain index.
    fn slot_to_group_domain(&self, set: u64, way: u32) -> (usize, usize) {
        let line_index = set * self.cache.ways() as u64 + way as u64;
        (
            self.group_lines.quotient(line_index) as usize,
            self.group_lines.remainder(line_index) as usize,
        )
    }

    /// `addr`'s group, set slot and bank: every division an address
    /// costs.
    fn resolve(&self, addr: u64) -> LineSite {
        let set = self.cache.set_of(addr);
        let group = self.slot_to_group_domain(set, 0).0;
        LineSite {
            group,
            set: SetSlot(self.cache.set_base(set) as u32),
            bank: self.banks.remainder(group as u64) as u32,
        }
    }

    /// The way an access to `addr`, whose set sits at `set`, would touch
    /// right now: the one tag search an access costs.
    fn way(&self, set: SetSlot, addr: u64) -> Way {
        self.cache.way_at(set.0 as usize, addr)
    }

    /// The head position an access on `way` of the set at `set` needs:
    /// the way's domain, tabulated. Storage keeps each group's lines
    /// contiguous and group-aligned (the bank-major layout moves whole
    /// groups), so the domain is the line's storage index modulo the
    /// group's line count.
    fn head_at(&self, set: SetSlot, way: Way) -> u8 {
        let line = set.0 as usize + way.index() as usize;
        self.head_for_domain[line & (self.head_for_domain.len() - 1)]
    }

    /// Occupancy of the sparse head store.
    pub(crate) fn scale_stats(&self) -> ScaleStats {
        ScaleStats {
            configured_groups: self.heads.len() as u64,
            materialised_groups: self.heads.touched() as u64,
            pristine_hits: self.pristine_hits,
            arena_bytes: self.heads.approx_bytes() as u64,
        }
    }
}

/// The clock-dependent half of the racetrack LLC: one shift controller
/// per bank, the optional fault sampler, and the shift and verify
/// counters. It owns no tag directory, head store or upper caches: it
/// serves the head moves the LLC's directory resolved, so one shared
/// pass over a workload drives one back end per protection scheme
/// ([`crate::hierarchy::run_shared`]).
#[derive(Debug, Clone)]
pub struct ShiftBackEnd {
    /// One shift controller per bank (Section 5.3: interleaved banks
    /// service requests independently, so each adapter measures its own
    /// inter-shift interval).
    controllers: Vec<ShiftController>,
    /// Whether the controller models an idealised zero-latency shift
    /// (the paper's "RM-Ideal" series in Fig. 16).
    ideal_shifts: bool,
    /// Optional per-shift outcome sampler: when set, every planned
    /// sub-shift draws a concrete outcome from the engine's fault
    /// model (alias tables for analytic, Gaussian for mc), giving the
    /// sweep an *observed* error count alongside the controller's
    /// expected-value risk accounting.
    sampler: Option<SelectedFaultModel>,
    shift_ops: u64,
    shift_steps: u64,
    shift_cycles: u64,
    verify_cycles: u64,
    /// Steps spent on idle (off-critical-path) repositioning.
    idle_steps: u64,
    sampled_shifts: u64,
    observed_errors: u64,
    /// What the `llc.*` metrics need beyond the back end's own
    /// statistics, while the registry is on.
    counts: RunCounts<LlcCounts>,
}

/// The `llc.*` metrics a back end's accesses feed that its statistics
/// do not hold, counted per access; each access lands once in the
/// latency histogram, whose count is the accesses.
#[derive(Debug)]
struct LlcCounts {
    /// `idle_steps`, `sampled_shifts` and `observed_errors` as last
    /// published.
    published: [u64; 3],
    zero_shift: u64,
    misses: u64,
    writebacks: u64,
    latency: IntHistogram,
}

impl Default for LlcCounts {
    fn default() -> Self {
        Self {
            published: [0; 3],
            zero_shift: 0,
            misses: 0,
            writebacks: 0,
            latency: IntHistogram::new(&DEFAULT_BUCKETS),
        }
    }
}

/// Draws one outcome per sub-shift of `sequence` when sampling is on;
/// returns the outcomes drawn and how many were position errors.
fn sample_sequence(sampler: &mut Option<SelectedFaultModel>, sequence: &[u32]) -> (u64, u64) {
    match sampler {
        Some(model) => {
            let errors = sequence
                .iter()
                .filter(|&&d| !model.sample(d).is_success())
                .count();
            (sequence.len() as u64, errors as u64)
        }
        None => (0, 0),
    }
}

impl ShiftBackEnd {
    /// One shift controller per bank for the given protection scheme
    /// and safe-distance policy.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(kind: ProtectionKind, policy: ShiftPolicy, banks: u32) -> Self {
        assert!(banks > 0, "at least one bank required");
        Self {
            controllers: vec![ShiftController::new(kind, policy); banks as usize],
            ideal_shifts: false,
            sampler: None,
            shift_ops: 0,
            shift_steps: 0,
            shift_cycles: 0,
            verify_cycles: 0,
            idle_steps: 0,
            sampled_shifts: 0,
            observed_errors: 0,
            counts: RunCounts::new(),
        }
    }

    /// The back end of an idealised racetrack LLC whose shifts are free
    /// (Fig. 16's "RM-Ideal" upper bound): unprotected, unconstrained
    /// plans whose steps count but cost no cycles. Protection risk is
    /// still accounted as zero — the ideal memory has no position errors
    /// either.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn ideal(banks: u32) -> Self {
        let mut back = Self::new(ProtectionKind::None, ShiftPolicy::Unconstrained, banks);
        back.ideal_shifts = true;
        back
    }

    /// Enables per-shift outcome sampling through an explicit
    /// [`FaultModelChoice`] (builder style); see
    /// [`RacetrackLlc::with_fault_model`].
    pub fn with_fault_model(mut self, choice: FaultModelChoice, engine: Engine, seed: u64) -> Self {
        self.sampler = Some(choice.build(engine, &DeviceParams::table1(), seed));
        self
    }

    /// Number of banks.
    pub(crate) fn banks(&self) -> u32 {
        self.controllers.len() as u32
    }

    /// Serves one placed access at absolute time `now`: plans the shift
    /// its head move needs (as a batched-stream continuation when
    /// `fused`), samples the plan's outcomes, and answers with the shift
    /// plus array latency. The plan is the controller's own costed plan,
    /// lent for the call, so serving allocates nothing.
    pub(crate) fn serve(&mut self, p: &Placement, now: u64, fused: bool) -> LlcResponse {
        let shift = if p.distance == 0 {
            0
        } else {
            let (plan, latency) = self.controllers[p.bank].charge_shift(p.distance, now, fused);
            self.shift_ops += plan.sequence.len() as u64;
            self.shift_steps += p.distance as u64;
            let latency = if self.ideal_shifts {
                0
            } else {
                self.verify_cycles +=
                    plan.checks as u64 * rtm_controller::sequence::PECC_CHECK_CYCLES;
                latency.count()
            };
            self.shift_cycles += latency;
            let (sampled, errors) = sample_sequence(&mut self.sampler, &plan.sequence);
            self.sampled_shifts += sampled;
            self.observed_errors += errors;
            latency
        };
        let resp = LlcResponse {
            hit: p.hit,
            latency_cycles: shift + p.array_cycles,
            writeback: p.writeback,
        };
        if let Some(counts) = self.counts.get() {
            counts.zero_shift += u64::from(p.distance == 0);
            counts.misses += u64::from(!resp.hit);
            counts.writebacks += u64::from(resp.writeback);
            counts.latency.record(resp.latency_cycles);
        }
        resp
    }

    /// Charges an idle-time head move of `distance` steps on `bank`:
    /// steps, risk and sampled outcomes count, latency does not.
    fn park(&mut self, bank: usize, distance: u32, now: u64) {
        let (plan, _) = self.controllers[bank].charge_shift(distance, now, false);
        self.shift_ops += plan.sequence.len() as u64;
        self.shift_steps += distance as u64;
        self.idle_steps += distance as u64;
        let (sampled, errors) = sample_sequence(&mut self.sampler, &plan.sequence);
        self.sampled_shifts += sampled;
        self.observed_errors += errors;
    }

    /// Publishes the `llc.*`, `engine.sample.*`, `shift.*` and
    /// `pecc.checks` metrics of this back end's and its bank
    /// controllers' accesses since the last publication into the global
    /// registry; a run calls it where it builds its result, and a
    /// dropped back end publishes then.
    pub(crate) fn flush_metrics(&mut self) {
        if let Some(counts) = self.counts.get() {
            let now = [self.idle_steps, self.sampled_shifts, self.observed_errors];
            let was = counts.published;
            let reg = rtm_obs::global().registry();
            reg.counters_add(&[
                ("llc.zero_shift_accesses", counts.zero_shift),
                ("llc.accesses", counts.latency.count()),
                ("llc.misses", counts.misses),
                ("llc.writebacks", counts.writebacks),
                ("llc.idle_steps", now[0] - was[0]),
                ("engine.sample.shifts", now[1] - was[1]),
                ("engine.sample.errors", now[2] - was[2]),
            ]);
            reg.histogram_merge("llc.access_latency_cycles", &counts.latency);
            *counts = LlcCounts {
                published: now,
                ..LlcCounts::default()
            };
        }
        for c in &mut self.controllers {
            c.flush_metrics();
        }
    }

    /// Aggregated controller statistics across all banks.
    fn controller_totals(&self) -> rtm_controller::controller::ControllerStats {
        let mut total = rtm_controller::controller::ControllerStats::default();
        for c in &self.controllers {
            let s = c.stats();
            total.requests += s.requests;
            total.operations += s.operations;
            total.steps += s.steps;
            total.shift_cycles += s.shift_cycles;
            total.checks += s.checks;
            total.batched_requests += s.batched_requests;
            total.batch_saved_cycles += s.batch_saved_cycles;
            total.expected_dues += s.expected_dues;
            total.expected_sdcs += s.expected_sdcs;
        }
        total
    }

    /// The LLC counters of this back end serving `dir`'s accesses.
    pub(crate) fn stats(&self, dir: &LlcDirectory) -> LlcStats {
        let c = self.controller_totals();
        let stripes = RacetrackLlc::STRIPES_PER_GROUP as f64;
        LlcStats {
            cache: *dir.cache.stats(),
            shift_ops: self.shift_ops,
            shift_steps: self.shift_steps,
            shift_cycles: self.shift_cycles,
            verify_cycles: self.verify_cycles,
            zero_shift_accesses: dir.zero_shift,
            // Each commanded sequence runs on every stripe of the group;
            // any stripe failing fails the group.
            expected_dues: c.expected_dues * stripes,
            expected_sdcs: c.expected_sdcs * stripes,
            sampled_shifts: self.sampled_shifts,
            observed_errors: self.observed_errors,
        }
    }

    /// Activity record of this back end serving `dir`'s accesses.
    pub(crate) fn activity(&self, dir: &LlcDirectory, duration: Seconds) -> LlcActivity {
        let s = dir.cache.stats();
        LlcActivity {
            reads: s.reads,
            writes: s.writes + s.writebacks,
            shift_steps: self.shift_steps,
            shift_ops: self.shift_ops,
            pecc_checks: self.controller_totals().checks,
            pecc_corrections: 0,
            duration,
        }
    }
}

impl Drop for ShiftBackEnd {
    fn drop(&mut self) {
        // A run unwinding from a panic publishes nothing: its results
        // are lost anyway.
        if !std::thread::panicking() {
            self.flush_metrics();
        }
    }
}

/// The racetrack LLC: a directory of cache bookkeeping and physical
/// head positions (the paper's data mapping: each 64-byte line is
/// interleaved bit-by-bit over a group of 512 stripes sharing one shift
/// command, a group of 64-domain stripes holds 64 lines, and every
/// group has its own head-position register), driving a
/// [`ShiftBackEnd`] of position-error-aware shift controllers.
#[derive(Debug, Clone)]
pub struct RacetrackLlc {
    dir: LlcDirectory,
    back: ShiftBackEnd,
    /// Idle head management.
    head_policy: HeadPolicy,
    /// Critical-path cycles of one shift of each distance, with its
    /// p-ECC check when the scheme has one (`[0]` = no shift; all 0 on
    /// the ideal back end): [`ShiftController::shift_latency`] tabulated
    /// once from bank 0, whose timing and protection every bank shares.
    shift_estimates: Box<[u64]>,
}

impl RacetrackLlc {
    /// Number of stripes a line spans (512 bits = 64 B).
    pub const STRIPES_PER_GROUP: u32 = 512;

    /// Builds the racetrack LLC with the given protection scheme and
    /// safe-distance policy, serviced by a single shift controller (the
    /// paper's default "one request at a time" assumption; see
    /// `rtm-serve` for the queued, bank-parallel serving mode that
    /// lifts it).
    pub fn new(kind: ProtectionKind, policy: ShiftPolicy) -> Self {
        Self::with_banks(kind, policy, 1)
    }

    /// Builds a banked racetrack LLC: stripe groups are interleaved
    /// over `banks` independent controllers, each tracking its own
    /// inter-shift interval (Section 5.3's interleaving note — the
    /// per-bank intensity drops by the bank count, so the adapter can
    /// afford longer shifts at the same reliability target).
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn with_banks(kind: ProtectionKind, policy: ShiftPolicy, banks: u32) -> Self {
        // The directory is allocated before the controllers' plan
        // tables: in the other order its 2 MiB of state bytes land above
        // the tables on the heap, and every other build-and-drop (the
        // serving set-ups) pays a heap trim and ~1 ms of fresh page
        // faults.
        let dir = LlcDirectory::new(LlcDesign::racetrack(), banks);
        Self::assemble(dir, ShiftBackEnd::new(kind, policy, banks))
    }

    /// The 128 MB racetrack LLC served by `back`, with its bank count.
    pub(crate) fn with_back_end(back: ShiftBackEnd) -> Self {
        Self::assemble(
            LlcDirectory::new(LlcDesign::racetrack(), back.banks()),
            back,
        )
    }

    /// `dir` served by `back`, heads staying put between accesses.
    fn assemble(dir: LlcDirectory, back: ShiftBackEnd) -> Self {
        let shift_estimates = (0..=dir.geometry.max_shift() as u32)
            .map(|d| match d {
                0 => 0,
                _ if back.ideal_shifts => 0,
                d => back.controllers[0].shift_latency(d).count(),
            })
            .collect();
        Self {
            dir,
            back,
            head_policy: HeadPolicy::Stay,
            shift_estimates,
        }
    }

    /// Rebuilds the LLC at a different capacity (builder style), keeping
    /// the bank layout, protection scheme and policies. The paper's
    /// preset stays at 128 MB; GB-scale serving experiments override it
    /// here. Must be called before any traffic.
    ///
    /// Groups that do not divide evenly over the banks are stored in
    /// index order instead of bank-major; the model is the same.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` does not divide into whole 64-line
    /// stripe groups, or if traffic has already been issued.
    pub fn with_capacity(mut self, capacity_bytes: u64) -> Self {
        let s = self.dir.cache.stats();
        assert!(
            s.reads + s.writes == 0,
            "capacity override must precede traffic"
        );
        let design = LlcDesign {
            capacity_bytes,
            ..self.dir.design
        };
        self.dir = LlcDirectory::new(design, self.back.banks());
        self
    }

    /// Occupancy of the sparse head store.
    pub fn scale_stats_racetrack(&self) -> ScaleStats {
        self.dir.scale_stats()
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.back.banks()
    }

    /// Sets the idle head-management policy (builder style).
    pub fn with_head_policy(mut self, policy: HeadPolicy) -> Self {
        self.head_policy = policy;
        self
    }

    /// Enables per-shift outcome sampling through `choice`'s fault
    /// model, with Table 1 device parameters (builder style) — the
    /// `--fault-model` axis. Sampling never changes latency or risk
    /// accounting: it adds the observed error tallies
    /// ([`LlcStats::sampled_shifts`] / [`LlcStats::observed_errors`])
    /// on top of the statistical model.
    pub fn with_fault_model(mut self, choice: FaultModelChoice, engine: Engine, seed: u64) -> Self {
        self.back = self.back.with_fault_model(choice, engine, seed);
        self
    }

    /// Publishes the per-access metrics of the back end and its bank
    /// controllers counted so far into the global registry; a run calls
    /// it where it builds its result, and a dropped LLC publishes then.
    pub fn flush_metrics(&mut self) {
        self.back.flush_metrics();
    }

    /// Steps spent repositioning heads off the critical path.
    pub fn idle_steps(&self) -> u64 {
        self.back.idle_steps
    }

    /// The critical-path shift and p-ECC verify cycles so far: the
    /// [`LlcStats::shift_cycles`] and [`LlcStats::verify_cycles`] of
    /// [`LlcModel::stats`], without summing the bank controllers or
    /// reading the directory.
    pub fn shift_verify_cycles(&self) -> (u64, u64) {
        (self.back.shift_cycles, self.back.verify_cycles)
    }

    /// An idealised racetrack LLC whose shifts are free (Fig. 16's
    /// "RM-Ideal" upper bound), served by [`ShiftBackEnd::ideal`].
    pub fn ideal() -> Self {
        Self::with_back_end(ShiftBackEnd::ideal(1))
    }

    /// The stripe-group geometry.
    pub fn geometry(&self) -> &StripeGeometry {
        &self.dir.geometry
    }

    /// The shift controller of bank 0 (diagnostics).
    pub fn controller(&self) -> &ShiftController {
        self.controller_at(0)
    }

    /// The shift controller of a specific bank. The per-bank serving
    /// path reads these directly so bank-sharded results can be merged
    /// in bank order, reproducing the aggregated controller totals'
    /// exact floating-point summation order.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= self.banks()`.
    pub fn controller_at(&self, bank: usize) -> &ShiftController {
        &self.back.controllers[bank]
    }

    /// The stripe group an access to `addr` lands in: the group of
    /// [`Self::resolve`].
    pub fn group_of(&self, addr: u64) -> usize {
        self.resolve(addr).group
    }

    /// Resolves `addr`'s directory coordinates: its stripe group, its
    /// set's storage slot and its bank. None depends on the directory's
    /// contents, so a scheduler resolves each request once, when it
    /// queues, scores it through [`Self::group_probe`] and serves it
    /// through [`Self::access_at`] from then on.
    pub fn resolve(&self, addr: u64) -> LineSite {
        self.dir.resolve(addr)
    }

    /// The way an access to `addr`, whose set [`Self::resolve`] put at
    /// `set`, would touch right now (the way a [`GroupProbe`] estimate
    /// reports): one tag search, no division.
    pub fn way(&self, set: SetSlot, addr: u64) -> Way {
        self.dir.way(set, addr)
    }

    /// Shift estimates for accesses to `group` as it stands now (its
    /// head is read once here).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn group_probe(&self, group: usize) -> GroupProbe<'_> {
        GroupProbe {
            llc: self,
            head: self.dir.heads.get(group),
        }
    }

    /// Number of stripe groups.
    pub fn groups(&self) -> usize {
        self.dir.heads.len()
    }

    /// Current head position of a stripe group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn head_position(&self, group: usize) -> u8 {
        self.dir.heads.get(group)
    }

    /// Predicts the shift distance an access to `addr` would need right
    /// now, without touching any state: the distance of the
    /// [`GroupProbe::estimate`] of the address's resolved coordinates.
    pub fn predicted_shift_distance(&self, addr: u64) -> u32 {
        let site = self.resolve(addr);
        self.group_probe(site.group)
            .estimate(site.set, addr, AccessKind::Read)
            .distance
    }

    /// Drifts a group's head back to the centre of its range off the
    /// critical path, so the next access finds it at most half the
    /// stripe away. The steps (and their error risk) are charged
    /// through the bank controller, the latency is not — parking is
    /// meant for idle periods. Shift-aware schedulers call this when a
    /// group's queue drains; [`HeadPolicy::ReturnToCentre`] calls it
    /// after every access.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn park_group(&mut self, group: usize, now: u64) {
        self.park_at(group, group % self.banks() as usize, now);
    }

    /// [`Self::park_group`] of `group`, served by `bank`.
    fn park_at(&mut self, group: usize, bank: usize, now: u64) {
        let distance = self.dir.park(group);
        if distance > 0 {
            self.back.park(bank, distance, now);
        }
    }

    /// [`LlcModel::access`] with explicit stream fusion: `fused = true`
    /// marks this access as a continuation of a batched shift command
    /// stream on its bank (the directly preceding access kept the STS
    /// driver armed), so a required shift skips its stage-2 settle.
    /// `access_fused(addr, kind, now, false)` is exactly
    /// [`LlcModel::access`]: [`Self::access_at`] of the address's
    /// [`Self::resolve`]d site and the [`Self::way`] it would touch.
    pub fn access_fused(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        fused: bool,
    ) -> LlcResponse {
        let site = self.resolve(addr);
        let way = self.way(site.set, addr);
        self.access_at(site, way, addr, kind, now, fused)
    }

    /// Serves an access to `addr` from its resolved `site` on `way`, the
    /// way a [`GroupProbe`] estimate (or [`Self::way`]) reported with no
    /// access to the group since: the one access path, which divides
    /// nothing and searches no tags. `fused` is as in
    /// [`Self::access_fused`].
    pub fn access_at(
        &mut self,
        site: LineSite,
        way: Way,
        addr: u64,
        kind: AccessKind,
        now: u64,
        fused: bool,
    ) -> LlcResponse {
        debug_assert_eq!(site, self.resolve(addr), "a site of another address");
        debug_assert_eq!(way, self.way(site.set, addr), "a stale way");
        let p = self.dir.place_at(site, way, addr, kind);
        let resp = self.back.serve(&p, now, fused);
        // Idle management: after servicing, drift the head back to the
        // centre of its range off the critical path.
        if self.head_policy == HeadPolicy::ReturnToCentre {
            self.park_at(p.group, p.bank, now + resp.latency_cycles - p.array_cycles);
        }
        resp
    }
}

/// Non-mutating shift estimates for accesses to one stripe group, made
/// by [`RacetrackLlc::group_probe`]. Each candidate costs one tag probe
/// and two table reads, and no division: a scheduler scores every
/// request queued on the group through one probe. The estimates are
/// exact as long as no access intervenes.
#[derive(Debug, Clone, Copy)]
pub struct GroupProbe<'a> {
    llc: &'a RacetrackLlc,
    /// The group's head position.
    head: u8,
}

/// What a [`GroupProbe`] found for one candidate access: where it would
/// land and what getting there would cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// The way the access would touch: the way holding the line, else
    /// the LRU victim the allocation would pick. Serving the access
    /// through [`RacetrackLlc::access_at`] on this way, with no access
    /// to the group in between, costs no second tag search.
    pub way: Way,
    /// The steps the group's head would move onto that way's domain.
    pub distance: u32,
    /// Estimated service latency in cycles: one shift of `distance`
    /// steps, with its p-ECC check when the scheme has one, plus the
    /// array access. Costs no plan.
    pub cycles: u64,
}

impl GroupProbe<'_> {
    /// Estimates an access of `kind` to `addr`, whose set
    /// [`RacetrackLlc::resolve`] put in this group at `set`.
    pub fn estimate(&self, set: SetSlot, addr: u64, kind: AccessKind) -> Estimate {
        let dir = &self.llc.dir;
        let way = dir.way(set, addr);
        let distance = u32::from(self.head.abs_diff(dir.head_at(set, way)));
        Estimate {
            way,
            distance,
            cycles: self.llc.shift_estimates[distance as usize] + dir.array_cycles(kind),
        }
    }
}

impl LlcModel for RacetrackLlc {
    fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> LlcResponse {
        self.access_fused(addr, kind, now, false)
    }

    fn stats(&self) -> LlcStats {
        self.back.stats(&self.dir)
    }

    fn design(&self) -> &LlcDesign {
        &self.dir.design
    }

    fn scale_stats(&self) -> ScaleStats {
        self.scale_stats_racetrack()
    }

    fn activity(&self, duration: Seconds) -> LlcActivity {
        self.back.activity(&self.dir, duration)
    }

    fn flush_metrics(&mut self) {
        RacetrackLlc::flush_metrics(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(kind: ProtectionKind, policy: ShiftPolicy) -> RacetrackLlc {
        RacetrackLlc::new(kind, policy)
    }

    #[test]
    fn group_mapping_is_contiguous() {
        let llc = rm(ProtectionKind::None, ShiftPolicy::Unconstrained);
        // Lines 0..63 share group 0, domains 0..63.
        assert_eq!(llc.dir.slot_to_group_domain(0, 0), (0, 0));
        assert_eq!(llc.dir.slot_to_group_domain(0, 15), (0, 15));
        assert_eq!(llc.dir.slot_to_group_domain(3, 15), (0, 63));
        assert_eq!(llc.dir.slot_to_group_domain(4, 0), (1, 0));
    }

    #[test]
    fn repeated_access_to_same_line_shifts_once() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let r1 = llc.access(0x40, AccessKind::Read, 0);
        let r2 = llc.access(0x40, AccessKind::Read, 100);
        assert!(!r1.hit && r2.hit);
        // Second access needs no shift: head already positioned.
        assert_eq!(r2.latency_cycles, llc.design().read_cycles);
        assert_eq!(llc.stats().zero_shift_accesses, 1);
    }

    #[test]
    fn heads_stay_sparse_and_scale_stats_track_occupancy() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let s0 = llc.scale_stats_racetrack();
        assert_eq!(s0.configured_groups, llc.groups() as u64);
        assert_eq!(s0.materialised_groups, 0);
        assert_eq!(s0.pristine_hits, 0);
        // An access that needs a shift materialises exactly one group's
        // head register.
        llc.access(0x40, AccessKind::Read, 0);
        assert_eq!(llc.scale_stats_racetrack().materialised_groups, 1);
        // Re-access: zero-shift on an already-touched head is not a
        // pristine hit.
        llc.access(0x40, AccessKind::Read, 10);
        let s1 = llc.scale_stats_racetrack();
        assert_eq!(s1.materialised_groups, 1);
        assert_eq!(s1.pristine_hits, 0);
        // Untouched groups still read the fabrication default.
        assert_eq!(llc.head_position(llc.groups() - 1), 0);
        assert!(s1.arena_bytes > 0);
    }

    #[test]
    fn with_capacity_scales_group_count() {
        let llc = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 8)
            .with_capacity(1 << 30);
        assert_eq!(llc.design().capacity_bytes, 1 << 30);
        assert_eq!(llc.groups(), (1 << 30) / 64 / 64);
        assert_eq!(llc.banks(), 8);
        // A 16 GB configuration spans ≥ 4 Mi groups ≥ 2 Gi stripes, and
        // costs only the page directory until touched.
        let big = RacetrackLlc::new(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
            .with_capacity(16 << 30);
        assert_eq!(big.groups(), (16u64 << 30) as usize / 64 / 64);
        assert_eq!(big.scale_stats_racetrack().materialised_groups, 0);
        assert!(
            big.scale_stats_racetrack().arena_bytes < 64 << 20,
            "untouched 16 GB head store stays under 64 MB of directory"
        );
    }

    #[test]
    #[should_panic(
        expected = "LLC capacity 5120 B does not divide into whole 64-line stripe groups"
    )]
    fn with_capacity_rejects_partial_stripe_groups() {
        // 80 lines: one whole group and a 16-line remainder (set 4).
        let _ = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 1)
            .with_capacity(80 * 64);
    }

    /// What an access to `addr` would resolve to, composed from the
    /// address path's own parts: the cache's probe or victim way, the
    /// slot's group and domain, the geometry's head position for it and
    /// the bank controller's one-shift latency. Returns (group,
    /// distance, estimated cycles).
    fn address_path(
        llc: &RacetrackLlc,
        ideal: bool,
        addr: u64,
        kind: AccessKind,
    ) -> (usize, u32, u64) {
        let cache = &llc.dir.cache;
        let set = cache.set_of(addr);
        let way = cache.probe(addr).unwrap_or_else(|| cache.victim_way(set));
        let line = set * u64::from(cache.ways()) + u64::from(way);
        let lines_per_group = llc.geometry().data_len() as u64;
        let group = (line / lines_per_group) as usize;
        let domain = (line % lines_per_group) as usize;
        let target = llc.geometry().head_position_for(domain) as u8;
        let distance = u32::from(llc.head_position(group).abs_diff(target));
        let shift = if ideal || distance == 0 {
            0
        } else {
            let bank = group % llc.banks() as usize;
            llc.controller_at(bank).shift_latency(distance).count()
        };
        let array = match kind {
            AccessKind::Read => llc.design().read_cycles,
            AccessKind::Write => llc.design().write_cycles,
        };
        (group, distance, shift + array)
    }

    #[test]
    fn resolver_matches_the_address_path() {
        use rtm_util::check::{run_cases, Gen};
        let kinds = [
            ProtectionKind::None,
            ProtectionKind::Sed,
            ProtectionKind::SECDED,
            ProtectionKind::Correcting { m: 2 },
            ProtectionKind::SECDED_O,
            ProtectionKind::CHEE_KIAH,
            ProtectionKind::VAHID_2DI,
        ];
        // (llc, ideal back end) for every scheme at 1 and 8 banks (the
        // bank-major layout off and on), the ideal back end, and a 1 GiB
        // capacity override.
        let mut llcs: Vec<(RacetrackLlc, bool)> = Vec::new();
        for kind in kinds {
            for banks in [1, 8] {
                llcs.push((
                    RacetrackLlc::with_banks(kind, ShiftPolicy::Adaptive, banks),
                    false,
                ));
            }
        }
        llcs.push((RacetrackLlc::ideal(), true));
        for banks in [1, 8] {
            let llc =
                RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, banks)
                    .with_capacity(1 << 30);
            llcs.push((llc, false));
        }
        for (template, ideal) in llcs {
            let stride = template.dir.cache.sets() * 64;
            run_cases(2, |g: &mut Gen| {
                let mut llc = template.clone();
                // Mostly 24 lines over each of 40 sets (sets fill, and
                // misses evict the LRU way), some anywhere in four times
                // the capacity; the line offset is arbitrary.
                let addr = |g: &mut Gen| {
                    let line = if g.u32_in(0, 7) == 0 {
                        g.u64_in(0, 4 * stride)
                    } else {
                        g.u64_in(0, 39) * 64 + g.u64_in(0, 23) * stride
                    };
                    (line & !63) | g.u64_in(0, 63)
                };
                let kind = |g: &mut Gen| {
                    if g.bool() {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    }
                };
                for t in 0..1_500u64 {
                    for _ in 0..3 {
                        let (a, k) = (addr(g), kind(g));
                        let (group, distance, estimate) = address_path(&llc, ideal, a, k);
                        let site = llc.resolve(a);
                        assert_eq!(site.group, group, "group of {a:#x}");
                        assert_eq!(llc.group_of(a), group);
                        assert_eq!(site.bank as usize, group % llc.banks() as usize);
                        let e = llc.group_probe(group).estimate(site.set, a, k);
                        assert_eq!(e.distance, distance, "{a:#x}");
                        assert_eq!(llc.predicted_shift_distance(a), distance);
                        assert_eq!(e.cycles, estimate, "{a:#x}");
                        assert_eq!(e.way, llc.way(site.set, a), "{a:#x}");
                    }
                    let (a, k) = (addr(g), kind(g));
                    llc.access(a, k, t * 97);
                }
            });
        }
    }

    #[test]
    fn resolved_access_matches_the_address_access() {
        use rtm_util::check::{run_cases, Gen};
        // Every scheme at 1 and 8 banks, the ideal back end, both head
        // policies and a 1 GiB override at 1 and 8 banks. Each case
        // builds two identical LLCs (a fresh directory costs only the
        // pages it touches, a clone copies all of them).
        let mut builds: Vec<Box<dyn Fn() -> RacetrackLlc>> = Vec::new();
        for kind in [
            ProtectionKind::None,
            ProtectionKind::Sed,
            ProtectionKind::SECDED,
            ProtectionKind::Correcting { m: 2 },
            ProtectionKind::SECDED_O,
            ProtectionKind::CHEE_KIAH,
            ProtectionKind::VAHID_2DI,
        ] {
            for banks in [1, 8] {
                builds.push(Box::new(move || {
                    RacetrackLlc::with_banks(kind, ShiftPolicy::Adaptive, banks)
                }));
            }
        }
        builds.push(Box::new(RacetrackLlc::ideal));
        builds.push(Box::new(|| {
            RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 8)
                .with_head_policy(HeadPolicy::ReturnToCentre)
        }));
        for banks in [1, 8] {
            builds.push(Box::new(move || {
                RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, banks)
                    .with_capacity(1 << 30)
            }));
        }
        for build in &builds {
            run_cases(2, |g: &mut Gen| {
                let mut resolved = build();
                let mut plain = build();
                let stride = plain.dir.cache.sets() * 64;
                let mut hits = 0;
                for t in 0..2_000u64 {
                    // Mostly 24 lines over each of 40 sets, so sets fill
                    // and misses evict; some anywhere in four capacities.
                    let line = if g.u32_in(0, 7) == 0 {
                        g.u64_in(0, 4 * stride)
                    } else {
                        g.u64_in(0, 39) * 64 + g.u64_in(0, 23) * stride
                    };
                    let a = (line & !63) | g.u64_in(0, 63);
                    let k = if g.bool() {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let fused = g.u32_in(0, 3) == 0;
                    let now = t * 61;
                    let site = resolved.resolve(a);
                    let way = resolved
                        .group_probe(site.group)
                        .estimate(site.set, a, k)
                        .way;
                    let got = resolved.access_at(site, way, a, k, now, fused);
                    let want = plain.access_fused(a, k, now, fused);
                    assert_eq!(got, want, "access {t} to {a:#x}");
                    hits += u64::from(got.hit);
                    assert_eq!(resolved.stats(), plain.stats(), "access {t}");
                    assert_eq!(
                        resolved.head_position(site.group),
                        plain.head_position(site.group),
                        "access {t}"
                    );
                    assert_eq!(resolved.scale_stats(), plain.scale_stats(), "access {t}");
                    assert_eq!(resolved.idle_steps(), plain.idle_steps(), "access {t}");
                }
                assert!(hits > 0 && hits < 2_000, "{hits} hits");
            });
        }
    }

    #[test]
    fn different_domains_force_shifts() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        // Same group, different ways → different domains: line 0 then
        // line 1 (set 0 way 1 after allocating a second line).
        llc.access(0x40, AccessKind::Read, 0);
        let before = llc.stats().shift_steps;
        // A second address in set 0: 0x40 + sets*64.
        let stride = llc.dir.cache.sets() * 64;
        llc.access(0x40 + stride, AccessKind::Read, 10);
        assert!(llc.stats().shift_steps > before);
    }

    #[test]
    fn fused_access_saves_exactly_the_sts_setup() {
        let mut plain = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut fused = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = plain.dir.cache.sets() * 64;
        plain.access(0x40, AccessKind::Read, 0);
        fused.access(0x40, AccessKind::Read, 0);
        // Same shifting access on both, one as a stream continuation:
        // only the stage-2 settle differs, nothing else.
        let a = plain.access_fused(0x40 + stride, AccessKind::Read, 10, false);
        let b = fused.access_fused(0x40 + stride, AccessKind::Read, 10, true);
        let setup = rtm_model::sts::StsTiming::paper().setup_cycles().count();
        assert_eq!(a.hit, b.hit);
        assert_eq!(a.latency_cycles, b.latency_cycles + setup);
        let (sa, sb) = (plain.stats(), fused.stats());
        assert_eq!(sa.shift_steps, sb.shift_steps);
        assert_eq!(sa.shift_ops, sb.shift_ops);
        assert_eq!(sa.verify_cycles, sb.verify_cycles);
        assert_eq!(sa.expected_dues, sb.expected_dues);
        assert_eq!(sa.shift_cycles, sb.shift_cycles + setup);
        // A fused access that needs no shift is identical to a plain
        // hit (nothing to fuse).
        let c = fused.access_fused(0x40 + stride, AccessKind::Read, 50, true);
        assert_eq!(c.latency_cycles, fused.design().read_cycles);
    }

    #[test]
    fn predicted_distance_matches_realised_shift() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = llc.dir.cache.sets() * 64;
        llc.access(0x40, AccessKind::Read, 0);
        // A hit on the resident line: prediction must see distance 0.
        assert_eq!(llc.predicted_shift_distance(0x40), 0);
        // A second line in the same set lands in the predicted victim
        // way; the predicted distance must equal the steps the access
        // then actually performs.
        let addr = 0x40 + stride;
        let predicted = llc.predicted_shift_distance(addr);
        let before = llc.stats().shift_steps;
        llc.access(addr, AccessKind::Read, 10);
        assert_eq!(llc.stats().shift_steps - before, predicted as u64);
    }

    #[test]
    fn estimated_latency_matches_realised_response() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let stride = llc.dir.cache.sets() * 64;
        llc.access(0, AccessKind::Read, 0);
        for i in 1..8u64 {
            let addr = i * stride;
            let site = llc.resolve(addr);
            let est = llc
                .group_probe(site.group)
                .estimate(site.set, addr, AccessKind::Read)
                .cycles;
            let r = llc.access(addr, AccessKind::Read, i * 1000);
            // Unconstrained plans are exactly one sub-shift, so the
            // one-shift estimate is exact.
            assert_eq!(est, r.latency_cycles, "access {i}");
        }
    }

    #[test]
    fn group_of_depends_only_on_set() {
        let llc = rm(ProtectionKind::None, ShiftPolicy::Unconstrained);
        assert_eq!(llc.group_of(0x40), 0);
        // Sets 0..3 share group 0; set 4 starts group 1.
        assert_eq!(llc.group_of(3 * 64), 0);
        assert_eq!(llc.group_of(4 * 64), 1);
        assert!(llc.groups() > 0);
        assert_eq!(llc.head_position(0), 0);
    }

    #[test]
    fn protected_llc_accumulates_risk_over_all_stripes() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let stride = llc.dir.cache.sets() * 64;
        for i in 0..100u64 {
            llc.access(i * stride, AccessKind::Read, i * 50);
        }
        let s = llc.stats();
        assert!(s.expected_dues > 0.0);
        // Risk is per stripe × 512.
        let c = llc.controller().stats();
        assert!((s.expected_dues / c.expected_dues - 512.0).abs() < 1e-6);
    }

    #[test]
    fn verify_cycles_are_the_check_portion_of_shift_cycles() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = llc.dir.cache.sets() * 64;
        let mut t = 0u64;
        for i in 0..200u64 {
            t += 500;
            llc.access((i % 16) * stride, AccessKind::Read, t);
        }
        let s = llc.stats();
        assert!(s.verify_cycles > 0);
        assert!(s.verify_cycles < s.shift_cycles);
        // Without parking, every controller check is on the critical
        // path, so the subset is exactly checks × the check latency.
        let c = llc.back.controller_totals();
        assert_eq!(
            s.verify_cycles,
            c.checks * rtm_controller::sequence::PECC_CHECK_CYCLES
        );
        // Unprotected memory performs no checks at all.
        let mut bare = rm(ProtectionKind::None, ShiftPolicy::Unconstrained);
        bare.access(0, AccessKind::Read, 0);
        bare.access(stride, AccessKind::Read, 10);
        assert_eq!(bare.stats().verify_cycles, 0);
        assert!(bare.stats().shift_cycles > 0);
    }

    #[test]
    fn ideal_llc_has_free_shifts() {
        let mut llc = RacetrackLlc::ideal();
        let stride = llc.dir.cache.sets() * 64;
        llc.access(0, AccessKind::Read, 0);
        let r = llc.access(stride, AccessKind::Read, 10);
        assert_eq!(r.latency_cycles, llc.design().read_cycles);
        assert!(llc.stats().shift_steps > 0, "shifts counted but free");
        assert_eq!(llc.stats().shift_cycles, 0);
    }

    #[test]
    fn simple_llc_flat_latency() {
        let mut llc = SimpleLlc::new(LlcDesign::sram());
        let r = llc.access(0x1234, AccessKind::Read, 0);
        assert_eq!(r.latency_cycles, 24);
        let w = llc.access(0x1234, AccessKind::Write, 1);
        assert_eq!(w.latency_cycles, 22);
        assert!(w.hit);
    }

    #[test]
    fn step_by_step_policy_costs_more_cycles() {
        let mut adaptive = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut stepwise = rm(ProtectionKind::SECDED_O, ShiftPolicy::StepByStep);
        let stride = adaptive.dir.cache.sets() * 64;
        let mut t = 0;
        for i in 0..200u64 {
            // Jump between distant ways to force long shifts; generous
            // intervals let the adaptive policy use long single shifts.
            let addr = (i % 16) * stride;
            t += 10_000;
            adaptive.access(addr, AccessKind::Read, t);
            stepwise.access(addr, AccessKind::Read, t);
        }
        let a = adaptive.stats().shift_cycles;
        let s = stepwise.stats().shift_cycles;
        assert!(s > a, "step-by-step {s} vs adaptive {a}");
    }

    #[test]
    fn return_to_centre_halves_critical_path_distance() {
        // Random-access pattern over many ways: centring the head
        // between requests cuts the on-demand distance (latency) while
        // paying more total steps (energy) — the head-management trade.
        let mut stay = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut centre = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive)
            .with_head_policy(HeadPolicy::ReturnToCentre);
        let stride = stay.dir.cache.sets() * 64;
        let mut rng = rtm_util::rng::SmallRng64::new(11);
        let mut t = 0u64;
        for _ in 0..1500 {
            let way = rng.next_below(16);
            let addr = way * stride; // same set, 16 ways -> domains 0..15
            t += 200;
            stay.access(addr, AccessKind::Read, t);
            centre.access(addr, AccessKind::Read, t);
        }
        let s = stay.stats();
        let c = centre.stats();
        assert!(
            c.shift_cycles < s.shift_cycles,
            "centre {} vs stay {} critical-path cycles",
            c.shift_cycles,
            s.shift_cycles
        );
        assert!(
            c.shift_steps > s.shift_steps,
            "centring must cost extra total steps"
        );
        assert!(centre.idle_steps() > 0);
        assert_eq!(stay.idle_steps(), 0);
    }

    #[test]
    fn banked_adaptive_sees_longer_intervals() {
        // Interleaved traffic over many groups: a single adapter sees
        // back-to-back shifts (short intervals, conservative sequences)
        // while per-bank adapters each see 1/N of the traffic and can
        // afford faster sequences at the same reliability target.
        let mut single = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 1);
        let mut banked = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 8);
        assert_eq!(banked.banks(), 8);
        let stride = single.dir.cache.sets() * 64;
        let mut t = 0u64;
        for i in 0..2000u64 {
            // Rotate across 32 groups (addresses in different sets) and
            // across ways to force long shifts on each group.
            let group = i % 32;
            let way_jump = (i / 32) % 8;
            let addr = group * 4 * 64 + way_jump * stride;
            t += 40;
            single.access(addr, AccessKind::Read, t);
            banked.access(addr, AccessKind::Read, t);
        }
        let s = single.stats();
        let b = banked.stats();
        assert_eq!(s.shift_steps, b.shift_steps, "same physical work");
        assert!(
            b.shift_cycles <= s.shift_cycles,
            "banked {} vs single {}",
            b.shift_cycles,
            s.shift_cycles
        );
        assert!(b.shift_ops <= s.shift_ops);
    }

    #[test]
    fn fault_sampling_observes_without_changing_timing() {
        let mut plain = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let mut sampled = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive).with_fault_model(
            FaultModelChoice::Engine,
            Engine::Analytic,
            9,
        );
        let stride = plain.dir.cache.sets() * 64;
        let mut t = 0u64;
        for i in 0..2000u64 {
            let addr = (i % 16) * stride;
            t += 500;
            let a = plain.access(addr, AccessKind::Read, t);
            let b = sampled.access(addr, AccessKind::Read, t);
            assert_eq!(a, b, "sampling must not perturb responses");
        }
        let p = plain.stats();
        let s = sampled.stats();
        assert_eq!(p.shift_cycles, s.shift_cycles);
        assert_eq!(p.expected_dues, s.expected_dues);
        assert_eq!(p.sampled_shifts, 0);
        // One drawn outcome per planned sub-shift.
        assert_eq!(s.sampled_shifts, s.shift_ops);
        assert!(s.observed_errors <= s.sampled_shifts);
    }

    #[test]
    fn fault_sampling_is_deterministic_per_seed() {
        let run = |engine: Engine, seed: u64| {
            let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive).with_fault_model(
                FaultModelChoice::Engine,
                engine,
                seed,
            );
            let stride = llc.dir.cache.sets() * 64;
            let mut t = 0u64;
            for i in 0..3000u64 {
                t += 200;
                llc.access((i % 16) * stride, AccessKind::Read, t);
            }
            let s = llc.stats();
            (s.sampled_shifts, s.observed_errors)
        };
        for engine in [Engine::Analytic, Engine::MonteCarlo] {
            assert_eq!(run(engine, 77), run(engine, 77), "{engine}");
        }
    }

    #[test]
    fn activity_reflects_counters() {
        let mut llc = rm(ProtectionKind::SECDED, ShiftPolicy::Adaptive);
        let stride = llc.dir.cache.sets() * 64;
        llc.access(0, AccessKind::Read, 0);
        llc.access(stride, AccessKind::Write, 10);
        let a = llc.activity(Seconds(1e-6));
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert!(a.shift_steps > 0);
        assert!(a.pecc_checks > 0);
        assert_eq!(a.duration, Seconds(1e-6));
    }
}
