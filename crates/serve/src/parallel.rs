//! The lock-free per-bank throughput data path.
//!
//! [`ServeSim`](crate::ServeSim) models contention faithfully — closed
//! loops, bounded queues, a global event clock — and pays for it with
//! per-request event-loop overhead (fixpoint scans, span
//! bookkeeping). This module is the opposite trade: a *data path*
//! whose only job is to push shift commands through the banked LLC as
//! fast as the host allows, for wall-clock throughput measurement.
//!
//! The structure:
//!
//! * a [`GroupRouter`] maps addresses to stripe groups and banks with
//!   two integer operations — no LLC probe, no allocation;
//! * the front end walks the trace once, routing each request to its
//!   bank and *fusing* consecutive same-group requests into batched
//!   shift command streams (entries after the first are marked
//!   [`ShiftCommand::fused`]: the bank's STS driver stays armed, so a
//!   required shift skips its stage-2 settle — see
//!   `rtm_model::sts::StsTiming::continuation_shift_cycles`);
//! * one single-producer/single-consumer ring ([`rtm_par::spsc`]) per
//!   bank carries commands from the front end to the bank's worker:
//!   no mutex, no shared tail, one cache line of coordination in each
//!   direction;
//! * each worker owns its banks outright — a private [`RacetrackLlc`]
//!   clone and a per-bank lane clock — so the hot loop takes no lock
//!   and touches no shared state at all.
//!
//! # Determinism
//!
//! Banks partition the address space disjointly (a stripe group is
//! four consecutive cache sets; a bank is `group % banks`), so each
//! bank's command sequence — and every per-bank simulated timestamp —
//! is a pure function of the trace, independent of worker interleaving.
//! [`run_oracle`] executes the identical lane semantics serially on one
//! LLC; [`run_parallel`] must produce a bit-identical [`ServeStats`]
//! for any thread count, which the test-suite and the
//! `bench serve` oracle gate enforce. Floating-point counters are
//! merged per *bank* in ascending bank order (via
//! [`RacetrackLlc::controller_at`]), never per worker, reproducing the
//! oracle's exact summation order; everything else is integral and
//! commutative.

use std::thread;

use crate::sim::{LatencyCounts, LatencySummary};
use rtm_controller::controller::ShiftPolicy;
use rtm_cost::technology::LlcDesign;
use rtm_mem::cache::AccessKind;
use rtm_mem::llc::{LlcModel, LlcStats, RacetrackLlc};
use rtm_par::spsc::{self, Producer, Recv};
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::MemAccess;
use rtm_util::div::Divisor;

/// One request on a bank's command ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftCommand {
    /// Byte address of the access.
    pub addr: u64,
    /// Write (store) versus read (load).
    pub write: bool,
    /// Continuation of the current batched shift command stream: the
    /// directly preceding command on this bank targeted the same
    /// stripe group, so the STS driver is still armed and a required
    /// shift pays no stage-2 settle.
    pub fused: bool,
}

/// Address-to-bank routing without an LLC in hand.
///
/// The racetrack LLC maps a 64-byte line to `set = (addr / 64) % sets`,
/// interleaves 16 ways over 64-domain stripe groups (so four
/// consecutive sets share one group), and spreads groups over banks
/// round-robin. The front end only needs that arithmetic — a shift and
/// a mask for the paper's power-of-two geometry — to route;
/// [`GroupRouter::group_of`] is checked against
/// [`RacetrackLlc::group_of`] by the test-suite.
#[derive(Debug, Clone, Copy)]
pub struct GroupRouter {
    sets: Divisor,
    banks: Divisor,
}

impl GroupRouter {
    /// Router for the paper's racetrack LLC design and `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn paper(banks: u32) -> Self {
        assert!(banks > 0, "at least one bank required");
        let design = LlcDesign::racetrack();
        Self {
            sets: Divisor::new(design.capacity_bytes / (16 * 64)),
            banks: Divisor::new(u64::from(banks)),
        }
    }

    /// The stripe group an access to `addr` lands in.
    pub fn group_of(&self, addr: u64) -> usize {
        (self.sets.remainder(addr >> 6) / 4) as usize
    }

    /// The bank serving `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        self.banks.remainder(self.group_of(addr) as u64) as usize
    }
}

/// Configuration of the throughput data path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputConfig {
    /// Protection scheme of the racetrack LLC.
    pub protection: ProtectionKind,
    /// Safe-distance policy of the shift controllers.
    pub shift_policy: ShiftPolicy,
    /// Independent banks (one command ring and one lane clock each).
    pub banks: u32,
    /// Worker threads the banks are dealt over (`bank % threads`).
    pub threads: u32,
    /// Longest batched shift command stream: at most this many
    /// consecutive same-group requests fuse into one stream before a
    /// fresh (unfused) stream starts. `1` disables fusion.
    pub batch_limit: u32,
    /// Slots per command ring.
    pub ring_capacity: usize,
}

impl ThroughputConfig {
    /// The contended default: SECDED adaptive LLC, 8 banks, fusion up
    /// to 8 commands, 1024-slot rings, single worker.
    pub fn new() -> Self {
        Self {
            protection: ProtectionKind::SECDED,
            shift_policy: ShiftPolicy::Adaptive,
            banks: 8,
            threads: 1,
            batch_limit: 8,
            ring_capacity: 1024,
        }
    }

    /// Sets the protection scheme and shift policy (builder style).
    pub fn with_scheme(mut self, protection: ProtectionKind, policy: ShiftPolicy) -> Self {
        self.protection = protection;
        self.shift_policy = policy;
        self
    }

    /// Sets the bank count (builder style).
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the stream batch limit (builder style).
    pub fn with_batch_limit(mut self, limit: u32) -> Self {
        self.batch_limit = limit;
        self
    }

    /// Sets the per-bank ring capacity (builder style). Wall-clock
    /// benchmarks size rings to the whole trace so the front end never
    /// blocks on backpressure — on a box with fewer cores than workers
    /// a full ring otherwise degenerates into yield ping-pong.
    pub fn with_ring_capacity(mut self, slots: usize) -> Self {
        self.ring_capacity = slots;
        self
    }

    fn validate(&self) {
        assert!(self.banks > 0, "at least one bank");
        assert!(self.threads > 0, "at least one worker");
        assert!(self.batch_limit > 0, "streams hold at least one command");
        assert!(self.ring_capacity > 0, "rings need capacity");
    }
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of one throughput run. `PartialEq` on purpose: the parallel
/// path is gated on bit-identity with the serial oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests executed.
    pub requests: u64,
    /// Final simulated clock of each bank's lane.
    pub lane_cycles: Vec<u64>,
    /// Slowest lane — the run's simulated makespan.
    pub makespan_cycles: u64,
    /// Per-request LLC service latency (shift + array), all banks.
    pub service: LatencySummary,
    /// Requests the head was already positioned for.
    pub zero_shift_dispatches: u64,
    /// Commands executed as stream continuations (`fused`).
    pub fused_dispatches: u64,
    /// Continuation shifts the controllers actually planned (fused
    /// commands whose access still needed head movement).
    pub batched_requests: u64,
    /// Cycles the batched streams saved versus standalone planning
    /// (one STS stage-2 settle per continuation shift).
    pub batch_saved_cycles: u64,
    /// Merged LLC counters.
    pub llc: LlcStats,
}

impl ServeStats {
    /// Requests per thousand simulated cycles of the slowest lane.
    pub fn throughput_req_per_kcycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.requests as f64 * 1000.0 / self.makespan_cycles as f64
        }
    }
}

/// One bank's private execution state: a simulated clock and the
/// exact counts of its requests' service latencies, which the merge
/// adds up. Plain accumulators only — the hot loop does no registry
/// lookup, no span bookkeeping and no stats snapshotting.
#[derive(Debug)]
struct Lane {
    bank: usize,
    clock: u64,
    service: LatencyCounts,
    fused: u64,
}

impl Lane {
    fn new(bank: usize) -> Self {
        Self {
            bank,
            clock: 0,
            service: LatencyCounts::default(),
            fused: 0,
        }
    }

    /// Executes one command at this lane's current simulated time.
    fn execute(&mut self, llc: &mut RacetrackLlc, cmd: ShiftCommand) {
        let kind = if cmd.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let resp = llc.access_fused(cmd.addr, kind, self.clock, cmd.fused);
        self.clock += resp.latency_cycles;
        self.service.record(resp.latency_cycles);
        self.fused += u64::from(cmd.fused);
    }
}

/// Stream-fusion state of the front end: remembers each bank's last
/// routed group and the current stream length.
#[derive(Debug)]
struct Fuser {
    last_group: Vec<usize>,
    run: Vec<u32>,
    limit: u32,
}

impl Fuser {
    fn new(banks: usize, limit: u32) -> Self {
        Self {
            last_group: vec![usize::MAX; banks],
            run: vec![0; banks],
            limit,
        }
    }

    /// Routes one access into a command, fusing it onto the bank's
    /// current stream when it targets the same group and the stream
    /// has room.
    fn command(&mut self, bank: usize, group: usize, a: &MemAccess) -> ShiftCommand {
        let fused = self.last_group[bank] == group && self.run[bank] < self.limit;
        if fused {
            self.run[bank] += 1;
        } else {
            self.last_group[bank] = group;
            self.run[bank] = 1;
        }
        ShiftCommand {
            addr: a.addr,
            write: a.is_write,
            fused,
        }
    }
}

/// One execution shard: an LLC (all banks, but only the owned banks'
/// state is ever touched) plus the owned lanes.
struct Shard {
    llc: RacetrackLlc,
    lanes: Vec<Lane>,
}

/// Merges shards into a [`ServeStats`]. Integral counters are summed
/// per shard (exact, commutative); floating-point risk and the batch
/// counters are read per *bank* in ascending bank order so the
/// summation order — and therefore every result bit — matches the
/// serial oracle's single-LLC accounting.
fn merge(cfg: &ThroughputConfig, mut shards: Vec<Shard>) -> ServeStats {
    let banks = cfg.banks as usize;
    for shard in &mut shards {
        shard.llc.flush_metrics();
    }
    let mut owner = vec![usize::MAX; banks];
    for (s, shard) in shards.iter().enumerate() {
        for lane in &shard.lanes {
            owner[lane.bank] = s;
        }
    }
    debug_assert!(owner.iter().all(|&s| s != usize::MAX));

    let mut llc = LlcStats::default();
    for shard in &shards {
        let s = shard.llc.stats();
        llc.cache.hits += s.cache.hits;
        llc.cache.misses += s.cache.misses;
        llc.cache.writebacks += s.cache.writebacks;
        llc.cache.reads += s.cache.reads;
        llc.cache.writes += s.cache.writes;
        llc.shift_ops += s.shift_ops;
        llc.shift_steps += s.shift_steps;
        llc.shift_cycles += s.shift_cycles;
        llc.verify_cycles += s.verify_cycles;
        llc.zero_shift_accesses += s.zero_shift_accesses;
        llc.sampled_shifts += s.sampled_shifts;
        llc.observed_errors += s.observed_errors;
    }
    let mut dues = 0.0f64;
    let mut sdcs = 0.0f64;
    let mut batched = 0u64;
    let mut saved = 0u64;
    for (bank, &s) in owner.iter().enumerate() {
        let c = shards[s].llc.controller_at(bank).stats();
        dues += c.expected_dues;
        sdcs += c.expected_sdcs;
        batched += c.batched_requests;
        saved += c.batch_saved_cycles;
    }
    let stripes = RacetrackLlc::STRIPES_PER_GROUP as f64;
    llc.expected_dues = dues * stripes;
    llc.expected_sdcs = sdcs * stripes;

    let mut lanes: Vec<Lane> = shards.into_iter().flat_map(|s| s.lanes).collect();
    lanes.sort_unstable_by_key(|l| l.bank);
    let lane_cycles: Vec<u64> = lanes.iter().map(|l| l.clock).collect();
    let makespan_cycles = lane_cycles.iter().copied().max().unwrap_or(0);
    let fused_dispatches = lanes.iter().map(|l| l.fused).sum();
    let mut service = LatencyCounts::default();
    for lane in &lanes {
        service.merge(&lane.service);
    }
    let service = service.summary();
    ServeStats {
        requests: service.count,
        makespan_cycles,
        lane_cycles,
        service,
        zero_shift_dispatches: llc.zero_shift_accesses,
        fused_dispatches,
        batched_requests: batched,
        batch_saved_cycles: saved,
        llc,
    }
}

/// Runs the lane semantics serially on a single LLC — the oracle the
/// parallel path is gated against.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_oracle(cfg: ThroughputConfig, trace: &[MemAccess]) -> ServeStats {
    cfg.validate();
    let banks = cfg.banks as usize;
    let router = GroupRouter::paper(cfg.banks);
    let mut fuser = Fuser::new(banks, cfg.batch_limit);
    let mut llc = RacetrackLlc::with_banks(cfg.protection, cfg.shift_policy, cfg.banks);
    let mut lanes: Vec<Lane> = (0..banks).map(Lane::new).collect();
    for a in trace {
        let group = router.group_of(a.addr);
        let bank = router.bank_of(a.addr);
        let cmd = fuser.command(bank, group, a);
        lanes[bank].execute(&mut llc, cmd);
    }
    merge(&cfg, vec![Shard { llc, lanes }])
}

/// Runs the lock-free per-bank data path: `cfg.threads` workers, one
/// SPSC command ring per bank, the front end routing and fusing the
/// trace while the workers drain. Bit-identical to [`run_oracle`] for
/// any thread count.
///
/// # Panics
///
/// Panics if the configuration is invalid or a worker panics.
pub fn run_parallel(cfg: ThroughputConfig, trace: &[MemAccess]) -> ServeStats {
    cfg.validate();
    let banks = cfg.banks as usize;
    let threads = (cfg.threads as usize).min(banks);
    let router = GroupRouter::paper(cfg.banks);

    let mut producers: Vec<Producer<ShiftCommand>> = Vec::with_capacity(banks);
    let mut worker_rings: Vec<Vec<(usize, spsc::Consumer<ShiftCommand>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for bank in 0..banks {
        let (tx, rx) = spsc::ring(cfg.ring_capacity);
        producers.push(tx);
        worker_rings[bank % threads].push((bank, rx));
    }

    let shards = thread::scope(|scope| {
        let handles: Vec<_> = worker_rings
            .into_iter()
            .map(|rings| {
                scope.spawn(move || {
                    // Each worker owns a private LLC; only its banks'
                    // cache sets, heads and controllers are ever
                    // touched, so the owned slices of state evolve
                    // exactly as the oracle's.
                    let mut llc =
                        RacetrackLlc::with_banks(cfg.protection, cfg.shift_policy, cfg.banks);
                    let mut lanes: Vec<Lane> =
                        rings.iter().map(|&(bank, _)| Lane::new(bank)).collect();
                    let mut rings: Vec<_> = rings.into_iter().map(|(_, rx)| Some(rx)).collect();
                    let mut open = rings.iter().filter(|r| r.is_some()).count();
                    while open > 0 {
                        let mut advanced = false;
                        for (i, slot) in rings.iter_mut().enumerate() {
                            let Some(rx) = slot else { continue };
                            loop {
                                match rx.try_recv() {
                                    Recv::Item(cmd) => {
                                        lanes[i].execute(&mut llc, cmd);
                                        advanced = true;
                                    }
                                    Recv::Empty => break,
                                    Recv::Closed => {
                                        *slot = None;
                                        open -= 1;
                                        break;
                                    }
                                }
                            }
                        }
                        if !advanced && open > 0 {
                            // Ring-empty means the front end is behind;
                            // wait for commands — a lane clock never
                            // advances on idleness.
                            thread::yield_now();
                        }
                    }
                    Shard { llc, lanes }
                })
            })
            .collect();

        // Front end: route, fuse and enqueue in trace order. A full
        // ring is backpressure — retry until the worker drains.
        let mut fuser = Fuser::new(banks, cfg.batch_limit);
        for a in trace {
            let group = router.group_of(a.addr);
            let bank = router.bank_of(a.addr);
            let mut cmd = fuser.command(bank, group, a);
            while let Err(back) = producers[bank].push(cmd) {
                cmd = back;
                thread::yield_now();
            }
        }
        // Dropping the producers closes every ring.
        drop(producers);

        handles
            .into_iter()
            .map(|h| h.join().expect("bank worker panicked"))
            .collect::<Vec<_>>()
    });
    merge(&cfg, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::{MixedTraceGenerator, TraceGenerator, WorkloadProfile};

    fn trace(workload: &str, n: usize) -> Vec<MemAccess> {
        let p = WorkloadProfile::by_name(workload).unwrap();
        MixedTraceGenerator::new(&[p, p, p, p], 2015)
            .take(n)
            .collect()
    }

    #[test]
    fn router_matches_the_llc_mapping() {
        let llc = RacetrackLlc::with_banks(ProtectionKind::SECDED, ShiftPolicy::Adaptive, 8);
        let router = GroupRouter::paper(8);
        let p = WorkloadProfile::by_name("canneal").unwrap();
        for a in TraceGenerator::new(p, 7).take(5_000) {
            assert_eq!(router.group_of(a.addr), llc.group_of(a.addr));
            assert_eq!(router.bank_of(a.addr), llc.group_of(a.addr) % 8);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_the_oracle() {
        let t = trace("canneal", 20_000);
        let cfg = ThroughputConfig::new();
        let oracle = run_oracle(cfg, &t);
        assert_eq!(oracle.requests, 20_000);
        for threads in [1, 2, 4, 8] {
            let par = run_parallel(cfg.with_threads(threads), &t);
            assert_eq!(oracle, par, "threads = {threads}");
        }
    }

    #[test]
    fn oracle_equivalence_holds_across_schemes_and_workloads() {
        for (workload, protection, policy) in [
            ("ferret", ProtectionKind::SECDED, ShiftPolicy::Adaptive),
            ("dedup", ProtectionKind::SECDED_O, ShiftPolicy::StepByStep),
            (
                "streamcluster",
                ProtectionKind::None,
                ShiftPolicy::Unconstrained,
            ),
        ] {
            let t = trace(workload, 8_000);
            let cfg = ThroughputConfig::new().with_scheme(protection, policy);
            let oracle = run_oracle(cfg, &t);
            let par = run_parallel(cfg.with_threads(4), &t);
            assert_eq!(oracle, par, "{workload}");
        }
    }

    #[test]
    fn fusion_saves_exactly_the_amortised_setups() {
        // Under the timing-independent Unconstrained policy a batched
        // stream is *provably* identical physical work: same steps,
        // same sub-shift sequences, same risk — each planned
        // continuation skips one STS stage-2 settle and nothing else.
        // (Under Adaptive the faster stream timing feeds back into the
        // interval adapter, which may then choose different sequences;
        // see `fusion_under_adaptive_still_amortises`.)
        let t = trace("canneal", 20_000);
        let cfg =
            ThroughputConfig::new().with_scheme(ProtectionKind::SECDED, ShiftPolicy::Unconstrained);
        let fused = run_oracle(cfg, &t);
        let plain = run_oracle(cfg.with_batch_limit(1), &t);
        assert!(fused.fused_dispatches > 0, "workload must coalesce");
        assert!(fused.batched_requests > 0);
        let setup = rtm_model::sts::StsTiming::paper().setup_cycles().count();
        assert_eq!(fused.llc.shift_steps, plain.llc.shift_steps);
        assert_eq!(fused.llc.shift_ops, plain.llc.shift_ops);
        assert_eq!(fused.llc.verify_cycles, plain.llc.verify_cycles);
        assert_eq!(fused.llc.expected_dues, plain.llc.expected_dues);
        assert_eq!(fused.llc.expected_sdcs, plain.llc.expected_sdcs);
        assert_eq!(fused.batch_saved_cycles, fused.batched_requests * setup);
        assert_eq!(
            fused.llc.shift_cycles + fused.batch_saved_cycles,
            plain.llc.shift_cycles
        );
        assert!(fused.service.sum < plain.service.sum);
        assert_eq!(plain.fused_dispatches, 0);
        assert_eq!(plain.batch_saved_cycles, 0);
    }

    #[test]
    fn fusion_under_adaptive_still_amortises() {
        // The adaptive adapter reacts to the stream's tighter spacing,
        // so sequences may differ — but the setup accounting invariant
        // and the end-to-end win must survive the feedback.
        let t = trace("canneal", 20_000);
        let fused = run_oracle(ThroughputConfig::new(), &t);
        let plain = run_oracle(ThroughputConfig::new().with_batch_limit(1), &t);
        let setup = rtm_model::sts::StsTiming::paper().setup_cycles().count();
        assert!(fused.batched_requests > 0);
        assert_eq!(fused.batch_saved_cycles, fused.batched_requests * setup);
        assert_eq!(fused.llc.shift_steps, plain.llc.shift_steps);
        assert!(fused.service.sum < plain.service.sum);
        assert!(fused.makespan_cycles < plain.makespan_cycles);
    }

    #[test]
    fn lanes_partition_the_trace() {
        let t = trace("swaptions", 10_000);
        let r = run_oracle(ThroughputConfig::new(), &t);
        assert_eq!(r.requests, 10_000);
        assert_eq!(r.service.count, 10_000);
        assert_eq!(r.lane_cycles.len(), 8);
        assert_eq!(
            r.makespan_cycles,
            r.lane_cycles.iter().copied().max().unwrap()
        );
        assert_eq!(r.llc.cache.accesses(), 10_000);
        assert!(r.throughput_req_per_kcycle() > 0.0);
        assert!(r.llc.expected_dues > 0.0, "protected run carries risk");
    }

    #[test]
    fn more_threads_than_banks_is_fine() {
        let t = trace("canneal", 4_000);
        let cfg = ThroughputConfig::new().with_banks(2);
        let oracle = run_oracle(cfg, &t);
        let par = run_parallel(cfg.with_threads(8), &t);
        assert_eq!(oracle, par);
    }
}
