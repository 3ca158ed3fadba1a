//! The discrete-event request scheduler.
//!
//! [`ServeSim`] drives an LLC-level request stream through per-stripe-
//! group queues into a banked [`RacetrackLlc`]. Time advances from
//! event to event (completions, bank frees, client think expirations);
//! at every instant the simulator reaches a fixpoint of
//! complete → admit → dispatch before moving on, so the schedule is a
//! pure function of the configuration and the trace.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::policy::SchedPolicy;
use rtm_controller::controller::ShiftPolicy;
use rtm_cost::technology::{CacheTech, SystemConfig};
use rtm_mem::cache::{AccessKind, Way};
use rtm_mem::llc::{LineSite, LlcModel, LlcStats, RacetrackLlc, ScaleStats, SetSlot};
use rtm_obs::attrib::AttributionTable;
use rtm_obs::metrics::nearest_rank;
use rtm_obs::span::ParentScope;
use rtm_pecc::layout::ProtectionKind;
use rtm_trace::MemAccess;
use rtm_util::div::Divisor;

/// Component names of the serving layer's cycle-attribution tables,
/// in column order: where every attributed cycle of a dispatched
/// request goes. `back_shift` is always 0 under the statistical
/// controller (corrective back-shifts are an expected-value term the
/// paper shows is negligible; the column is kept so the schema matches
/// the bit-accurate injection layer's accounting).
pub const ATTRIBUTION_COMPONENTS: [&str; 6] = [
    "queue_delay",
    "sts_shift",
    "pecc_verify",
    "back_shift",
    "array_access",
    "mem_fill",
];

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Scheduling policy the banks use.
    pub policy: SchedPolicy,
    /// Protection scheme of the racetrack LLC.
    pub protection: ProtectionKind,
    /// Safe-distance policy of the shift controllers.
    pub shift_policy: ShiftPolicy,
    /// Independent banks (stripe groups are interleaved over them).
    pub banks: u32,
    /// Bounded depth of each stripe-group queue; admission stalls
    /// (backpressure) when the target queue is full.
    pub queue_depth: usize,
    /// Closed-loop clients (trace cores are mapped onto them).
    pub clients: u8,
    /// Outstanding-request budget per client.
    pub budget: usize,
    /// Starvation bound for the reordering policies: a queued request
    /// that younger requests have overtaken this many times is promoted
    /// ahead of any younger candidate (oldest first), so FR-FCFS and
    /// shift-aware cannot defer an unlucky request indefinitely while
    /// reordering stays active for everyone else. FCFS ignores it.
    pub starve_limit: u32,
    /// Whether clients honour the trace's think times (paced, the
    /// default) or issue continuously at full budget (a saturating
    /// drive, the standard device-benchmark regime where scheduling
    /// quality shows up at every latency percentile).
    pub paced: bool,
    /// Requests to serve before stopping.
    pub requests: u64,
    /// Configured LLC capacity override in bytes (`None` keeps the
    /// paper's 128 MiB preset). Large capacities are cheap: group
    /// state materialises lazily, so an idle terabyte-scale array
    /// costs its directory alone.
    pub capacity_bytes: Option<u64>,
}

impl ServeConfig {
    /// A contended default: SECDED p-ECC-S adaptive LLC, 8 banks,
    /// 4 clients with 8 outstanding requests each, queues bounded at 8.
    pub fn new(policy: SchedPolicy) -> Self {
        Self {
            policy,
            protection: ProtectionKind::SECDED,
            shift_policy: ShiftPolicy::Adaptive,
            banks: 8,
            queue_depth: 8,
            clients: 4,
            budget: 8,
            starve_limit: 4,
            paced: true,
            requests: 50_000,
            capacity_bytes: None,
        }
    }

    /// Sets the protection scheme and shift policy (builder style).
    pub fn with_scheme(mut self, protection: ProtectionKind, policy: ShiftPolicy) -> Self {
        self.protection = protection;
        self.shift_policy = policy;
        self
    }

    /// Sets the number of banks (builder style).
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self
    }

    /// Sets the per-group queue depth (builder style).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the client count and per-client budget (builder style).
    pub fn with_clients(mut self, clients: u8, budget: usize) -> Self {
        self.clients = clients;
        self.budget = budget;
        self
    }

    /// Sets the starvation bound (maximum bypasses) for reordering
    /// policies (builder style).
    pub fn with_starve_limit(mut self, starve_limit: u32) -> Self {
        self.starve_limit = starve_limit;
        self
    }

    /// Switches between paced and saturating drive (builder style).
    pub fn with_paced(mut self, paced: bool) -> Self {
        self.paced = paced;
        self
    }

    /// Sets the request count (builder style).
    pub fn with_requests(mut self, requests: u64) -> Self {
        self.requests = requests;
        self
    }

    /// Overrides the configured LLC capacity in bytes (builder style).
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity_bytes = Some(bytes);
        self
    }

    fn validate(&self) {
        assert!(self.banks > 0, "at least one bank");
        assert!(self.queue_depth > 0, "queues need capacity");
        assert!(self.clients > 0, "at least one client");
        assert!(self.budget > 0, "clients need a budget");
        if let Some(bytes) = self.capacity_bytes {
            assert!(bytes > 0, "capacity must be non-zero");
        }
    }
}

/// Exact latency quantiles over one measurement stream (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl LatencySummary {
    /// Summarises a sample vector (consumed; sorted internally).
    /// Quantiles use integer nearest-rank indexing, so results are
    /// bit-identical across platforms and thread counts.
    ///
    /// The sort-based reference that [`LatencyCounts::summary`] is
    /// tested against. The serving layer itself keeps no sample vectors
    /// and never calls this.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let at = |pct: usize| nearest_rank(&samples, pct);
        Self {
            count: n as u64,
            sum: samples.iter().sum(),
            min: samples[0],
            max: samples[n - 1],
            p50: at(50),
            p95: at(95),
            p99: at(99),
        }
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Values below this many cycles are counted per value; larger ones are
/// kept raw. Saturated serving latencies stay far below it
/// (serve-saturated's p99 total is 538 cycles, and the deep-queue
/// configurations peak at ~1.7k), so nearly every record is one
/// increment. Front-door queue delays run to ~38k cycles and mostly go
/// to the raw list, which then holds about what a sample vector would.
/// A 65,536-cycle cut would count them instead, in arrays of up to
/// 512 KiB per recorder: it raised frontdoor-10k's peak RSS from 26.7
/// to 29.4 MB.
const DENSE_CUT: u64 = 4_096;

/// An exact latency recorder: the [`LatencySummary`] of a stream without
/// keeping the stream.
///
/// Each value below a fixed cut of 4,096 cycles is counted in a dense
/// array indexed by value; the rarer larger values are kept raw.
/// [`Self::summary`] is bit for bit what [`LatencySummary::from_samples`]
/// computes from the same values: nearest rank needs only per-value
/// counts, because `sorted[k]` with `k = (n - 1) * p / 100` is the
/// smallest value whose cumulative count exceeds `k`. Every raw value
/// lies above every counted one, so the ranks past the counted values
/// index the sorted raw list directly.
#[derive(Debug, Clone, Default)]
pub struct LatencyCounts {
    /// `dense[v]` observations of value `v`, for `v < DENSE_CUT`; grown
    /// on demand to the largest such value seen.
    dense: Vec<u64>,
    /// Observations of `DENSE_CUT` cycles or more, in any order.
    raw: Vec<u64>,
}

impl LatencyCounts {
    /// Records one observation.
    pub fn record(&mut self, cycles: u64) {
        if cycles < DENSE_CUT {
            let v = cycles as usize;
            if v >= self.dense.len() {
                self.dense.resize(v + 1, 0);
            }
            self.dense[v] += 1;
        } else {
            self.raw.push(cycles);
        }
    }

    /// Adds every observation of `other`. Recording is a multiset
    /// union, so merge order never changes the summary.
    pub fn merge(&mut self, other: &LatencyCounts) {
        if other.dense.len() > self.dense.len() {
            self.dense.resize(other.dense.len(), 0);
        }
        for (mine, theirs) in self.dense.iter_mut().zip(&other.dense) {
            *mine += theirs;
        }
        self.raw.extend_from_slice(&other.raw);
    }

    /// The exact summary of everything recorded so far. Sorts the raw
    /// values in place.
    pub fn summary(&mut self) -> LatencySummary {
        self.raw.sort_unstable();
        let counted: u64 = self.dense.iter().sum();
        let count = counted + self.raw.len() as u64;
        if count == 0 {
            return LatencySummary::default();
        }
        let dense = &self.dense;
        let raw = &self.raw;
        // The value at nearest rank `pct`: p0 is the minimum, p100 the
        // maximum.
        let at = |pct: u64| {
            let k = (count - 1) * pct / 100;
            if k >= counted {
                return raw[(k - counted) as usize];
            }
            let mut cumulative = 0;
            for (v, &c) in dense.iter().enumerate() {
                cumulative += c;
                if cumulative > k {
                    return v as u64;
                }
            }
            unreachable!("rank {k} lies among the {counted} counted values")
        };
        let counted_sum: u64 = dense.iter().zip(0u64..).map(|(&c, v)| c * v).sum();
        LatencySummary {
            count,
            sum: counted_sum + raw.iter().sum::<u64>(),
            min: at(0),
            max: at(100),
            p50: at(50),
            p95: at(95),
            p99: at(99),
        }
    }
}

/// Result of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Policy that produced this result.
    pub policy: SchedPolicy,
    /// Requests completed.
    pub requests: u64,
    /// Cycle at which the last request completed.
    pub cycles: u64,
    /// Enqueue-to-dispatch waiting time.
    pub queue_delay: LatencySummary,
    /// LLC service time proper (shift + array) — the part of the
    /// response the scheduler can influence through head proximity.
    pub service: LatencySummary,
    /// Enqueue-to-completion time (queue delay + service + any memory
    /// fill on a miss).
    pub total: LatencySummary,
    /// Enqueue-to-completion time of reads alone — the latency-critical
    /// slice: a serving layer answers reads while writes can be posted.
    pub read_total: LatencySummary,
    /// Enqueue-to-completion time of writes alone.
    pub write_total: LatencySummary,
    /// Admission stalls on a full stripe-group queue.
    pub backpressure_stalls: u64,
    /// Dispatches that needed no shift (head already aligned).
    pub zero_shift_dispatches: u64,
    /// Peak simultaneously queued requests (all groups).
    pub peak_queued: usize,
    /// Peak simultaneously in-service + in-fill requests.
    pub peak_in_flight: usize,
    /// LLC counters (shifts, hits, expected error mass, ...).
    pub llc: LlcStats,
    /// Memory-footprint counters of the lazily materialised LLC state
    /// (configured vs touched stripe groups, pristine-read hits,
    /// arena bytes).
    pub scale: ScaleStats,
    /// Memory-fill cycles charged to dispatched requests (misses only;
    /// summed at dispatch, so in-flight requests at run end are
    /// included, matching `queue_delay.sum` and `service.sum`).
    pub fill_cycles: u64,
    /// Cycles each bank spent servicing dispatched requests.
    pub bank_busy_cycles: Vec<u64>,
    /// Per-tenant (client) cycle attribution: one cell per client,
    /// components [`ATTRIBUTION_COMPONENTS`], each cell's total being
    /// that client's independently summed queue + service + fill
    /// cycles. Components sum to the total exactly.
    pub tenants: AttributionTable,
}

impl ServeResult {
    /// Completed requests per thousand cycles.
    pub fn throughput_req_per_kcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.requests as f64 * 1000.0 / self.cycles as f64
        }
    }

    /// This run's cycle attribution, one value per
    /// [`ATTRIBUTION_COMPONENTS`] column. The decomposition crosses
    /// module boundaries — queue delay and fill come from the
    /// scheduler, the shift/verify split from the LLC's controller
    /// accounting — yet sums to [`Self::attributed_total`] exactly.
    pub fn attribution_components(&self) -> [u64; 6] {
        let sts = self.llc.shift_cycles - self.llc.verify_cycles;
        let array = self.service.sum - self.llc.shift_cycles;
        [
            self.queue_delay.sum,
            sts,
            self.llc.verify_cycles,
            0,
            array,
            self.fill_cycles,
        ]
    }

    /// Total attributed cycles: queue delay + LLC service + memory
    /// fill summed over every dispatched request.
    pub fn attributed_total(&self) -> u64 {
        self.queue_delay.sum + self.service.sum + self.fill_cycles
    }

    /// Records this run's summary into the global metrics registry
    /// (no-op while observability is off). Kept separate from the run
    /// itself so parallel sweeps can record after their workers join,
    /// in deterministic cell order.
    pub fn record_metrics(&self) {
        let reg = rtm_obs::global().registry();
        if reg.enabled() {
            reg.gauge_set("serve.cycles", self.cycles as f64);
            reg.gauge_set("serve.p99_service_cycles", self.service.p99 as f64);
            reg.gauge_set("serve.p99_queue_delay_cycles", self.queue_delay.p99 as f64);
            reg.gauge_set(
                "serve.throughput_req_per_kcycle",
                self.throughput_req_per_kcycle(),
            );
            reg.counter_add("serve.backpressure_stalls", self.backpressure_stalls);
            reg.counter_add("serve.completed", self.requests);
            self.scale.record(reg);
        }
    }
}

/// What a [`RequestSource`] has to offer at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// A request ready to enter admission now.
    Ready(MemAccess),
    /// Nothing yet; nothing can become ready before this cycle. The
    /// cycle must lie strictly in the future. `u64::MAX` means "wake
    /// me on a completion" and is only legal while the simulator still
    /// has queued or in-flight work to wake on.
    NotBefore(u64),
    /// The source will never produce another request.
    Exhausted,
}

/// One retired request, echoed back to the [`RequestSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Sequential admission id (the order `RequestSource::admitted`
    /// observed).
    pub id: u64,
    /// Cycle at which the request completed.
    pub cycle: u64,
    /// Enqueue-to-dispatch waiting cycles.
    pub queue_delay: u64,
    /// LLC service cycles (shift + array).
    pub service: u64,
    /// Memory-fill cycles (0 on a hit).
    pub fill: u64,
    /// Enqueue-to-completion cycles.
    pub total: u64,
    /// Whether the request was a write.
    pub is_write: bool,
}

/// A clock-aware request feed with admission and completion callbacks.
///
/// [`ServeSim::run_source`] polls the source at every admission
/// opportunity, passing the current cycle so the source can make
/// time-dependent decisions (token buckets, deferral, load shedding)
/// *before* the bounded per-group queues exert backpressure. Admission
/// ids are sequential (0, 1, 2, ...) in admission order, so a source
/// can map completions back to its own bookkeeping with a vector.
///
/// Every plain `Iterator<Item = MemAccess>` is a `RequestSource` that
/// is always ready, keeping the original closed-loop drive unchanged.
pub trait RequestSource {
    /// Offers the next request, a wake-up time, or end-of-stream.
    fn poll(&mut self, now: u64) -> SourcePoll;

    /// Called when the most recent [`SourcePoll::Ready`] request was
    /// enqueued, with its sequential admission id.
    fn admitted(&mut self, id: u64, now: u64) {
        let _ = (id, now);
    }

    /// Called when an admitted request retires.
    fn completed(&mut self, completion: &Completion) {
        let _ = completion;
    }
}

impl<I: Iterator<Item = MemAccess>> RequestSource for I {
    fn poll(&mut self, _now: u64) -> SourcePoll {
        match self.next() {
            Some(a) => SourcePoll::Ready(a),
            None => SourcePoll::Exhausted,
        }
    }
}

/// A request waiting in a stripe-group queue (40 bytes).
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: u64,
    addr: u64,
    /// Its set's storage slot, resolved at admission; the group is the
    /// queue's.
    set: SetSlot,
    is_write: bool,
    client: u8,
    arrival: u64,
    /// Requests its bank admitted before it. All of them have been
    /// dispatched once it is the bank's oldest request, so every bank
    /// dispatch past this count overtook it.
    turn: u64,
}

impl Queued {
    fn kind(&self) -> AccessKind {
        if self.is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }
}

/// The capacity of a queue's first buffer (`VecDeque`'s smallest
/// allocation for entries of this size).
const MIN_QUEUE_CAPACITY: usize = 4;

/// The bounded per-group queues, each in request-id order (a dispatch
/// may take any position, never reorder the rest), found by group in
/// O(1) expected time.
///
/// A group with requests queued owns one slab entry, found through an
/// open-addressed table that holds only such groups. When its queue
/// drains, its bucket is emptied and its slab entry put on a free list
/// for the next group that queues, keeping a buffer of the smallest
/// capacity (a grown one is freed), so a group that queues again mostly
/// allocates nothing. The store's memory therefore follows the requests
/// queued at once, not the configured capacity: frontdoor-10k's ~880
/// queued groups fit a 2,048-bucket (16 KiB) table, where an index over
/// the paper's 32,768 groups took 128 KiB. Keys are group indices, so
/// only a trace built to collide them could lengthen a probe, and never
/// past the groups queued at once.
#[derive(Debug)]
struct GroupQueues {
    /// Linear-probing buckets of (group + 1, slab index), key 0 marking
    /// an empty bucket; a power of two in size, at most half full.
    /// Groups fit a `u32`: the directory holds at most 2^32 lines.
    table: Vec<(u32, u32)>,
    /// log2 of the table size.
    bits: u32,
    slab: Vec<VecDeque<Queued>>,
    /// Slab indices of drained queues, reused last in, first out.
    free: Vec<u32>,
}

impl GroupQueues {
    fn new() -> Self {
        let bits = 6;
        Self {
            table: vec![(0, 0); 1 << bits],
            bits,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The home bucket of `key` (Fibonacci hashing).
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    /// The bucket holding `group`, else the empty bucket it would take.
    fn bucket(&self, group: usize) -> usize {
        let key = group as u32 + 1;
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        while self.table[i].0 != 0 && self.table[i].0 != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// The queue of `group`, if it has requests queued.
    fn get(&self, group: usize) -> Option<&VecDeque<Queued>> {
        let (key, s) = self.table[self.bucket(group)];
        (key != 0).then(|| &self.slab[s as usize])
    }

    /// The requests queued on `group`.
    fn len(&self, group: usize) -> usize {
        self.get(group).map_or(0, VecDeque::len)
    }

    /// Appends `req` to `group`'s queue, giving the group a slab entry
    /// if it has none.
    fn push(&mut self, group: usize, req: Queued) {
        let mut i = self.bucket(group);
        if self.table[i].0 == 0 {
            let queues = self.slab.len() - self.free.len() + 1;
            if 2 * queues > self.table.len() {
                self.grow();
                i = self.bucket(group);
            }
            let s = self.free.pop().unwrap_or_else(|| {
                self.slab.push(VecDeque::new());
                self.slab.len() as u32 - 1
            });
            self.table[i] = (group as u32 + 1, s);
        }
        self.slab[self.table[i].1 as usize].push_back(req);
    }

    /// Removes and returns the request at `idx` of `group`'s queue with
    /// the id of the queue's new front, if any. A drained queue frees
    /// its buffer, its bucket and its slab entry.
    fn remove(&mut self, group: usize, idx: usize) -> (Queued, Option<u64>) {
        let i = self.bucket(group);
        let s = self.table[i].1 as usize;
        let q = &mut self.slab[s];
        let req = q.remove(idx).expect("selected index exists");
        let front = q.front().map(|r| r.id);
        if q.is_empty() {
            // The smallest buffer stays with the slab entry for the next
            // group that queues; a grown one is freed.
            if q.capacity() > MIN_QUEUE_CAPACITY {
                *q = VecDeque::new();
            }
            self.free.push(s as u32);
            self.erase(i);
        }
        (req, front)
    }

    /// Empties bucket `i`, moving back each later entry of its probe run
    /// whose home bucket does not lie after the hole, so every key stays
    /// reachable from its home without tombstones.
    fn erase(&mut self, mut i: usize) {
        let mask = self.table.len() - 1;
        let mut j = i;
        loop {
            self.table[i] = (0, 0);
            loop {
                j = (j + 1) & mask;
                let key = self.table[j].0;
                if key == 0 {
                    return;
                }
                // Movable unless its home is cyclically in (i, j].
                let home = self.home(key);
                if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                    break;
                }
            }
            self.table[i] = self.table[j];
            i = j;
        }
    }

    /// Doubles the table and re-inserts every entry.
    fn grow(&mut self) {
        self.bits += 1;
        let old = std::mem::replace(&mut self.table, vec![(0, 0); 1 << self.bits]);
        for (key, s) in old.into_iter().filter(|&(key, _)| key != 0) {
            let i = self.bucket(key as usize - 1);
            self.table[i] = (key, s);
        }
    }
}

/// The stripe groups of one bank that hold queued requests, as (front
/// request id, group) in front-id order: the first holds the bank's
/// oldest request, since each group queue is in id order.
///
/// A group that starts queuing does so with the bank's newest request,
/// so it joins at the back. A group whose front is dispatched is
/// re-keyed by two binary searches and a shift of the entries between
/// its old and new places, none when it stays first.
#[derive(Debug, Clone, Default)]
struct BankIndex(VecDeque<(u64, usize)>);

impl BankIndex {
    /// The entry of the group holding the bank's oldest request.
    fn first(&self) -> Option<&(u64, usize)> {
        self.0.front()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Entries in front-id order.
    fn iter(&self) -> impl Iterator<Item = &(u64, usize)> {
        self.0.iter()
    }

    /// `group` starts queuing with request `id`, the bank's newest.
    fn push(&mut self, id: u64, group: usize) {
        debug_assert!(self.0.back().is_none_or(|&(back, _)| back < id));
        self.0.push_back((id, group));
    }

    /// `group`'s front request `id` left its queue; `next` is the
    /// queue's new front, if it has one.
    fn rekey(&mut self, id: u64, group: usize, next: Option<u64>) {
        let at = self.0.partition_point(|&(front, _)| front < id);
        debug_assert_eq!(self.0.get(at), Some(&(id, group)));
        match next {
            None => {
                self.0.remove(at);
            }
            Some(next) => {
                // Every entry before `to` keys below `next`; `next`
                // follows `id` in its queue, so `to` lies past `at`.
                let to = self.0.partition_point(|&(front, _)| front < next);
                for i in at..to - 1 {
                    self.0[i] = self.0[i + 1];
                }
                self.0[to - 1] = (next, group);
            }
        }
    }
}

/// A dispatched request awaiting completion.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: u64,
    client: u8,
    complete_at: u64,
    queue_delay: u64,
    service_cycles: u64,
    fill_cycles: u64,
    total_cycles: u64,
    is_write: bool,
}

/// The dispatched requests awaiting completion, retired in completion
/// order and, within a cycle, in dispatch order.
///
/// A min-heap of 24-byte keys (completion cycle, dispatch number, slab
/// slot) orders them; the payloads stay put in a slab whose slots are
/// reused. So the next completion is the heap's top, and retiring the
/// requests due at an instant touches only those requests.
#[derive(Debug, Default)]
struct InFlightSet {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slab: Vec<InFlight>,
    /// Slots of retired requests, reused last in, first out.
    free: Vec<u32>,
    /// Requests dispatched so far: the next dispatch number.
    dispatched: u64,
}

impl InFlightSet {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, f: InFlight) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = f;
                slot
            }
            None => {
                self.slab.push(f);
                self.slab.len() as u32 - 1
            }
        };
        self.heap
            .push(Reverse((f.complete_at, self.dispatched, slot)));
        self.dispatched += 1;
    }

    /// The earliest completion cycle, if any request is in flight.
    fn next_completion(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Removes and returns the next request to retire if it is due by
    /// `now`.
    fn pop_due(&mut self, now: u64) -> Option<InFlight> {
        let &Reverse((at, _, slot)) = self.heap.peek()?;
        if at > now {
            return None;
        }
        self.heap.pop();
        self.free.push(slot);
        Some(self.slab[slot as usize])
    }
}

/// One bit per bank: the banks that hold queued work.
#[derive(Debug)]
struct BankMask(Vec<u64>);

impl BankMask {
    fn new(banks: usize) -> Self {
        Self(vec![0; banks.div_ceil(64)])
    }

    fn set(&mut self, bank: usize) {
        self.0[bank / 64] |= 1 << (bank % 64);
    }

    fn clear(&mut self, bank: usize) {
        self.0[bank / 64] &= !(1 << (bank % 64));
    }
}

/// The discrete-event serving simulator.
#[derive(Debug)]
pub struct ServeSim {
    cfg: ServeConfig,
    /// The client count, mapping trace cores onto clients.
    clients: Divisor,
    llc: RacetrackLlc,
    mem_cycles: u64,
    clock: u64,
    /// The per-group bounded queues.
    queues: GroupQueues,
    /// The stripe groups of each bank that hold queued requests.
    bank_index: Vec<BankIndex>,
    /// The banks whose index is not empty.
    banks_with_work: BankMask,
    /// Requests admitted to, and dispatched from, each bank.
    bank_admitted: Vec<u64>,
    bank_dispatched: Vec<u64>,
    queued_total: usize,
    bank_free_at: Vec<u64>,
    in_flight: InFlightSet,
    outstanding: Vec<usize>,
    ready_at: Vec<u64>,
    pending: Option<MemAccess>,
    source_done: bool,
    /// Earliest cycle the source said it could become ready again
    /// (cleared on the next successful poll).
    source_wake: Option<u64>,
    issued: u64,
    completed: u64,
    next_id: u64,
    backpressure_stalls: u64,
    /// Dedup key so one blocked request counts one stall per instant.
    last_stall: Option<(u64, usize)>,
    peak_queued: usize,
    peak_in_flight: usize,
    queue_delays: LatencyCounts,
    services: LatencyCounts,
    totals: LatencyCounts,
    read_totals: LatencyCounts,
    write_totals: LatencyCounts,
    fill_cycles_total: u64,
    bank_busy: Vec<u64>,
    /// Per-client cycle accounting, charged at dispatch.
    tenant_requests: Vec<u64>,
    tenant_queue: Vec<u64>,
    tenant_service: Vec<u64>,
    tenant_sts: Vec<u64>,
    tenant_verify: Vec<u64>,
    tenant_fill: Vec<u64>,
}

impl ServeSim {
    /// Builds the simulator for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ServeConfig) -> Self {
        cfg.validate();
        let mut llc = RacetrackLlc::with_banks(cfg.protection, cfg.shift_policy, cfg.banks);
        if let Some(bytes) = cfg.capacity_bytes {
            llc = llc.with_capacity(bytes);
        }
        Self {
            clients: Divisor::new(u64::from(cfg.clients)),
            mem_cycles: SystemConfig::paper(CacheTech::Racetrack)
                .memory
                .access_cycles,
            clock: 0,
            queues: GroupQueues::new(),
            bank_index: vec![BankIndex::default(); cfg.banks as usize],
            banks_with_work: BankMask::new(cfg.banks as usize),
            bank_admitted: vec![0; cfg.banks as usize],
            bank_dispatched: vec![0; cfg.banks as usize],
            queued_total: 0,
            bank_free_at: vec![0; cfg.banks as usize],
            in_flight: InFlightSet::default(),
            outstanding: vec![0; cfg.clients as usize],
            ready_at: vec![0; cfg.clients as usize],
            pending: None,
            source_done: false,
            source_wake: None,
            issued: 0,
            completed: 0,
            next_id: 0,
            backpressure_stalls: 0,
            last_stall: None,
            peak_queued: 0,
            peak_in_flight: 0,
            queue_delays: LatencyCounts::default(),
            services: LatencyCounts::default(),
            totals: LatencyCounts::default(),
            read_totals: LatencyCounts::default(),
            write_totals: LatencyCounts::default(),
            fill_cycles_total: 0,
            bank_busy: vec![0; cfg.banks as usize],
            tenant_requests: vec![0; cfg.clients as usize],
            tenant_queue: vec![0; cfg.clients as usize],
            tenant_service: vec![0; cfg.clients as usize],
            tenant_sts: vec![0; cfg.clients as usize],
            tenant_verify: vec![0; cfg.clients as usize],
            tenant_fill: vec![0; cfg.clients as usize],
            llc,
            cfg,
        }
    }

    /// The underlying LLC (head positions, estimation).
    pub fn llc(&self) -> &RacetrackLlc {
        &self.llc
    }

    /// Runs the event loop until `cfg.requests` complete (or the
    /// source is exhausted) and summarises.
    pub fn run<I: Iterator<Item = MemAccess>>(self, source: &mut I) -> ServeResult {
        self.run_source(source)
    }

    /// Runs the event loop against a clock-aware [`RequestSource`],
    /// invoking its admission and completion callbacks. Semantics are
    /// identical to [`Self::run`] for always-ready sources.
    pub fn run_source<S: RequestSource + ?Sized>(mut self, source: &mut S) -> ServeResult {
        loop {
            // Fixpoint at the current instant: completions free budget,
            // which admits requests, which dispatch onto free banks.
            loop {
                let mut progress = self.complete(source);
                progress |= self.admit(source);
                progress |= self.dispatch();
                if !progress {
                    break;
                }
            }
            if self.completed >= self.cfg.requests {
                break;
            }
            let Some(next) = self.next_event_time() else {
                // Source exhausted and everything drained.
                break;
            };
            debug_assert!(next > self.clock, "event loop must advance");
            self.clock = next;
        }
        self.finish()
    }

    /// The earliest future instant at which anything can change.
    fn next_event_time(&self) -> Option<u64> {
        let mut next = self.in_flight.next_completion().unwrap_or(u64::MAX);
        if self.queued_total > 0 {
            // After the fixpoint, any still-queued request's bank is
            // busy; its free time is the next chance to dispatch.
            for &t in &self.bank_free_at {
                if t > self.clock {
                    next = next.min(t);
                }
            }
        }
        if self.pending.is_some() {
            // Head-of-line request waiting out its client's think time.
            let c = self.pending_client();
            if self.ready_at[c] > self.clock && self.outstanding[c] < self.cfg.budget {
                next = next.min(self.ready_at[c]);
            }
        } else if !self.source_done && self.issued < self.cfg.requests {
            // Source promised nothing before this cycle; honour it
            // unless an earlier completion wakes the loop first.
            if let Some(t) = self.source_wake {
                if t > self.clock {
                    next = next.min(t);
                }
            }
        }
        (next != u64::MAX).then_some(next)
    }

    fn pending_client(&self) -> usize {
        let a = self.pending.as_ref().expect("caller checked pending");
        self.clients.remainder(u64::from(a.core)) as usize
    }

    /// Retires every in-flight request due by now, echoing each
    /// completion back to the source. Returns whether any completed.
    fn complete<S: RequestSource + ?Sized>(&mut self, source: &mut S) -> bool {
        let mut any = false;
        while let Some(f) = self.in_flight.pop_due(self.clock) {
            self.outstanding[f.client as usize] -= 1;
            self.completed += 1;
            self.totals.record(f.total_cycles);
            source.completed(&Completion {
                id: f.id,
                cycle: f.complete_at,
                queue_delay: f.queue_delay,
                service: f.service_cycles,
                fill: f.fill_cycles,
                total: f.total_cycles,
                is_write: f.is_write,
            });
            any = true;
        }
        any
    }

    /// Admits head-of-line requests from the source while the client
    /// has budget, its think time has expired, and the target queue has
    /// room. Returns whether any request was enqueued.
    fn admit<S: RequestSource + ?Sized>(&mut self, source: &mut S) -> bool {
        let mut any = false;
        while self.issued < self.cfg.requests {
            if self.pending.is_none() && !self.source_done {
                match source.poll(self.clock) {
                    SourcePoll::Ready(a) => {
                        self.pending = Some(a);
                        self.source_wake = None;
                    }
                    SourcePoll::NotBefore(t) => {
                        debug_assert!(t > self.clock, "source wake-up must advance");
                        self.source_wake = Some(t);
                        break;
                    }
                    SourcePoll::Exhausted => {
                        self.source_done = true;
                        self.source_wake = None;
                    }
                }
            }
            let Some(a) = self.pending else { break };
            let c = self.clients.remainder(u64::from(a.core)) as usize;
            if self.outstanding[c] >= self.cfg.budget || self.clock < self.ready_at[c] {
                break;
            }
            let site = self.llc.resolve(a.addr);
            let group = site.group;
            let queued = self.queues.len(group);
            if queued >= self.cfg.queue_depth {
                // Backpressure: the head-of-line request stalls until
                // this group drains. Count one stall per instant.
                if self.last_stall != Some((self.clock, group)) {
                    self.last_stall = Some((self.clock, group));
                    self.backpressure_stalls += 1;
                    rtm_obs::record_span(
                        0,
                        "backpressure",
                        self.clock,
                        self.clock,
                        &[("group", group as u64)],
                    );
                }
                break;
            }
            let id = self.next_id;
            self.next_id += 1;
            let bank = site.bank as usize;
            self.queues.push(
                group,
                Queued {
                    id,
                    addr: a.addr,
                    set: site.set,
                    is_write: a.is_write,
                    client: c as u8,
                    arrival: self.clock,
                    turn: self.bank_admitted[bank],
                },
            );
            if queued == 0 {
                self.bank_index[bank].push(id, group);
                self.banks_with_work.set(bank);
            }
            self.bank_admitted[bank] += 1;
            self.queued_total += 1;
            self.peak_queued = self.peak_queued.max(self.queued_total);
            self.outstanding[c] += 1;
            // Think time before this client's next request issues
            // (none under a saturating drive).
            if self.cfg.paced {
                self.ready_at[c] = self.clock + a.gap_instructions as u64;
            }
            self.issued += 1;
            self.pending = None;
            source.admitted(id, self.clock);
            any = true;
        }
        any
    }

    /// Dispatches one request per free bank that holds queued work, in
    /// ascending bank order, chosen by the scheduling policy. Returns
    /// whether any dispatch happened.
    fn dispatch(&mut self) -> bool {
        let mut any = false;
        for w in 0..self.banks_with_work.0.len() {
            // Dispatching only ever clears bits, so a snapshot of the
            // word is the banks left to visit.
            let mut bits = self.banks_with_work.0[w];
            while bits != 0 {
                let bank = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.bank_free_at[bank] <= self.clock {
                    self.dispatch_from(bank);
                    any = true;
                }
            }
        }
        any
    }

    /// Dispatches the request the policy picks from `bank`, which is
    /// free and holds queued work, from the coordinates it was queued
    /// with and the way its selection probed.
    fn dispatch_from(&mut self, bank: usize) {
        let (group, idx, way) = self.select(bank);
        let (req, front) = self.queues.remove(group, idx);
        if idx == 0 {
            // The group's front changed: re-key it in the index.
            let index = &mut self.bank_index[bank];
            index.rekey(req.id, group, front);
            if index.is_empty() {
                self.banks_with_work.clear(bank);
            }
        }
        self.queued_total -= 1;
        self.bank_dispatched[bank] += 1;
        let site = LineSite {
            group,
            set: req.set,
            bank: bank as u32,
        };
        let way = way.unwrap_or_else(|| self.llc.way(req.set, req.addr));
        // Attribution: the controller accumulates shift/verify
        // cycles inside the access; the before/after delta is this
        // request's share (exact — the event loop is serial).
        let (shift_before, verify_before) = self.llc.shift_verify_cycles();
        // The dispatch span id must exist before the access so the
        // controller's plan_shift spans nest under it; its record
        // is filled in below once the extent is known.
        let spans = rtm_obs::global().spans();
        let dispatch_span = spans.reserve();
        let resp = {
            let _parent = (dispatch_span != 0).then(|| ParentScope::enter(dispatch_span));
            self.llc
                .access_at(site, way, req.addr, req.kind(), self.clock, false)
        };
        let (shift_after, verify_after) = self.llc.shift_verify_cycles();
        let shift_delta = shift_after - shift_before;
        let verify_delta = verify_after - verify_before;
        self.bank_free_at[bank] = self.clock + resp.latency_cycles;
        self.bank_busy[bank] += resp.latency_cycles;
        // Misses and writebacks go to memory off the bank: the
        // stripe group is free once the array access finishes,
        // MSHR-style, while the requester waits for the fill.
        let fill = if resp.hit { 0 } else { self.mem_cycles };
        let queue_delay = self.clock - req.arrival;
        let service_cycles = resp.latency_cycles;
        let complete_at = self.clock + service_cycles + fill;
        self.fill_cycles_total += fill;
        let c = req.client as usize;
        self.tenant_requests[c] += 1;
        self.tenant_queue[c] += queue_delay;
        self.tenant_service[c] += service_cycles;
        self.tenant_sts[c] += shift_delta - verify_delta;
        self.tenant_verify[c] += verify_delta;
        self.tenant_fill[c] += fill;
        if dispatch_span != 0 {
            // The request's whole span tree is known now: queue and
            // dispatch (and any fill) tile the request exactly.
            let req_span = spans.record(
                0,
                "request",
                req.arrival,
                complete_at,
                &[("id", req.id), ("group", group as u64)],
            );
            spans.record(req_span, "queue", req.arrival, self.clock, &[]);
            spans.record_reserved(
                dispatch_span,
                req_span,
                "dispatch",
                self.clock,
                self.clock + service_cycles,
                &[],
            );
            if fill > 0 {
                spans.record(
                    req_span,
                    "mem_fill",
                    self.clock + service_cycles,
                    complete_at,
                    &[],
                );
            }
        }
        self.in_flight.push(InFlight {
            id: req.id,
            client: req.client,
            complete_at,
            queue_delay,
            service_cycles,
            fill_cycles: fill,
            total_cycles: queue_delay + service_cycles + fill,
            is_write: req.is_write,
        });
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight.len());
        self.queue_delays.record(queue_delay);
        self.services.record(service_cycles);
        if req.is_write {
            self.write_totals
                .record(queue_delay + service_cycles + fill);
        } else {
            self.read_totals.record(queue_delay + service_cycles + fill);
        }
    }

    /// Picks the best (group, queue index) for `bank`, which holds
    /// queued work, under the active policy, with the way the pick's
    /// access would touch when scoring probed it. A request
    /// overtaken `starve_limit` times outranks every younger one,
    /// bounding starvation under the reordering policies. Ties break on
    /// request id (arrival order), so the schedule is total-ordered.
    ///
    /// Within a bank, overtakes never increase with request id: a
    /// dispatch that overtook a request overtook every older one still
    /// queued too. So only the bank's oldest request can have expired,
    /// and its count is the bank's dispatches past its `turn`. FCFS and
    /// any expired pick both take that oldest request.
    ///
    /// Shift distance only matters within a stripe group — each group's
    /// head is independent, so deferring one group for another saves no
    /// shift work and only starves. The shift-aware policy therefore
    /// reorders inside the oldest request's group alone. FR-FCFS takes
    /// the bank's oldest zero-shift request, else its oldest. Both score
    /// a group's candidates through one [`GroupProbe`] from the set
    /// slots resolved at admission.
    ///
    /// [`GroupProbe`]: rtm_mem::llc::GroupProbe
    fn select(&self, bank: usize) -> (usize, usize, Option<Way>) {
        let index = &self.bank_index[bank];
        let &(_, oldest_group) = index.first().expect("a bank with work has a group");
        let oldest_queue = self
            .queues
            .get(oldest_group)
            .expect("indexed group has a queue");
        if self.bank_dispatched[bank] - oldest_queue[0].turn >= u64::from(self.cfg.starve_limit) {
            return (oldest_group, 0, None);
        }
        match self.cfg.policy {
            SchedPolicy::Fcfs => (oldest_group, 0, None),
            SchedPolicy::FrFcfs => {
                // Groups come in front-id order and each queue in id
                // order, so the scan stops at the first request younger
                // than the best zero-shift one found so far.
                let mut best: Option<(u64, usize, usize, Way)> = None;
                for &(front, group) in index.iter() {
                    let bound = best.map_or(u64::MAX, |(id, ..)| id);
                    if front > bound {
                        break;
                    }
                    let q = self.queues.get(group).expect("indexed group has a queue");
                    let probe = self.llc.group_probe(group);
                    for (idx, r) in q.iter().enumerate().take_while(|(_, r)| r.id < bound) {
                        let e = probe.estimate(r.set, r.addr, r.kind());
                        if e.distance == 0 {
                            best = Some((r.id, group, idx, e.way));
                            break;
                        }
                    }
                }
                best.map_or((oldest_group, 0, None), |(_, group, idx, way)| {
                    (group, idx, Some(way))
                })
            }
            SchedPolicy::ShiftAware => {
                // Strictly less keeps the first minimum: the oldest on
                // ties.
                let probe = self.llc.group_probe(oldest_group);
                let mut best: Option<(u64, usize, Way)> = None;
                for (idx, r) in oldest_queue.iter().enumerate() {
                    let e = probe.estimate(r.set, r.addr, r.kind());
                    if best.is_none_or(|(cycles, ..)| e.cycles < cycles) {
                        best = Some((e.cycles, idx, e.way));
                    }
                }
                let (_, idx, way) = best.expect("indexed group has a queue");
                (oldest_group, idx, Some(way))
            }
        }
    }

    /// Final accounting.
    ///
    /// `zero_shift_dispatches` is the LLC's own zero-shift counter. The
    /// two are equal: the LLC is built with [`HeadPolicy::Stay`] and no
    /// group is ever parked, every LLC access is a dispatch, and
    /// [`RacetrackLlc::predicted_shift_distance`] is exact when no
    /// access intervenes, so the counter counts exactly the dispatches
    /// whose predicted distance was 0.
    ///
    /// [`HeadPolicy::Stay`]: rtm_mem::llc::HeadPolicy::Stay
    fn finish(mut self) -> ServeResult {
        self.llc.flush_metrics();
        let mut tenants = AttributionTable::new(["tenant"], ATTRIBUTION_COMPONENTS);
        for c in 0..self.cfg.clients as usize {
            let service = self.tenant_service[c];
            let sts = self.tenant_sts[c];
            let verify = self.tenant_verify[c];
            tenants.push(
                [c.to_string()],
                [
                    self.tenant_queue[c],
                    sts,
                    verify,
                    0,
                    service - sts - verify,
                    self.tenant_fill[c],
                ],
                self.tenant_queue[c] + service + self.tenant_fill[c],
            );
        }
        let llc = self.llc.stats();
        ServeResult {
            policy: self.cfg.policy,
            requests: self.completed,
            cycles: self.clock,
            queue_delay: self.queue_delays.summary(),
            service: self.services.summary(),
            total: self.totals.summary(),
            read_total: self.read_totals.summary(),
            write_total: self.write_totals.summary(),
            backpressure_stalls: self.backpressure_stalls,
            zero_shift_dispatches: llc.zero_shift_accesses,
            peak_queued: self.peak_queued,
            peak_in_flight: self.peak_in_flight,
            fill_cycles: self.fill_cycles_total,
            bank_busy_cycles: self.bank_busy,
            tenants,
            scale: self.llc.scale_stats(),
            llc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_trace::{TraceGenerator, WorkloadProfile};

    fn run(policy: SchedPolicy, workload: &str, n: u64) -> ServeResult {
        let p = WorkloadProfile::by_name(workload).unwrap();
        let cfg = ServeConfig::new(policy).with_requests(n);
        ServeSim::new(cfg).run(&mut TraceGenerator::new(p, 2015))
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let r = run(SchedPolicy::Fcfs, "canneal", 5_000);
        assert_eq!(r.requests, 5_000);
        assert_eq!(r.queue_delay.count, 5_000);
        assert_eq!(r.service.count, 5_000);
        assert_eq!(r.total.count, 5_000);
        assert_eq!(r.llc.cache.accesses(), 5_000);
        assert!(r.cycles > 0);
        assert!(r.throughput_req_per_kcycle() > 0.0);
    }

    #[test]
    fn runs_are_bit_identical() {
        for policy in SchedPolicy::ALL {
            let a = run(policy, "ferret", 3_000);
            let b = run(policy, "ferret", 3_000);
            assert_eq!(a, b, "{policy}");
        }
    }

    #[test]
    fn occupancy_respects_bounds() {
        let cfg = ServeConfig::new(SchedPolicy::Fcfs)
            .with_requests(4_000)
            .with_queue_depth(2)
            .with_clients(4, 4);
        let p = WorkloadProfile::by_name("canneal").unwrap();
        let r = ServeSim::new(cfg).run(&mut TraceGenerator::new(p, 7));
        // Never more outstanding work than the clients may issue
        // (peaks are taken at different instants, so each is bounded
        // by the total budget on its own).
        assert!(r.peak_queued <= 4 * 4);
        assert!(r.peak_in_flight <= 4 * 4);
        // Tight queues under a capacity-heavy workload must stall.
        assert!(r.backpressure_stalls > 0, "expected backpressure");
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        let p = WorkloadProfile::by_name("streamcluster").unwrap();
        let one = ServeSim::new(
            ServeConfig::new(SchedPolicy::Fcfs)
                .with_requests(5_000)
                .with_banks(1),
        )
        .run(&mut TraceGenerator::new(p, 3));
        let eight = ServeSim::new(
            ServeConfig::new(SchedPolicy::Fcfs)
                .with_requests(5_000)
                .with_banks(8),
        )
        .run(&mut TraceGenerator::new(p, 3));
        assert!(
            eight.cycles < one.cycles,
            "8 banks {} vs 1 bank {}",
            eight.cycles,
            one.cycles
        );
    }

    fn run_mixed(policy: SchedPolicy, workload: &str, n: u64, limit: u32) -> ServeResult {
        // Four set-aliased tenants of the same profile: the contended
        // multi-programmed traffic the scheduler is evaluated under.
        let p = WorkloadProfile::by_name(workload).unwrap();
        let mut mix = rtm_trace::MixedTraceGenerator::new(&[p, p, p, p], 2015);
        let cfg = ServeConfig::new(policy)
            .with_requests(n)
            .with_clients(4, 4)
            .with_starve_limit(limit);
        ServeSim::new(cfg).run(&mut mix)
    }

    #[test]
    fn shift_aware_reduces_realised_shift_work() {
        // Contended queues: serving the nearest-head candidate within
        // the oldest group must lower the realised shift work and the
        // end-to-end completion time versus FCFS, without inflating
        // the service-latency tail.
        let fcfs = run_mixed(SchedPolicy::Fcfs, "canneal", 20_000, 4);
        let aware = run_mixed(SchedPolicy::ShiftAware, "canneal", 20_000, 4);
        assert!(
            aware.llc.shift_cycles < fcfs.llc.shift_cycles,
            "aware {} vs fcfs {} shift cycles",
            aware.llc.shift_cycles,
            fcfs.llc.shift_cycles
        );
        assert!(
            aware.cycles < fcfs.cycles,
            "aware {} vs fcfs {} completion cycles",
            aware.cycles,
            fcfs.cycles
        );
        assert!(
            aware.service.p99 <= fcfs.service.p99,
            "aware p99 {} vs fcfs p99 {}",
            aware.service.p99,
            fcfs.service.p99
        );
        assert!(aware.throughput_req_per_kcycle() > fcfs.throughput_req_per_kcycle());
    }

    #[test]
    fn starvation_bound_caps_queue_delay() {
        // A tight starvation bound must keep the shift-aware queueing
        // tail close to FCFS; with the bound effectively off, the
        // elevator may defer a far request indefinitely.
        let fcfs = run_mixed(SchedPolicy::Fcfs, "streamcluster", 12_000, 4);
        let tight = run_mixed(SchedPolicy::ShiftAware, "streamcluster", 12_000, 1);
        let loose = run_mixed(SchedPolicy::ShiftAware, "streamcluster", 12_000, u32::MAX);
        assert!(
            tight.queue_delay.max <= loose.queue_delay.max,
            "tight {} vs loose {}",
            tight.queue_delay.max,
            loose.queue_delay.max
        );
        // Bounded bypassing keeps the worst wait within a small factor
        // of FCFS (each victim is overtaken at most once per bound).
        assert!(
            tight.queue_delay.max <= 4 * fcfs.queue_delay.max.max(1),
            "tight max {} vs fcfs max {}",
            tight.queue_delay.max,
            fcfs.queue_delay.max
        );
    }

    #[test]
    fn read_write_split_partitions_totals() {
        let r = run_mixed(SchedPolicy::ShiftAware, "canneal", 8_000, 4);
        assert_eq!(r.read_total.count + r.write_total.count, r.total.count);
        assert!(r.read_total.count > 0 && r.write_total.count > 0);
        let lo = r.read_total.min.min(r.write_total.min);
        let hi = r.read_total.max.max(r.write_total.max);
        assert_eq!(lo, r.total.min);
        assert_eq!(hi, r.total.max);
    }

    #[test]
    fn fr_fcfs_prefers_open_rows() {
        let fcfs = run(SchedPolicy::Fcfs, "swaptions", 20_000);
        let frf = run(SchedPolicy::FrFcfs, "swaptions", 20_000);
        let rate = |r: &ServeResult| r.zero_shift_dispatches as f64 / r.requests as f64;
        assert!(
            rate(&frf) >= rate(&fcfs),
            "fr-fcfs zero-shift rate {} vs fcfs {}",
            rate(&frf),
            rate(&fcfs)
        );
    }

    #[test]
    fn capacity_override_scales_groups_without_materialising_them() {
        // A 4 GiB configured array behind the same trace: the group
        // directory grows 32x, but only the touched working set
        // materialises, and the schedule-relevant results for a trace
        // that fits either way track the same request count.
        let p = WorkloadProfile::by_name("canneal").unwrap();
        let base = ServeSim::new(ServeConfig::new(SchedPolicy::Fcfs).with_requests(2_000))
            .run(&mut TraceGenerator::new(p, 2015));
        let big = ServeSim::new(
            ServeConfig::new(SchedPolicy::Fcfs)
                .with_requests(2_000)
                .with_capacity(4 << 30),
        )
        .run(&mut TraceGenerator::new(p, 2015));
        assert_eq!(big.requests, 2_000);
        assert_eq!(
            big.scale.configured_groups,
            32 * base.scale.configured_groups
        );
        assert!(big.scale.materialised_groups <= big.scale.configured_groups);
        // The directory itself stays sparse: far fewer touched groups
        // than configured ones at GB scale.
        assert!(big.scale.materialised_groups < big.scale.configured_groups / 4);
    }

    #[test]
    fn group_queues_match_an_ordered_map() {
        // Random pushes and removals, checked op by op against an
        // ordered map of queues: first mostly pushes, so the table grows
        // to hundreds of groups and probe runs collide and wrap, then
        // mostly removals, so erasure shifts entries back.
        let set = RacetrackLlc::new(ProtectionKind::None, ShiftPolicy::Unconstrained)
            .resolve(0)
            .set;
        let queued = |id| Queued {
            id,
            addr: 0,
            set,
            is_write: false,
            client: 0,
            arrival: 0,
            turn: 0,
        };
        let mut rng = rtm_util::rng::SmallRng64::new(23);
        let mut store = GroupQueues::new();
        let mut reference: std::collections::BTreeMap<usize, VecDeque<u64>> = Default::default();
        let mut live: Vec<usize> = Vec::new();
        for step in 0..30_000u64 {
            let push_share = if step < 15_000 { 7 } else { 3 };
            if live.is_empty() || rng.next_below(10) < push_share {
                let group = rng.next_below(2_000) as usize;
                let q = reference.entry(group).or_default();
                if q.is_empty() {
                    live.push(group);
                }
                q.push_back(step);
                store.push(group, queued(step));
            } else {
                let at = rng.next_below(live.len() as u64) as usize;
                let group = live[at];
                let q = reference.get_mut(&group).expect("live group");
                let idx = rng.next_below(q.len() as u64) as usize;
                let want = q.remove(idx).expect("index in range");
                let (got, front) = store.remove(group, idx);
                assert_eq!(got.id, want, "step {step}");
                assert_eq!(front, q.front().copied(), "step {step}");
                if q.is_empty() {
                    reference.remove(&group);
                    live.swap_remove(at);
                }
            }
            if step % 1_000 == 0 {
                for group in 0..2_000 {
                    let ids: Vec<u64> = store
                        .get(group)
                        .map(|q| q.iter().map(|r| r.id).collect())
                        .unwrap_or_default();
                    let want: Vec<u64> = reference
                        .get(&group)
                        .map(|q| q.iter().copied().collect())
                        .unwrap_or_default();
                    assert_eq!(ids, want, "group {group} at step {step}");
                    assert_eq!(store.len(group), want.len());
                }
            }
        }
        assert!(store.table.len() >= 512, "the table grew");
    }

    #[test]
    fn bank_index_matches_an_ordered_set() {
        // Requests join random groups in id order and leave from any
        // position, as dispatches do; the index must list the non-empty
        // groups in front-id order exactly as an ordered set keyed by
        // (front id, group) does.
        let mut rng = rtm_util::rng::SmallRng64::new(29);
        let mut index = BankIndex::default();
        let mut reference = std::collections::BTreeSet::new();
        let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); 40];
        let mut live: Vec<usize> = Vec::new();
        for id in 0..40_000u64 {
            let push_share = if id < 20_000 { 6 } else { 4 };
            if live.is_empty() || rng.next_below(10) < push_share {
                let group = rng.next_below(40) as usize;
                if queues[group].is_empty() {
                    index.push(id, group);
                    reference.insert((id, group));
                    live.push(group);
                }
                queues[group].push_back(id);
            } else {
                let at = rng.next_below(live.len() as u64) as usize;
                let group = live[at];
                let q = &mut queues[group];
                let idx = rng.next_below(q.len() as u64) as usize;
                let gone = q.remove(idx).expect("index in range");
                if idx == 0 {
                    let next = q.front().copied();
                    index.rekey(gone, group, next);
                    reference.remove(&(gone, group));
                    if let Some(next) = next {
                        reference.insert((next, group));
                    } else {
                        live.swap_remove(at);
                    }
                }
            }
            assert!(index.iter().eq(reference.iter()), "after request {id}");
            assert_eq!(index.first(), reference.first());
        }
    }

    #[test]
    fn in_flight_set_retires_in_completion_then_dispatch_order() {
        let mut set = InFlightSet::default();
        let done = |id, complete_at| InFlight {
            id,
            client: 0,
            complete_at,
            queue_delay: 0,
            service_cycles: 0,
            fill_cycles: 0,
            total_cycles: 0,
            is_write: false,
        };
        for (id, at) in [(0, 30), (1, 10), (2, 30), (3, 20), (4, 10)] {
            set.push(done(id, at));
        }
        assert_eq!(set.next_completion(), Some(10));
        let mut retired = Vec::new();
        for now in [5, 10, 25, 30] {
            while let Some(f) = set.pop_due(now) {
                retired.push((now, f.id));
            }
        }
        assert_eq!(retired, [(10, 1), (10, 4), (25, 3), (30, 0), (30, 2)]);
        assert_eq!(set.len(), 0);
        assert_eq!(set.next_completion(), None);
        // Freed slots are reused.
        set.push(done(5, 40));
        assert_eq!(set.slab.len(), 5);
    }

    #[test]
    fn queued_entry_stays_40_bytes() {
        // The group is the queue's and the set slot is a u32, so a
        // resolved request costs the queue no more than a raw one did.
        assert_eq!(std::mem::size_of::<Queued>(), 40);
    }

    #[test]
    fn latency_summary_quantiles_are_exact() {
        let s = LatencySummary::from_samples((1..=100).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(
            LatencySummary::from_samples(vec![]),
            LatencySummary::default()
        );
    }

    /// Records `samples` into one recorder.
    fn counts(samples: &[u64]) -> LatencyCounts {
        let mut c = LatencyCounts::default();
        for &v in samples {
            c.record(v);
        }
        c
    }

    /// 100k draws skewed towards small values, with a tail past the
    /// dense cut.
    fn skewed_draws() -> Vec<u64> {
        let mut rng = rtm_util::rng::SmallRng64::new(2015);
        (0..100_000)
            .map(|_| (rng.next_f64().powi(6) * 40_000.0) as u64)
            .collect()
    }

    #[test]
    fn latency_counts_match_the_sort_reference() {
        let skewed = skewed_draws();
        assert!(skewed.iter().any(|&v| v < DENSE_CUT));
        assert!(skewed.iter().any(|&v| v >= DENSE_CUT));
        let cases: [Vec<u64>; 8] = [
            vec![],
            vec![17],
            vec![300; 1_000],
            vec![0],
            vec![4_095, 4_096],
            vec![4_096, 4_095, 4_096, 4_095, 4_095, 0, 4_096],
            (0..500).map(|i| 4_096 + i * i * 7).rev().collect(),
            skewed,
        ];
        for samples in cases {
            let want = LatencySummary::from_samples(samples.clone());
            assert_eq!(
                counts(&samples).summary(),
                want,
                "{} samples",
                samples.len()
            );
        }
    }

    #[test]
    fn merged_counts_match_one_recorder() {
        let draws = skewed_draws();
        let mut whole = counts(&draws);
        let want = whole.summary();
        assert_eq!(want, LatencySummary::from_samples(draws.clone()));
        // Uneven chunks, one of them empty, merged in several orders.
        let parts: Vec<LatencyCounts> = [0, 10, 10, 4_000, 60_000, 100_000]
            .windows(2)
            .map(|w| counts(&draws[w[0]..w[1]]))
            .collect();
        for order in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 4, 0, 3, 1]] {
            let mut merged = LatencyCounts::default();
            for i in order {
                merged.merge(&parts[i]);
            }
            assert_eq!(merged.summary(), want, "order {order:?}");
            // Summarising sorts the raw values only; it records nothing.
            assert_eq!(merged.summary(), want, "order {order:?}, again");
        }
    }

    /// A mixed-tenant source that keeps every admitted access and every
    /// completion.
    struct Recorder {
        mix: rtm_trace::MixedTraceGenerator,
        admitted: Vec<MemAccess>,
        completions: Vec<Completion>,
    }

    impl RequestSource for Recorder {
        fn poll(&mut self, _now: u64) -> SourcePoll {
            let a = self.mix.next_access();
            self.admitted.push(a);
            SourcePoll::Ready(a)
        }

        fn completed(&mut self, c: &Completion) {
            self.completions.push(*c);
        }
    }

    #[test]
    fn zero_shift_dispatches_match_the_llc_counter() {
        // Replays each run's dispatches in order on a fresh LLC, probing
        // the predicted distance before every access: the count of
        // zero-distance probes is the LLC's own zero-shift counter, which
        // `ServeResult::zero_shift_dispatches` reports.
        let p = WorkloadProfile::by_name("canneal").unwrap();
        for policy in SchedPolicy::ALL {
            let cfg = ServeConfig::new(policy)
                .with_requests(8_000)
                .with_clients(4, 8)
                .with_paced(false);
            let mut source = Recorder {
                mix: rtm_trace::MixedTraceGenerator::new(&[p, p, p, p], 2015),
                admitted: Vec::new(),
                completions: Vec::new(),
            };
            let r = ServeSim::new(cfg).run_source(&mut source);
            assert_eq!(r.zero_shift_dispatches, r.llc.zero_shift_accesses);
            // A request dispatched at `cycle - service - fill`. Banks own
            // disjoint groups, so (dispatch cycle, bank) orders every
            // group's accesses as the run did.
            let mut llc = RacetrackLlc::with_banks(cfg.protection, cfg.shift_policy, cfg.banks);
            let mut dispatches: Vec<(u64, usize, MemAccess)> = source
                .completions
                .iter()
                .map(|c| {
                    let a = source.admitted[c.id as usize];
                    let bank = llc.group_of(a.addr) % cfg.banks as usize;
                    (c.cycle - c.service - c.fill, bank, a)
                })
                .collect();
            dispatches.sort_unstable_by_key(|&(at, bank, _)| (at, bank));
            let mut predicted_zero = 0;
            for (at, _, a) in dispatches {
                predicted_zero += u64::from(llc.predicted_shift_distance(a.addr) == 0);
                let kind = if a.is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                llc.access(a.addr, kind, at);
            }
            assert_eq!(llc.stats(), r.llc, "{policy}: the replay is exact");
            assert_eq!(predicted_zero, r.zero_shift_dispatches, "{policy}");
            assert!(predicted_zero > 0, "{policy}");
        }
    }

    #[test]
    fn attribution_components_sum_exactly_to_total() {
        // The cycle-attribution decomposition is exact, not within a
        // tolerance: every dispatched cycle lands in exactly one
        // component bucket.
        for policy in SchedPolicy::ALL {
            let r = run_mixed(policy, "canneal", 8_000, 4);
            let components: u64 = r.attribution_components().iter().sum();
            assert_eq!(components, r.attributed_total(), "{policy}");
            assert!(
                r.llc.verify_cycles > 0,
                "{policy}: protected run must verify"
            );
            assert!(
                r.llc.verify_cycles < r.llc.shift_cycles,
                "{policy}: verify is a strict subset of shift work"
            );
        }
    }

    #[test]
    fn tenant_table_partitions_the_run() {
        // Per-tenant rows are an exact partition: each row's
        // components sum to its total, and summing any column across
        // tenants recovers the whole-run figure.
        let r = run_mixed(SchedPolicy::ShiftAware, "ferret", 8_000, 4);
        assert_eq!(r.tenants.cells.len(), 4);
        assert_eq!(r.tenants.max_residual(), 0);
        let whole = r.attribution_components();
        for (i, name) in ATTRIBUTION_COMPONENTS.iter().enumerate() {
            let col: u64 = r
                .tenants
                .cells
                .iter()
                .map(|c| r.tenants.component(c, name).unwrap())
                .sum();
            assert_eq!(col, whole[i], "component {name}");
        }
        let totals: u64 = r.tenants.cells.iter().map(|c| c.total).sum();
        assert_eq!(totals, r.attributed_total());
        // Bank busy cycles are exactly the access service cycles.
        assert_eq!(r.bank_busy_cycles.iter().sum::<u64>(), r.service.sum);
    }
}
