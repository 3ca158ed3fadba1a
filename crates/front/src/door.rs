//! The front door: SLO admission control in front of `rtm-serve`.
//!
//! [`FrontDoor`] implements [`RequestSource`]: the serving simulator
//! polls it at every admission opportunity, and the door decides —
//! *before* the bounded per-group queues can exert backpressure —
//! whether the earliest due request is admitted (token available),
//! deferred (token imminent within the class's patience) or shed.
//! Completions flow back through [`RequestSource::completed`], giving
//! exact per-class end-to-end latency and fairness statistics.
//!
//! Determinism: the door's decisions depend only on the arrival
//! sequence, the bucket states and the serve clock, all of which are
//! pure functions of the configuration; runs are bit-identical for
//! any sweep parallelisation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::class::{ClassSpec, SloClass};
use crate::proto::Verdict;
use crate::session::{FrontArrival, SessionArrivals, SessionTable};
use rtm_serve::{
    Completion, LatencyCounts, LatencySummary, RequestSource, SchedPolicy, ServeConfig,
    ServeResult, ServeSim, SourcePoll,
};
use rtm_trace::MemAccess;

/// Address stride between tenant windows: the canonical 128 MiB
/// window plus one 4 KiB page, so consecutive tenants land on
/// *different* cache sets and a 10k-tenant population spreads over
/// the whole set space instead of stacking its hot lines onto the
/// same few stripe groups.
pub const FRONT_STRIDE: u64 = (1 << 27) + 4096;

/// Configuration of one front-door run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontConfig {
    /// Simulated tenant sessions.
    pub tenants: u32,
    /// Class mix.
    pub classes: ClassSpec,
    /// Base seed (streams, phases).
    pub seed: u64,
    /// Total arrivals offered to the door.
    pub offered: u64,
    /// Maximum admitted-but-incomplete requests; at the cap the door
    /// holds work back until a completion frees a slot.
    pub window: u32,
    /// Backend capacity estimate used to size fair-share buckets
    /// (completed requests per thousand cycles).
    pub capacity_req_per_kcycle: u32,
    /// Think-time multiplier applied to trace instruction gaps
    /// (0 = auto: the tenant count, which offers roughly 2-3x the
    /// default capacity estimate and keeps admission control busy).
    pub think_scale: u64,
    /// Closed connections the admitted stream is multiplexed onto on
    /// the serve side.
    pub conn_clients: u8,
    /// Address stride between tenant windows.
    pub stride: u64,
}

impl FrontConfig {
    /// Defaults for a population of `tenants` sessions.
    pub fn new(tenants: u32) -> Self {
        Self {
            tenants,
            classes: ClassSpec::balanced(),
            seed: 2015,
            offered: (tenants as u64).saturating_mul(12).max(24_000),
            window: 1024,
            capacity_req_per_kcycle: 130,
            think_scale: 0,
            conn_clients: 64,
            stride: FRONT_STRIDE,
        }
    }

    /// Sets the class mix (builder style).
    pub fn with_classes(mut self, classes: ClassSpec) -> Self {
        self.classes = classes;
        self
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the offered arrival count (builder style).
    pub fn with_offered(mut self, offered: u64) -> Self {
        self.offered = offered;
        self
    }

    /// Sets the admission window (builder style).
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// The effective think multiplier.
    pub fn effective_think_scale(&self) -> u64 {
        if self.think_scale == 0 {
            (self.tenants as u64).max(1)
        } else {
            self.think_scale
        }
    }

    /// The arrival stream this configuration generates.
    pub fn arrivals(&self) -> SessionArrivals {
        SessionArrivals::new(
            self.tenants,
            &self.classes,
            self.seed,
            self.offered,
            self.effective_think_scale(),
            self.stride,
        )
    }

    /// The session table this configuration implies.
    pub fn table(&self) -> SessionTable {
        SessionTable::new(&self.classes, self.tenants, self.capacity_req_per_kcycle)
    }

    /// The serving-layer configuration behind the door: an open-loop
    /// drive (pacing is the door's job), wide connection multiplexing
    /// and a request target equal to the offered load, so the run ends
    /// exactly when the source is drained.
    pub fn serve_config(&self, policy: SchedPolicy) -> ServeConfig {
        ServeConfig::new(policy)
            .with_paced(false)
            .with_clients(self.conn_clients, 64)
            .with_queue_depth(16)
            .with_requests(self.offered)
    }

    fn validate(&self) {
        assert!(self.tenants > 0, "at least one tenant");
        assert!(self.offered > 0, "offer at least one request");
        assert!(self.window > 0, "window must admit something");
        assert!(self.conn_clients > 0, "at least one connection");
        assert!(self.capacity_req_per_kcycle > 0, "capacity estimate");
    }
}

/// An arrival up for admission: the next one of the stream, or one
/// deferred for a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DueItem {
    /// Next admission attempt.
    due: u64,
    /// Global arrival sequence (total tie-break).
    seq: u64,
    /// Original arrival cycle (patience is measured from here).
    arrival: u64,
    tenant: u32,
    class: SloClass,
    addr: u64,
    is_write: bool,
}

impl Ord for DueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for DueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl DueItem {
    /// A fresh arrival, due when it arrives.
    fn arriving(a: FrontArrival) -> Self {
        Self {
            due: a.cycle,
            seq: a.seq,
            arrival: a.cycle,
            tenant: a.tenant,
            class: a.class,
            addr: a.addr,
            is_write: a.is_write,
        }
    }
}

/// A response the door records for the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedResponse {
    /// Arrival sequence number the response answers.
    pub seq: u64,
    /// Admitted-and-completed or shed.
    pub verdict: Verdict,
    /// Completion (or shed-decision) cycle.
    pub cycle: u64,
    /// Arrival-to-completion cycles (0 for shed).
    pub total_cycles: u64,
}

/// Running totals of one SLO class.
#[derive(Debug, Clone, Default)]
struct ClassAccum {
    admitted: u64,
    shed: u64,
    deferred: u64,
    completed: u64,
    latency: LatencyCounts,
}

/// Admission control over an arrival stream.
///
/// Work is considered in `(due, seq)` order. The stream already comes
/// in that order, so the door reads it one arrival ahead and keeps a
/// heap only for the arrivals it deferred: an arrival waiting behind a
/// full window stays in the stream.
#[derive(Debug)]
pub struct FrontDoor<A: Iterator<Item = FrontArrival>> {
    table: SessionTable,
    arrivals: A,
    /// The next arrival of the stream, read but not yet admitted,
    /// deferred or shed.
    lookahead: Option<FrontArrival>,
    arrivals_done: bool,
    /// Arrivals deferred for a token, by next attempt.
    deferred: BinaryHeap<Reverse<DueItem>>,
    window: u32,
    conn_clients: u8,
    outstanding: u32,
    /// Admission id -> (arrival seq, class); ids are sequential.
    admitted_of: Vec<(u64, SloClass)>,
    accum: [ClassAccum; 3],
    responses: Option<Vec<LoggedResponse>>,
}

impl FrontDoor<SessionArrivals> {
    /// Builds the door over the configuration's own arrival stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &FrontConfig) -> Self {
        cfg.validate();
        Self::over(cfg.arrivals(), cfg.table(), cfg.window, cfg.conn_clients)
    }
}

impl<A: Iterator<Item = FrontArrival>> FrontDoor<A> {
    /// Builds the door over an arbitrary arrival stream (the wire
    /// replay path feeds decoded frames through here). The stream must
    /// come in `(cycle, seq)` order.
    pub fn over(arrivals: A, table: SessionTable, window: u32, conn_clients: u8) -> Self {
        Self {
            table,
            arrivals,
            lookahead: None,
            arrivals_done: false,
            deferred: BinaryHeap::new(),
            window,
            conn_clients: conn_clients.max(1),
            outstanding: 0,
            admitted_of: Vec::new(),
            accum: Default::default(),
            responses: None,
        }
    }

    /// Enables per-request response logging (wire server mode).
    pub fn log_responses(mut self) -> Self {
        self.responses = Some(Vec::new());
        self
    }

    /// The next arrival of the stream, read ahead once.
    fn peek_arrival(&mut self) -> Option<FrontArrival> {
        if self.lookahead.is_none() && !self.arrivals_done {
            self.lookahead = self.arrivals.next();
            self.arrivals_done = self.lookahead.is_none();
        }
        self.lookahead
    }

    /// Takes the earliest work item by `(due, seq)` if it is due by
    /// `now`; otherwise returns the cycle the earliest one falls due
    /// (`None` when the stream and the deferred heap are both empty).
    fn take_due(&mut self, now: u64) -> Result<DueItem, Option<u64>> {
        let arrival = self.peek_arrival().map(DueItem::arriving);
        let deferred = self.deferred.peek().map(|Reverse(d)| *d);
        let head = match (arrival, deferred) {
            (Some(a), Some(d)) => a.min(d),
            (Some(head), None) | (None, Some(head)) => head,
            (None, None) => return Err(None),
        };
        if head.due > now {
            return Err(Some(head.due));
        }
        if arrival == Some(head) {
            self.lookahead = None;
        } else {
            self.deferred.pop();
        }
        Ok(head)
    }

    fn shed(&mut self, item: &DueItem, now: u64) {
        self.accum[item.class.index()].shed += 1;
        if let Some(log) = &mut self.responses {
            log.push(LoggedResponse {
                seq: item.seq,
                verdict: Verdict::Shed,
                cycle: now,
                total_cycles: 0,
            });
        }
    }

    /// Final per-class accounting, consuming the door. `serve` is the
    /// result of the run that drove this door.
    ///
    /// # Panics
    ///
    /// Panics if called while admitted requests are still incomplete
    /// (the serve run did not drain).
    pub fn finish(mut self, serve: ServeResult) -> FrontResult {
        assert_eq!(self.outstanding, 0, "admitted requests left incomplete");
        let mut classes = Vec::new();
        for class in self.table.spec().active_classes() {
            let mut acc = std::mem::take(&mut self.accum[class.index()]);
            classes.push(ClassStats {
                class,
                tenants: self.table.spec().population(class, self.table.tenants()),
                admitted: acc.admitted,
                shed: acc.shed,
                deferred: acc.deferred,
                completed: acc.completed,
                latency: acc.latency.summary(),
            });
        }
        let responses = self.responses.take().map(|mut log| {
            log.sort_by_key(|r| r.seq);
            log
        });
        FrontResult {
            tenants: self.table.tenants(),
            classes,
            responses,
            serve,
        }
    }
}

impl<A: Iterator<Item = FrontArrival>> RequestSource for FrontDoor<A> {
    fn poll(&mut self, now: u64) -> SourcePoll {
        loop {
            if self.outstanding >= self.window {
                // Admission window full: progress requires a
                // completion, which re-polls the door.
                return SourcePoll::NotBefore(u64::MAX);
            }
            let mut item = match self.take_due(now) {
                Ok(item) => item,
                Err(Some(due)) => return SourcePoll::NotBefore(due.max(now + 1)),
                Err(None) => return SourcePoll::Exhausted,
            };
            if self.table.bucket_mut(item.tenant).try_take(now) {
                let acc = &mut self.accum[item.class.index()];
                acc.admitted += 1;
                self.outstanding += 1;
                self.admitted_of.push((item.seq, item.class));
                return SourcePoll::Ready(MemAccess {
                    addr: item.addr,
                    is_write: item.is_write,
                    core: (item.tenant % self.conn_clients as u32) as u8,
                    gap_instructions: 0,
                });
            }
            let avail = self.table.bucket(item.tenant).next_available(now);
            let patience = self.table.max_defer(item.class);
            if avail != u64::MAX && avail.saturating_sub(item.arrival) <= patience {
                // Defer: retry when the token accrues. Other tenants'
                // due work is still considered now.
                self.accum[item.class.index()].deferred += 1;
                item.due = avail.max(now + 1);
                self.deferred.push(Reverse(item));
            } else {
                self.shed(&item, now);
            }
        }
    }

    fn admitted(&mut self, id: u64, _now: u64) {
        debug_assert_eq!(
            id + 1,
            self.admitted_of.len() as u64,
            "admission ids are sequential"
        );
    }

    fn completed(&mut self, c: &Completion) {
        let (seq, class) = self.admitted_of[c.id as usize];
        let acc = &mut self.accum[class.index()];
        acc.completed += 1;
        acc.latency.record(c.total);
        self.outstanding -= 1;
        if let Some(log) = &mut self.responses {
            log.push(LoggedResponse {
                seq,
                verdict: Verdict::Done,
                cycle: c.cycle,
                total_cycles: c.total,
            });
        }
    }
}

/// Final statistics of one SLO class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// The class.
    pub class: SloClass,
    /// Tenants assigned to it.
    pub tenants: u32,
    /// Requests admitted past the door.
    pub admitted: u64,
    /// Requests shed at the door.
    pub shed: u64,
    /// Deferral events (one request may defer repeatedly).
    pub deferred: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Arrival-to-completion latency of completed requests.
    pub latency: LatencySummary,
}

impl ClassStats {
    /// Arrivals that reached a decision (admitted + shed).
    pub fn offered(&self) -> u64 {
        self.admitted + self.shed
    }

    /// Per-tenant completion throughput (requests per tenant).
    pub fn per_tenant_completed(&self) -> f64 {
        if self.tenants == 0 {
            0.0
        } else {
            self.completed as f64 / self.tenants as f64
        }
    }
}

/// Result of one front-door run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontResult {
    /// Tenant population.
    pub tenants: u32,
    /// Per-class statistics, canonical class order.
    pub classes: Vec<ClassStats>,
    /// Per-request responses in arrival-sequence order (wire server
    /// mode only).
    pub responses: Option<Vec<LoggedResponse>>,
    /// The serving-layer result behind the door.
    pub serve: ServeResult,
}

impl FrontResult {
    /// Total admitted requests.
    pub fn admitted(&self) -> u64 {
        self.classes.iter().map(|c| c.admitted).sum()
    }

    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Total deferral events.
    pub fn deferred(&self) -> u64 {
        self.classes.iter().map(|c| c.deferred).sum()
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Fairness: the max/min ratio of per-tenant completion
    /// throughput across classes with tenants (1.0 = perfectly even;
    /// `f64::MAX` if a populated class completed nothing).
    pub fn fairness_ratio(&self) -> f64 {
        let rates: Vec<f64> = self
            .classes
            .iter()
            .filter(|c| c.tenants > 0)
            .map(|c| c.per_tenant_completed())
            .collect();
        let Some(max) = rates.iter().cloned().reduce(f64::max) else {
            return 1.0;
        };
        let min = rates.iter().cloned().reduce(f64::min).unwrap_or(0.0);
        if min <= 0.0 {
            f64::MAX
        } else {
            max / min
        }
    }

    /// Records per-class counters and latency gauges, labeled by policy
    /// and class, into the global metric store (no-op while
    /// observability is off).
    pub fn record_labels(&self, policy: &str) {
        let labels = rtm_obs::global().registry();
        if !labels.enabled() {
            return;
        }
        for c in &self.classes {
            let cell = [("policy", policy), ("class", c.class.label())];
            labels.counter_add_with("front.admitted", &cell, c.admitted);
            labels.counter_add_with("front.shed", &cell, c.shed);
            labels.counter_add_with("front.deferred", &cell, c.deferred);
            labels.counter_add_with("front.completed", &cell, c.completed);
            labels.gauge_set_with("front.p99_total_cycles", &cell, c.latency.p99 as f64);
        }
        labels.gauge_set_with(
            "front.fairness_ratio",
            &[("policy", policy)],
            self.fairness_ratio(),
        );
    }
}

/// Runs one front-door serving experiment end to end.
pub fn run_front(cfg: &FrontConfig, policy: SchedPolicy) -> FrontResult {
    let mut door = FrontDoor::new(cfg);
    let serve = ServeSim::new(cfg.serve_config(policy)).run_source(&mut door);
    door.finish(serve)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FrontConfig {
        FrontConfig::new(120).with_offered(4_000)
    }

    #[test]
    fn run_is_deterministic_and_conserves_requests() {
        let a = run_front(&small(), SchedPolicy::ShiftAware);
        let b = run_front(&small(), SchedPolicy::ShiftAware);
        assert_eq!(a, b);
        assert_eq!(a.admitted() + a.shed(), small().offered);
        assert_eq!(a.completed(), a.admitted());
        assert_eq!(a.serve.requests, a.admitted());
        assert!(a.admitted() > 0, "some load admitted");
    }

    #[test]
    fn admission_control_discriminates_by_class() {
        let r = run_front(&small(), SchedPolicy::ShiftAware);
        let by = |class: SloClass| {
            r.classes
                .iter()
                .find(|c| c.class == class)
                .expect("class present")
                .clone()
        };
        let lat = by(SloClass::Latency);
        let be = by(SloClass::BestEffort);
        assert!(r.shed() > 0, "overload sheds somewhere");
        assert!(r.deferred() > 0, "patient classes defer");
        let shed_frac = |c: &ClassStats| c.shed as f64 / c.offered().max(1) as f64;
        assert!(
            shed_frac(&be) > shed_frac(&lat),
            "besteffort sheds more than latency: {} vs {}",
            shed_frac(&be),
            shed_frac(&lat)
        );
        let fairness = r.fairness_ratio();
        assert!((1.0..f64::MAX).contains(&fairness), "fairness finite");
    }

    #[test]
    fn window_caps_outstanding_work() {
        let mut cfg = small();
        cfg.window = 8;
        let r = run_front(&cfg, SchedPolicy::Fcfs);
        assert!(r.serve.peak_in_flight + r.serve.peak_queued <= 2 * 8 + 2);
        assert_eq!(r.completed(), r.admitted());
    }

    #[test]
    fn logged_responses_cover_every_arrival() {
        let cfg = small();
        let mut door = FrontDoor::new(&cfg).log_responses();
        let serve = ServeSim::new(cfg.serve_config(SchedPolicy::Fcfs)).run_source(&mut door);
        let r = door.finish(serve);
        let log = r.responses.as_ref().expect("logging enabled");
        assert_eq!(log.len() as u64, cfg.offered);
        for (i, resp) in log.iter().enumerate() {
            assert_eq!(resp.seq, i as u64, "one response per arrival seq");
        }
        let done = log.iter().filter(|r| r.verdict == Verdict::Done).count() as u64;
        assert_eq!(done, r.completed());
    }
}
