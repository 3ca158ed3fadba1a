//! Tenant session tables and the merged arrival stream.
//!
//! [`SessionTable`] holds the admission-relevant state of every
//! tenant: its SLO class and its token bucket, with rates derived from
//! the tenant's *fair share* of the configured backend capacity.
//! [`SessionArrivals`] merges tens of thousands of per-tenant
//! [`TenantStream`]s into one open-loop arrival sequence ordered by
//! `(cycle, tenant)` — a deterministic event-heap merge, so the
//! sequence is a pure function of the configuration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bucket::{TokenBucket, TOKEN};
use crate::class::{ClassSpec, SloClass};
use rtm_trace::{TenantStream, WorkloadProfile};
use rtm_util::rng::derive_seed;

/// Salt for the per-tenant arrival phase, so phases are independent of
/// the trace streams drawn from the same base seed.
const PHASE_SALT: u64 = 0xF0_0D_CA_FE;

/// One request arriving at the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontArrival {
    /// Arrival cycle.
    pub cycle: u64,
    /// Global arrival sequence number (0, 1, 2, ... in arrival order).
    pub seq: u64,
    /// Tenant id.
    pub tenant: u32,
    /// The tenant's SLO class.
    pub class: SloClass,
    /// Line address, already relocated into the tenant's window.
    pub addr: u64,
    /// Whether the access is a write.
    pub is_write: bool,
}

/// Per-tenant admission state shared by the internal and wire-replay
/// paths.
#[derive(Debug, Clone)]
pub struct SessionTable {
    spec: ClassSpec,
    tenants: u32,
    buckets: Vec<TokenBucket>,
    /// Shed threshold per class index: maximum cycles between a
    /// request's arrival and the earliest token before it is shed.
    max_defer: [u64; 3],
}

impl SessionTable {
    /// Builds the table: tenant `t` gets class `spec.class_of(t)` and
    /// a bucket refilling at `class.rate_mult x` its fair share of
    /// `capacity_req_per_kcycle` (the backend's sustainable rate split
    /// evenly over the population).
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn new(spec: &ClassSpec, tenants: u32, capacity_req_per_kcycle: u32) -> Self {
        assert!(tenants > 0, "at least one tenant");
        let fair = capacity_req_per_kcycle as f64 / 1000.0 / tenants as f64;
        let mut buckets = Vec::with_capacity(tenants as usize);
        let mut max_defer = [0u64; 3];
        for class in SloClass::ALL {
            let p = class.params();
            let rate = TokenBucket::rate_fp(fair * p.rate_mult);
            let period = TOKEN.div_ceil(rate);
            max_defer[class.index()] = p.defer_periods.saturating_mul(period);
        }
        for t in 0..tenants {
            let p = spec.class_of(t).params();
            let rate = TokenBucket::rate_fp(fair * p.rate_mult);
            buckets.push(TokenBucket::new(rate, p.burst));
        }
        Self {
            spec: spec.clone(),
            tenants,
            buckets,
            max_defer,
        }
    }

    /// Tenant population.
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// The class mix.
    pub fn spec(&self) -> &ClassSpec {
        &self.spec
    }

    /// The class of a tenant.
    pub fn class_of(&self, tenant: u32) -> SloClass {
        self.spec.class_of(tenant)
    }

    /// The tenant's token bucket.
    pub fn bucket_mut(&mut self, tenant: u32) -> &mut TokenBucket {
        &mut self.buckets[tenant as usize]
    }

    /// Immutable view of the tenant's bucket.
    pub fn bucket(&self, tenant: u32) -> &TokenBucket {
        &self.buckets[tenant as usize]
    }

    /// The shed threshold (cycles from arrival to earliest token) of a
    /// class.
    pub fn max_defer(&self, class: SloClass) -> u64 {
        self.max_defer[class.index()]
    }
}

/// Merges per-tenant streams into one arrival sequence.
///
/// Tenant `t` draws its accesses from
/// `TenantStream::strided(profile, seed, t, stride)` with
/// `profile = parsec()[t % 12]`; successive arrivals of the same
/// tenant are separated by the access's instruction gap scaled by the
/// think multiplier (open-loop "user think time"). The first arrival
/// of each tenant is offset by a deterministic per-tenant phase so a
/// large population spreads over time instead of stampeding cycle 0.
#[derive(Debug, Clone)]
pub struct SessionArrivals {
    streams: Vec<TenantStream>,
    spec: ClassSpec,
    /// Min-heap of `(next arrival cycle, tenant)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    think_scale: u64,
    emitted: u64,
    offered: u64,
}

impl SessionArrivals {
    /// Builds the merged stream for `tenants` sessions emitting
    /// `offered` arrivals in total.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn new(
        tenants: u32,
        spec: &ClassSpec,
        seed: u64,
        offered: u64,
        think_scale: u64,
        stride: u64,
    ) -> Self {
        assert!(tenants > 0, "at least one tenant");
        let profiles = WorkloadProfile::parsec();
        let think_scale = think_scale.max(1);
        let mut streams = Vec::with_capacity(tenants as usize);
        let mut heap = BinaryHeap::with_capacity(tenants as usize);
        for t in 0..tenants {
            let profile = profiles[t as usize % profiles.len()];
            streams.push(TenantStream::strided(profile, seed, t, stride));
            // Phase within one mean think period, so arrivals spread.
            let mean_gap = (profile.gap_instructions * think_scale as f64).max(1.0) as u64;
            let phase = derive_seed(seed ^ PHASE_SALT, t as u64) % mean_gap.max(1);
            heap.push(Reverse((phase, t)));
        }
        Self {
            streams,
            spec: spec.clone(),
            heap,
            think_scale,
            emitted: 0,
            offered,
        }
    }

    /// Arrivals emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl Iterator for SessionArrivals {
    type Item = FrontArrival;

    fn next(&mut self) -> Option<FrontArrival> {
        if self.emitted >= self.offered {
            return None;
        }
        // The tenant's next arrival replaces its current one at the
        // top of the heap: one sift instead of a pop and a push.
        let mut top = self.heap.peek_mut()?;
        let Reverse((cycle, tenant)) = *top;
        let a = self.streams[tenant as usize].next_access();
        let gap = (a.gap_instructions as u64)
            .saturating_mul(self.think_scale)
            .max(1);
        *top = Reverse((cycle + gap, tenant));
        drop(top);
        let seq = self.emitted;
        self.emitted += 1;
        Some(FrontArrival {
            cycle,
            seq,
            tenant,
            class: self.spec.class_of(tenant),
            addr: a.addr,
            is_write: a.is_write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(tenants: u32, offered: u64) -> Vec<FrontArrival> {
        let spec = ClassSpec::balanced();
        SessionArrivals::new(tenants, &spec, 2015, offered, tenants as u64, 1 << 27).collect()
    }

    #[test]
    fn arrivals_are_deterministic_ordered_and_numbered() {
        let a = arrivals(500, 5_000);
        let b = arrivals(500, 5_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
        for (i, x) in a.iter().enumerate() {
            assert_eq!(x.seq, i as u64);
            if i > 0 {
                assert!(x.cycle >= a[i - 1].cycle, "cycles are non-decreasing");
            }
        }
        // Every tenant in a modest population gets at least one turn.
        let mut seen = vec![false; 500];
        for x in &a {
            seen[x.tenant as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 450);
    }

    #[test]
    fn table_rates_follow_class_params() {
        let spec = ClassSpec::balanced();
        let table = SessionTable::new(&spec, 300, 130);
        // Tenants 0/1/2 are latency/throughput/besteffort under the
        // balanced round-robin.
        let latency = table.bucket(0).rate();
        let throughput = table.bucket(1).rate();
        let besteffort = table.bucket(2).rate();
        assert!(latency > throughput && throughput > besteffort);
        // Patience orders the other way for latency vs throughput.
        assert!(
            table.max_defer(SloClass::Latency) < table.max_defer(SloClass::Throughput),
            "latency sheds faster than throughput defers"
        );
    }
}
