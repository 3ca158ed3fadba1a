//! FNV-1a digests of every field of the serving layer's result
//! records (f64s by bits), shared by the summary and class golden
//! tests. Exhaustive destructuring makes a field added to any of these
//! records fail to compile here until it is digested too.

#![allow(dead_code)]

use rtm_mem::llc::{LlcStats, ScaleStats};
use rtm_mem::CacheStats;
use rtm_obs::attrib::{AttributionCell, AttributionTable};
use rtm_serve::{LatencySummary, ServeResult, ServeStats};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a digest.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn add(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn summary(&mut self, s: &LatencySummary) {
        let LatencySummary {
            count,
            sum,
            min,
            max,
            p50,
            p95,
            p99,
        } = *s;
        for v in [count, sum, min, max, p50, p95, p99] {
            self.add(v);
        }
    }

    pub fn llc(&mut self, s: &LlcStats) {
        let LlcStats {
            cache,
            shift_ops,
            shift_steps,
            shift_cycles,
            verify_cycles,
            zero_shift_accesses,
            expected_dues,
            expected_sdcs,
            sampled_shifts,
            observed_errors,
        } = *s;
        let CacheStats {
            hits,
            misses,
            writebacks,
            reads,
            writes,
        } = cache;
        for v in [
            hits,
            misses,
            writebacks,
            reads,
            writes,
            shift_ops,
            shift_steps,
            shift_cycles,
            verify_cycles,
            zero_shift_accesses,
            expected_dues.to_bits(),
            expected_sdcs.to_bits(),
            sampled_shifts,
            observed_errors,
        ] {
            self.add(v);
        }
    }

    pub fn table(&mut self, t: &AttributionTable) {
        let AttributionTable {
            key_names,
            components,
            cells,
        } = t;
        for name in key_names.iter().chain(components) {
            self.bytes(name.as_bytes());
        }
        for AttributionCell {
            keys,
            cycles,
            total,
        } in cells
        {
            for key in keys {
                self.bytes(key.as_bytes());
            }
            for &v in cycles {
                self.add(v);
            }
            self.add(*total);
        }
    }

    pub fn result(&mut self, r: &ServeResult) {
        let ServeResult {
            policy,
            requests,
            cycles,
            queue_delay,
            service,
            total,
            read_total,
            write_total,
            backpressure_stalls,
            zero_shift_dispatches,
            peak_queued,
            peak_in_flight,
            llc,
            scale,
            fill_cycles,
            bank_busy_cycles,
            tenants,
        } = r;
        self.bytes(policy.label().as_bytes());
        for s in [queue_delay, service, total, read_total, write_total] {
            self.summary(s);
        }
        for v in [
            *requests,
            *cycles,
            *backpressure_stalls,
            *zero_shift_dispatches,
            *peak_queued as u64,
            *peak_in_flight as u64,
            *fill_cycles,
        ] {
            self.add(v);
        }
        self.llc(llc);
        let ScaleStats {
            configured_groups,
            materialised_groups,
            pristine_hits,
            arena_bytes,
        } = *scale;
        for v in [
            configured_groups,
            materialised_groups,
            pristine_hits,
            arena_bytes,
        ] {
            self.add(v);
        }
        for &v in bank_busy_cycles {
            self.add(v);
        }
        self.table(tenants);
    }

    pub fn stats(&mut self, s: &ServeStats) {
        let ServeStats {
            requests,
            lane_cycles,
            makespan_cycles,
            service,
            zero_shift_dispatches,
            fused_dispatches,
            batched_requests,
            batch_saved_cycles,
            llc,
        } = s;
        for &v in lane_cycles {
            self.add(v);
        }
        for v in [
            *requests,
            *makespan_cycles,
            *zero_shift_dispatches,
            *fused_dispatches,
            *batched_requests,
            *batch_saved_cycles,
        ] {
            self.add(v);
        }
        self.summary(service);
        self.llc(llc);
    }
}

pub fn result_digest(r: &ServeResult) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.result(r);
    h.0
}

pub fn stats_digest(s: &ServeStats) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.stats(s);
    h.0
}
