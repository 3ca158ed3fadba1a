//! A bit-level physically-backed cache: every line lives in a
//! [`ProtectedGroup`] of real stripes, every shift physically moves
//! domain walls, and every read senses actual cells.
//!
//! This is the validation layer for the statistical
//! [`RacetrackLlc`](crate::llc::RacetrackLlc): far too slow for the
//! 128 MB evaluation configuration, but ideal for demonstrating — on a
//! scaled-down cache — that the statistical head-position arithmetic,
//! shift-distance accounting and protection semantics match what the
//! physics actually does (see `physical_matches_statistical` below and
//! the cross-check in `tests/`).

use crate::cache::{AccessKind, AccessResult, Cache};
use rtm_pecc::code::Verdict;
use rtm_pecc::group::ProtectedGroup;
use rtm_pecc::layout::ProtectionKind;
use rtm_track::bit::Bit;
use rtm_track::fault::FaultModel;
use rtm_track::geometry::StripeGeometry;
use rtm_util::arena::{Arena, NO_HANDLE};

/// Outcome of one physical access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalResponse {
    /// Cache hit or miss.
    pub hit: bool,
    /// Steps the group's head moved for this access.
    pub shift_steps: u64,
    /// Whether a position-error DUE occurred while seeking.
    pub due: bool,
}

/// A small, fully physical racetrack cache.
///
/// Group state is materialised lazily: each group costs a 4-byte arena
/// handle until the first access touches it, at which point a prototype-
/// only [`ProtectedGroup`] is faulted in from the arena pool (the group
/// itself defers per-stripe allocation further until a real shift or
/// write). Building a group consumes no randomness, so the fault-model
/// sampling stream is bit-identical to the historical eager layout
/// regardless of when — or whether — groups materialise.
pub struct PhysicalCache {
    cache: Cache,
    /// Group index → arena handle; [`NO_HANDLE`] until first touch.
    handles: Vec<u32>,
    arena: Arena<ProtectedGroup>,
    geometry: StripeGeometry,
    kind: ProtectionKind,
    ways: u32,
    capacity_bytes: u64,
    bits_per_line: usize,
    faults: Box<dyn FaultModel>,
    shift_steps: u64,
    dues: u64,
    pristine_reads: u64,
}

impl PhysicalCache {
    /// Builds a physical cache of `capacity_bytes` with 64 B lines and
    /// `ways` associativity; each line spans `bits_per_line` stripes
    /// (use small values — 8 or 16 — for test-speed; the real design
    /// uses 512).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (capacity not divisible, zero sizes,
    /// more than 127 ways, an invalid protection layout) or when the
    /// line count does not fill whole groups.
    pub fn new(
        capacity_bytes: u64,
        ways: u32,
        kind: ProtectionKind,
        bits_per_line: usize,
        faults: Box<dyn FaultModel>,
    ) -> Self {
        let geometry = StripeGeometry::paper_default();
        let cache = Cache::new(capacity_bytes, ways, 64);
        let lines = capacity_bytes / 64;
        assert!(
            lines.is_multiple_of(geometry.data_len() as u64),
            "line count must fill whole stripe groups"
        );
        // Validate the layout up front so invalid configurations fail at
        // construction exactly like the eager implementation did.
        ProtectedGroup::new(geometry, kind, bits_per_line).expect("valid group layout");
        let group_count = (lines / geometry.data_len() as u64) as usize;
        Self {
            cache,
            handles: vec![NO_HANDLE; group_count],
            arena: Arena::new(),
            geometry,
            kind,
            ways,
            capacity_bytes,
            bits_per_line,
            faults,
            shift_steps: 0,
            dues: 0,
            pristine_reads: 0,
        }
    }

    /// Total steps physically moved.
    pub fn shift_steps(&self) -> u64 {
        self.shift_steps
    }

    /// DUEs raised so far.
    pub fn dues(&self) -> u64 {
        self.dues
    }

    /// The stripe-group geometry.
    pub fn geometry(&self) -> &StripeGeometry {
        &self.geometry
    }

    /// Number of stripe groups the configured capacity spans.
    pub fn configured_groups(&self) -> usize {
        self.handles.len()
    }

    /// Number of groups faulted in from the arena so far.
    pub fn materialised_groups(&self) -> usize {
        self.arena.live()
    }

    /// Reads answered while the owning group was still in its pristine
    /// (prototype-only) state.
    pub fn pristine_reads(&self) -> u64 {
        self.pristine_reads
    }

    /// Approximate heap bytes held by group state: the handle table plus
    /// every live group's stripe storage.
    pub fn approx_state_bytes(&self) -> usize {
        let mut bytes = self.handles.len() * std::mem::size_of::<u32>() + self.arena.slot_bytes();
        for &h in &self.handles {
            if h != NO_HANDLE {
                bytes += self.arena.get(h).approx_bytes();
            }
        }
        bytes
    }

    /// Forces every configured group into existence (the historical
    /// eager layout; equivalence tests compare lazy runs against this).
    pub fn materialise_all(&mut self) {
        for i in 0..self.handles.len() {
            if self.handles[i] == NO_HANDLE {
                let group = ProtectedGroup::new(self.geometry, self.kind, self.bits_per_line)
                    .expect("valid group layout");
                self.handles[i] = self.arena.alloc(group);
            }
        }
    }

    /// Returns every group to the arena free list and resets the
    /// directory and counters to their initial state — a medium power
    /// cycle. The arena keeps its slots, so a subsequent run of the same
    /// working set reuses them instead of growing the heap.
    pub fn reset(&mut self) {
        self.cache = Cache::new(self.capacity_bytes, self.ways, 64);
        for h in &mut self.handles {
            if *h != NO_HANDLE {
                self.arena.free(*h);
                *h = NO_HANDLE;
            }
        }
        self.shift_steps = 0;
        self.dues = 0;
        self.pristine_reads = 0;
    }

    /// High-water number of arena slots ever allocated (diagnostic for
    /// the free-list reuse guarantee).
    pub fn arena_slots(&self) -> usize {
        self.arena.slots()
    }

    /// Faults the group in from the arena if needed and returns its
    /// handle.
    fn ensure_group(&mut self, group_idx: usize) -> u32 {
        let h = self.handles[group_idx];
        if h != NO_HANDLE {
            return h;
        }
        let group = ProtectedGroup::new(self.geometry, self.kind, self.bits_per_line)
            .expect("valid group layout");
        let h = self.arena.alloc(group);
        self.handles[group_idx] = h;
        h
    }

    fn slot_to_group_domain(&self, set: u64, way: u32) -> (usize, usize) {
        let line_index = set * self.cache.ways() as u64 + way as u64;
        let d = self.geometry.data_len() as u64;
        ((line_index / d) as usize, (line_index % d) as usize)
    }

    /// Performs one access carrying `data` (for writes): physically
    /// seeks the group head and reads or writes the domain across all
    /// stripes. Returns the response plus, for reads, the sensed bits.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != bits_per_line` on a write.
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        data: Option<&[Bit]>,
    ) -> (PhysicalResponse, Option<Vec<Bit>>) {
        let set = self.cache.set_of(addr);
        let r = self.cache.access(addr, kind);
        let (group_idx, domain) = self.slot_to_group_domain(set, r.way());
        let target = self.geometry.head_position_for(domain);
        let handle = self.ensure_group(group_idx);
        let group = self.arena.get_mut(handle);
        let before = group.believed_head();
        let verdict = group.seek_checked(target, self.faults.as_mut(), 3);
        let moved = (target as i64 - before).unsigned_abs();
        self.shift_steps += moved;
        let due = verdict == Verdict::Uncorrectable;
        if due {
            self.dues += 1;
        }

        let read_back = match kind {
            AccessKind::Write => {
                let bits = data.expect("writes must carry data");
                assert_eq!(bits.len(), self.bits_per_line, "one bit per stripe");
                if !due {
                    // Group stripes share a head: one head check, then
                    // each stripe's domain at the current position.
                    group.write_domain(domain, bits).expect("head positioned");
                }
                None
            }
            AccessKind::Read => Some(if due {
                vec![Bit::Unknown; self.bits_per_line]
            } else {
                if group.is_pristine() {
                    // Served straight from the group prototype: no
                    // per-stripe state was ever allocated.
                    self.pristine_reads += 1;
                }
                group
                    .read_domain(domain)
                    .unwrap_or_else(|_| vec![Bit::Unknown; self.bits_per_line])
            }),
        };
        (
            PhysicalResponse {
                hit: matches!(r, AccessResult::Hit { .. }),
                shift_steps: moved,
                due,
            },
            read_back,
        )
    }
}

impl std::fmt::Debug for PhysicalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalCache")
            .field("groups", &self.handles.len())
            .field("materialised", &self.arena.live())
            .field("bits_per_line", &self.bits_per_line)
            .field("shift_steps", &self.shift_steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_track::fault::{IdealFaultModel, ScriptedFaultModel};

    fn small(kind: ProtectionKind, faults: Box<dyn FaultModel>) -> PhysicalCache {
        // 64 lines = exactly one 64-domain group; 8 bits per line.
        PhysicalCache::new(64 * 64, 4, kind, 8, faults)
    }

    fn bits(pattern: u8) -> Vec<Bit> {
        (0..8).map(|i| Bit::from(pattern & (1 << i) != 0)).collect()
    }

    #[test]
    fn write_then_read_round_trips_physically() {
        let mut c = small(ProtectionKind::SECDED, Box::new(IdealFaultModel));
        let (w, _) = c.access(0x40, AccessKind::Write, Some(&bits(0b1010_0110)));
        assert!(!w.hit);
        let (r, data) = c.access(0x40, AccessKind::Read, None);
        assert!(r.hit);
        assert_eq!(r.shift_steps, 0, "head already positioned");
        assert_eq!(data.unwrap(), bits(0b1010_0110));
    }

    #[test]
    fn distinct_lines_cost_physical_shifts() {
        let mut c = small(ProtectionKind::SECDED, Box::new(IdealFaultModel));
        c.access(0x0, AccessKind::Write, Some(&bits(1)));
        let before = c.shift_steps();
        // A line in a different way of the same set maps to an adjacent
        // domain -> nonzero head movement.
        let stride = 16 * 64; // sets * line
        c.access(stride, AccessKind::Write, Some(&bits(2)));
        assert!(c.shift_steps() > before);
    }

    #[test]
    fn injected_slip_is_repaired_and_data_survives() {
        let mut c = small(
            ProtectionKind::SECDED,
            Box::new(ScriptedFaultModel::new([
                rtm_model::shift::ShiftOutcome::Pinned { offset: 0 },
                rtm_model::shift::ShiftOutcome::Pinned { offset: 1 },
            ])),
        );
        c.access(0x40, AccessKind::Write, Some(&bits(0xA5)));
        let stride = 16 * 64;
        c.access(0x40 + stride, AccessKind::Write, Some(&bits(0x5A)));
        // Return to the first line: despite the slip on the way, SECDED
        // repaired it and the data is intact.
        let (_, data) = c.access(0x40, AccessKind::Read, None);
        assert_eq!(data.unwrap(), bits(0xA5));
        assert_eq!(c.dues(), 0);
    }

    #[test]
    fn uncorrectable_slip_raises_due() {
        let mut c = small(
            ProtectionKind::SECDED,
            Box::new(ScriptedFaultModel::new([
                rtm_model::shift::ShiftOutcome::Pinned { offset: 2 },
            ])),
        );
        c.access(0x0, AccessKind::Write, Some(&bits(1)));
        // First access seeks from head 0; a ±2 slip on the very first
        // shift is detected but uncorrectable.
        assert_eq!(c.dues(), 1);
        let (r, data) = c.access(0x0, AccessKind::Read, None);
        let _ = r;
        // Post-DUE state returns indeterminate data until recovery.
        assert!(data.is_some());
    }

    #[test]
    fn groups_materialise_lazily_and_reads_can_stay_pristine() {
        // Direct-mapped, 4 groups; set == line index == data domain % 64.
        let mut c = PhysicalCache::new(
            4 * 64 * 64,
            1,
            ProtectionKind::SECDED,
            8,
            Box::new(IdealFaultModel),
        );
        assert_eq!(c.configured_groups(), 4);
        assert_eq!(c.materialised_groups(), 0);
        // Domain 7 sits under a port at head position 0
        // (segment_len - 1 - 7 % 8), so reading line 7 of an untouched
        // group needs no seek and serves zeroed fabrication data from the
        // group prototype.
        assert_eq!(c.geometry().head_position_for(7), 0);
        let addr = 7 * 64;
        let (_, data) = c.access(addr, AccessKind::Read, None);
        assert_eq!(data.unwrap(), vec![Bit::Zero; 8]);
        assert_eq!(c.materialised_groups(), 1, "group object faulted in");
        assert_eq!(c.pristine_reads(), 1, "served without stripe state");
        // A write materialises the group's stripes for real.
        c.access(addr, AccessKind::Write, Some(&bits(0xA5)));
        let before = c.approx_state_bytes();
        let (_, data) = c.access(addr, AccessKind::Read, None);
        assert_eq!(data.unwrap(), bits(0xA5));
        assert_eq!(c.pristine_reads(), 1, "no longer pristine");
        assert_eq!(c.approx_state_bytes(), before);
        // The other three groups still cost nothing but their handles.
        assert_eq!(c.materialised_groups(), 1);
    }

    #[test]
    fn reset_reuses_arena_slots() {
        let mut c = small(ProtectionKind::SECDED, Box::new(IdealFaultModel));
        c.access(0x40, AccessKind::Write, Some(&bits(0x12)));
        assert_eq!(c.materialised_groups(), 1);
        let slots = c.arena_slots();
        c.reset();
        assert_eq!(c.materialised_groups(), 0);
        assert_eq!(c.shift_steps(), 0);
        // Rerunning the same working set reuses the freed slot.
        c.access(0x40, AccessKind::Write, Some(&bits(0x12)));
        let (_, data) = c.access(0x40, AccessKind::Read, None);
        assert_eq!(data.unwrap(), bits(0x12));
        assert_eq!(c.arena_slots(), slots, "free list prevented growth");
    }

    /// Lazy and eager layouts produce identical responses, data and
    /// counters for the same access + fault script.
    #[test]
    fn lazy_matches_materialise_all_with_faults() {
        let script = || {
            let mut outcomes = Vec::new();
            let mut rng = rtm_util::rng::seeded_rng(42);
            for _ in 0..4096 {
                outcomes.push(if rng.chance(0.02) {
                    rtm_model::shift::ShiftOutcome::Pinned {
                        offset: if rng.chance(0.5) { 1 } else { -1 },
                    }
                } else {
                    rtm_model::shift::ShiftOutcome::Pinned { offset: 0 }
                });
            }
            Box::new(ScriptedFaultModel::new(outcomes))
        };
        let mut lazy = small(ProtectionKind::SECDED, script());
        let mut eager = small(ProtectionKind::SECDED, script());
        eager.materialise_all();
        let mut rng = rtm_util::rng::seeded_rng(9);
        for step in 0..300 {
            let addr = (rng.next_u64() % 64) * 64;
            if rng.chance(0.4) {
                let pattern = (step % 251) as u8;
                let (a, _) = lazy.access(addr, AccessKind::Write, Some(&bits(pattern)));
                let (b, _) = eager.access(addr, AccessKind::Write, Some(&bits(pattern)));
                assert_eq!(a, b, "write response diverged at step {step}");
            } else {
                let (a, da) = lazy.access(addr, AccessKind::Read, None);
                let (b, db) = eager.access(addr, AccessKind::Read, None);
                assert_eq!(a, b, "read response diverged at step {step}");
                assert_eq!(da, db, "read data diverged at step {step}");
            }
        }
        assert_eq!(lazy.shift_steps(), eager.shift_steps());
        assert_eq!(lazy.dues(), eager.dues());
    }

    #[test]
    fn lazy_matches_eager_over_20k_sampled_operations() {
        // The headline equivalence suite: 20k mixed read/write
        // operations (each seeking, shifting and sampling the Gaussian
        // fault physics) on the lazy arena-backed cache and on a fully
        // materialised one built from the same seed. Materialising a
        // group draws nothing from the fault model, so the RNG streams
        // — and therefore every response, every sensed bit and every
        // counter — must be bit-identical.
        let model = || {
            Box::new(rtm_track::fault::GaussianFaultModel::new(
                &rtm_model::DeviceParams::table1(),
                0xFEED,
            ))
        };
        let mut lazy = small(ProtectionKind::SECDED, model());
        let mut eager = small(ProtectionKind::SECDED, model());
        eager.materialise_all();
        let mut rng = rtm_util::rng::seeded_rng(77);
        for step in 0..20_000 {
            let addr = (rng.next_u64() % 64) * 64;
            if rng.chance(0.35) {
                let pattern = (step % 251) as u8;
                let (a, _) = lazy.access(addr, AccessKind::Write, Some(&bits(pattern)));
                let (b, _) = eager.access(addr, AccessKind::Write, Some(&bits(pattern)));
                assert_eq!(a, b, "write response diverged at step {step}");
            } else {
                let (a, da) = lazy.access(addr, AccessKind::Read, None);
                let (b, db) = eager.access(addr, AccessKind::Read, None);
                assert_eq!(a, b, "read response diverged at step {step}");
                assert_eq!(da, db, "read data diverged at step {step}");
            }
        }
        assert_eq!(lazy.shift_steps(), eager.shift_steps());
        assert_eq!(lazy.dues(), eager.dues());
        // The workload really exercised the sampled fault path.
        assert!(lazy.shift_steps() > 0);
    }

    #[test]
    fn unprotected_physical_cache_corrupts_silently() {
        // Each group shift consumes one fault sample per stripe: eight
        // clean samples cover the first access, then stripe 0 slips on
        // the second access's shift.
        let mut outcomes = vec![rtm_model::shift::ShiftOutcome::Pinned { offset: 0 }; 8];
        outcomes.push(rtm_model::shift::ShiftOutcome::Pinned { offset: 1 });
        let mut c = small(
            ProtectionKind::None,
            Box::new(ScriptedFaultModel::new(outcomes)),
        );
        c.access(0x40, AccessKind::Write, Some(&bits(0xFF)));
        let stride = 16 * 64;
        c.access(0x40 + stride, AccessKind::Write, Some(&bits(0x00)));
        let (_, data) = c.access(0x40, AccessKind::Read, None);
        // Stripe 0 is silently desynchronised: it reads a neighbouring
        // domain's (zero) value instead of its 0xFF bit, and nothing
        // reported it.
        assert_eq!(c.dues(), 0);
        let data = data.unwrap();
        assert_eq!(data[0], Bit::Zero, "slipped stripe reads the wrong domain");
        assert_eq!(data[1], Bit::One, "clean stripes read correctly");
    }
}
