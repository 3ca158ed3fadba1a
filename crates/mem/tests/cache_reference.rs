//! The compact `Cache` (a 32-bit set-local tag and one state byte per
//! line: dirty bit plus recency rank) against a stamp-based LRU
//! reference: a u64 tag and a u64 stamp per line from one tick per
//! access, LRU = the smallest stamp, an invalid way first. Both must
//! agree access by access — `probe`, `victim_way`, the way, hit and
//! writeback address of every `access`, and the counters — on random
//! reads and writes over the whole u64 address range, with and without
//! a bank-major layout, and across a `clear()`.

use rtm_mem::cache::{AccessKind, AccessResult, Cache, CacheStats};
use rtm_util::rng::SmallRng64;

/// Bank-major set relocation, as in `Cache::with_bank_layout`.
#[derive(Clone, Copy)]
struct BankLayout {
    banks: u64,
    group_sets: u64,
    groups_per_bank: u64,
}

/// The stamp-based reference: tags, LRU stamps and valid/dirty flags
/// per line.
struct StampCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    sets: u64,
    ways: usize,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
    layout: Option<BankLayout>,
}

impl StampCache {
    fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        let lines = (capacity_bytes / line_bytes as u64) as usize;
        Self {
            tags: vec![0; lines],
            stamps: vec![0; lines],
            valid: vec![false; lines],
            dirty: vec![false; lines],
            sets: lines as u64 / ways as u64,
            ways: ways as usize,
            line_shift: line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
            layout: None,
        }
    }

    fn with_bank_layout(mut self, banks: u32, group_sets: u32) -> Self {
        let (banks, group_sets) = (banks as u64, group_sets as u64);
        if banks >= 2 && group_sets >= 1 && self.sets.is_multiple_of(group_sets) {
            let groups = self.sets / group_sets;
            if groups.is_multiple_of(banks) {
                self.layout = Some(BankLayout {
                    banks,
                    group_sets,
                    groups_per_bank: groups / banks,
                });
            }
        }
        self
    }

    fn base(&self, set: u64) -> usize {
        let storage = match self.layout {
            None => set,
            Some(l) => {
                let group = set / l.group_sets;
                let storage_group = (group % l.banks) * l.groups_per_bank + group / l.banks;
                storage_group * l.group_sets + set % l.group_sets
            }
        };
        storage as usize * self.ways
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) % self.sets
    }

    fn probe(&self, addr: u64) -> Option<u32> {
        let line = addr >> self.line_shift;
        let (tag, base) = (line / self.sets, self.base(line % self.sets));
        (0..self.ways)
            .position(|w| self.valid[base + w] && self.tags[base + w] == tag)
            .map(|w| w as u32)
    }

    fn victim_way(&self, set: u64) -> u32 {
        let base = self.base(set);
        (0..self.ways)
            .min_by_key(|&w| {
                if self.valid[base + w] {
                    self.stamps[base + w]
                } else {
                    0
                }
            })
            .unwrap() as u32
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.tick += 1;
        let write = kind == AccessKind::Write;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let line = addr >> self.line_shift;
        let (tag, set) = (line / self.sets, line % self.sets);
        let base = self.base(set);
        if let Some(w) = self.probe(addr) {
            let i = base + w as usize;
            self.stamps[i] = self.tick;
            self.dirty[i] |= write;
            self.stats.hits += 1;
            return AccessResult::Hit { way: w };
        }
        self.stats.misses += 1;
        let way = self.victim_way(set);
        let i = base + way as usize;
        let writeback = (self.valid[i] && self.dirty[i]).then(|| {
            self.stats.writebacks += 1;
            (self.tags[i] * self.sets + set) << self.line_shift
        });
        self.tags[i] = tag;
        self.stamps[i] = self.tick;
        self.valid[i] = true;
        self.dirty[i] = write;
        AccessResult::Miss { way, writeback }
    }

    fn clear(&mut self) {
        self.valid.fill(false);
        self.dirty.fill(false);
        self.stamps.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }
}

/// Drives both caches through `n` random accesses over three times the
/// capacity's lines (so hits, clean and dirty evictions all occur),
/// clearing both halfway, and asserts agreement at every step. About
/// half the lines carry high bits, in the same sets as the low ones:
/// one of a few set-local tag offsets that put the lines' tags astride
/// the 32-bit boundary, at the top of the address space, or at random
/// high values, or a fresh random offset. The run must hit lines whose
/// set-local tag is `u32::MAX` or more and write such lines back, so
/// that it compares the wide path and not only the narrow one.
fn agree(capacity: u64, ways: u32, layout: Option<(u32, u32)>, seed: u64, n: u64) {
    let (mut fast, mut reference) = (
        Cache::new(capacity, ways, 64),
        StampCache::new(capacity, ways, 64),
    );
    if let Some((banks, group_sets)) = layout {
        fast = fast.with_bank_layout(banks, group_sets);
        reference = reference.with_bank_layout(banks, group_sets);
    }
    let lines = capacity / 64;
    let sets = reference.sets;
    let mut rng = SmallRng64::new(seed);
    // Low lines have set-local tags below `low_tags`; an offset of at
    // most `max_tag - low_tags` keeps every address inside a u64.
    let low_tags = 3 * lines / sets;
    let max_tag = (u64::MAX >> 6) / sets;
    let offsets = [
        u64::from(u32::MAX) - low_tags / 2,
        max_tag - low_tags,
        rng.next_below(max_tag - low_tags),
        rng.next_below(max_tag - low_tags),
    ];
    let wide = |addr: u64| (addr >> 6) / sets >= u64::from(u32::MAX);
    let (mut wide_hits, mut wide_writebacks) = (0, 0);
    let label = format!("{ways} ways, layout {layout:?}, seed {seed:#x}");
    for i in 0..n {
        if i == n / 2 {
            fast.clear();
            reference.clear();
            assert_eq!(*fast.stats(), reference.stats, "{label}: clear");
        }
        // Half the accesses stay inside a hot range that fits the cache,
        // so recency order matters and not only the miss path.
        let mut line = if rng.next_below(2) == 0 {
            rng.next_below(lines / 2)
        } else {
            rng.next_below(3 * lines)
        };
        if rng.next_below(2) == 0 {
            let k = rng.next_below(offsets.len() as u64 + 1) as usize;
            let offset = match offsets.get(k) {
                Some(&o) => o,
                None => rng.next_below(max_tag - low_tags),
            };
            line += offset * sets;
        }
        let addr = line * 64 + rng.next_below(64);
        let kind = if rng.next_below(3) == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let set = fast.set_of(addr);
        assert_eq!(set, reference.set_of(addr));
        assert_eq!(
            fast.probe(addr),
            reference.probe(addr),
            "{label}: probe {i}"
        );
        assert_eq!(
            fast.victim_way(set),
            reference.victim_way(set),
            "{label}: victim {i}"
        );
        let result = fast.access(addr, kind);
        assert_eq!(result, reference.access(addr, kind), "{label}: access {i}");
        match result {
            AccessResult::Hit { .. } if wide(addr) => wide_hits += 1,
            AccessResult::Miss {
                writeback: Some(wb),
                ..
            } if wide(wb) => wide_writebacks += 1,
            _ => {}
        }
    }
    assert_eq!(*fast.stats(), reference.stats, "{label}: stats");
    assert!(wide_hits > 0, "{label}: no hit on a wide line");
    assert!(wide_writebacks > 0, "{label}: no dirty wide victim");
}

#[test]
fn compact_cache_matches_stamp_reference() {
    // (capacity, ways, bank layout): 64 sets at 1, 2 and 16 ways, 32 at
    // 4 ways, and 8 sets at the 127-way maximum; every layout divides
    // its sets evenly.
    let geometries: [(u64, u32, (u32, u32)); 5] = [
        (64 * 64, 1, (4, 4)),
        (64 * 2 * 64, 2, (4, 4)),
        (32 * 4 * 64, 4, (4, 2)),
        (64 * 16 * 64, 16, (8, 4)),
        (8 * 127 * 64, 127, (2, 2)),
    ];
    for (g, &(capacity, ways, layout)) in geometries.iter().enumerate() {
        for (l, layout) in [None, Some(layout)].into_iter().enumerate() {
            agree(capacity, ways, layout, 0x2015 + (2 * g + l) as u64, 40_000);
        }
    }
}

/// The racetrack LLC's own directory: 128 MiB of 64-byte lines in
/// 131,072 16-way sets, stored bank-major over 8 banks in 4-set groups.
/// Run with `cargo test --release -p rtm-mem --test cache_reference --
/// --include-ignored`.
#[test]
#[ignore = "2M accesses over a 2 Mi-line directory; run in release"]
fn llc_geometry_matches_stamp_reference() {
    agree(128 << 20, 16, Some((8, 4)), 0x2015, 2_000_000);
}
