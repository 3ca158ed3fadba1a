//! The compact `Cache` (one state byte per line: dirty bit plus recency
//! rank) against a stamp-based LRU reference: a u64 stamp per line from
//! one tick per access, LRU = the smallest stamp, an invalid way first.
//! Both must agree access by access — `probe`, `victim_way`, the way,
//! hit and writeback address of every `access`, and the counters — on
//! random reads and writes, with and without a bank-major layout, and
//! across a `clear()`.

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
/// clearing both halfway, and asserts agreement at every step.
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
    let mut rng = SmallRng64::new(seed);
    let label = format!("{ways} ways, layout {layout:?}");
    for i in 0..n {
        if i == n / 2 {
            fast.clear();
            reference.clear();
            assert_eq!(*fast.stats(), reference.stats, "{label}: clear");
        }
        // Half the accesses stay inside a hot range that fits the cache,
        // so recency order matters and not only the miss path.
        let line = if rng.next_below(2) == 0 {
            rng.next_below(lines / 2)
        } else {
            rng.next_below(3 * lines)
        };
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
        assert_eq!(
            fast.access(addr, kind),
            reference.access(addr, kind),
            "{label}: access {i}"
        );
    }
    assert_eq!(*fast.stats(), reference.stats, "{label}: stats");
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
