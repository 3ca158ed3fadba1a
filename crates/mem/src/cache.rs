//! Generic set-associative LRU cache bookkeeping.

use rtm_util::div::Divisor;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Outcome of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present. Carries its way index.
    Hit {
        /// Way within the set where the line was found.
        way: u32,
    },
    /// The line was absent and has been allocated. Carries the way it
    /// landed in and, if a dirty line was displaced, that victim's
    /// address.
    Miss {
        /// Way the new line was installed into.
        way: u32,
        /// Dirty victim written back, if any.
        writeback: Option<u64>,
    },
}

impl AccessResult {
    /// True for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit { .. })
    }

    /// The way touched by this access.
    pub fn way(&self) -> u32 {
        match self {
            AccessResult::Hit { way } | AccessResult::Miss { way, .. } => *way,
        }
    }
}

/// Where an access to a line lands in its set: the way holding the line
/// (a hit), else the way a miss fills. [`Cache::way_at`] finds it
/// without changing anything, and [`Cache::access_way`] applies an
/// access there; it stays valid until the set is next accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way {
    index: u8,
    hit: bool,
}

impl Way {
    /// The way within the set.
    pub fn index(self) -> u32 {
        u32::from(self.index)
    }

    /// Whether the line is present in this way.
    pub fn is_hit(self) -> bool {
        self.hit
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// A line's state byte: the dirty bit over the line's recency rank in
/// its set (1 = most recent, `ways` = least recent, 0 = invalid).
const DIRTY: u8 = 0x80;
const RANK: u8 = 0x7f;

/// The fewest `u32` words a tag block holds: 32.5 MiB, past glibc's
/// 32 MiB cap on its dynamic mmap threshold (see [`Cache`]'s `tags`).
/// The cap is in bytes, so a block of `u64`s holds half as many words.
const MIN_TAG_WORDS: usize = (32 << 20) / 4 + 128 * 1024;

/// The tag a wide line stores: its set-local tag does not fit below
/// this value, and the full tag sits in [`Cache`]'s `wide` instead.
const WIDE: u32 = u32::MAX;

/// Bank-major storage permutation (see [`Cache::with_bank_layout`]).
#[derive(Debug, Clone, Copy)]
struct BankLayout {
    banks: Divisor,
    group_sets: Divisor,
    groups_per_bank: u64,
}

/// A set-associative write-back, write-allocate cache with exact LRU
/// replacement.
///
/// Line state is two parallel arrays: a `u32` tag and one state byte
/// per line. A line's tag is set-local: its line address (`addr >>
/// log2(line bytes)`) divided by the set count, which is a shift for a
/// power-of-two set count. Within a set it identifies the line exactly,
/// and a dirty victim's address is `(tag · sets + set) << log2(line
/// bytes)`. A tag of `u32::MAX` or more does not fit: the line stores
/// the marker `u32::MAX` and keeps its full tag in a `u64` side array,
/// which is allocated when the first such line fills. In the 128 MB
/// LLC's 131,072 sets that takes an address of 2^55 − 2^23 or more; in
/// the 256-set L1, one of 2^46 − 2^14 or more. So every u64 address is
/// exact, and a wide lookup costs one more array read. The state byte
/// packs the dirty bit with the line's recency rank in its set, which
/// is all exact LRU needs: a miss fills the lowest invalid way and only
/// [`clear`](Self::clear) invalidates, so a set's valid ways are always
/// a prefix whose ranks are a permutation of `1..=valid`, and a full
/// set's LRU victim is the way ranked `ways`.
/// Three things follow:
///
/// * **construction is O(1) in touched memory** — both arrays are
///   all-zero, so `vec![0; n]` takes the allocator's zeroed-page path
///   and a 128 MB LLC's 2 Mi-line directory costs microseconds to build
///   instead of a 10 MiB write. Pages fault in only for the sets a run
///   actually touches, which is what lets the per-bank serving workers
///   each own a private cache without paying for the whole directory up
///   front;
/// * **a touched line costs 5 bytes**, not the 17 of a u64 LRU stamp
///   and a flag byte beside a u64 tag;
/// * **probes touch less memory** — a 16-way tag scan reads one 64-byte
///   cache line of tags, and the victim scan 16 bytes.
#[derive(Debug, Clone)]
pub struct Cache {
    /// One set-local tag per line ([`WIDE`] for a wide line), in a block
    /// of at least [`MIN_TAG_WORDS`] words so that it always comes from
    /// fresh zeroed pages. The 128 MB LLC's 8 MiB of tags sit below
    /// glibc's 32 MiB cap on its dynamic mmap threshold: once the
    /// process has freed a directory, an unpadded block would come from
    /// recycled heap memory, which `calloc` must then memset. The
    /// serving benchmarks build per-worker caches in a loop and would
    /// pay that memset on every build, and so would every freshly built
    /// hierarchy's L1s and L2; the pad pages are never touched.
    tags: Vec<u32>,
    /// The full set-local tag of each line whose `tags` entry is
    /// [`WIDE`]. Empty until the first wide line fills; then one word
    /// per line, allocated and padded like `tags`. Read only where
    /// `tags` holds the marker.
    wide: Vec<u64>,
    /// One state byte per line ([`DIRTY`] | rank).
    state: Vec<u8>,
    /// The set count, dividing line addresses.
    sets: Divisor,
    ways: u32,
    line_shift: u32,
    stats: CacheStats,
    /// Optional bank-major relocation of set storage. `None` = sets
    /// stored in index order.
    layout: Option<BankLayout>,
}

impl Cache {
    /// Builds a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless capacity divides evenly into sets of power-of-two
    /// lines, or if `ways` is 0 or above 127 (a line's recency rank
    /// shares its state byte with the dirty bit).
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!((1..=127).contains(&ways), "need 1 to 127 ways, got {ways}");
        let total_lines = capacity_bytes / line_bytes as u64;
        assert!(
            total_lines.is_multiple_of(ways as u64) && total_lines > 0,
            "capacity {capacity_bytes} does not divide into {ways}-way sets"
        );
        let lines = total_lines as usize;
        Self {
            tags: vec![0; lines.max(MIN_TAG_WORDS)],
            wide: Vec::new(),
            state: vec![0; lines],
            sets: Divisor::new(total_lines / ways as u64),
            ways,
            line_shift: line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
            layout: None,
        }
    }

    /// Relocates set storage bank-major (builder style): with groups of
    /// `group_sets` consecutive sets interleaved round-robin over
    /// `banks`, each bank's directory becomes one contiguous run of the
    /// tag and state arrays instead of a 4-set comb strided across
    /// every page.
    ///
    /// This is a pure storage permutation — lookups, LRU, eviction and
    /// every counter are bit-for-bit unchanged (each logical set keeps
    /// its own ways; only *where* they live moves). What changes is
    /// locality: a worker that services one bank faults in and walks
    /// only that bank's slice of the directory, which is what keeps the
    /// per-bank serving path's page-fault footprint proportional to the
    /// banks it owns rather than to the whole LLC.
    ///
    /// No-op when the geometry does not divide evenly (or `banks < 2`).
    pub fn with_bank_layout(mut self, banks: u32, group_sets: u32) -> Self {
        let (banks, group_sets) = (banks as u64, group_sets as u64);
        let sets = self.sets.get();
        if banks >= 2 && group_sets >= 1 && sets.is_multiple_of(group_sets) {
            let groups = sets / group_sets;
            if groups.is_multiple_of(banks) {
                self.layout = Some(BankLayout {
                    banks: Divisor::new(banks),
                    group_sets: Divisor::new(group_sets),
                    groups_per_bank: groups / banks,
                });
            }
        }
        self
    }

    /// Index of `set`'s first way in the tag and state arrays: the
    /// set's place in storage, bank-major when
    /// [`with_bank_layout`](Self::with_bank_layout) relocated it.
    pub fn set_base(&self, set: u64) -> usize {
        let storage_set = match self.layout {
            None => set,
            Some(l) => {
                let group = l.group_sets.quotient(set);
                let storage_group =
                    l.banks.remainder(group) * l.groups_per_bank + l.banks.quotient(group);
                storage_group * l.group_sets.get() + l.group_sets.remainder(set)
            }
        };
        storage_set as usize * self.ways as usize
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets.get()
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// Counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set index of `addr`.
    pub fn set_of(&self, addr: u64) -> u64 {
        self.sets.remainder(addr >> self.line_shift)
    }

    /// The valid ways of the set at `base`. They are a prefix of the
    /// set: a miss fills the lowest invalid way, and only
    /// [`clear`](Self::clear) invalidates.
    fn valid(&self, base: usize) -> usize {
        let ways = self.ways as usize;
        self.state[base..base + ways]
            .iter()
            .position(|&s| s == 0)
            .unwrap_or(ways)
    }

    /// The set-local tag of `addr`'s line.
    fn tag_of(&self, addr: u64) -> u64 {
        self.sets.quotient(addr >> self.line_shift)
    }

    /// The way of the set at `base` holding the line of set-local tag
    /// `tag`, if any, among its `valid` ways. Only valid ways' tags are
    /// read, so a set no access has filled reads no tag, and a fresh
    /// page of tags is first touched by the write of a fill, not by a
    /// read before it; a wide tag is read only beside its marker.
    fn find(&self, base: usize, valid: usize, tag: u64) -> Option<usize> {
        let tags = &self.tags[base..base + valid];
        match u32::try_from(tag) {
            Ok(t) if t != WIDE => tags.iter().position(|&x| x == t),
            _ if self.wide.is_empty() => None,
            _ => tags
                .iter()
                .zip(&self.wide[base..base + valid])
                .position(|(&x, &w)| x == WIDE && w == tag),
        }
    }

    /// The set-local tag line `i` holds.
    fn tag_at(&self, i: usize) -> u64 {
        match self.tags[i] {
            WIDE => self.wide[i],
            t => u64::from(t),
        }
    }

    /// Stores set-local tag `tag` for line `i`: in `tags` if it fits
    /// below the marker, else as the marker plus the full tag in `wide`,
    /// which the first wide line allocates.
    fn set_tag(&mut self, i: usize, tag: u64) {
        match u32::try_from(tag) {
            Ok(t) if t != WIDE => self.tags[i] = t,
            _ => {
                if self.wide.is_empty() {
                    self.wide = vec![0; self.state.len().max(MIN_TAG_WORDS / 2)];
                }
                self.tags[i] = WIDE;
                self.wide[i] = tag;
            }
        }
    }

    /// The way a miss on the set at `base`, with `valid` valid ways,
    /// fills: the lowest invalid way, else the least recent.
    fn victim(&self, base: usize, valid: usize) -> usize {
        if valid < self.ways as usize {
            return valid;
        }
        let lru = self.ways as u8;
        self.state[base..base + self.ways as usize]
            .iter()
            .position(|&s| s & RANK == lru)
            .expect("a full set has a least-recent way")
    }

    /// Makes way `w` of the set at `base` the most recent, keeping its
    /// dirty bit: every valid line more recent than it (every valid
    /// line, if it was invalid) ages by one rank.
    fn touch(&mut self, base: usize, w: usize) {
        let set = &mut self.state[base..base + self.ways as usize];
        let w_rank = match set[w] & RANK {
            0 => u8::MAX,
            rank => rank,
        };
        for s in set.iter_mut() {
            let rank = *s & RANK;
            if rank != 0 && rank < w_rank {
                *s += 1;
            }
        }
        set[w] = (set[w] & DIRTY) | 1;
    }

    /// Looks up `addr` without touching LRU state or counters.
    /// Returns the way holding the line, if present.
    pub fn probe(&self, addr: u64) -> Option<u32> {
        let base = self.set_base(self.set_of(addr));
        self.find(base, self.valid(base), self.tag_of(addr))
            .map(|w| w as u32)
    }

    /// The way a miss on `set` would allocate into right now (invalid
    /// way first, else LRU victim), without changing any state. This is
    /// exactly the way [`Cache::access`] would pick if called next.
    pub fn victim_way(&self, set: u64) -> u32 {
        let base = self.set_base(set);
        self.victim(base, self.valid(base)) as u32
    }

    /// The way [`Cache::access`] would touch for `addr` if called next,
    /// given the [`set_base`](Self::set_base) of `addr`'s set: the way
    /// holding its line, else the miss's victim. Non-mutating, and free
    /// of divisions for a power-of-two set count: it is
    /// [`probe`](Self::probe) falling back to
    /// [`victim_way`](Self::victim_way) for a caller that resolved the
    /// set once and asks many times.
    #[inline]
    pub fn way_at(&self, base: usize, addr: u64) -> Way {
        let valid = self.valid(base);
        match self.find(base, valid, self.tag_of(addr)) {
            Some(w) => Way {
                index: w as u8,
                hit: true,
            },
            None => Way {
                index: self.victim(base, valid) as u8,
                hit: false,
            },
        }
    }

    /// Applies an access to `addr` on `way` of the set at `base`, which
    /// [`way_at`](Self::way_at) found with no access to the set since:
    /// a hit refreshes the line, a miss fills the way (write-allocate)
    /// and reports a dirty victim. Returns what happened.
    #[inline]
    pub fn access_way(
        &mut self,
        base: usize,
        addr: u64,
        way: Way,
        kind: AccessKind,
    ) -> AccessResult {
        let dirty = match kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                0
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                DIRTY
            }
        };
        let w = way.index as usize;
        let i = base + w;
        if way.hit {
            self.touch(base, w);
            self.state[i] |= dirty;
            self.stats.hits += 1;
            return AccessResult::Hit { way: way.index() };
        }
        self.stats.misses += 1;
        let line = addr >> self.line_shift;
        let writeback = if self.state[i] & DIRTY != 0 {
            self.stats.writebacks += 1;
            let victim = self.tag_at(i) * self.sets.get() + self.sets.remainder(line);
            Some(victim << self.line_shift)
        } else {
            None
        };
        self.set_tag(i, self.sets.quotient(line));
        self.touch(base, w);
        self.state[i] = dirty | 1;
        AccessResult::Miss {
            way: way.index(),
            writeback,
        }
    }

    /// Looks up `addr`, allocating on miss (write-allocate) and
    /// evicting LRU: the way [`way_at`](Self::way_at) finds, accessed
    /// through [`access_way`](Self::access_way). Returns what happened.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let base = self.set_base(self.set_of(addr));
        self.access_way(base, addr, self.way_at(base, addr), kind)
    }

    /// Invalidates everything (e.g. between workload runs).
    pub fn clear(&mut self) {
        self.state.fill(0);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(512, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.sets(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small();
        assert!(!c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x1000, AccessKind::Read).is_hit());
        assert!(c.access(0x103F, AccessKind::Read).is_hit(), "same line");
        assert!(!c.access(0x1040, AccessKind::Read).is_hit(), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 * 64).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        c.access(d, AccessKind::Read); // evicts b
        assert!(c.access(a, AccessKind::Read).is_hit());
        assert!(!c.access(b, AccessKind::Read).is_hit());
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, AccessKind::Write);
        c.access(b, AccessKind::Read);
        match c.access(d, AccessKind::Read) {
            AccessResult::Miss {
                writeback: Some(wb),
                ..
            } => assert_eq!(wb, a),
            other => panic!("expected writeback of {a:#x}, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        for i in 0..3u64 {
            let r = c.access(i * 4 * 64, AccessKind::Read);
            if let AccessResult::Miss { writeback, .. } = r {
                assert_eq!(writeback, None);
            }
        }
    }

    #[test]
    fn stats_balance() {
        let mut c = small();
        for i in 0..1000u64 {
            c.access((i * 67) % 4096, AccessKind::Read);
        }
        let s = *c.stats();
        assert_eq!(s.hits + s.misses, 1000);
        assert_eq!(s.accesses(), 1000);
        assert!(s.miss_rate() > 0.0 && s.miss_rate() <= 1.0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        // Force eviction of line 0's set with two more lines.
        c.access(4 * 64, AccessKind::Read);
        match c.access(8 * 64, AccessKind::Read) {
            AccessResult::Miss { writeback, .. } => assert_eq!(writeback, Some(0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clear_resets() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.clear();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.access(0, AccessKind::Read).is_hit());
    }

    #[test]
    fn probe_predicts_access_without_perturbing() {
        let mut c = small();
        c.access(0x1000, AccessKind::Read);
        assert_eq!(c.probe(0x1000), Some(0));
        assert_eq!(c.probe(0x2000), None);
        let before = *c.stats();
        let _ = c.probe(0x1000);
        assert_eq!(*c.stats(), before, "probe must not count");
        // Probe does not refresh LRU: fill the set, then check the
        // victim prediction matches what access actually evicts.
        c.access(4 * 64, AccessKind::Read); // second line of set 0
        let set = c.set_of(0x1000);
        let predicted = c.victim_way(set);
        match c.access(0x1000 + 16 * 4 * 64, AccessKind::Read) {
            AccessResult::Miss { way, .. } => assert_eq!(way, predicted),
            AccessResult::Hit { .. } => panic!("expected a miss"),
        }
    }

    #[test]
    fn victim_way_matches_lru_choice() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        c.access(a, AccessKind::Read); // way 0
        c.access(b, AccessKind::Read); // way 1
        c.access(a, AccessKind::Read); // a is MRU, b is LRU
        assert_eq!(c.victim_way(c.set_of(a)), 1);
        match c.access(8 * 64, AccessKind::Read) {
            AccessResult::Miss { way, .. } => assert_eq!(way, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bank_layout_is_a_pure_storage_permutation() {
        // 64 sets, 2 ways; 4-set groups over 4 banks. Every access must
        // report the identical result with and without the relocation.
        let mut plain = Cache::new(64 * 2 * 64, 2, 64);
        let mut banked = Cache::new(64 * 2 * 64, 2, 64).with_bank_layout(4, 4);
        let mut x = 0x2015_u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (1 << 20);
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            assert_eq!(plain.probe(addr), banked.probe(addr));
            assert_eq!(
                plain.victim_way(plain.set_of(addr)),
                banked.victim_way(banked.set_of(addr))
            );
            assert_eq!(
                plain.access(addr, kind),
                banked.access(addr, kind),
                "access {i}"
            );
        }
        assert_eq!(plain.stats(), banked.stats());
    }

    #[test]
    fn bank_layout_rejects_uneven_geometry() {
        // 6 groups over 4 banks does not divide: stays identity (and
        // still behaves) rather than permuting unevenly.
        let mut c = Cache::new(24 * 2 * 64, 2, 64).with_bank_layout(4, 4);
        assert!(!c.access(0, AccessKind::Read).is_hit());
        assert!(c.access(0, AccessKind::Read).is_hit());
    }

    #[test]
    fn large_llc_dimensions() {
        // The paper's 128 MB LLC: 2 Mi lines, 16-way, 128 Ki sets.
        let c = Cache::new(128 << 20, 16, 64);
        assert_eq!(c.sets(), 131_072);
    }

    #[test]
    fn wide_tags_allocate_only_past_the_narrow_range() {
        // The LLC's directory: 131,072 sets of 64-byte lines, so a
        // set-local tag is `addr >> 23`, and reaches the marker value
        // u32::MAX at 2^55 − 2^23.
        let mut c = Cache::new(128 << 20, 16, 64).with_bank_layout(8, 4);
        let first_wide = u64::from(WIDE) << 23;
        let mut x = 0x2015_u64;
        for i in 0..100_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            c.access(x % first_wide, kind);
        }
        let last_narrow = first_wide - 64;
        c.access(last_narrow, AccessKind::Write);
        assert!(c.access(last_narrow, AccessKind::Read).is_hit());
        assert!(c.wide.is_empty(), "a narrow address allocated wide tags");
        assert!(!c.access(first_wide, AccessKind::Write).is_hit());
        assert_eq!(c.wide.len(), MIN_TAG_WORDS / 2, "padded like the tags");
        assert!(c.access(first_wide, AccessKind::Read).is_hit());
        assert!(c.access(last_narrow, AccessKind::Read).is_hit());
    }

    #[test]
    fn rank_byte_allows_127_ways() {
        let mut c = Cache::new(127 * 64, 127, 64);
        for w in 0..127u64 {
            c.access(w * 64, AccessKind::Write);
        }
        // The set is full and line 0 is least recent: it goes next.
        assert_eq!(c.victim_way(0), 0);
        assert_eq!(
            c.access(127 * 64, AccessKind::Read),
            AccessResult::Miss {
                way: 0,
                writeback: Some(0)
            }
        );
    }

    #[test]
    #[should_panic(expected = "need 1 to 127 ways, got 128")]
    fn more_than_127_ways_rejected() {
        let _ = Cache::new(128 * 64, 128, 64);
    }

    #[test]
    #[should_panic]
    fn bad_line_size_rejected() {
        let _ = Cache::new(1024, 2, 48);
    }
}
