//! Golden digests of the bit-accurate stripe path: an FNV-1a digest of
//! every `PhysicalResponse`, every read-back bit, every fault sample
//! and the final counters of a seeded walk under `GaussianFaultModel`,
//! for every protection kind a `PhysicalCache` accepts, plus the raw
//! Gaussian outcome streams. Any change to which shifts slip, which
//! slips are corrected or which bits a read senses changes a digest; a
//! pure host-time optimisation of the stripe check or of fault sampling
//! must leave every one of them untouched.

use std::cell::RefCell;
use std::rc::Rc;

use rtm_mem::cache::AccessKind;
use rtm_mem::physical::PhysicalCache;
use rtm_model::shift::{ShiftOutcome, ShiftSimulator};
use rtm_model::DeviceParams;
use rtm_pecc::layout::ProtectionKind;
use rtm_track::bit::Bit;
use rtm_track::fault::{FaultModel, GaussianFaultModel};
use rtm_util::rng::SmallRng64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn add_outcome(&mut self, outcome: ShiftOutcome) {
        match outcome {
            ShiftOutcome::Pinned { offset } => {
                self.add(0);
                self.add(offset as i64 as u64);
            }
            ShiftOutcome::StopInMiddle { lower, frac } => {
                self.add(1);
                self.add(lower as i64 as u64);
                self.add(frac.to_bits());
            }
        }
    }
}

/// Folds every sample the cache draws, distance and outcome, into a
/// shared digest. A corrected slip leaves the responses and the data
/// unchanged; its corrective back-shift shows here.
struct Recording {
    inner: GaussianFaultModel,
    digest: Rc<RefCell<Fnv>>,
}

impl FaultModel for Recording {
    fn sample(&mut self, distance: u32) -> ShiftOutcome {
        let out = self.inner.sample(distance);
        let mut h = self.digest.borrow_mut();
        h.add(u64::from(distance));
        h.add_outcome(out);
        out
    }
}

/// Accesses per walk.
const ACCESSES: u64 = 50_000;
/// Lines in the cache: 16 direct-mapped groups of 64 lines.
const LINES: u64 = 1024;
const BITS_PER_LINE: usize = 8;

/// Random-line walk over a `LINES`-line direct-mapped cache, a write of
/// random data with probability 1/3; returns the digest.
fn walk_digest(kind: ProtectionKind) -> u64 {
    let samples = Rc::new(RefCell::new(Fnv::new()));
    let faults = Recording {
        inner: GaussianFaultModel::new(&DeviceParams::table1(), 2015),
        digest: samples.clone(),
    };
    let mut cache = PhysicalCache::new(LINES * 64, 1, kind, BITS_PER_LINE, Box::new(faults));
    let mut rng = SmallRng64::new(7);
    let mut h = Fnv::new();
    for _ in 0..ACCESSES {
        let addr = rng.next_below(LINES) * 64;
        let (r, read_back) = if rng.next_below(3) == 0 {
            let byte = rng.next_u64();
            let bits: Vec<Bit> = (0..BITS_PER_LINE)
                .map(|b| Bit::from((byte >> b) & 1 == 1))
                .collect();
            cache.access(addr, AccessKind::Write, Some(&bits))
        } else {
            cache.access(addr, AccessKind::Read, None)
        };
        h.add(u64::from(r.hit));
        h.add(r.shift_steps);
        h.add(u64::from(r.due));
        match read_back {
            None => h.add(u64::MAX),
            Some(bits) => {
                for b in bits {
                    h.add(b as u64);
                }
            }
        }
    }
    h.add(cache.shift_steps());
    h.add(cache.dues());
    h.add(cache.pristine_reads());
    h.add(samples.borrow().0);
    h.0
}

/// (kind, digest) for a 50k-access walk under Gaussian faults, seed
/// 2015. No walk draws a ±2 slip, so SECDED and the two marker kinds
/// correct the same ±1 slips with the same back-shifts and share a
/// digest; p-ECC-O differs by its single-step seeks.
const WALKS: [(ProtectionKind, u64); 6] = [
    (ProtectionKind::None, 0x584a243beda9d4fc),
    (ProtectionKind::Sed, 0x62581f4dc9dc1596),
    (ProtectionKind::SECDED, 0xc76188a87d33b67b),
    (ProtectionKind::SECDED_O, 0xbd9f99f14e2ccc07),
    (ProtectionKind::CHEE_KIAH, 0xc76188a87d33b67b),
    (ProtectionKind::VAHID_2DI, 0xc76188a87d33b67b),
];

#[test]
fn physical_walks_match_golden_digests() {
    let mismatched: Vec<String> = WALKS
        .iter()
        .filter_map(|&(kind, want)| {
            let got = walk_digest(kind);
            (got != want).then(|| format!("{kind}: {got:#018x}"))
        })
        .collect();
    assert!(mismatched.is_empty(), "digests moved: {mismatched:?}");
}

/// Distances the raw streams cover: every tabulated one and one beyond.
const DISTANCES: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 9];
/// Draws per distance.
const DRAWS: u64 = 100_000;

/// Digest of `GaussianFaultModel::sample` (the STS path the stripes
/// sample) and of `ShiftSimulator::shift_raw` (the raw path, which
/// keeps stop-in-middle fractions), each drawing `DRAWS` outcomes per
/// distance from a fresh seed-2015 generator.
fn outcome_stream_digests() -> (u64, u64) {
    let params = DeviceParams::table1();
    let (mut sts, mut raw) = (Fnv::new(), Fnv::new());
    for d in DISTANCES {
        let mut model = GaussianFaultModel::new(&params, 2015);
        let mut sim = ShiftSimulator::new(params, 2015);
        for _ in 0..DRAWS {
            sts.add_outcome(model.sample(d));
            raw.add_outcome(sim.shift_raw(d));
        }
    }
    (sts.0, raw.0)
}

#[test]
fn gaussian_outcome_streams_match_golden_digests() {
    let (sts, raw) = outcome_stream_digests();
    assert_eq!(
        sts, 0x960d97fb3a41e8a5,
        "GaussianFaultModel stream {sts:#018x}"
    );
    assert_eq!(
        raw, 0xf27b9f4fd9291225,
        "ShiftSimulator raw stream {raw:#018x}"
    );
}
