//! `physical-rw`: the bit-accurate stripe path — a 1 MiB direct-mapped
//! `PhysicalCache` (8 stripes per line, SECDED p-ECC, Gaussian shift
//! faults) driven by a strided walk over 2048 lines, one write per three
//! accesses on average. Every read is checked against the data written.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use super::{end_to_end, ns_per, timed_reps, timed_setup, timed_warm, Ctx, Rep};
use crate::replay::{outcome_code, RecordingFaults};
use crate::report::Report;
use crate::stats::Digest;
use rtm_mem::cache::AccessKind;
use rtm_mem::physical::PhysicalCache;
use rtm_model::DeviceParams;
use rtm_pecc::layout::ProtectionKind;
use rtm_track::bit::Bit;
use rtm_track::fault::{FaultModel, GaussianFaultModel};
use rtm_util::rng::{derive_seed, SmallRng64};

const CAPACITY: u64 = 1 << 20;
const BITS_PER_LINE: usize = 8;
/// Lines the walk covers (a 128 KiB window: 32 stripe groups).
const LINES: u64 = 2048;
/// Lines between consecutive accesses: odd, so the walk visits every
/// line, and not a multiple of the 64-line group, so consecutive
/// accesses land in different groups and heads keep moving.
const STRIDE: u64 = 7;
/// Lines per stripe group (64-domain stripes, direct-mapped).
const GROUP_LINES: usize = 64;

/// Accesses per rep: ~1.8 s on the reference host.
const ACCESSES: u64 = 1_000_000;
const QUICK_ACCESSES: u64 = 20_000;

/// One access of the walk; `data` is the line a write stores.
#[derive(Debug, Clone, Copy)]
struct Op {
    line: u64,
    data: Option<[Bit; BITS_PER_LINE]>,
}

fn walk(ctx: &Ctx) -> Vec<Op> {
    let mut rng = SmallRng64::new(ctx.seed);
    let start = rng.next_below(LINES);
    let n = if ctx.quick { QUICK_ACCESSES } else { ACCESSES };
    (0..n)
        .map(|i| {
            let data = (rng.next_below(3) == 0).then(|| {
                let byte = rng.next_u64();
                std::array::from_fn(|b| Bit::from((byte >> b) & 1 == 1))
            });
            Op {
                line: (start + i * STRIDE) % LINES,
                data,
            }
        })
        .collect()
}

fn fault_model(ctx: &Ctx) -> GaussianFaultModel {
    GaussianFaultModel::new(&DeviceParams::table1(), derive_seed(ctx.seed, 1))
}

fn cache(faults: Box<dyn FaultModel>) -> PhysicalCache {
    PhysicalCache::new(CAPACITY, 1, ProtectionKind::SECDED, BITS_PER_LINE, faults)
}

/// Replays the walk, keeping what every line should hold. A read that
/// raised no DUE must return the last data written (fabrication zeros
/// before any write); a group that raised a DUE is not checked again.
struct Walker {
    expected: Vec<[Bit; BITS_PER_LINE]>,
    tainted: Vec<bool>,
    corrupt_reads: u64,
}

impl Walker {
    fn new() -> Self {
        Self {
            expected: vec![[Bit::Zero; BITS_PER_LINE]; LINES as usize],
            tainted: vec![false; LINES as usize / GROUP_LINES],
            corrupt_reads: 0,
        }
    }

    fn step(&mut self, cache: &mut PhysicalCache, op: &Op) {
        let line = op.line as usize;
        let group = line / GROUP_LINES;
        let addr = op.line * 64;
        let due = match &op.data {
            Some(bits) => {
                self.expected[line] = *bits;
                cache.access(addr, AccessKind::Write, Some(&bits[..])).0.due
            }
            None => {
                let (r, data) = cache.access(addr, AccessKind::Read, None);
                let data = data.expect("reads return data");
                if !r.due && !self.tainted[group] && data[..] != self.expected[line][..] {
                    self.corrupt_reads += 1;
                }
                r.due
            }
        };
        self.tainted[group] |= due;
    }
}

/// Runs the whole walk on a fresh cache over `faults`; returns the cache
/// and the number of corrupt reads.
fn run_walk(ops: &[Op], faults: Box<dyn FaultModel>) -> (PhysicalCache, u64) {
    let mut c = cache(faults);
    let mut w = Walker::new();
    for op in ops {
        w.step(&mut c, op);
    }
    (c, w.corrupt_reads)
}

fn digest(cache: &PhysicalCache, corrupt_reads: u64) -> u64 {
    let mut d = Digest::default();
    for v in [
        cache.shift_steps(),
        cache.dues(),
        corrupt_reads,
        cache.materialised_groups() as u64,
        cache.pristine_reads(),
    ] {
        d.add(v);
    }
    d.value()
}

fn record_model(report: &mut Report, cache: &PhysicalCache, corrupt_reads: u64) {
    report.digest = digest(cache, corrupt_reads);
    report.model = vec![
        ("shift_steps", cache.shift_steps() as f64),
        ("dues", cache.dues() as f64),
        ("corrupt_reads", corrupt_reads as f64),
    ];
    report.checks.check(
        "every clean read returns the data written",
        corrupt_reads == 0,
    );
}

/// End-to-end run. Set-up generates the walk and builds the cache.
pub fn measure(ctx: &Ctx, report: &mut Report) {
    let (setup, ops) = timed_setup(|| {
        let ops = walk(ctx);
        std::hint::black_box(cache(Box::new(fault_model(ctx))));
        ops
    });
    let mut last = None;
    let reps = timed_reps(ctx.seconds, || {
        let (c, corrupt) = run_walk(&ops, Box::new(fault_model(ctx)));
        let rep = Rep {
            ops: ops.len() as u64,
            digest: digest(&c, corrupt),
        };
        last = Some((c, corrupt));
        rep
    });
    end_to_end(report, setup, &reps);
    let (c, corrupt) = last.expect("at least one rep");
    record_model(report, &c, corrupt);
}

/// Per-layer run: plain reps; one with every access timed at the
/// `PhysicalCache` boundary and the fault model recording its samples;
/// the samples replayed alone on a fresh, identically seeded model.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let ops = walk(ctx);
    let (plain_s, plain_digest) = timed_warm(|| {
        let (c, corrupt) = run_walk(&ops, Box::new(fault_model(ctx)));
        digest(&c, corrupt)
    });

    let log = Rc::new(RefCell::new(Vec::new()));
    let mut c = cache(Box::new(RecordingFaults::new(
        fault_model(ctx),
        log.clone(),
    )));
    let mut w = Walker::new();
    let (mut read_s, mut write_s, mut writes) = (0.0, 0.0, 0u64);
    let run = Instant::now();
    for op in &ops {
        let start = Instant::now();
        w.step(&mut c, op);
        let s = start.elapsed().as_secs_f64();
        if op.data.is_some() {
            write_s += s;
            writes += 1;
        } else {
            read_s += s;
        }
    }
    let run_s = run.elapsed().as_secs_f64();
    report.checks.check(
        "recording the fault model leaves the run unchanged",
        digest(&c, w.corrupt_reads) == plain_digest,
    );

    let log = log.borrow();
    let mut model = fault_model(ctx);
    let start = Instant::now();
    let mut mismatched = 0u64;
    for &(d, code) in log.iter() {
        mismatched += u64::from(outcome_code(model.sample(u32::from(d))) != code);
    }
    let fault_s = start.elapsed().as_secs_f64();
    report
        .checks
        .check("fault replay draws every recorded outcome", mismatched == 0);

    let accesses = ops.len() as u64;
    report.set("stripe.read_ns", ns_per(read_s, accesses - writes));
    report.set("stripe.write_ns", ns_per(write_s, writes));
    report.set(
        "stripe.fault_ns_per_sample",
        ns_per(fault_s, log.len() as u64),
    );
    report.set(
        "stripe.self_ns_per_access",
        ns_per(read_s + write_s - fault_s, accesses),
    );
    report.set("stripe.shift_steps", c.shift_steps() as f64);
    report.set("stripe.dues", c.dues() as f64);
    report.set("stripe.materialised_groups", c.materialised_groups() as f64);
    report.set("traced.overhead_ratio", run_s / plain_s);
    record_model(report, &c, w.corrupt_reads);
}
