//! The early exit of Gaussian fault sampling is exact. Draw for draw,
//! `GaussianFaultModel::sample` returns `apply_sts(settle(sample_error))`
//! and `GaussianSampler::sample_raw` returns `settle(sample_error)` on a
//! same-seeded generator, consuming the same draws; and at every
//! tabulated bound, one ulp either side and at the extreme angles, the
//! shortcut agrees with the formula without any generator at all.

use rtm_model::rates::MAX_TABULATED_DISTANCE;
use rtm_model::shift::{GaussianSampler, NoiseModel, ShiftOutcome};
use rtm_model::DeviceParams;
use rtm_track::fault::{FaultModel, GaussianFaultModel};
use rtm_util::rng::{box_muller, SmallRng64};

/// Every tabulated distance and one beyond the table.
const DISTANCES: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 9];

/// Runs `draws` draws per distance for `seed` through both shortcut
/// paths and through the formula they replace.
fn assert_draw_for_draw(seed: u64, draws: u64) {
    let params = DeviceParams::table1();
    let noise = NoiseModel::from_params(&params);
    let sampler = GaussianSampler::new(noise);
    for d in DISTANCES {
        let mut model = GaussianFaultModel::new(&params, seed);
        let mut sts_ref = SmallRng64::new(seed);
        let (mut raw, mut raw_ref) = (SmallRng64::new(seed), SmallRng64::new(seed));
        for i in 0..draws {
            let want = noise.apply_sts(noise.settle(noise.sample_error(d, &mut sts_ref)));
            assert_eq!(model.sample(d), want, "sts seed {seed} d {d} draw {i}");
            let want = noise.settle(noise.sample_error(d, &mut raw_ref));
            assert_eq!(
                sampler.sample_raw(d, &mut raw),
                want,
                "raw seed {seed} d {d} draw {i}"
            );
        }
        assert_eq!(raw, raw_ref, "d {d}: the same draws were consumed");
    }
}

#[test]
fn shortcut_matches_the_formula_draw_for_draw() {
    // 3 seeds × 8 distances × 50k = 1.2M draws on each path.
    for seed in [2015, 7, 0x5EED_CAFE] {
        assert_draw_for_draw(seed, 50_000);
    }
}

/// The release-mode run of the engine-parity CI job: 10M draws per
/// distance on each path.
#[test]
#[ignore = "10M draws per distance; run with --release -- --include-ignored"]
fn shortcut_matches_the_formula_over_ten_million_draws_per_distance() {
    assert_draw_for_draw(2015, 10_000_000);
}

/// Angles at which `cos(2πu2)` is 1, −1 and about 0.
const ANGLES: [f64; 4] = [0.0, 0.5, 0.25, 0.75];

#[test]
fn bounds_are_exact_at_the_boundary() {
    // Nominal drive, and an under- and over-driven device whose drift
    // eats into (or, under-driven at long distances, all of) the window.
    for drive in [2.0, 1.3, 2.6] {
        let noise = NoiseModel::from_params(&DeviceParams::table1().with_drive_ratio(drive));
        let sampler = GaussianSampler::new(noise);
        let reach = noise.capture_half_window.min(0.5);
        for d in 1..=MAX_TABULATED_DISTANCE {
            let bound = sampler.clear_bound(d).expect("tabulated distance");
            if bound.is_infinite() {
                // The drift alone leaves the window: never exit early.
                assert!(noise.mean_for(d).abs() >= reach * (1.0 - 1e-6));
                continue;
            }
            assert!(bound > 0.0 && bound < 1.0, "drive {drive} d {d}: {bound}");
            let error = |u1a: f64, u2a: f64, u1b: f64, u2b: f64| {
                noise.mean_for(d)
                    + noise.sigma_fixed * box_muller(u1a, u2a)
                    + noise.sigma_walk * (d as f64).sqrt() * box_muller(u1b, u2b)
            };
            let near = [bound, bound.next_down(), bound.next_up()];
            for u1a in near {
                for u1b in near {
                    for u2a in ANGLES {
                        for u2b in ANGLES {
                            assert_eq!(
                                sampler.settle_uniforms(d, (u1a, u2a), (u1b, u2b)),
                                noise.settle(error(u1a, u2a, u1b, u2b)),
                                "drive {drive} d {d} u1 ({u1a}, {u1b}) u2 ({u2a}, {u2b})"
                            );
                        }
                    }
                }
            }
            // The bound is tight: at it, both normals at their extreme
            // push the error to the edge of the reach.
            let worst = error(bound, 0.0, bound, 0.0)
                .abs()
                .max(error(bound, 0.5, bound, 0.5).abs());
            assert!(
                worst < reach && worst > reach * (1.0 - 1e-6),
                "drive {drive} d {d}: worst error {worst} vs reach {reach}"
            );
            assert_eq!(
                sampler.settle_uniforms(d, (bound, 0.0), (bound, 0.0)),
                ShiftOutcome::Pinned { offset: 0 }
            );
        }
        assert_eq!(sampler.clear_bound(0), None);
        assert_eq!(sampler.clear_bound(MAX_TABULATED_DISTANCE + 1), None);
    }
}
