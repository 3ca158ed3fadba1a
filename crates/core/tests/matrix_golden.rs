//! Golden digests of the scheme × fault-model matrix: an FNV-1a digest
//! of every field of every `MatrixCell` (f64s by bits, `cell_overhead`'s
//! `None` told apart from every `Some`) over the full 7 × 3 grid at
//! `MatrixSettings::quick()`, under each sampling engine, at one and at
//! eight workers. A host-time optimisation of the matrix, the hierarchy,
//! the LLC or the shift controller must leave every digest untouched.

use rtm_core::experiments::matrix::{MatrixCell, MatrixSettings, SchemeFaultMatrix};
use rtm_model::analytic::Engine;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn add(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// Every field, by exhaustive destructuring: a field added to the
    /// cell fails to compile here until it is digested too.
    fn cell(&mut self, c: &MatrixCell) {
        let MatrixCell {
            scheme,
            fault_model,
            sdc_mttf_s,
            due_mttf_s,
            corrections_per_s,
            detect_energy_pj,
            cell_overhead,
            sampled_shifts,
            observed_errors,
            cycles,
        } = c;
        self.bytes(scheme.name().as_bytes());
        self.bytes(fault_model.name().as_bytes());
        for v in [
            *sdc_mttf_s,
            *due_mttf_s,
            *corrections_per_s,
            *detect_energy_pj,
        ] {
            self.add_f64(v);
        }
        match cell_overhead {
            None => self.add(0),
            Some(o) => {
                self.add(1);
                self.add_f64(*o);
            }
        }
        for v in [*sampled_shifts, *observed_errors, *cycles] {
            self.add(v);
        }
    }
}

fn check(engine: Engine, want: u64) {
    let settings = MatrixSettings {
        engine,
        ..MatrixSettings::quick()
    };
    for threads in [1, 8] {
        let m = SchemeFaultMatrix::run_with_threads(&settings, threads);
        assert_eq!(m.cells.len(), 7 * 3);
        let mut h = Fnv(FNV_OFFSET);
        for c in &m.cells {
            h.cell(c);
        }
        let got = h.0;
        assert_eq!(got, want, "engine {engine}, {threads} threads: {got:#018x}");
    }
}

#[test]
fn analytic_matrix_is_pinned() {
    check(Engine::Analytic, 0x1029_e7b6_dacd_b283);
}

#[test]
fn monte_carlo_matrix_is_pinned() {
    check(Engine::MonteCarlo, 0x2295_61b1_b6e6_bc2b);
}
