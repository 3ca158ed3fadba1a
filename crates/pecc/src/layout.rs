//! Domain/port/guard budgets for each protection scheme — the design
//! cost analysis of Section 4.2.3 and the overhead-region variant of
//! Section 4.2.4.
//!
//! For a segment length `Lseg` and correction strength `m`:
//!
//! | scheme | extra domains | guard domains | extra read ports | extra write ports | max shift |
//! |---|---|---|---|---|---|
//! | SED | `Lseg + 1` | 0 | 1 | 0 | `Lseg − 1` |
//! | p-ECC(m) | `Lseg + 3m + 2` | `2m` | `m + 1` | 0 | `Lseg − 1` |
//! | p-ECC-O(m) | `2·2(m+1)` (reuses overhead) | `2m` | `2(m + 1)` | 2 | 1 |
//!
//! The p-ECC(m) code region must keep `m + 1` taps over valid code bits
//! at every head position `s ∈ [0, Lseg − 1]` even when walls are off by
//! up to `±(m + 1)`; spanning those extremes takes
//! `(Lseg − 1 + 2(m + 1)) + m = Lseg + 3m + 2` domains — which is the
//! paper's example count of 9 for `Lseg = 4, m = 1` ("9 = 4 + 5").
//! p-ECC-O stores the code in the (already paid-for) overhead regions at
//! both stripe ends instead, shrinking the domain bill at the price of
//! 1-step shift-and-write operation (Section 4.2.4).

use crate::code::{MarkerCode, PeccCode, StripeChecker, Verdict};
use rtm_codes::{CheeKiahCodec, PositionCodec, Vahid2diCodec};
use rtm_track::geometry::StripeGeometry;
use std::fmt;

/// Which protection mechanism a stripe carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionKind {
    /// No p-ECC at all (the baseline).
    None,
    /// Single-step error detection (Fig. 5).
    Sed,
    /// Dedicated-region p-ECC correcting up to `m` steps (Fig. 6,
    /// Section 4.2.3). `m = 1` is SECDED.
    Correcting {
        /// Correction strength in steps.
        m: u32,
    },
    /// Overhead-region p-ECC-O correcting up to `m` steps (Fig. 8).
    OverheadRegion {
        /// Correction strength in steps.
        m: u32,
    },
    /// Multi-look Chee–Kiah–Vardy–Vu–Yaakobi code (arXiv 1701.06874):
    /// `heads` read ports per data port, offset by `delta` domains,
    /// merge their looks to pin a ≤2-step slip against the data itself.
    /// Redundancy lives mostly in ports and read energy, not domains.
    CheeKiah {
        /// Read ports per data port (≥ 2).
        heads: u32,
        /// Domain offset between consecutive looks (≥ 2).
        delta: u32,
    },
    /// Two-deletion/insertion code of Vahid et al. (arXiv 1701.06478):
    /// interleaved Varshamov–Tenengolts syndromes stored in-track,
    /// decoded from one serial stream through the existing data ports.
    Vahid2di,
}

impl ProtectionKind {
    /// The paper's SECDED p-ECC (`m = 1`).
    pub const SECDED: ProtectionKind = ProtectionKind::Correcting { m: 1 };

    /// The paper's SECDED p-ECC-O (`m = 1`).
    pub const SECDED_O: ProtectionKind = ProtectionKind::OverheadRegion { m: 1 };

    /// The default two-look Chee–Kiah configuration (h = 2, δ = 2).
    pub const CHEE_KIAH: ProtectionKind = ProtectionKind::CheeKiah { heads: 2, delta: 2 };

    /// The default Vahid two-deletion/insertion configuration.
    pub const VAHID_2DI: ProtectionKind = ProtectionKind::Vahid2di;

    /// The cyclic code used by this protection, if any. The stream
    /// codecs carry no cyclic pattern — see
    /// [`checker`](Self::checker) for the pattern they do carry.
    pub fn code(&self) -> Option<PeccCode> {
        match self {
            ProtectionKind::None | ProtectionKind::CheeKiah { .. } | ProtectionKind::Vahid2di => {
                None
            }
            ProtectionKind::Sed => Some(PeccCode::sed()),
            ProtectionKind::Correcting { m } | ProtectionKind::OverheadRegion { m } => {
                Some(PeccCode::new(*m))
            }
        }
    }

    /// The in-track tap pattern this protection checks after each
    /// shift, if any: the cyclic square wave for the p-ECC family, the
    /// aperiodic marker for the stream codecs.
    pub fn checker(&self) -> Option<StripeChecker> {
        match self {
            ProtectionKind::None => None,
            ProtectionKind::Sed
            | ProtectionKind::Correcting { .. }
            | ProtectionKind::OverheadRegion { .. } => self.code().map(StripeChecker::Cyclic),
            ProtectionKind::CheeKiah { .. } | ProtectionKind::Vahid2di => {
                Some(StripeChecker::Marker(MarkerCode::new(self.strength())))
            }
        }
    }

    /// Correction strength in steps (0 for none/SED).
    pub fn strength(&self) -> u32 {
        match self {
            ProtectionKind::None | ProtectionKind::Sed => 0,
            ProtectionKind::Correcting { m } | ProtectionKind::OverheadRegion { m } => *m,
            ProtectionKind::CheeKiah { .. } | ProtectionKind::Vahid2di => {
                rtm_codes::cheekiah::STRENGTH
            }
        }
    }

    /// Ideal-channel verdict for a true position offset of `e` steps
    /// under this protection.
    ///
    /// This is the kind-level risk classifier the analytic reliability
    /// and controller paths use: the cyclic family keeps its
    /// period-aliasing behaviour (an offset of a full period classifies
    /// [`Verdict::Clean`] — the SDC floor), while the stream codecs
    /// never alias — anything beyond their strength is a detected DUE.
    pub fn classify_offset(&self, e: i32) -> Verdict {
        match self {
            // Unprotected: every error is silent.
            ProtectionKind::None => Verdict::Clean,
            ProtectionKind::Sed
            | ProtectionKind::Correcting { .. }
            | ProtectionKind::OverheadRegion { .. } => self
                .code()
                .expect("cyclic kinds carry a code")
                .classify_offset(e),
            ProtectionKind::CheeKiah { .. } | ProtectionKind::Vahid2di => {
                let s = self.strength() as i32;
                if e == 0 {
                    Verdict::Clean
                } else if e.abs() <= s {
                    Verdict::Correctable(e)
                } else {
                    Verdict::Uncorrectable
                }
            }
        }
    }
}

impl fmt::Display for ProtectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionKind::None => write!(f, "unprotected"),
            ProtectionKind::Sed => write!(f, "SED p-ECC"),
            ProtectionKind::Correcting { m: 1 } => write!(f, "SECDED p-ECC"),
            ProtectionKind::Correcting { m } => write!(f, "p-ECC(m={m})"),
            ProtectionKind::OverheadRegion { m: 1 } => write!(f, "SECDED p-ECC-O"),
            ProtectionKind::OverheadRegion { m } => write!(f, "p-ECC-O(m={m})"),
            ProtectionKind::CheeKiah { heads, delta } => {
                write!(f, "Chee-Kiah multi-look (h={heads}, d={delta})")
            }
            ProtectionKind::Vahid2di => write!(f, "Vahid 2-DI"),
        }
    }
}

/// Errors constructing a layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// Correction strength must satisfy `m < Lseg − 1` (Section 4.2.3).
    StrengthTooHigh {
        /// Requested strength.
        m: u32,
        /// Segment length of the geometry.
        lseg: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::StrengthTooHigh { m, lseg } => write!(
                f,
                "correction strength {m} requires segment length > {}, got {lseg}",
                m + 1
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// The complete physical budget of a protected stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeccLayout {
    /// Base data geometry.
    pub geometry: StripeGeometry,
    /// Protection scheme.
    pub kind: ProtectionKind,
    /// Domains dedicated to p-ECC code storage.
    pub code_domains: usize,
    /// Guard domains protecting data from over-shift loss.
    pub guard_domains: usize,
    /// Extra read-only ports for p-ECC taps.
    pub extra_read_ports: usize,
    /// Extra write ports (p-ECC-O shift-and-write).
    pub extra_write_ports: usize,
    /// Maximum steps a single shift operation may take under this
    /// scheme (p-ECC-O forces 1).
    pub max_shift_per_op: usize,
}

impl PeccLayout {
    /// Computes the budget for `kind` over `geometry`.
    ///
    /// # Errors
    ///
    /// [`LayoutError::StrengthTooHigh`] when `m ≥ Lseg − 1`.
    pub fn new(geometry: StripeGeometry, kind: ProtectionKind) -> Result<Self, LayoutError> {
        let lseg = geometry.segment_len();
        let m = kind.strength() as usize;
        if matches!(
            kind,
            ProtectionKind::Correcting { .. }
                | ProtectionKind::OverheadRegion { .. }
                | ProtectionKind::CheeKiah { .. }
                | ProtectionKind::Vahid2di
        ) && m + 1 >= lseg
        {
            return Err(LayoutError::StrengthTooHigh { m: m as u32, lseg });
        }
        let (code_domains, guard_domains, extra_read_ports, extra_write_ports, max_shift) =
            match kind {
                ProtectionKind::None => (0, 0, 0, 0, geometry.max_shift().max(1)),
                ProtectionKind::Sed => (lseg + 1, 0, 1, 0, geometry.max_shift().max(1)),
                ProtectionKind::Correcting { .. } => (
                    lseg + 3 * m + 2,
                    2 * m,
                    m + 1,
                    0,
                    geometry.max_shift().max(1),
                ),
                ProtectionKind::OverheadRegion { .. } => {
                    // 2(m+1) code domains at each end; the right-end ones
                    // overlay the existing overhead region, so only the
                    // portion beyond it plus the left region are "extra".
                    let per_end = 2 * (m + 1);
                    let reused = geometry.overhead_len().min(per_end);
                    let extra = 2 * per_end - reused;
                    (extra, 2 * m, 2 * (m + 1), 2, 1)
                }
                ProtectionKind::CheeKiah { heads, delta } => {
                    // Stored redundancy is only the tie-break checksum;
                    // the (heads − 1)·delta look-offset cells count as
                    // guards. Every data port gains (heads − 1)
                    // companion looks — the scheme pays in ports and
                    // read energy, not domains.
                    let codec =
                        CheeKiahCodec::new(heads as usize, delta as usize, geometry.data_len());
                    let offsets = (heads as usize - 1) * delta as usize;
                    let checksum = codec.overhead_bits_per_word() - offsets;
                    let ports = (heads as usize - 1) * geometry.num_ports();
                    (
                        checksum,
                        offsets + 2 * m,
                        ports,
                        0,
                        geometry.max_shift().max(1),
                    )
                }
                ProtectionKind::Vahid2di => {
                    // Interleaved VT syndromes stored in-track; decoding
                    // reads the serial stream through the existing data
                    // ports, so no extra ports at all.
                    let codec = Vahid2diCodec::new(geometry.data_len());
                    (
                        codec.overhead_bits_per_word(),
                        2 * m,
                        0,
                        0,
                        geometry.max_shift().max(1),
                    )
                }
            };
        Ok(Self {
            geometry,
            kind,
            code_domains,
            guard_domains,
            extra_read_ports,
            extra_write_ports,
            max_shift_per_op: max_shift,
        })
    }

    /// Total extra domains over the bare stripe (code + guards).
    pub fn extra_domains(&self) -> usize {
        self.code_domains + self.guard_domains
    }

    /// Total physical domains of the protected stripe.
    pub fn total_domains(&self) -> usize {
        self.geometry.total_len() + self.extra_domains()
    }

    /// Storage overhead: the fraction of the protected stripe's domains
    /// that hold p-ECC state rather than data or baseline overhead.
    /// This is the paper's Table 5 "cell" column — 17.6 % for the
    /// default 64×8 SECDED configuration (we compute 17.4 %).
    pub fn storage_overhead(&self) -> f64 {
        self.extra_domains() as f64 / self.total_domains() as f64
    }
}

impl fmt::Display for PeccLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: +{} code domains, +{} guards, +{} read ports ({:.1}% storage overhead)",
            self.kind,
            self.geometry,
            self.code_domains,
            self.guard_domains,
            self.extra_read_ports,
            self.storage_overhead() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(data: usize, ports: usize) -> StripeGeometry {
        StripeGeometry::new(data, ports).unwrap()
    }

    #[test]
    fn sed_matches_fig5_example() {
        // Fig. 5: 8 data domains, 2 ports (Lseg = 4) → 5 code domains,
        // 1 extra read port.
        let l = PeccLayout::new(geom(8, 2), ProtectionKind::Sed).unwrap();
        assert_eq!(l.code_domains, 5);
        assert_eq!(l.guard_domains, 0);
        assert_eq!(l.extra_read_ports, 1);
        assert_eq!(l.extra_write_ports, 0);
    }

    #[test]
    fn secded_matches_fig6_example() {
        // Fig. 6: same stripe, SECDED → 9 code domains ("9 = 4 + 5"),
        // one guard per end, two read ports.
        let l = PeccLayout::new(geom(8, 2), ProtectionKind::SECDED).unwrap();
        assert_eq!(l.code_domains, 9);
        assert_eq!(l.guard_domains, 2);
        assert_eq!(l.extra_read_ports, 2);
        assert_eq!(l.max_shift_per_op, 3);
    }

    #[test]
    fn pecc_o_matches_fig8_example() {
        // Fig. 8: SECDED-O adds 4 domains and 2 ports per end, plus a
        // write port each end, and forces 1-step shifts.
        let l = PeccLayout::new(geom(8, 2), ProtectionKind::SECDED_O).unwrap();
        assert_eq!(l.extra_read_ports, 4);
        assert_eq!(l.extra_write_ports, 2);
        assert_eq!(l.max_shift_per_op, 1);
        // 4 per end = 8, minus the 3 overhead domains reused on the right.
        assert_eq!(l.code_domains, 5);
    }

    #[test]
    fn default_secded_storage_overhead_near_paper() {
        // Paper Table 5: 17.6 % capacity overhead for the 64×8 SECDED
        // configuration.
        let l = PeccLayout::new(geom(64, 8), ProtectionKind::SECDED).unwrap();
        let pct = l.storage_overhead() * 100.0;
        assert!((15.0..25.0).contains(&pct), "storage overhead {pct:.1}%");
    }

    #[test]
    fn pecc_o_beats_pecc_for_long_segments() {
        // Section 4.2.4: p-ECC-O wins when the segment is long.
        let long = geom(64, 2); // Lseg = 32
        let pecc = PeccLayout::new(long, ProtectionKind::SECDED).unwrap();
        let pecc_o = PeccLayout::new(long, ProtectionKind::SECDED_O).unwrap();
        assert!(pecc_o.extra_domains() < pecc.extra_domains());
        // ... and loses (or ties) on very short segments where the
        // dedicated region is already tiny.
        let short = geom(64, 32); // Lseg = 2... m=1 needs Lseg > 2
        assert!(PeccLayout::new(short, ProtectionKind::SECDED).is_err());
        let short = geom(64, 16); // Lseg = 4
        let pecc = PeccLayout::new(short, ProtectionKind::SECDED).unwrap();
        let pecc_o = PeccLayout::new(short, ProtectionKind::SECDED_O).unwrap();
        assert!(pecc.extra_domains() <= pecc_o.extra_domains() + 4);
    }

    #[test]
    fn strength_bound_enforced() {
        // m < Lseg − 1: for Lseg = 4 the maximum strength is 2.
        let g = geom(8, 2);
        assert!(PeccLayout::new(g, ProtectionKind::Correcting { m: 2 }).is_ok());
        assert_eq!(
            PeccLayout::new(g, ProtectionKind::Correcting { m: 3 }),
            Err(LayoutError::StrengthTooHigh { m: 3, lseg: 4 })
        );
    }

    #[test]
    fn stronger_codes_cost_more() {
        let g = geom(64, 4); // Lseg = 16
        let mut prev = 0;
        for m in 1..=4 {
            let l = PeccLayout::new(g, ProtectionKind::Correcting { m }).unwrap();
            assert!(l.extra_domains() > prev);
            assert_eq!(l.extra_read_ports, m as usize + 1);
            prev = l.extra_domains();
        }
    }

    #[test]
    fn none_has_zero_overhead() {
        let l = PeccLayout::new(geom(64, 8), ProtectionKind::None).unwrap();
        assert_eq!(l.extra_domains(), 0);
        assert_eq!(l.storage_overhead(), 0.0);
        assert_eq!(l.total_domains(), 71);
    }

    #[test]
    fn display_is_informative() {
        let l = PeccLayout::new(geom(64, 8), ProtectionKind::SECDED).unwrap();
        let s = l.to_string();
        assert!(s.contains("SECDED"));
        assert!(s.contains("read ports"));
    }

    #[test]
    fn kind_codes() {
        assert!(ProtectionKind::None.code().is_none());
        assert_eq!(ProtectionKind::Sed.code().unwrap().strength(), 0);
        assert_eq!(ProtectionKind::SECDED.code().unwrap().strength(), 1);
        assert_eq!(ProtectionKind::SECDED_O.code().unwrap().period(), 4);
    }

    #[test]
    fn stream_codecs_carry_markers_not_cyclic_codes() {
        for kind in [ProtectionKind::CHEE_KIAH, ProtectionKind::VAHID_2DI] {
            assert!(kind.code().is_none(), "{kind}: no cyclic pattern");
            let chk = kind.checker().unwrap();
            assert!(matches!(chk, StripeChecker::Marker(_)), "{kind}");
            assert_eq!(chk.strength(), 2);
            assert_eq!(kind.strength(), 2);
        }
        assert!(ProtectionKind::None.checker().is_none());
        assert!(matches!(
            ProtectionKind::SECDED.checker().unwrap(),
            StripeChecker::Cyclic(_)
        ));
    }

    #[test]
    fn kind_level_classify_matches_checker_semantics() {
        // Cyclic SECDED aliases at its period; the stream codecs do not.
        assert_eq!(ProtectionKind::SECDED.classify_offset(4), Verdict::Clean);
        for kind in [ProtectionKind::CHEE_KIAH, ProtectionKind::VAHID_2DI] {
            assert_eq!(kind.classify_offset(0), Verdict::Clean);
            for e in [-2, -1, 1, 2] {
                assert_eq!(
                    kind.classify_offset(e),
                    Verdict::Correctable(e),
                    "{kind} {e}"
                );
            }
            for e in [-4, -3, 3, 4, 64] {
                assert_eq!(
                    kind.classify_offset(e),
                    Verdict::Uncorrectable,
                    "{kind} {e}"
                );
            }
        }
        // Unprotected stripes are blind: everything is silent.
        assert_eq!(ProtectionKind::None.classify_offset(3), Verdict::Clean);
    }

    #[test]
    fn chee_kiah_budget_trades_domains_for_ports() {
        let g = geom(64, 8);
        let ck = PeccLayout::new(g, ProtectionKind::CHEE_KIAH).unwrap();
        let pecc = PeccLayout::new(g, ProtectionKind::SECDED).unwrap();
        // Far fewer extra domains than dedicated-region p-ECC...
        assert!(ck.extra_domains() < pecc.extra_domains());
        // ...but one companion look per data port.
        assert_eq!(ck.extra_read_ports, g.num_ports());
        assert!(ck.extra_read_ports > pecc.extra_read_ports);
        // 8-bit checksum for the 64-bit paper word.
        assert_eq!(ck.code_domains, 8);
    }

    #[test]
    fn vahid_budget_is_storage_heavy_and_port_free() {
        let g = geom(64, 8);
        let v = PeccLayout::new(g, ProtectionKind::VAHID_2DI).unwrap();
        // 21 syndrome bits on the 64-bit paper word, through existing
        // ports only.
        assert_eq!(v.code_domains, 21);
        assert_eq!(v.extra_read_ports, 0);
        assert_eq!(v.extra_write_ports, 0);
        let pecc = PeccLayout::new(g, ProtectionKind::SECDED).unwrap();
        assert!(v.storage_overhead() > pecc.storage_overhead());
    }
}
