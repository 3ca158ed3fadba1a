//! Position-codec round-trip determinism gate: drives every
//! [`rtm_codes::PositionCodec`] implementation over a deterministic
//! battery of random words × slip magnitudes × strike positions,
//! checks that `decode` never mis-corrects (wrong data, wrong slip, or
//! a silent `Clean` on a real error is a failure; a conservative
//! `Uncorrectable` refusal on an ambiguous read is legal and counted
//! separately), and digests every decode outcome so two passes (and
//! two machines) can be compared bit for bit. Fails if any round-trip
//! fails or the repeated pass produces a different digest.
//!
//! The per-codec digest is emitted as a string field, which `obs-tool
//! compare` folds into the row identity: a digest drift against the
//! committed baseline reports the row as missing and fails CI.

use crate::Opts;
use rtm_codes::{CheeKiahCodec, CyclicCodec, PositionCodec, Vahid2diCodec, Verdict};
use rtm_obs::json::Json;
use rtm_track::bit::Bit;
use rtm_util::rng::SmallRng64;
use std::time::Instant;

/// FNV-1a, folded over every decode outcome of a codec's battery.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    fn verdict(&mut self, v: Verdict) {
        // A negative slip wraps: the committed digests hash it that way.
        self.word(match v {
            Verdict::Clean => 0,
            Verdict::Correctable(c) => 0x100u64.wrapping_add(c as u64),
            Verdict::Uncorrectable => 1,
        });
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One codec's battery outcome.
struct Tally {
    codec: &'static str,
    words: u64,
    checks: u64,
    corrected: u64,
    detected: u64,
    refused: u64,
    failures: u64,
    wall_ms: f64,
    digest: String,
}

fn random_word(rng: &mut SmallRng64, bits: usize) -> Vec<Bit> {
    (0..bits)
        .map(|_| {
            if rng.next_u64() & 1 == 1 {
                Bit::One
            } else {
                Bit::Zero
            }
        })
        .collect()
}

/// Runs the round-trip battery for one codec: `words` random data
/// words, each transmitted with every slip the channel supports at a
/// rotating strike position, decoded, verified and digested.
fn run_battery(codec: &dyn PositionCodec, words: u64, seed: u64) -> Tally {
    let start = Instant::now();
    let mut rng = SmallRng64::new(seed);
    let mut digest = Digest::new();
    let mut checks = 0u64;
    let mut corrected = 0u64;
    let mut detected = 0u64;
    let mut refused = 0u64;
    let mut failures = 0u64;
    let span = codec.strength() as i32;
    // Strike within the data region: every codec's slip is then still
    // in flight when its check structure (phase window, checksums,
    // guard sentinel) is read, matching the stripe-level semantics.
    let limit = codec
        .pulses()
        .saturating_sub(span as usize + 1)
        .min(codec.data_bits())
        .max(1);
    for w in 0..words {
        let data = random_word(&mut rng, codec.data_bits());
        let codeword = codec.encode(&data);
        // Beyond-strength slips can't be transmitted (the channel caps
        // at the design strength), but the fast-path classification is
        // still part of the digested surface.
        for e in [-(span + 2), span + 2] {
            digest.word(e as u64);
            digest.verdict(codec.classify_offset(e));
        }
        for e in -span..=span {
            // Rotate the strike pulse through the data region so the
            // battery exercises early, middle and late slips.
            let at = (w as usize).wrapping_mul(7).wrapping_add(checks as usize) % limit;
            let out = codec.decode(&codec.transmit(&codeword, e, at));
            checks += 1;
            let expected = codec.classify_offset(e);
            match out.verdict {
                // A silent Clean on a real slip is aliasing; a Clean
                // read must also hand the data back.
                Verdict::Clean => {
                    if e != 0 || out.data.is_none() {
                        failures += 1;
                    }
                }
                // A correction must name the true slip.
                Verdict::Correctable(c) => {
                    corrected += 1;
                    if c != e {
                        failures += 1;
                    }
                }
                // Uncorrectable is either the expected detection of a
                // beyond-strength slip, or a legal conservative refusal
                // of an ambiguous in-strength read (a bounded-distance
                // decoder may refuse; it must never guess).
                Verdict::Uncorrectable => {
                    if expected == Verdict::Uncorrectable {
                        detected += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
            // Whatever data the decoder does return must be the
            // original word — mis-correction is the one cardinal sin.
            if let Some(d) = &out.data {
                if d != &data {
                    failures += 1;
                }
            }
            digest.word(w);
            digest.word(e as u64);
            digest.word(at as u64);
            digest.verdict(out.verdict);
            digest.word(out.offset as u64);
            if let Some(d) = &out.data {
                for bit in d {
                    digest.byte(match bit {
                        Bit::One => 1,
                        Bit::Zero => 0,
                        _ => 2,
                    });
                }
            }
        }
    }
    Tally {
        codec: codec.name(),
        words,
        checks,
        corrected,
        detected,
        refused,
        failures,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        digest: digest.hex(),
    }
}

fn codecs() -> [Box<dyn PositionCodec>; 3] {
    [
        Box::new(CyclicCodec::paper_default()),
        Box::new(CheeKiahCodec::paper_default()),
        Box::new(Vahid2diCodec::paper_default()),
    ]
}

pub(crate) fn run(opts: &Opts) -> Result<Json, String> {
    let words: u64 = if opts.quick { 300 } else { 3_000 };
    let mut tallies = Vec::new();
    let mut all_ok = true;
    for codec in &codecs() {
        let t = run_battery(codec.as_ref(), words, 2015);
        // Determinism: an identical second pass must digest identically
        // (the battery carries no hidden state between runs).
        let rerun = run_battery(codec.as_ref(), words, 2015);
        let deterministic = t.digest == rerun.digest;
        eprintln!(
            "{}: {} checks, {} corrected, {} detected, {} refused, {} failures, \
             digest {}{} ({:.1} ms)",
            t.codec,
            t.checks,
            t.corrected,
            t.detected,
            t.refused,
            t.failures,
            t.digest,
            if deterministic {
                ""
            } else {
                " NON-DETERMINISTIC"
            },
            t.wall_ms
        );
        all_ok &= t.failures == 0 && deterministic;
        tallies.push(t);
    }
    if !all_ok {
        return Err("CODEC ROUND-TRIP REGRESSION: failures or digest drift".to_string());
    }

    let rows: Vec<Json> = tallies
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("codec", Json::Str(t.codec.to_string())),
                ("digest", Json::Str(t.digest.clone())),
                ("words", Json::Num(t.words as f64)),
                ("checks", Json::Num(t.checks as f64)),
                ("corrected", Json::Num(t.corrected as f64)),
                ("detected", Json::Num(t.detected as f64)),
                ("refused", Json::Num(t.refused as f64)),
                ("failures", Json::Num(t.failures as f64)),
                ("wall_ms", Json::Num(t.wall_ms)),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("schema", Json::Str("rtm-bench-codes/v1".to_string())),
        ("quick", Json::Bool(opts.quick)),
        ("words", Json::Num(words as f64)),
        ("all_ok", Json::Bool(all_ok)),
        ("rows", Json::Arr(rows)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every codec corrects negative slips, whose digest word must wrap
    /// rather than overflow (a debug build panics on overflow).
    #[test]
    fn battery_round_trips_every_codec() {
        for codec in &codecs() {
            let t = run_battery(codec.as_ref(), 4, 2015);
            assert!(t.corrected > 0, "{}: no slip corrected", t.codec);
            assert_eq!(t.failures, 0, "{}", t.codec);
            assert_eq!(t.digest, run_battery(codec.as_ref(), 4, 2015).digest);
        }
    }
}
