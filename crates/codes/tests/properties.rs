//! Property tests over the position codecs, driven by
//! `rtm_util::check`: randomised round-trips up to design strength,
//! classify/decode agreement with the cyclic p-ECC on pure shift-count
//! errors, and exactness of the redundancy accounting that feeds
//! `rtm-cost`.
//!
//! The round-trip contract mirrors the `bench codes` battery: a decoder
//! may conservatively *refuse* an ambiguous in-strength read
//! (`Uncorrectable`), but it must never alias (a silent `Clean` on a
//! real slip), never name a wrong slip, and never hand back data that
//! differs from the encoded word.

use rtm_codes::{CheeKiahCodec, CyclicCodec, PositionCodec, Vahid2diCodec, Verdict};
use rtm_track::bit::Bit;
use rtm_util::check::{run_cases, Gen};

fn random_word(g: &mut Gen, bits: usize) -> Vec<Bit> {
    (0..bits).map(|_| Bit::from(g.bool())).collect()
}

/// Strike pulses stay inside the data region so the slip is still in
/// flight when the codec's check structure is read — the same bound the
/// `bench codes` battery uses.
fn strike_limit(codec: &dyn PositionCodec) -> usize {
    codec
        .pulses()
        .saturating_sub(codec.strength() as usize + 1)
        .min(codec.data_bits())
        .max(1)
}

/// One randomised round-trip through `decode(transmit(encode(..)))`.
fn check_round_trip(codec: &dyn PositionCodec, g: &mut Gen) {
    let s = codec.strength() as i64;
    let data = random_word(g, codec.data_bits());
    let e = g.i64_in(-s, s) as i32;
    let at = g.u64_in(0, strike_limit(codec) as u64 - 1) as usize;
    let out = codec.decode(&codec.transmit(&codec.encode(&data), e, at));
    let name = codec.name();
    match out.verdict {
        Verdict::Clean => {
            assert_eq!(e, 0, "{name}: aliased a slip of {e} at pulse {at}");
            assert!(
                out.data.is_some(),
                "{name}: clean read must return the data"
            );
        }
        Verdict::Correctable(c) => {
            assert_eq!(c, e, "{name}: named slip {c} for true slip {e} at {at}");
            assert_eq!(out.offset, e, "{name}: offset must carry the slip");
        }
        // A conservative refusal of an ambiguous read is legal for a
        // bounded-distance decoder; the assertions above guarantee it
        // never guesses instead.
        Verdict::Uncorrectable => {}
    }
    if let Some(d) = &out.data {
        assert_eq!(d, &data, "{name}: returned data differs from the word");
    }
}

#[test]
fn cyclic_round_trips_under_random_slips() {
    let codec = CyclicCodec::paper_default();
    run_cases(300, |g| check_round_trip(&codec, g));
}

#[test]
fn cheekiah_round_trips_under_random_slips() {
    let codec = CheeKiahCodec::paper_default();
    run_cases(300, |g| check_round_trip(&codec, g));
}

#[test]
fn vahid_round_trips_under_random_slips() {
    let codec = Vahid2diCodec::paper_default();
    run_cases(300, |g| check_round_trip(&codec, g));
}

/// On pure shift-count errors the stream codecs must agree with a
/// cyclic p-ECC of the same strength across the whole decidable band
/// `[-(m+1), m+1]`: identical corrections inside the strength,
/// identical detection at the boundary.
#[test]
fn stream_classify_agrees_with_cyclic_on_shift_count_errors() {
    let cyclic = CyclicCodec::new(2, 64, 8);
    let chee = CheeKiahCodec::paper_default();
    let vahid = Vahid2diCodec::paper_default();
    assert_eq!(cyclic.strength(), chee.strength());
    assert_eq!(cyclic.strength(), vahid.strength());
    run_cases(100, |g| {
        let e = g.i64_in(-3, 3) as i32;
        let want = cyclic.classify_offset(e);
        assert_eq!(chee.classify_offset(e), want, "chee-kiah e={e}");
        assert_eq!(vahid.classify_offset(e), want, "vahid e={e}");
    });
    // Beyond the band the codes diverge by design: the cyclic code
    // aliases at its period (the SDC floor), the stream codes detect.
    assert_eq!(cyclic.classify_offset(6), Verdict::Clean);
    assert_eq!(chee.classify_offset(6), Verdict::Uncorrectable);
    assert_eq!(vahid.classify_offset(6), Verdict::Uncorrectable);
}

/// Decode-level agreement on transmitted shift-count errors: the
/// stream decoders must reach the cyclic verdict or refuse — never a
/// different correction.
#[test]
fn stream_decode_matches_cyclic_verdict_or_refuses() {
    let cyclic = CyclicCodec::new(2, 64, 8);
    let codecs: [&dyn PositionCodec; 2] = [
        &CheeKiahCodec::paper_default(),
        &Vahid2diCodec::paper_default(),
    ];
    run_cases(150, |g| {
        for codec in codecs {
            let data = random_word(g, codec.data_bits());
            let e = g.i64_in(-2, 2) as i32;
            let at = g.u64_in(0, strike_limit(codec) as u64 - 1) as usize;
            let got = codec.decode(&codec.transmit(&codec.encode(&data), e, at));
            let want = cyclic.classify_offset(e);
            assert!(
                got.verdict == want || got.verdict == Verdict::Uncorrectable,
                "{}: verdict {:?} for e={e}, cyclic says {want:?}",
                codec.name(),
                got.verdict
            );
        }
    });
}

/// The redundancy numbers `rtm-cost` charges must be exact: the
/// paper-layout region for the cyclic code (`Lseg + 3m + 2`), the
/// checksum field for Chee–Kiah, the interleaved syndromes plus
/// balance field for Vahid.
#[test]
fn redundancy_accounting_is_exact() {
    let cyclic = CyclicCodec::paper_default();
    assert_eq!(cyclic.overhead_bits_per_word(), 8 + 3 + 2);
    let chee = CheeKiahCodec::paper_default();
    assert_eq!(chee.overhead_bits_per_word(), 10);
    let vahid = Vahid2diCodec::paper_default();
    assert_eq!(vahid.overhead_bits_per_word(), 7 + 6 + 6 + 2);
    // The serial codecs store every accounted overhead bit in the
    // codeword itself; Chee–Kiah stores its offset-port guard cells
    // past the codeword (in the sentinel region), so its codeword is
    // exactly data + checksum and strictly narrower than the charged
    // overhead — never wider.
    for codec in [&cyclic as &dyn PositionCodec, &vahid] {
        assert_eq!(
            codec.codeword_bits(),
            codec.data_bits() + codec.overhead_bits_per_word(),
            "{}: codeword width must be data + overhead",
            codec.name()
        );
    }
    assert_eq!(chee.codeword_bits(), 64 + 8);
    assert!(chee.codeword_bits() < chee.data_bits() + chee.overhead_bits_per_word());
    let codecs: [&dyn PositionCodec; 3] = [&cyclic, &chee, &vahid];
    // Encoded words must occupy exactly the accounted storage — the
    // property that keeps the Table 5 cell-overhead column honest.
    run_cases(60, |g| {
        for codec in codecs {
            let data = random_word(g, codec.data_bits());
            assert_eq!(
                codec.encode(&data).len(),
                codec.codeword_bits(),
                "{}: encode width drifted from the accounting",
                codec.name()
            );
        }
    });
}
