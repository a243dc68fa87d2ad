//! Soft-decision decoding: using measurement confidence instead of hard
//! bits.
//!
//! A counter readout knows more than the sign: the *magnitude* of the
//! count difference says how far the pair was from the decision boundary.
//! Soft-decision PUF decoders (Maes et al.) exploit that: the inner
//! repetition majority becomes a confidence-weighted vote, so one
//! hesitant wrong read cannot outvote two near-boundary right ones — and
//! the outer code sees a lower symbol error rate at the *same* silicon
//! and code. EXP-14 measures the gain.

use aro_metrics::bits::BitString;

use crate::bch::BchCode;
use crate::concat::ConcatenatedCode;
use crate::fuzzy::{HelperData, Key};
use crate::repetition::RepetitionCode;

/// One response bit with its measurement confidence (any non-negative
/// monotone reliability score; the readout's |Δcount| works directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftBit {
    /// The hard decision.
    pub value: bool,
    /// Non-negative reliability weight.
    pub weight: f64,
}

impl SoftBit {
    /// Creates a soft bit.
    ///
    /// # Panics
    /// Panics if `weight` is negative or non-finite.
    #[must_use]
    pub fn new(value: bool, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be a non-negative number"
        );
        Self { value, weight }
    }

    /// A zero-confidence **erasure**: a position known to be unreliable
    /// (an NVM integrity flag on a stored helper bit, a BIST-flagged dead
    /// ring behind a response bit). Its `value` is the best available hard
    /// guess, but with weight 0 it can never outvote any
    /// positive-confidence bit in [`soft_majority`], and a group of
    /// nothing but erasures ties — resolving to 0 like the hard
    /// comparator.
    #[must_use]
    pub fn erasure(value: bool) -> Self {
        Self { value, weight: 0.0 }
    }

    /// Whether this bit carries no confidence at all.
    #[must_use]
    pub fn is_erasure(&self) -> bool {
        self.weight == 0.0
    }

    /// The bit as a signed weight (+w for 1, −w for 0).
    #[must_use]
    pub fn signed(&self) -> f64 {
        if self.value {
            self.weight
        } else {
            -self.weight
        }
    }

    /// The same soft bit with its hard value flipped (confidence kept) —
    /// what XOR-ing with helper data does.
    #[must_use]
    pub fn flipped(&self) -> Self {
        Self {
            value: !self.value,
            weight: self.weight,
        }
    }
}

impl From<(bool, f64)> for SoftBit {
    fn from((value, weight): (bool, f64)) -> Self {
        Self::new(value, weight)
    }
}

/// Confidence-weighted majority of a repetition group (ties resolve to 0,
/// like the hard majority's comparator).
///
/// # Panics
/// Panics if `group` is empty.
#[must_use]
pub fn soft_majority(group: &[SoftBit]) -> bool {
    assert!(!group.is_empty(), "majority of an empty group");
    group.iter().map(SoftBit::signed).sum::<f64>() > 0.0
}

/// Known-unreliable positions for erasure-aware reconstruction — the
/// knowledge a fielded key generator actually has about its own damage:
/// NVM integrity checks flag corrupted stored helper bits, and ring BIST
/// flags dead/stuck oscillators behind response bits. Feeding these to
/// [`SoftConcatDecoder::reproduce_soft_erasure_aware`] turns a guaranteed
/// key loss (a surviving offset flip) into an ordinary correctable error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Erasures {
    /// `(block, bit)` stored helper-data positions flagged as unreliable
    /// (the coordinate space of
    /// [`crate::fuzzy::HelperData::with_flipped_bits`]).
    pub helper: Vec<(usize, usize)>,
    /// Flat response positions flagged as unreliable (bit index into the
    /// raw response, i.e. `block · n + i`).
    pub response: Vec<usize>,
}

impl Erasures {
    /// No known-unreliable positions (erasure-aware decoding degenerates
    /// to plain soft decoding).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Erasures from stored helper positions only.
    #[must_use]
    pub fn from_helper(helper: Vec<(usize, usize)>) -> Self {
        Self {
            helper,
            response: Vec::new(),
        }
    }

    /// Whether no position is flagged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.helper.is_empty() && self.response.is_empty()
    }
}

/// Soft-decision decoder for the concatenated (repetition ⊗ BCH) code:
/// weighted inner majority, then hard outer BCH.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftConcatDecoder {
    code: ConcatenatedCode,
}

impl SoftConcatDecoder {
    /// Wraps a concatenated code.
    #[must_use]
    pub fn new(outer: BchCode, inner: RepetitionCode) -> Self {
        Self {
            code: ConcatenatedCode::new(outer, inner),
        }
    }

    /// The wrapped code.
    #[must_use]
    pub fn code(&self) -> &ConcatenatedCode {
        &self.code
    }

    /// Decodes `n` soft bits into the corrected concatenated codeword, or
    /// `None` beyond the outer code's capability — or when `received` is
    /// not exactly `n` soft bits (a malformed word fails closed, matching
    /// the fuzzy-extractor convention that decoding never panics on bad
    /// channel data).
    #[must_use]
    pub fn decode_soft(&self, received: &[SoftBit]) -> Option<BitString> {
        use crate::code::Code;
        if received.len() != self.code.n() {
            return None;
        }
        let r = self.code.inner().r();
        if aro_obs::enabled() {
            // Weakest inner vote of this codeword: |Σ signed weights| of
            // the most contested repetition group. Trends toward 0 as
            // aging erodes confidence, before any outer-decode failure.
            let min_margin = received
                .chunks(r)
                .map(|g| g.iter().map(SoftBit::signed).sum::<f64>().abs())
                .fold(f64::INFINITY, f64::min);
            if min_margin.is_finite() {
                aro_obs::sketch("ecc.soft_vote_margin", min_margin);
            }
        }
        let outer_received: BitString = received.chunks(r).map(soft_majority).collect();
        let outer_corrected = self.code.outer().decode(&outer_received)?;
        Some(
            self.code
                .encode(&self.code.outer().extract_message(&outer_corrected)),
        )
    }

    /// Erasure-aware soft reconstruction: like [`Self::reproduce_soft`],
    /// but positions the caller *knows* to be unreliable are decoded as
    /// zero-confidence erasures instead of poisoning the weighted vote.
    ///
    /// Two erasure kinds, matching where the knowledge comes from:
    ///
    /// * **Helper erasures** `(block, bit)` — stored offset bits flagged
    ///   by NVM integrity checks. The corrupted offset makes the shifted
    ///   soft bit's *value* meaningless, so it votes with weight 0; and
    ///   because the stored bit cannot be trusted when re-applying the
    ///   offset, the recovered enrollment bit falls back to the measured
    ///   response bit (correct unless the response itself flipped there —
    ///   a per-bit risk instead of a guaranteed key loss).
    /// * **Response erasures** (flat response positions) — bits whose
    ///   pair involves a BIST-flagged dead/stuck ring. They vote with
    ///   weight 0; the stored offset there is fine, so the decoded
    ///   codeword recovers the enrollment bit as usual.
    ///
    /// Returns `None` when a block still decodes beyond the outer code's
    /// capability, or when the response is shorter than `blocks · n`
    /// (fails closed, like [`Self::decode_soft`]).
    #[must_use]
    pub fn reproduce_soft_erasure_aware(
        &self,
        response: &[SoftBit],
        helper: &HelperData,
        erasures: &Erasures,
    ) -> Option<Key> {
        use crate::code::Code;
        let n = self.code.n();
        let blocks = helper.blocks();
        let span = blocks * n;
        if response.len() < span {
            return None;
        }
        // Flat helper positions inside the decoded span; anything past a
        // block or past the last block is no position at all.
        let helper_flat = erasures
            .helper
            .iter()
            .filter(|&&(block, bit)| block < blocks && bit < n)
            .map(|&(block, bit)| block * n + bit);
        // One mask for both kinds: either one makes the bit vote with
        // weight 0. Duplicates set the same bit twice.
        let mut erased = BitString::zeros(span);
        for pos in helper_flat.clone().chain(erasures.response.iter().copied()) {
            if pos < span {
                erased.set(pos, true);
            }
        }
        let mut w = BitString::zeros(0);
        let mut shifted = Vec::with_capacity(n);
        for (block_index, offset) in helper.offsets().iter().enumerate() {
            let base = block_index * n;
            shifted.clear();
            shifted.extend(response[base..base + n].iter().enumerate().map(|(i, soft)| {
                let s = if offset.get(i) { soft.flipped() } else { *soft };
                if erased.get(base + i) {
                    SoftBit::erasure(s.value)
                } else {
                    s
                }
            }));
            let codeword = self.decode_soft(&shifted)?;
            w.extend_from_bits(&codeword.xor(offset));
        }
        // A flagged offset bit cannot be re-applied: the enrollment bit
        // there falls back to the measured response bit.
        for pos in helper_flat {
            w.set(pos, response[pos].value);
        }
        Some(helper.derive_key_for(&w))
    }

    /// Soft-decision key reconstruction through a code-offset helper: the
    /// offset flips hard values (weights are unaffected), the soft
    /// decoder recovers each block's codeword, and the enrollment
    /// response and key are re-derived exactly as in
    /// [`crate::fuzzy::FuzzyExtractor::reproduce`].
    ///
    /// # Panics
    /// Panics if the response is shorter than `blocks · n` or the helper
    /// block count differs.
    #[must_use]
    pub fn reproduce_soft(&self, response: &[SoftBit], helper: &HelperData) -> Option<Key> {
        use crate::code::Code;
        let n = self.code.n();
        assert!(response.len() >= helper.blocks() * n, "response too short");
        let mut w = BitString::zeros(0);
        for (block_index, offset) in helper.offsets().iter().enumerate() {
            let shifted: Vec<SoftBit> = response[block_index * n..(block_index + 1) * n]
                .iter()
                .enumerate()
                .map(|(i, soft)| if offset.get(i) { soft.flipped() } else { *soft })
                .collect();
            let codeword = self.decode_soft(&shifted)?;
            w.extend_from_bits(&codeword.xor(offset));
        }
        Some(helper.derive_key_for(&w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Code;
    use crate::fuzzy::FuzzyExtractor;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The set-probing erasure-aware reconstruction the flat masks
    /// replaced, kept verbatim as the oracle they must match bit for bit.
    fn reproduce_soft_erasure_aware_oracle(
        decoder: &SoftConcatDecoder,
        response: &[SoftBit],
        helper: &HelperData,
        erasures: &Erasures,
    ) -> Option<Key> {
        let n = decoder.code.n();
        if response.len() < helper.blocks() * n {
            return None;
        }
        let helper_erased: HashSet<(usize, usize)> = erasures.helper.iter().copied().collect();
        let response_erased: HashSet<usize> = erasures.response.iter().copied().collect();
        let mut w = BitString::zeros(0);
        for (block_index, offset) in helper.offsets().iter().enumerate() {
            let base = block_index * n;
            let shifted: Vec<SoftBit> = response[base..base + n]
                .iter()
                .enumerate()
                .map(|(i, soft)| {
                    let s = if offset.get(i) { soft.flipped() } else { *soft };
                    if helper_erased.contains(&(block_index, i))
                        || response_erased.contains(&(base + i))
                    {
                        SoftBit::erasure(s.value)
                    } else {
                        s
                    }
                })
                .collect();
            let codeword = decoder.decode_soft(&shifted)?;
            let recovered: BitString = (0..n)
                .map(|i| {
                    if helper_erased.contains(&(block_index, i)) {
                        response[base + i].value
                    } else {
                        codeword.get(i) ^ offset.get(i)
                    }
                })
                .collect();
            w.extend_from_bits(&recovered);
        }
        Some(helper.derive_key_for(&w))
    }

    proptest! {
        /// The mask-based reconstruction returns exactly the oracle's key
        /// (or exactly its failure) over noisy readings, eroded helper
        /// data, and erasure lists carrying duplicates and positions past
        /// the end of a block or of the whole response.
        #[test]
        fn erasure_masks_match_the_set_probing_oracle(
            seed in any::<u64>(),
            m in 4u32..=5,
            r in prop::sample::select(vec![1usize, 3, 5]),
            blocks in 1usize..=3,
            noise in 0.0f64..0.25,
        ) {
            let decoder = SoftConcatDecoder::new(BchCode::new(m, 2), RepetitionCode::new(r));
            let n = decoder.code().n();
            let fe = FuzzyExtractor::new(decoder.code().clone(), blocks);
            let mut rng = StdRng::seed_from_u64(seed);
            let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
            let (_, helper) = fe.generate(&w, &mut rng);
            let reading: Vec<SoftBit> = w
                .iter()
                .map(|bit| SoftBit::new(bit ^ rng.gen_bool(noise), rng.gen_range(0.1..3.0)))
                .collect();
            let in_range: Vec<(usize, usize)> = (0..rng.gen_range(0..6))
                .map(|_| (rng.gen_range(0..blocks), rng.gen_range(0..n)))
                .collect();
            let eroded = helper.with_flipped_bits(&in_range);
            // Flags past the end of a block must not spill into the next
            // one, and flags past the last block are no position at all.
            let mut helper_erased = in_range.clone();
            for _ in 0..3 {
                let (block, past): (usize, usize) = (rng.gen_range(0..blocks), rng.gen_range(0..n));
                helper_erased.push((block, n + past));
            }
            for _ in 0..2 {
                let (past, bit): (usize, usize) = (rng.gen_range(0..2), rng.gen_range(0..n));
                helper_erased.push((blocks + past, bit));
            }
            helper_erased.extend(in_range.into_iter().take(2));
            let mut response: Vec<usize> = (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..blocks * n))
                .collect();
            response.extend(response.clone().into_iter().take(2));
            for _ in 0..2 {
                let past: usize = rng.gen_range(0..8);
                response.push(blocks * n + past);
            }
            let erasures = Erasures {
                helper: helper_erased,
                response,
            };
            for helper in [&helper, &eroded] {
                prop_assert_eq!(
                    decoder.reproduce_soft_erasure_aware(&reading, helper, &erasures),
                    reproduce_soft_erasure_aware_oracle(&decoder, &reading, helper, &erasures)
                );
            }
        }
    }

    fn soft(bits: &[(bool, f64)]) -> Vec<SoftBit> {
        bits.iter().map(|&b| SoftBit::from(b)).collect()
    }

    #[test]
    fn soft_majority_weighs_confidence() {
        // Two hesitant zeros vs one confident one: the one wins.
        let group = soft(&[(false, 0.5), (false, 0.4), (true, 2.0)]);
        assert!(soft_majority(&group));
        // Hard majority would have said zero.
        let hard_ones = group.iter().filter(|b| b.value).count();
        assert!(hard_ones * 2 < group.len());
    }

    #[test]
    fn soft_majority_reduces_to_hard_with_equal_weights() {
        for pattern in 0u8..8 {
            let group: Vec<SoftBit> = (0..3)
                .map(|i| SoftBit::new(pattern >> i & 1 == 1, 1.0))
                .collect();
            let hard = group.iter().filter(|b| b.value).count() * 2 > 3;
            assert_eq!(soft_majority(&group), hard, "pattern {pattern:#b}");
        }
    }

    #[test]
    fn soft_decoder_matches_hard_decoder_on_confident_input() {
        let decoder = SoftConcatDecoder::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let mut rng = StdRng::seed_from_u64(1);
        let msg: BitString = (0..decoder.code().k()).map(|_| rng.gen::<bool>()).collect();
        let word = decoder.code().encode(&msg);
        let soft_word: Vec<SoftBit> = word.iter().map(|b| SoftBit::new(b, 1.0)).collect();
        assert_eq!(decoder.decode_soft(&soft_word), Some(word));
    }

    #[test]
    fn soft_decoding_survives_where_hard_fails() {
        // Per group: two wrong reads with tiny confidence, one right read
        // with high confidence. Hard majority gets every symbol wrong;
        // soft majority gets every symbol right.
        let decoder = SoftConcatDecoder::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let mut rng = StdRng::seed_from_u64(2);
        let msg: BitString = (0..decoder.code().k()).map(|_| rng.gen::<bool>()).collect();
        let word = decoder.code().encode(&msg);
        let corrupted: Vec<SoftBit> = word
            .iter()
            .enumerate()
            .map(|(i, bit)| {
                if i % 3 == 0 {
                    SoftBit::new(bit, 3.0) // the confident truthful read
                } else {
                    SoftBit::new(!bit, 0.2) // hesitant wrong reads
                }
            })
            .collect();
        assert_eq!(
            decoder.decode_soft(&corrupted),
            Some(word.clone()),
            "soft succeeds"
        );

        // The equivalent hard word fails: every group majority is wrong.
        use crate::concat::ConcatenatedCode;
        let hard_code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let hard_word: BitString = corrupted.iter().map(|s| s.value).collect();
        match hard_code.decode(&hard_word) {
            None => {}
            Some(decoded) => assert_ne!(decoded, word, "hard decode cannot recover"),
        }
    }

    #[test]
    fn soft_reproduction_recovers_the_enrolled_key() {
        let decoder = SoftConcatDecoder::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(decoder.code().clone(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);

        // A noisy soft re-reading: a few hesitant flips.
        let soft_reading: Vec<SoftBit> = w
            .iter()
            .enumerate()
            .map(|(i, bit)| {
                if i % 17 == 3 {
                    SoftBit::new(!bit, 0.3)
                } else {
                    SoftBit::new(bit, 1.5)
                }
            })
            .collect();
        assert_eq!(decoder.reproduce_soft(&soft_reading, &helper), Some(key));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = SoftBit::new(true, -1.0);
    }

    #[test]
    fn erasure_carries_no_confidence() {
        let e = SoftBit::erasure(true);
        assert!(e.is_erasure());
        assert_eq!(e.signed(), 0.0);
        assert!(e.flipped().is_erasure());
        assert!(!SoftBit::new(true, 0.1).is_erasure());
    }

    #[test]
    fn erasures_never_outvote_a_positive_confidence_bit() {
        // Many confident-looking erasure values against one faint real
        // read: the real read wins.
        let mut group = vec![SoftBit::erasure(true); 9];
        group.push(SoftBit::new(false, 1e-9));
        assert!(!soft_majority(&group));
    }

    #[test]
    fn all_erasure_group_ties_to_zero() {
        let group = vec![SoftBit::erasure(true); 5];
        assert!(!soft_majority(&group), "tie resolves to 0, like the comparator");
    }

    #[test]
    fn wrong_length_soft_word_fails_closed() {
        let decoder = SoftConcatDecoder::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let short = vec![SoftBit::new(true, 1.0); decoder.code().n() - 1];
        let long = vec![SoftBit::new(true, 1.0); decoder.code().n() + 1];
        assert_eq!(decoder.decode_soft(&short), None);
        assert_eq!(decoder.decode_soft(&long), None);
    }

    #[test]
    fn empty_erasures_match_plain_soft_reproduction() {
        let decoder = SoftConcatDecoder::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(decoder.code().clone(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);
        let reading: Vec<SoftBit> = w.iter().map(|bit| SoftBit::new(bit, 1.0)).collect();
        assert_eq!(
            decoder.reproduce_soft_erasure_aware(&reading, &helper, &Erasures::none()),
            Some(key)
        );
        assert_eq!(decoder.reproduce_soft(&reading, &helper), Some(key));
    }

    #[test]
    fn erasure_awareness_recovers_a_key_blind_decoding_loses() {
        // A flipped *offset* bit survives blind decoding: the decoder
        // corrects the shifted word back to the same codeword, then
        // re-applies the corrupted offset — guaranteed wrong w, lost key.
        // Flagging the position as a helper erasure substitutes the
        // measured response bit there, recovering the key.
        let decoder = SoftConcatDecoder::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(decoder.code().clone(), 2);
        let mut rng = StdRng::seed_from_u64(11);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);

        let eroded_positions = vec![(0, 4), (1, 9)];
        let eroded = helper.with_flipped_bits(&eroded_positions);
        let reading: Vec<SoftBit> = w.iter().map(|bit| SoftBit::new(bit, 1.0)).collect();

        assert_ne!(
            decoder.reproduce_soft(&reading, &eroded),
            Some(key),
            "a surviving offset flip must defeat blind decoding"
        );
        assert_eq!(
            decoder.reproduce_soft_erasure_aware(
                &reading,
                &eroded,
                &Erasures::from_helper(eroded_positions),
            ),
            Some(key)
        );
    }

    #[test]
    fn response_erasures_silence_dead_ring_bits() {
        // A dead ring reads garbage with misleading confidence. Blindly it
        // can push a repetition group the wrong way; flagged as a response
        // erasure it votes with weight 0 and the offset stays trusted.
        let decoder = SoftConcatDecoder::new(BchCode::new(5, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(decoder.code().clone(), 2);
        let mut rng = StdRng::seed_from_u64(13);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (key, helper) = fe.generate(&w, &mut rng);

        // Kill the first repetition group: 2 of 3 reads wrong and loud.
        let reading: Vec<SoftBit> = w
            .iter()
            .enumerate()
            .map(|(i, bit)| {
                if i < 2 {
                    SoftBit::new(!bit, 10.0)
                } else {
                    SoftBit::new(bit, 1.0)
                }
            })
            .collect();
        let erasures = Erasures {
            helper: Vec::new(),
            response: vec![0, 1],
        };
        assert_eq!(
            decoder.reproduce_soft_erasure_aware(&reading, &helper, &erasures),
            Some(key)
        );
    }

    #[test]
    fn short_response_fails_closed_in_erasure_aware_path() {
        let decoder = SoftConcatDecoder::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(decoder.code().clone(), 2);
        let mut rng = StdRng::seed_from_u64(17);
        let w: BitString = (0..fe.response_bits()).map(|_| rng.gen::<bool>()).collect();
        let (_, helper) = fe.generate(&w, &mut rng);
        let short = vec![SoftBit::new(true, 1.0); fe.response_bits() - 1];
        assert_eq!(
            decoder.reproduce_soft_erasure_aware(&short, &helper, &Erasures::none()),
            None
        );
    }
}
