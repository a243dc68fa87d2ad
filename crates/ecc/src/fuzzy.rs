//! The code-offset fuzzy extractor (Dodis et al.): turning a noisy PUF
//! response into a stable cryptographic key.
//!
//! **Enrollment (`generate`)**: draw a random codeword `c`, publish the
//! helper data `h = w ⊕ c` (where `w` is the enrollment response), and
//! derive the key `K = SHA-256(w ‖ salt)`. The helper data leaks at most
//! `n − k` bits of `w`.
//!
//! **Reconstruction (`reproduce`)**: given a noisy re-reading `w'`,
//! compute `c' = w' ⊕ h = c ⊕ (w ⊕ w')`, decode `c'` back to `c` (possible
//! iff the response drifted by at most the code's correction capability),
//! recover `w = c ⊕ h`, and re-derive the same key.
//!
//! Multiple code blocks are chained to cover responses longer than one
//! codeword — exactly how the paper's 128-bit key generator is laid out.

use aro_metrics::bits::BitString;
use rand::Rng;

use crate::code::Code;
use crate::hash::{fnv1a, sha256, FNV1A_OFFSET};

/// Public helper data produced at enrollment (stores no secret by itself).
#[derive(Debug, Clone, PartialEq)]
pub struct HelperData {
    offsets: Vec<BitString>,
    salt: [u8; 16],
}

impl HelperData {
    /// Total stored bits (the NVM cost of the key generator): the code
    /// offsets plus the 128-bit salt.
    #[must_use]
    pub fn stored_bits(&self) -> usize {
        self.offsets.iter().map(BitString::len).sum::<usize>() + 128
    }

    /// Number of code blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.offsets.len()
    }

    /// The per-block code offsets (used by the soft-decision decoder).
    pub(crate) fn offsets(&self) -> &[BitString] {
        &self.offsets
    }

    /// Per-block offset lengths — the coordinate space of
    /// [`Self::with_flipped_bits`] (fault injection addresses stored
    /// helper bits as `(block, bit)`).
    #[must_use]
    pub fn block_lens(&self) -> Vec<usize> {
        self.offsets.iter().map(BitString::len).collect()
    }

    /// Returns a copy of this helper data with the listed `(block, bit)`
    /// offset positions flipped — the fault-injection hook for NVM bit
    /// erasures/upsets in the stored helper data.
    ///
    /// Note the asymmetry with response noise: a flipped *response* bit is
    /// absorbed by the code, but a flipped *offset* bit survives decoding
    /// (the decoder corrects `w' ⊕ h` back to the same codeword, then
    /// re-applies the corrupted offset), so it corrupts the recovered
    /// enrollment response directly and the derived key changes. Helper
    /// storage therefore needs its own integrity protection — exactly what
    /// this hook lets experiments demonstrate.
    ///
    /// # Panics
    /// Panics if any `(block, bit)` position is out of range.
    #[must_use]
    pub fn with_flipped_bits(&self, positions: &[(usize, usize)]) -> Self {
        let mut offsets = self.offsets.clone();
        for &(block, bit) in positions {
            assert!(block < offsets.len(), "block {block} out of range");
            offsets[block].flip(bit);
        }
        Self {
            offsets,
            salt: self.salt,
        }
    }

    /// Order-sensitive 64-bit FNV-1a digest of the stored bytes (every
    /// block offset plus the salt). Helper data is public but **not**
    /// authenticated by the extractor itself — a flipped offset bit
    /// silently corrupts the recovered key (see
    /// [`Self::with_flipped_bits`]) — so any store holding helper data
    /// must seal it with its own integrity check. This digest is that
    /// seal: `aro-serve` records it at enrollment and compares on read,
    /// routing mismatches to recovery instead of handing out a wrong key.
    /// Offsets stream through [`BitString::bytes`], so the check that
    /// runs on every read allocates nothing.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let hash = self.offsets.iter().fold(FNV1A_OFFSET, |hash, offset| {
            let hash = fnv1a(hash, (offset.len() as u64).to_le_bytes());
            fnv1a(hash, offset.bytes())
        });
        fnv1a(hash, self.salt)
    }

    /// Re-derives the key from a recovered enrollment response — the
    /// exact key-derivation step of [`FuzzyExtractor::reproduce`], shared
    /// with the soft-decision path so both recover identical keys.
    pub(crate) fn derive_key_for(&self, w: &BitString) -> Key {
        let mut material = w.to_bytes();
        material.extend_from_slice(&self.salt);
        Key(sha256(&material))
    }
}

/// A derived key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(pub [u8; 32]);

impl Key {
    /// The first `bits` bits of the key as a bit string (e.g. 128 for the
    /// paper's key width).
    ///
    /// # Panics
    /// Panics if more than 256 bits are requested.
    #[must_use]
    pub fn truncated(&self, bits: usize) -> BitString {
        assert!(bits <= 256, "SHA-256 yields at most 256 bits");
        BitString::from_fn(bits, |i| (self.0[i / 8] >> (i % 8)) & 1 == 1)
    }
}

/// A code-offset fuzzy extractor over any [`Code`].
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyExtractor<C: Code> {
    code: C,
    blocks: usize,
}

impl<C: Code> FuzzyExtractor<C> {
    /// An extractor consuming `blocks` codewords' worth of response bits.
    ///
    /// # Panics
    /// Panics if `blocks` is zero.
    #[must_use]
    pub fn new(code: C, blocks: usize) -> Self {
        assert!(blocks >= 1, "need at least one block");
        Self { code, blocks }
    }

    /// The underlying code.
    #[must_use]
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Response bits consumed per enrollment.
    #[must_use]
    pub fn response_bits(&self) -> usize {
        self.blocks * self.code.n()
    }

    /// Upper bound on helper-data entropy leakage in bits
    /// (`blocks · (n − k)`).
    #[must_use]
    pub fn max_leakage_bits(&self) -> usize {
        self.blocks * (self.code.n() - self.code.k())
    }

    /// Enrollment: derives a key and public helper data from response `w`.
    ///
    /// # Panics
    /// Panics if `w` is shorter than [`Self::response_bits`].
    pub fn generate<R: Rng + ?Sized>(&self, w: &BitString, rng: &mut R) -> (Key, HelperData) {
        assert!(
            w.len() >= self.response_bits(),
            "response too short: {} < {}",
            w.len(),
            self.response_bits()
        );
        let mut salt = [0u8; 16];
        rng.fill(&mut salt);
        let offsets = (0..self.blocks)
            .map(|b| {
                let block = w.slice(b * self.code.n(), self.code.n());
                let codeword = self.code.random_codeword(rng);
                block.xor(&codeword)
            })
            .collect();
        let helper = HelperData { offsets, salt };
        (self.derive_key(w, &helper.salt), helper)
    }

    /// Reconstruction: re-derives the key from a noisy re-reading `w'`,
    /// or `None` if any block drifted beyond the code's capability.
    ///
    /// # Panics
    /// Panics if `w_noisy` is shorter than [`Self::response_bits`] or the
    /// helper data has the wrong block count.
    #[must_use]
    pub fn reproduce(&self, w_noisy: &BitString, helper: &HelperData) -> Option<Key> {
        assert!(w_noisy.len() >= self.response_bits(), "response too short");
        assert_eq!(
            helper.offsets.len(),
            self.blocks,
            "helper data block mismatch"
        );
        let mut w = BitString::zeros(0);
        for (b, offset) in helper.offsets.iter().enumerate() {
            let block = w_noisy.slice(b * self.code.n(), self.code.n());
            let shifted = block.xor(offset);
            let codeword = self.code.decode(&shifted)?;
            w.extend_from_bits(&codeword.xor(offset));
        }
        Some(self.derive_key(&w, &helper.salt))
    }

    fn derive_key(&self, w: &BitString, salt: &[u8; 16]) -> Key {
        let mut material = w.slice(0, self.response_bits()).to_bytes();
        material.extend_from_slice(salt);
        Key(sha256(&material))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bch::BchCode;
    use crate::concat::ConcatenatedCode;
    use crate::repetition::RepetitionCode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_bits(n: usize, rng: &mut StdRng) -> BitString {
        (0..n).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn clean_reproduction_recovers_the_key() {
        let fe = FuzzyExtractor::new(BchCode::new(5, 3), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (key, helper) = fe.generate(&w, &mut rng);
        assert_eq!(fe.reproduce(&w, &helper), Some(key));
    }

    #[test]
    fn noisy_reproduction_within_capability_recovers_the_key() {
        let fe = FuzzyExtractor::new(BchCode::new(5, 3), 2);
        let mut rng = StdRng::seed_from_u64(2);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (key, helper) = fe.generate(&w, &mut rng);
        // Flip t bits in each block.
        let mut noisy = w.clone();
        for b in 0..2 {
            for j in 0..3 {
                noisy.flip(b * 31 + 5 * j + 1);
            }
        }
        assert_eq!(fe.reproduce(&noisy, &helper), Some(key));
    }

    #[test]
    fn too_much_noise_fails_closed() {
        let fe = FuzzyExtractor::new(BchCode::new(4, 1), 1);
        let mut rng = StdRng::seed_from_u64(3);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (key, helper) = fe.generate(&w, &mut rng);
        let mut noisy = w.clone();
        for i in 0..6 {
            noisy.flip(2 * i);
        }
        // Either detected failure or a *different* key — never silently
        // the right key from a hopeless reading, and detection is the
        // overwhelmingly common case.
        match fe.reproduce(&noisy, &helper) {
            None => {}
            Some(other) => assert_ne!(other, key),
        }
    }

    #[test]
    fn different_responses_give_different_keys() {
        let fe = FuzzyExtractor::new(BchCode::new(5, 2), 1);
        let mut rng = StdRng::seed_from_u64(4);
        let w1 = random_bits(fe.response_bits(), &mut rng);
        let w2 = random_bits(fe.response_bits(), &mut rng);
        let (k1, _) = fe.generate(&w1, &mut rng);
        let (k2, _) = fe.generate(&w2, &mut rng);
        assert_ne!(k1, k2);
    }

    #[test]
    fn helper_data_alone_does_not_fix_the_key() {
        // Re-enrolling the same response draws fresh codewords and salt:
        // helper differs, key differs (salted) — helper is not the key.
        let fe = FuzzyExtractor::new(BchCode::new(5, 2), 1);
        let mut rng = StdRng::seed_from_u64(5);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (k1, h1) = fe.generate(&w, &mut rng);
        let (k2, h2) = fe.generate(&w, &mut rng);
        assert_ne!(h1, h2, "fresh randomness per enrollment");
        assert_ne!(k1, k2, "salted keys differ across enrollments");
    }

    #[test]
    fn works_over_concatenated_codes() {
        let code = ConcatenatedCode::new(BchCode::new(4, 2), RepetitionCode::new(3));
        let fe = FuzzyExtractor::new(code, 2);
        let mut rng = StdRng::seed_from_u64(6);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (key, helper) = fe.generate(&w, &mut rng);
        // Scatter 8 single-bit flips across different inner groups of
        // block 0 plus a few in block 1.
        let mut noisy = w.clone();
        for g in 0..6 {
            noisy.flip(g * 3 + 1);
        }
        noisy.flip(45 + 4);
        noisy.flip(45 + 10);
        assert_eq!(fe.reproduce(&noisy, &helper), Some(key));
    }

    #[test]
    fn flipped_helper_bit_survives_decoding_and_changes_the_key() {
        // One offset flip is inside the code's correction capability, yet
        // the recovered key must differ: the decoder corrects the shifted
        // block back to the same codeword, then re-applies the *corrupted*
        // offset, so the recovered enrollment response is wrong by exactly
        // that bit.
        let fe = FuzzyExtractor::new(BchCode::new(5, 3), 2);
        let mut rng = StdRng::seed_from_u64(8);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (key, helper) = fe.generate(&w, &mut rng);
        let corrupted = helper.with_flipped_bits(&[(1, 7)]);
        match fe.reproduce(&w, &corrupted) {
            None => {}
            Some(other) => assert_ne!(other, key, "corrupted helper must not yield the true key"),
        }
        // The flip is exact and self-inverse: flipping back restores the
        // original helper data and with it clean reconstruction.
        let restored = corrupted.with_flipped_bits(&[(1, 7)]);
        assert_eq!(restored, helper);
        assert_eq!(fe.reproduce(&w, &restored), Some(key));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flipping_out_of_range_block_panics() {
        let fe = FuzzyExtractor::new(BchCode::new(4, 1), 1);
        let mut rng = StdRng::seed_from_u64(9);
        let w = random_bits(fe.response_bits(), &mut rng);
        let (_, helper) = fe.generate(&w, &mut rng);
        let _ = helper.with_flipped_bits(&[(5, 0)]);
    }

    #[test]
    fn leakage_accounting() {
        let fe = FuzzyExtractor::new(BchCode::new(5, 3), 4);
        assert_eq!(fe.response_bits(), 4 * 31);
        assert_eq!(fe.max_leakage_bits(), 4 * (31 - 16));
    }

    #[test]
    fn key_truncation_is_prefix() {
        let key = Key([0xa5; 32]);
        let bits = key.truncated(128);
        assert_eq!(bits.len(), 128);
        assert!(bits.get(0)); // 0xa5 LSB = 1
    }

    #[test]
    #[should_panic(expected = "response too short")]
    fn short_response_panics() {
        let fe = FuzzyExtractor::new(BchCode::new(4, 1), 1);
        let mut rng = StdRng::seed_from_u64(7);
        let w = random_bits(3, &mut rng);
        let _ = fe.generate(&w, &mut rng);
    }
}
