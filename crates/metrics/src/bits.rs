//! Packed bit strings: the PUF response type.
//!
//! Responses are hundreds of bits and Hamming distance is computed
//! millions of times per experiment, so bits are packed into `u64` words
//! and HD is a word-wise `xor` + `count_ones`.

use std::fmt;

/// A fixed-length string of bits, packed LSB-first into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// An all-zero string of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a string from a slice of booleans.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }

    /// Builds a string of `len` bits from a generator function.
    #[must_use]
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Self {
        (0..len).map(f).collect()
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let (w, b) = (index / 64, index % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1 << (index % 64);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in Hamming distance");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Bitwise XOR, the core of the code-offset fuzzy extractor.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len, "length mismatch in xor");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Iterates the bits from index 0 upward.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copies the bits out as booleans.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// The sub-string `[start, start + len)`, shifted out a word at a time.
    ///
    /// # Panics
    /// Panics if the range exceeds the string.
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of range");
        let (first, shift) = (start / 64, start % 64);
        let words = (first..first + len.div_ceil(64))
            .map(|w| {
                let low = self.words[w] >> shift;
                match self.words.get(w + 1) {
                    Some(next) if shift > 0 => low | next << (64 - shift),
                    _ => low,
                }
            })
            .collect();
        let mut out = Self { words, len };
        out.clear_padding();
        out
    }

    /// Concatenates two strings.
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.extend_from_bits(other);
        out
    }

    /// Appends `other` in place, a word at a time.
    pub fn extend_from_bits(&mut self, other: &Self) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            self.words.reserve(other.words.len());
            for &word in &other.words {
                let last = self.words.len() - 1;
                self.words[last] |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        // The final push may hold only (zero) padding bits of `other`.
        self.words.truncate(self.len.div_ceil(64));
    }

    /// The bytes of [`Self::to_bytes`] without the allocation: byte `i`
    /// is read straight out of word `i / 8` (little-endian), so a seal
    /// can hash a string in place.
    pub fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        debug_assert!(self.padding_is_zero(), "nonzero padding bits");
        (0..self.len.div_ceil(8)).map(move |i| (self.words[i / 8] >> (8 * (i % 8))) as u8)
    }

    /// Packs the bits into bytes, LSB-first within each byte, zero-padded:
    /// each word's little-endian bytes, cut to `ceil(len / 8)`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        debug_assert!(self.padding_is_zero(), "nonzero padding bits");
        let mut bytes = Vec::with_capacity(self.words.len() * 8);
        for word in &self.words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.truncate(self.len.div_ceil(8));
        bytes
    }

    /// Zeroes the bits of the last word above `len`. Every constructor
    /// and mutator keeps them zero, which the derived `Eq`/`Hash` and the
    /// whole-word kernels (`count_ones`, `to_bytes`) rely on.
    fn clear_padding(&mut self) {
        let tail = self.len % 64;
        if let Some(last) = self.words.last_mut().filter(|_| tail > 0) {
            *last &= (1 << tail) - 1;
        }
    }

    fn padding_is_zero(&self) -> bool {
        let tail = self.len % 64;
        tail == 0 || self.words.last().is_some_and(|w| w >> tail == 0)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = Self::default();
        s.extend(iter);
        s
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            if self.len.is_multiple_of(64) {
                self.words.push(0);
            }
            if bit {
                self.words[self.len / 64] |= 1 << (self.len % 64);
            }
            self.len += 1;
        }
    }
}

impl fmt::Display for BitString {
    /// Renders as `0`/`1` characters, bit 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.iter() {
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_is_empty_of_ones() {
        let z = BitString::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        assert!(!z.is_empty());
        assert!(BitString::zeros(0).is_empty());
    }

    #[test]
    fn set_get_flip_roundtrip_across_word_boundaries() {
        let mut s = BitString::zeros(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!s.get(i));
            s.set(i, true);
            assert!(s.get(i));
            s.flip(i);
            assert!(!s.get(i));
        }
    }

    #[test]
    fn from_bools_and_to_bools_roundtrip() {
        let pattern: Vec<bool> = (0..150).map(|i| i % 3 == 0).collect();
        let s = BitString::from_bools(&pattern);
        assert_eq!(s.to_bools(), pattern);
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = BitString::from_fn(100, |i| i % 2 == 0);
        let b = BitString::from_fn(100, |i| i % 2 == 1);
        assert_eq!(a.hamming_distance(&b), 100);
        assert_eq!(a.hamming_distance(&a), 0);
        let mut c = a.clone();
        c.flip(17);
        assert_eq!(a.hamming_distance(&c), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_distance_length_mismatch_panics() {
        let _ = BitString::zeros(10).hamming_distance(&BitString::zeros(11));
    }

    #[test]
    fn xor_is_self_inverse() {
        let a = BitString::from_fn(90, |i| (i * 7) % 5 < 2);
        let b = BitString::from_fn(90, |i| (i * 3) % 4 == 1);
        assert_eq!(a.xor(&b).xor(&b), a);
        assert_eq!(a.xor(&a), BitString::zeros(90));
        assert_eq!(a.xor(&b).count_ones(), a.hamming_distance(&b));
    }

    #[test]
    fn slice_and_concat_are_inverses() {
        let s = BitString::from_fn(77, |i| i % 2 == 0);
        let left = s.slice(0, 30);
        let right = s.slice(30, 47);
        assert_eq!(left.concat(&right), s);
    }

    #[test]
    fn to_bytes_packs_lsb_first() {
        let s =
            BitString::from_bools(&[true, false, false, false, false, false, false, false, true]);
        assert_eq!(s.to_bytes(), vec![0b0000_0001, 0b0000_0001]);
    }

    #[test]
    fn display_renders_bits_in_order() {
        let s = BitString::from_bools(&[true, false, true]);
        assert_eq!(s.to_string(), "101");
    }

    #[test]
    fn collect_from_iterator() {
        let s: BitString = (0..130).map(|i| i == 129).collect();
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 1);
        assert!(s.get(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitString::zeros(5).get(5);
    }

    /// Bit-serial reference packing: one `get` per bit.
    fn reference_bytes(s: &BitString) -> Vec<u8> {
        let mut bytes = vec![0u8; s.len().div_ceil(8)];
        for i in 0..s.len() {
            if s.get(i) {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    /// Bit-serial reference slice and concatenation over `bool`s.
    fn reference_slice(s: &BitString, start: usize, len: usize) -> Vec<bool> {
        (start..start + len).map(|i| s.get(i)).collect()
    }

    fn reference_concat(a: &BitString, b: &BitString) -> Vec<bool> {
        a.iter().chain(b.iter()).collect()
    }

    /// Lengths straddling every word and byte edge the kernels special-case.
    const EDGE_LENS: [usize; 14] = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 300];

    fn assert_kernels_match(s: &BitString) {
        assert!(s.padding_is_zero(), "len {}", s.len());
        // Same words as a bit-by-bit build, so derived `Eq`/`Hash` agree.
        assert_eq!(s, &BitString::from_bools(&s.to_bools()), "len {}", s.len());
        let expected = reference_bytes(s);
        assert_eq!(s.to_bytes(), expected, "to_bytes, len {}", s.len());
        let view: Vec<u8> = s.bytes().collect();
        assert_eq!(view, expected, "bytes, len {}", s.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `to_bytes` and the byte view agree with bit-serial packing at
        /// every length in 0..=300.
        #[test]
        fn packing_matches_the_bit_serial_oracle(
            pool in prop::collection::vec(any::<bool>(), 300..=300)
        ) {
            for len in 0..=300 {
                assert_kernels_match(&BitString::from_bools(&pool[..len]));
            }
        }

        /// Word-wise `slice` matches the bit-serial reference from every
        /// start offset mod 64, at lengths across word edges.
        #[test]
        fn slice_matches_the_bit_serial_oracle(
            pool in prop::collection::vec(any::<bool>(), 300..=300)
        ) {
            let s = BitString::from_bools(&pool);
            for start in 0..=172 {
                for len in EDGE_LENS.into_iter().filter(|&l| start + l <= 300) {
                    let sliced = s.slice(start, len);
                    prop_assert_eq!(sliced.to_bools(), reference_slice(&s, start, len));
                    assert_kernels_match(&sliced);
                }
                let tail = s.slice(start, 300 - start);
                prop_assert_eq!(tail.to_bools(), reference_slice(&s, start, 300 - start));
                assert_kernels_match(&tail);
            }
        }

        /// Word-wise `concat` and `extend_from_bits` match the bit-serial
        /// reference for every left length mod 64.
        #[test]
        fn concat_matches_the_bit_serial_oracle(
            left in prop::collection::vec(any::<bool>(), 130..=130),
            right in prop::collection::vec(any::<bool>(), 300..=300)
        ) {
            for la in 0..=130 {
                let a = BitString::from_bools(&left[..la]);
                for lb in EDGE_LENS {
                    let b = BitString::from_bools(&right[..lb]);
                    let joined = a.concat(&b);
                    prop_assert_eq!(joined.to_bools(), reference_concat(&a, &b));
                    assert_kernels_match(&joined);
                    let mut grown = a.clone();
                    grown.extend_from_bits(&b);
                    prop_assert_eq!(&grown, &joined);
                }
            }
        }

        /// Every constructor and mutator leaves the bits above `len` zero.
        #[test]
        fn padding_stays_zero_under_every_mutator(
            pool in prop::collection::vec(any::<bool>(), 300..=300)
        ) {
            for len in EDGE_LENS {
                let ones = BitString::from_fn(len, |_| true);
                let s = BitString::from_bools(&pool[..len]);
                let mut extended = BitString::from_bools(&pool[..len / 2]);
                extended.extend(pool[len / 2..len].iter().copied());
                for built in [
                    BitString::zeros(len),
                    ones.clone(),
                    extended,
                    s.xor(&ones),
                    ones.slice(0, len / 2),
                    ones.slice(len / 3, len - len / 3),
                    ones.concat(&s),
                    s.concat(&ones),
                ] {
                    prop_assert!(built.padding_is_zero(), "len {len}");
                }
                if len > 0 {
                    let mut set = s.clone();
                    set.set(len - 1, true);
                    set.set(0, true);
                    prop_assert!(set.padding_is_zero(), "set, len {len}");
                    let mut flipped = ones.clone();
                    flipped.flip(len - 1);
                    flipped.flip(len - 1);
                    prop_assert!(flipped.padding_is_zero(), "flip, len {len}");
                }
            }
        }
    }
}
