//! SHA-256 (FIPS 180-4), implemented from scratch, and the FNV-1a seal
//! digest.
//!
//! The fuzzy extractor derives the final key as `SHA-256(w ‖ salt)`; no
//! cryptography crate is in the offline dependency allowlist, and the
//! algorithm is 80 lines, so it lives here. Verified against the FIPS
//! test vectors below.
//!
//! [`fnv1a`] is not cryptographic: it is the cheap integrity seal stored
//! helper data and enrollment records are checked against on every read.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes the SHA-256 digest of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());

    let mut h = H0;
    let mut w = [0u32; 64];
    for chunk in message.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                chunk[4 * i],
                chunk[4 * i + 1],
                chunk[4 * i + 2],
                chunk[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (state, val) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(val);
        }
    }

    let mut digest = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        digest[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// The 64-bit FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a 64-bit FNV-1a state. Chaining calls hashes the
/// concatenation, so a seal can stream fields (e.g.
/// `BitString::bytes`) without assembling them in a buffer.
#[must_use]
pub fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .into_iter()
        .fold(hash, |hash, b| (hash ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Hex rendering of a digest (for display and tests).
#[must_use]
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV1A_OFFSET, []), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, *b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, *b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_OFFSET, *b"foo"), *b"bar"),
            fnv1a(FNV1A_OFFSET, *b"foobar")
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn multi_block_boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes cross the padding boundaries.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let d2 = sha256(&data);
            assert_eq!(d1, d2);
            assert_ne!(d1, [0u8; 32]);
        }
    }

    #[test]
    fn single_bit_avalanche() {
        let a = sha256(b"the quick brown fox");
        let b = sha256(b"the quick brown foy");
        let differing: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!(differing > 80, "avalanche: {differing}/256 bits differ");
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x0a]), "00ff0a");
    }
}
