//! Key-generation substrate for the ARO-PUF (DATE 2014) reproduction.
//!
//! The paper's final claim — **~24× area reduction for a 128-bit key** —
//! is a system-level consequence of reliability: a PUF with a lower bit
//! error rate needs fewer raw bits and a much lighter error-correcting
//! code. This crate implements the whole key-generation stack from
//! scratch:
//!
//! * [`gf`] — GF(2^m) arithmetic via log/antilog tables.
//! * [`poly`] — polynomials over GF(2^m) and over GF(2).
//! * [`bch`] — binary BCH codes: generator construction from cyclotomic
//!   cosets, systematic encoding, Berlekamp–Massey + Chien decoding.
//! * [`golay`] — the perfect (23, 12, 7) Golay code with a syndrome-table
//!   decoder.
//! * [`repetition`] — repetition codes with majority decoding.
//! * [`mod@concat`] — the standard PUF construction: inner repetition ⊗ outer
//!   BCH, with analytic key-failure probability.
//! * [`shortened`] — shortened wrappers that fit a code's dimension to a
//!   key exactly.
//! * [`code`] — the [`code::Code`] trait tying them together.
//! * [`fuzzy`] — the code-offset fuzzy extractor (secure sketch + key
//!   derivation), the construction PUF key generators actually use.
//! * [`hash`] — SHA-256 (FIPS 180-4), implemented in-house, for key
//!   derivation, and the FNV-1a digest that seals stored helper data.
//! * [`area`] — gate-equivalent area models for the decoders and the PUF
//!   array, plus the design-space search behind the paper's area table.
//! * [`keygen`] — end-to-end 128-bit key enrollment and reconstruction,
//!   plus helper-data security accounting.
//! * [`soft`] — soft-decision decoding (confidence-weighted inner
//!   majority) and erasure-aware key reconstruction.
//! * [`refresh`] — the self-healing key lifecycle: periodic helper-data
//!   refresh enrollment against the aged response.
//!
//! # Example
//!
//! ```
//! use aro_ecc::bch::BchCode;
//! use aro_ecc::code::Code;
//! use aro_metrics::bits::BitString;
//!
//! // BCH(15, 7, t=2): encode, corrupt two bits, decode.
//! let code = BchCode::new(4, 2);
//! assert_eq!((code.n(), code.k(), code.t()), (15, 7, 2));
//! let message: BitString = (0..7).map(|i| i % 2 == 0).collect();
//! let mut word = code.encode(&message);
//! word.flip(1);
//! word.flip(9);
//! let decoded = code.decode(&word).expect("within correction capability");
//! assert_eq!(code.extract_message(&decoded), message);
//! ```

pub mod area;
pub mod bch;
pub mod code;
pub mod concat;
pub mod fuzzy;
pub mod gf;
pub mod golay;
pub mod hash;
pub mod keygen;
pub mod poly;
pub mod refresh;
pub mod repetition;
pub mod shortened;
pub mod soft;

pub use bch::BchCode;
pub use code::Code;
pub use concat::ConcatenatedCode;
pub use fuzzy::FuzzyExtractor;
pub use golay::GolayCode;
pub use repetition::RepetitionCode;
pub use shortened::ShortenedCode;
pub use refresh::{continuity_gate, refresh_enrollment, RefreshSchedule};
pub use soft::{Erasures, SoftBit, SoftConcatDecoder};
