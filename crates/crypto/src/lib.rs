//! Cryptographic substrate for the Silent Shredder reproduction.
//!
//! The paper assumes processor-side **counter-mode memory encryption** in the
//! style of Yan et al. \[40\]: every 64-byte cache line written to NVM is
//! XORed with a one-time pad generated by encrypting an initialization vector
//! (IV) under a processor key. The IV is `{page id, page offset, per-page
//! major counter, per-block minor counter}` ([`Iv`]). Counter integrity is
//! protected by a (Bonsai) Merkle tree \[31\] ([`merkle::MerkleTree`]).
//!
//! Everything here is implemented from scratch on `std` only:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), the pad generator.
//! * [`ctr`] — counter-mode line encryption ([`CtrEngine`]).
//! * [`ecb`] — direct (electronic-code-book) line encryption, the insecure
//!   baseline the paper contrasts in §2.2.
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), hashing for the Merkle tree.
//! * [`merkle`] — integrity tree over encryption-counter blocks.
//! * [`share`] — two-share secret splitting for the scattered memory
//!   backend (shred = discard one share).
//!
//! # Examples
//!
//! ```
//! use ss_crypto::{CtrEngine, Iv};
//!
//! let engine = CtrEngine::new([7u8; 16]);
//! let iv = Iv::new(3, 5, 1, 1);
//! let plain = [0xABu8; 64];
//! let cipher = engine.encrypt_line(&iv, &plain);
//! assert_ne!(cipher, plain);
//! assert_eq!(engine.decrypt_line(&iv, &cipher), plain);
//!
//! // Decrypting under a different IV (e.g. after a shred bumped the major
//! // counter) yields unintelligible data — the paper's key insight.
//! let shredded_iv = Iv::new(3, 5, 2, 0);
//! assert_ne!(engine.decrypt_line(&shredded_iv, &cipher), plain);
//! ```

#![forbid(unsafe_code)]

pub mod aes;
pub mod ctr;
pub mod ecb;
pub mod iv;
pub mod merkle;
pub mod sha256;
pub mod share;

pub use aes::Aes128;
pub use ctr::CtrEngine;
pub use ecb::EcbEngine;
pub use iv::Iv;
pub use merkle::MerkleTree;
pub use sha256::{sha256, Digest};

use ss_common::LINE_SIZE;

/// A 64-byte cache line payload, the unit of memory encryption.
pub type Line = [u8; LINE_SIZE];
