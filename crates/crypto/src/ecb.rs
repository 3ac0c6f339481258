//! Direct (ECB) line encryption — the baseline mode of §2.2.
//!
//! Each 16 B chunk of the line is encrypted independently under the key,
//! with no IV. The paper rejects this mode because (a) decryption latency
//! adds to the LLC miss path, and (b) identical plaintext blocks produce
//! identical ciphertext wherever they occur, enabling dictionary and
//! replay attacks. Both properties are demonstrated in this module's tests
//! and in the security integration tests.

use crate::aes::Aes128;
use crate::Line;
use ss_common::LINE_SIZE;

/// A direct-encryption engine (electronic code book over 16 B chunks).
///
/// # Examples
///
/// ```
/// use ss_crypto::EcbEngine;
///
/// let engine = EcbEngine::new([1u8; 16]);
/// let line = [9u8; 64];
/// let ct = engine.encrypt_line(&line);
/// assert_eq!(engine.decrypt_line(&ct), line);
/// ```
#[derive(Debug, Clone)]
pub struct EcbEngine {
    aes: Aes128,
}

impl EcbEngine {
    /// Creates an engine from the 128-bit key.
    pub fn new(key: [u8; 16]) -> Self {
        EcbEngine {
            aes: Aes128::new(key),
        }
    }

    /// Encrypts a 64 B line chunk-by-chunk.
    pub fn encrypt_line(&self, plain: &Line) -> Line {
        by_pairs(plain, |a, b| self.aes.encrypt_pair(a, b))
    }

    /// Decrypts a 64 B line chunk-by-chunk.
    pub fn decrypt_line(&self, cipher: &Line) -> Line {
        by_pairs(cipher, |a, b| self.aes.decrypt_pair(a, b))
    }
}

/// Runs `kernel` on the line's four 16 B chunks, two at a time.
#[inline(always)]
fn by_pairs(line: &Line, kernel: impl Fn(&[u8; 16], &[u8; 16]) -> [[u8; 16]; 2]) -> Line {
    let mut chunks = [[0u8; 16]; 4];
    for (dst, src) in chunks.iter_mut().zip(line.chunks_exact(16)) {
        dst.copy_from_slice(src);
    }
    let [c0, c1, c2, c3] = chunks;
    let [o0, o1] = kernel(&c0, &c1);
    let [o2, o3] = kernel(&c2, &c3);
    let mut out = [0u8; LINE_SIZE];
    out.copy_from_slice([o0, o1, o2, o3].as_flattened());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let engine = EcbEngine::new([0xCC; 16]);
        let mut line = [0u8; LINE_SIZE];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        assert_eq!(engine.decrypt_line(&engine.encrypt_line(&line)), line);
    }

    /// Both line functions equal their four chunks run through the
    /// one-block kernel, on seeded lines and keys.
    #[test]
    fn lines_are_four_block_operations() {
        let mut rng = ss_common::DetRng::new(0xEC8);
        for _ in 0..1_000 {
            let mut key = [0u8; 16];
            let mut line = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut line);
            let (engine, aes) = (EcbEngine::new(key), Aes128::new(key));
            let per_block = |f: &dyn Fn(&[u8; 16]) -> [u8; 16]| {
                let mut out = [0u8; LINE_SIZE];
                for (dst, src) in out.chunks_exact_mut(16).zip(line.chunks_exact(16)) {
                    let mut block = [0u8; 16];
                    block.copy_from_slice(src);
                    dst.copy_from_slice(&f(&block));
                }
                out
            };
            assert_eq!(
                engine.encrypt_line(&line),
                per_block(&|b| aes.encrypt_block(b))
            );
            assert_eq!(
                engine.decrypt_line(&line),
                per_block(&|b| aes.decrypt_block(b))
            );
        }
    }

    #[test]
    fn ecb_leaks_equality() {
        // The dictionary-attack weakness: identical plaintext chunks give
        // identical ciphertext chunks, everywhere.
        let engine = EcbEngine::new([0xCC; 16]);
        let line = [7u8; LINE_SIZE];
        let ct = engine.encrypt_line(&line);
        assert_eq!(ct[0..16], ct[16..32]);
        assert_eq!(ct[0..16], ct[48..64]);
        // Same line at a "different address" is byte-identical: no spatial
        // uniqueness at all.
        assert_eq!(engine.encrypt_line(&line), ct);
    }
}
