//! Counter-mode line encryption (the mode Silent Shredder builds on).
//!
//! The pad for a 64 B line is the concatenation of four AES encryptions of
//! the line's [`Iv`] with chunk indices 0..=3; data is XORed with the pad.
//! Decryption latency therefore overlaps the memory access (the pad can be
//! generated while the line is in flight), which is why the paper charges
//! only the XOR on the critical path (§2.2).

use crate::aes::Aes128;
use crate::iv::Iv;
use crate::Line;
use ss_common::LINE_SIZE;

/// A counter-mode encryption engine holding the processor key.
///
/// # Examples
///
/// ```
/// use ss_crypto::{CtrEngine, Iv};
///
/// let engine = CtrEngine::new([1u8; 16]);
/// let iv = Iv::new(42, 7, 1, 3);
/// let line = [0x5Au8; 64];
/// let ct = engine.encrypt_line(&iv, &line);
/// assert_eq!(engine.decrypt_line(&iv, &ct), line);
/// ```
#[derive(Debug, Clone)]
pub struct CtrEngine {
    aes: Aes128,
}

impl CtrEngine {
    /// Creates an engine from the 128-bit processor key.
    pub fn new(key: [u8; 16]) -> Self {
        CtrEngine {
            aes: Aes128::new(key),
        }
    }

    /// Generates the 64-byte one-time pad for `iv`: its four blocks,
    /// encrypted two at a time.
    pub fn pad(&self, iv: &Iv) -> Line {
        let [p0, p1] = self.aes.encrypt_pair(&iv.to_bytes(0), &iv.to_bytes(1));
        let [p2, p3] = self.aes.encrypt_pair(&iv.to_bytes(2), &iv.to_bytes(3));
        let mut pad = [0u8; LINE_SIZE];
        pad.copy_from_slice([p0, p1, p2, p3].as_flattened());
        pad
    }

    /// Encrypts a line under `iv` (XOR with the pad).
    pub fn encrypt_line(&self, iv: &Iv, plain: &Line) -> Line {
        let mut out = self.pad(iv);
        for (o, p) in out.iter_mut().zip(plain.iter()) {
            *o ^= p;
        }
        out
    }

    /// Decrypts a line under `iv`. Counter mode is an involution: this is
    /// the same operation as [`CtrEngine::encrypt_line`].
    pub fn decrypt_line(&self, iv: &Iv, cipher: &Line) -> Line {
        self.encrypt_line(iv, cipher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iv::MINOR_MAX;
    use ss_common::DetRng;

    fn random_line(rng: &mut DetRng) -> Line {
        let mut l = [0u8; LINE_SIZE];
        rng.fill_bytes(&mut l);
        l
    }

    #[test]
    fn roundtrip_many() {
        let engine = CtrEngine::new([3; 16]);
        let mut rng = DetRng::new(21);
        for i in 0..64 {
            let iv = Iv::new(i, (i % 64) as u8, i * 3, 1 + (i % 127) as u8);
            let line = random_line(&mut rng);
            assert_eq!(
                engine.decrypt_line(&iv, &engine.encrypt_line(&iv, &line)),
                line
            );
        }
    }

    #[test]
    fn different_iv_decrypts_to_garbage() {
        // The heart of Silent Shredder: changing any IV component by one
        // makes the old ciphertext unintelligible.
        let engine = CtrEngine::new([3; 16]);
        let line = [0u8; LINE_SIZE]; // even all-zero plaintext
        let iv = Iv::new(9, 5, 7, 3);
        let ct = engine.encrypt_line(&iv, &line);
        for other in [
            Iv::new(9, 5, 8, 3),  // major bumped (shred)
            Iv::new(9, 5, 7, 4),  // minor bumped
            Iv::new(9, 6, 7, 3),  // different block
            Iv::new(10, 5, 7, 3), // different page
        ] {
            let garbage = engine.decrypt_line(&other, &ct);
            assert_ne!(garbage, line);
            // And the garbage should look random-ish, not structured.
            let zeros = garbage.iter().filter(|&&b| b == 0).count();
            assert!(zeros < 16, "suspiciously structured garbage");
        }
    }

    /// The pad is the four blocks `encrypt_block(iv.to_bytes(c))`,
    /// whichever kernel computes them. The IVs cover the extreme block,
    /// minor and major values.
    #[test]
    fn pad_is_four_block_encryptions() {
        let engine = CtrEngine::new([0x3C; 16]);
        let aes = Aes128::new([0x3C; 16]);
        let mut rng = DetRng::new(0x9AD);
        let extremes = [
            Iv::new(0, 0, 0, 0),
            Iv::new(u64::MAX, 63, u64::MAX, MINOR_MAX),
            Iv::new(1 << 47, 63, u64::MAX, 1),
        ];
        let seeded = (0..1_000).map(|_| {
            Iv::new(
                rng.next_u64(),
                rng.below(64) as u8,
                rng.next_u64(),
                rng.below(u64::from(MINOR_MAX) + 1) as u8,
            )
        });
        for iv in extremes.into_iter().chain(seeded) {
            let blocks = [0, 1, 2, 3].map(|c| aes.encrypt_block(&iv.to_bytes(c)));
            assert_eq!(engine.pad(&iv), *blocks.as_flattened(), "{iv:?}");
        }
    }

    #[test]
    fn pads_are_unique_per_chunk() {
        let engine = CtrEngine::new([3; 16]);
        let pad = engine.pad(&Iv::new(1, 1, 1, 1));
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert_ne!(pad[a * 16..a * 16 + 16], pad[b * 16..b * 16 + 16]);
            }
        }
    }

    #[test]
    fn same_plaintext_different_blocks_different_ciphertext() {
        // Counter mode defeats dictionary attacks that plague ECB: equal
        // plaintext lines encrypt differently at different locations.
        let engine = CtrEngine::new([3; 16]);
        let line = [0x11u8; LINE_SIZE];
        let c0 = engine.encrypt_line(&Iv::new(0, 0, 1, 1), &line);
        let c1 = engine.encrypt_line(&Iv::new(0, 1, 1, 1), &line);
        assert_ne!(c0, c1);
    }

    #[test]
    fn different_keys_different_pads() {
        let a = CtrEngine::new([1; 16]);
        let b = CtrEngine::new([2; 16]);
        let iv = Iv::new(5, 5, 5, 5);
        assert_ne!(a.pad(&iv), b.pad(&iv));
    }
}
