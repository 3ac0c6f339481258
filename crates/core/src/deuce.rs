//! DEUCE-style write-efficient counter-mode encryption (Young et al.
//! \[43\]).
//!
//! DEUCE's observation: on a typical write-back only a few words of the
//! line changed, but full re-encryption diffuses the change over all 512
//! bits, defeating Data-Comparison Write. DEUCE therefore re-encrypts
//! only the words modified since the last *epoch*, leaving the other
//! words' ciphertext bit-identical so DCW can skip them.
//!
//! This module implements a per-16-B-chunk variant: each block tracks an
//! `epoch_minor` and a modified bitmap; modified chunks use the block's
//! current minor counter, unmodified chunks still decrypt under the epoch
//! minor. Every `epoch` writes the whole line is re-encrypted and the
//! epoch advances.
//!
//! The paper notes Silent Shredder is *orthogonal* to DEUCE: DEUCE makes
//! unavoidable writes cheaper, the shredder removes shredding writes
//! entirely. The `ablation_dcw_fnw` bench quantifies the combination.

use ss_common::LINE_SIZE;
use ss_crypto::{CtrEngine, Iv, Line};

/// Number of 16 B chunks per line.
pub const CHUNKS: usize = LINE_SIZE / 16;

/// Per-block DEUCE metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeuceMeta {
    /// Minor counter under which unmodified chunks are encrypted.
    pub epoch_minor: u8,
    /// Which chunks have been re-encrypted (with the current minor) since
    /// the epoch began.
    pub modified: [bool; CHUNKS],
}

impl DeuceMeta {
    /// Fresh metadata at the start of an epoch.
    pub fn new_epoch(minor: u8) -> Self {
        DeuceMeta {
            epoch_minor: minor,
            modified: [false; CHUNKS],
        }
    }

    /// The minor counter chunk `i` is currently encrypted under.
    pub fn chunk_minor(&self, i: usize, current_minor: u8) -> u8 {
        if self.modified[i] {
            current_minor
        } else {
            self.epoch_minor
        }
    }
}

/// Encrypts a line where each chunk may use a different minor counter.
/// One line pad per distinct minor serves every chunk under it, so a
/// DEUCE line (epoch minor and current minor) costs at most two pads.
pub fn encrypt_chunked(
    engine: &CtrEngine,
    page_id: u64,
    block: u8,
    major: u64,
    chunk_minors: [u8; CHUNKS],
    plain: &Line,
) -> Line {
    let mut out = *plain;
    for (c, &minor) in chunk_minors.iter().enumerate() {
        if chunk_minors[..c].contains(&minor) {
            continue;
        }
        let pad = engine.pad(&Iv::new(page_id, block, major, minor));
        let chunks = out.chunks_exact_mut(16).zip(pad.chunks_exact(16));
        for ((dst, src), &m) in chunks.zip(&chunk_minors) {
            if m == minor {
                for (o, p) in dst.iter_mut().zip(src) {
                    *o ^= p;
                }
            }
        }
    }
    out
}

/// Decrypts a line where each chunk may use a different minor counter
/// (counter mode is an involution).
pub fn decrypt_chunked(
    engine: &CtrEngine,
    page_id: u64,
    block: u8,
    major: u64,
    chunk_minors: [u8; CHUNKS],
    cipher: &Line,
) -> Line {
    encrypt_chunked(engine, page_id, block, major, chunk_minors, cipher)
}

/// Which chunks of `new` differ from `old`.
pub fn changed_chunks(old: &Line, new: &Line) -> [bool; CHUNKS] {
    let mut out = [false; CHUNKS];
    for (c, flag) in out.iter_mut().enumerate() {
        *flag = old[c * 16..(c + 1) * 16] != new[c * 16..(c + 1) * 16];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CtrEngine {
        CtrEngine::new([0x42; 16])
    }

    #[test]
    fn chunked_roundtrip_uniform_minors() {
        let e = engine();
        let plain = [0x5A; LINE_SIZE];
        let minors = [3u8; CHUNKS];
        let ct = encrypt_chunked(&e, 7, 9, 11, minors, &plain);
        assert_eq!(decrypt_chunked(&e, 7, 9, 11, minors, &ct), plain);
        // Uniform chunk minors must agree with the plain line engine.
        let iv = Iv::new(7, 9, 11, 3);
        assert_eq!(e.encrypt_line(&iv, &plain), ct);
    }

    #[test]
    fn chunked_roundtrip_mixed_minors() {
        let e = engine();
        let mut plain = [0u8; LINE_SIZE];
        for (i, b) in plain.iter_mut().enumerate() {
            *b = i as u8;
        }
        let minors = [1, 9, 1, 4];
        let ct = encrypt_chunked(&e, 1, 2, 3, minors, &plain);
        assert_eq!(decrypt_chunked(&e, 1, 2, 3, minors, &ct), plain);
        // Wrong minor on one chunk corrupts exactly that chunk.
        let bad = decrypt_chunked(&e, 1, 2, 3, [1, 8, 1, 4], &ct);
        assert_eq!(bad[0..16], plain[0..16]);
        assert_ne!(bad[16..32], plain[16..32]);
        assert_eq!(bad[32..48], plain[32..48]);
    }

    /// Chunk `c` is XORed with chunk `c` of the line pad under its own
    /// minor, however many distinct minors the line mixes.
    #[test]
    fn chunks_take_their_own_minors_pad() {
        let e = engine();
        let mut rng = ss_common::DetRng::new(0xDE0CE);
        for _ in 0..500 {
            let mut plain = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut plain);
            let minors: [u8; CHUNKS] = core::array::from_fn(|_| 1 + rng.below(4) as u8);
            let (page, block, major) = (rng.next_u64(), rng.below(64) as u8, rng.next_u64());
            let mut expect = plain;
            for (c, dst) in expect.chunks_exact_mut(16).enumerate() {
                let pad = e.pad(&Iv::new(page, block, major, minors[c]));
                for (o, p) in dst.iter_mut().zip(&pad[c * 16..(c + 1) * 16]) {
                    *o ^= p;
                }
            }
            assert_eq!(
                encrypt_chunked(&e, page, block, major, minors, &plain),
                expect,
                "{minors:?}"
            );
        }
    }

    #[test]
    fn unmodified_chunks_keep_identical_ciphertext() {
        // The whole point of DEUCE: rewriting with one modified chunk
        // leaves the other chunks' ciphertext bit-identical.
        let e = engine();
        let old_plain = [0xAA; LINE_SIZE];
        let epoch_minor = 2u8;
        let ct_old = encrypt_chunked(&e, 5, 5, 5, [epoch_minor; CHUNKS], &old_plain);

        let mut new_plain = old_plain;
        new_plain[0] ^= 0xFF; // chunk 0 modified
        let new_minor = 3u8;
        let changed = changed_chunks(&old_plain, &new_plain);
        assert_eq!(changed, [true, false, false, false]);

        let mut minors = [epoch_minor; CHUNKS];
        minors[0] = new_minor;
        let mut ct_new = encrypt_chunked(&e, 5, 5, 5, minors, &new_plain);
        // Unmodified chunks: reuse the old ciphertext bytes verbatim.
        ct_new[16..].copy_from_slice(&ct_old[16..]);

        assert_eq!(ct_old[16..], ct_new[16..], "no diffusion outside chunk 0");
        assert_ne!(ct_old[..16], ct_new[..16]);
        assert_eq!(decrypt_chunked(&e, 5, 5, 5, minors, &ct_new), new_plain);
    }

    #[test]
    fn meta_tracks_chunk_minors() {
        let mut m = DeuceMeta::new_epoch(4);
        assert_eq!(m.chunk_minor(0, 9), 4);
        m.modified[0] = true;
        assert_eq!(m.chunk_minor(0, 9), 9);
        assert_eq!(m.chunk_minor(1, 9), 4);
    }

    #[test]
    fn changed_chunks_detects_all() {
        let a = [0u8; LINE_SIZE];
        let mut b = a;
        b[17] = 1;
        b[63] = 1;
        assert_eq!(changed_chunks(&a, &b), [false, true, false, true]);
        assert_eq!(changed_chunks(&a, &a), [false; CHUNKS]);
    }
}
