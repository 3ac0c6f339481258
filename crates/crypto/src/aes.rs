//! AES-128 block cipher (FIPS-197), table-driven.
//!
//! Each middle round is sixteen lookups into four 256-entry `u32`
//! tables that fuse SubBytes, ShiftRows and MixColumns (the T-table
//! implementation the Rijndael proposal describes for 32-bit
//! processors). Decryption is the equivalent inverse
//! cipher of FIPS-197 §5.3.5: its middle round keys carry InvMixColumns,
//! so it runs on four inverse tables of the same shape. All eight
//! tables are built at compile time by `const fn` from the S-box.
//!
//! A block's ten rounds are one chain of dependent lookups: every round
//! indexes the tables with the state the round before produced. A line
//! is four independent blocks, so besides the one-block kernel
//! ([`Aes128::encrypt_block`], [`Aes128::decrypt_block`]) the crate has
//! a two-block one, `encrypt_pair` and `decrypt_pair`. It carries both
//! blocks' four column words through each round side by side, so the
//! processor overlaps the two chains, and the line engines run a line
//! as two pairs. Two, not four: four blocks' sixteen state words no
//! longer fit the general registers of x86-64, and their spills cost
//! more than the extra overlap gains (DESIGN.md §18). Both kernels use
//! the same tables, round keys and XOR order, so they return the same
//! bytes.
//!
//! The lookups are indexed by state bytes, so the kernel is not
//! constant-time; neither was the byte-oriented one it replaced. That is
//! acceptable here: the key is a simulation constant, and in the
//! simulator encryption latency is a model parameter. What matters is
//! that the bytes stored in the simulated NVM are genuinely encrypted,
//! so remanence and shredding properties can be tested end to end.

// The kernel below indexes 256-entry tables with `u8 as usize` values
// and fixed-size arrays with constant indices — every access is
// provably in range, and spelling the round structure with `get()`
// would obscure it. The crate-wide `clippy::indexing_slicing` deny
// therefore stops at this module boundary; new non-kernel code in
// ss-crypto must use checked access.
#![allow(clippy::indexing_slicing)]

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse AES S-box.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round constants for AES-128 key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// General multiplication in GF(2^8).
#[inline]
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// Four round tables over `sbox`. The state is four big-endian column
/// words (row 0 in the top byte). `t[0][x]` is the column `mix` scaled
/// by `sbox[x]`: what a row-0 input byte `x` adds to its output column.
/// `t[r]` is `t[0]` rotated right by `8r` bits, the same for row `r`,
/// because each row of the (Inv)MixColumns matrix is the one above it
/// rotated.
const fn round_tables(sbox: &[u8; 256], mix: [u8; 4]) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let w = u32::from_be_bytes([
            gmul(s, mix[0]),
            gmul(s, mix[1]),
            gmul(s, mix[2]),
            gmul(s, mix[3]),
        ]);
        t[0][x] = w;
        t[1][x] = w.rotate_right(8);
        t[2][x] = w.rotate_right(16);
        t[3][x] = w.rotate_right(24);
        x += 1;
    }
    t
}

/// SubBytes then MixColumns (first column `{02, 01, 01, 03}`).
static TE: [[u32; 256]; 4] = round_tables(&SBOX, [0x02, 0x01, 0x01, 0x03]);

/// InvSubBytes then InvMixColumns (first column `{0e, 09, 0d, 0b}`).
static TD: [[u32; 256]; 4] = round_tables(&INV_SBOX, [0x0e, 0x09, 0x0d, 0x0b]);

/// Row `r`'s byte of column word `w`, as a table index.
#[inline(always)]
fn byte(w: u32, r: usize) -> usize {
    (w >> (24 - 8 * r)) as u8 as usize
}

/// The row gather of (Inv)ShiftRows on the four column words of a
/// state: entry `c` lists the words output column `c` takes rows 0–3
/// from. ShiftRows takes row `r` from column `c + r`, InvShiftRows from
/// column `c − r` (mod 4).
#[inline(always)]
fn shift_rows([s0, s1, s2, s3]: [u32; 4], inverse: bool) -> [[u32; 4]; 4] {
    if inverse {
        [
            [s0, s3, s2, s1],
            [s1, s0, s3, s2],
            [s2, s1, s0, s3],
            [s3, s2, s1, s0],
        ]
    } else {
        [
            [s0, s1, s2, s3],
            [s1, s2, s3, s0],
            [s2, s3, s0, s1],
            [s3, s0, s1, s2],
        ]
    }
}

/// One middle round: each output column looks its four gathered rows up
/// in the round tables, then adds its round-key word.
#[inline(always)]
fn round(s: [u32; 4], [k0, k1, k2, k3]: [u32; 4], inverse: bool) -> [u32; 4] {
    let t = if inverse { &TD } else { &TE };
    let mix = |[w0, w1, w2, w3]: [u32; 4]| {
        t[0][byte(w0, 0)] ^ t[1][byte(w1, 1)] ^ t[2][byte(w2, 2)] ^ t[3][byte(w3, 3)]
    };
    let [c0, c1, c2, c3] = shift_rows(s, inverse);
    [k0 ^ mix(c0), k1 ^ mix(c1), k2 ^ mix(c2), k3 ^ mix(c3)]
}

/// The last round, which has no (Inv)MixColumns: the same row gather as
/// [`round`] through the (inverse) S-box, then round key `rk`, stored as
/// bytes.
#[inline(always)]
fn last_round(s: [u32; 4], rk: [u32; 4], inverse: bool) -> [u8; 16] {
    let sbox = if inverse { &INV_SBOX } else { &SBOX };
    let sub = |[w0, w1, w2, w3]: [u32; 4]| {
        u32::from_be_bytes([
            sbox[byte(w0, 0)],
            sbox[byte(w1, 1)],
            sbox[byte(w2, 2)],
            sbox[byte(w3, 3)],
        ])
    };
    let mut out = [0u8; 16];
    for ((dst, cols), k) in out.chunks_exact_mut(4).zip(shift_rows(s, inverse)).zip(rk) {
        dst.copy_from_slice(&(sub(cols) ^ k).to_be_bytes());
    }
    out
}

/// Loads a block as column words and adds round key `rk`.
#[inline(always)]
fn load(block: &[u8; 16], rk: [u32; 4]) -> [u32; 4] {
    let w = |c: usize| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    };
    [w(0) ^ rk[0], w(1) ^ rk[1], w(2) ^ rk[2], w(3) ^ rk[3]]
}

/// Runs the ten rounds on one block: the forward cipher under its round
/// keys, or with `inverse` the equivalent inverse cipher under its own.
#[inline(always)]
fn rounds(keys: &[[u32; 4]; 11], inverse: bool, block: &[u8; 16]) -> [u8; 16] {
    let [first, middle @ .., last] = keys;
    let mut s = load(block, *first);
    for rk in middle {
        s = round(s, *rk, inverse);
    }
    last_round(s, *last, inverse)
}

/// [`rounds`] on two blocks side by side. The blocks are independent,
/// so their two chains of dependent lookups overlap instead of running
/// one after the other.
#[inline(always)]
fn rounds_pair(keys: &[[u32; 4]; 11], inverse: bool, a: &[u8; 16], b: &[u8; 16]) -> [[u8; 16]; 2] {
    let [first, middle @ .., last] = keys;
    let (mut sa, mut sb) = (load(a, *first), load(b, *first));
    for rk in middle {
        sa = round(sa, *rk, inverse);
        sb = round(sb, *rk, inverse);
    }
    [
        last_round(sa, *last, inverse),
        last_round(sb, *last, inverse),
    ]
}

/// SubWord of the key schedule: the S-box on each byte.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// InvMixColumns of one column word. `TD[r][SBOX[b]]` is InvMixColumns
/// of `b` alone in row `r`, since InvSubBytes undoes the S-box.
fn inv_mix_column(w: u32) -> u32 {
    (0..4).fold(0, |acc, r| acc ^ TD[r][SBOX[byte(w, r)] as usize])
}

/// An expanded AES-128 key, ready to encrypt or decrypt 16-byte blocks.
///
/// # Examples
///
/// ```
/// use ss_crypto::Aes128;
///
/// let aes = Aes128::new([0u8; 16]);
/// let block = [1u8; 16];
/// let ct = aes.encrypt_block(&block);
/// assert_eq!(aes.decrypt_block(&ct), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, as column words.
    enc: [[u32; 4]; 11],
    /// Round keys of the equivalent inverse cipher: `dec[r]` is
    /// `enc[10 - r]`, with InvMixColumns applied for `r` in `1..10`.
    dec: [[u32; 4]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("key", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys, and the 11 of the
    /// equivalent inverse cipher.
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (wi, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ t;
        }
        let enc: [[u32; 4]; 11] = core::array::from_fn(|r| core::array::from_fn(|c| w[4 * r + c]));
        let dec = core::array::from_fn(|r| {
            let k = enc[10 - r];
            if r == 0 || r == 10 {
                k
            } else {
                k.map(inv_mix_column)
            }
        });
        Aes128 { enc, dec }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        rounds(&self.enc, false, block)
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        rounds(&self.dec, true, block)
    }

    /// Encrypts two blocks at once: `[encrypt_block(a),
    /// encrypt_block(b)]`, with the two blocks' rounds interleaved.
    pub(crate) fn encrypt_pair(&self, a: &[u8; 16], b: &[u8; 16]) -> [[u8; 16]; 2] {
        rounds_pair(&self.enc, false, a, b)
    }

    /// Decrypts two blocks at once: `[decrypt_block(a),
    /// decrypt_block(b)]`, with the two blocks' rounds interleaved.
    pub(crate) fn decrypt_pair(&self, a: &[u8; 16], b: &[u8; 16]) -> [[u8; 16]; 2] {
        rounds_pair(&self.dec, true, a, b)
    }
}

/// The byte-oriented FIPS-197 rounds the table-driven kernel replaced,
/// kept as the oracle that `tables_match_the_byte_oriented_rounds`
/// compares it against. The state is column-major as in FIPS-197:
/// `s[r + 4c]`.
#[cfg(test)]
mod reference {
    use super::{gmul, xtime, INV_SBOX, RCON, SBOX};

    /// The 11 round keys as FIPS-197 §5.2 expands them, byte by byte.
    pub(super) fn expand(key: [u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        round_keys
    }

    pub(super) fn encrypt(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        let mut s = *block;
        add_round_key(&mut s, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, rk);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &round_keys[10]);
        s
    }

    pub(super) fn decrypt(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        let mut s = *block;
        add_round_key(&mut s, &round_keys[10]);
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        for rk in round_keys[1..10].iter().rev() {
            add_round_key(&mut s, rk);
            inv_mix_columns(&mut s);
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
        }
        add_round_key(&mut s, &round_keys[0]);
        s
    }

    fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            s[i] ^= rk[i];
        }
    }

    fn sub_bytes(s: &mut [u8; 16]) {
        for b in s.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(s: &mut [u8; 16]) {
        for b in s.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    fn shift_rows(s: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
            for c in 0..4 {
                s[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(s: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
            for c in 0..4 {
                s[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(s: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            s[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn inv_mix_columns(s: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            s[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            s[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            s[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(&plain), expect);
        assert_eq!(aes.decrypt_block(&expect), plain);
    }

    /// FIPS-197 Appendix C.1 (AES-128 known-answer test).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(&plain), expect);
        assert_eq!(aes.decrypt_block(&expect), plain);
    }

    /// Both kernels, the one-block and the two-block one, in both
    /// directions, against the byte-oriented rounds. Each pair runs on
    /// two different blocks and on one block passed twice.
    #[test]
    fn tables_match_the_byte_oriented_rounds() {
        let mut rng = ss_common::DetRng::new(0xAE5_7AB1E);
        for _ in 0..10_000 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            let mut other = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            rng.fill_bytes(&mut other);
            let aes = Aes128::new(key);
            let round_keys = reference::expand(key);
            let enc = |b: &[u8; 16]| reference::encrypt(&round_keys, b);
            let dec = |b: &[u8; 16]| reference::decrypt(&round_keys, b);
            assert_eq!(aes.encrypt_block(&block), enc(&block));
            assert_eq!(aes.decrypt_block(&block), dec(&block));
            assert_eq!(aes.encrypt_pair(&block, &other), [enc(&block), enc(&other)]);
            assert_eq!(aes.decrypt_pair(&block, &other), [dec(&block), dec(&other)]);
            assert_eq!(aes.encrypt_pair(&block, &block), [enc(&block); 2]);
            assert_eq!(aes.decrypt_pair(&block, &block), [dec(&block); 2]);
        }
    }

    #[test]
    fn roundtrips_many_blocks() {
        let aes = Aes128::new([0xA5; 16]);
        let mut rng = ss_common::DetRng::new(11);
        for _ in 0..256 {
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut block);
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn diffusion_single_bit_flip() {
        let aes = Aes128::new([0x5A; 16]);
        let a = [0u8; 16];
        let mut b = a;
        b[0] ^= 1;
        let ca = aes.encrypt_block(&a);
        let cb = aes.encrypt_block(&b);
        let differing_bits: u32 = ca
            .iter()
            .zip(cb.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        // Avalanche: roughly half of 128 bits should flip.
        assert!(differing_bits > 40, "only {differing_bits} bits differ");
    }

    #[test]
    fn debug_redacts_key() {
        let aes = Aes128::new([9; 16]);
        let dbg = format!("{aes:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains('9'));
    }
}
