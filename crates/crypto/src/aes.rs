//! Portable AES-128 (encrypt-only).
//!
//! Used as the PRG/random-oracle engine throughout the OT and garbling
//! stacks, mirroring the fixed-key AES constructions of modern MPC
//! implementations. Verified against the FIPS-197 appendix vectors.

use crate::Block;

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

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// The four classic encryption T-tables, derived from the S-box at first
/// use. `TE[0][x] = (2·S(x), S(x), S(x), 3·S(x))` packed big-endian, and
/// `TE[k]` is `TE[0]` rotated right by `k` bytes.
fn te_tables() -> &'static [[u32; 256]; 4] {
    use std::sync::OnceLock;
    static TE: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TE.get_or_init(|| {
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let s = SBOX[x];
            let s2 = xtime(s);
            let s3 = s2 ^ s;
            let w = u32::from_be_bytes([s2, s, s, s3]);
            te[0][x] = w;
            te[1][x] = w.rotate_right(8);
            te[2][x] = w.rotate_right(16);
            te[3][x] = w.rotate_right(24);
        }
        te
    })
}

/// An AES-128 cipher with a fixed expanded key (encryption direction only —
/// MPC constructions never need decryption). Uses the T-table formulation;
/// the straightforward byte-wise rounds are kept as a test reference.
///
/// ```
/// use abnn2_crypto::{Aes128, Block};
/// let key = Block::from_bytes([0u8; 16]);
/// let aes = Aes128::new(key);
/// let c = aes.encrypt_block(Block::ZERO);
/// assert_ne!(c, Block::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    round_key_words: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    #[must_use]
    pub fn new(key: Block) -> Self {
        let kb = key.to_bytes();
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in kb.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        let mut round_key_words = [[0u32; 4]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                round_key_words[r][c] = u32::from_be_bytes(w[4 * r + c]);
            }
        }
        Aes128 { round_keys, round_key_words }
    }

    /// The 11 expanded round keys, each in AES state byte order. Exposed
    /// for batched backends ([`mod@crate::backend`]) that re-load the schedule
    /// into vector registers.
    #[must_use]
    pub fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts a batch of blocks in place through the selected
    /// [`crate::backend::CryptoBackend`]. Bit-identical to per-block
    /// [`encrypt_block`](Self::encrypt_block) on every backend.
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        crate::backend::backend().aes_encrypt_blocks(self, blocks);
    }

    /// Encrypts one 16-byte block.
    ///
    /// Always the portable T-table path, on AES-NI hosts too: this is the
    /// definition the batched [`mod@crate::backend`] shapes are tested against,
    /// not a production path. No protocol code calls it (`scripts/check.sh`
    /// greps for that); everything hot goes through a slice.
    #[must_use]
    pub fn encrypt_block(&self, pt: Block) -> Block {
        let te = te_tables();
        let b = pt.to_bytes();
        let rk = &self.round_key_words;
        let mut s = [0u32; 4];
        for c in 0..4 {
            s[c] =
                u32::from_be_bytes([b[4 * c], b[4 * c + 1], b[4 * c + 2], b[4 * c + 3]]) ^ rk[0][c];
        }
        for rkr in rk.iter().take(10).skip(1) {
            let mut t = [0u32; 4];
            for c in 0..4 {
                t[c] = te[0][(s[c] >> 24) as usize]
                    ^ te[1][((s[(c + 1) % 4] >> 16) & 0xff) as usize]
                    ^ te[2][((s[(c + 2) % 4] >> 8) & 0xff) as usize]
                    ^ te[3][(s[(c + 3) % 4] & 0xff) as usize]
                    ^ rkr[c];
            }
            s = t;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let mut out = [0u8; 16];
        for c in 0..4 {
            let w = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[((s[(c + 1) % 4] >> 16) & 0xff) as usize],
                SBOX[((s[(c + 2) % 4] >> 8) & 0xff) as usize],
                SBOX[(s[(c + 3) % 4] & 0xff) as usize],
            ]) ^ rk[10][c];
            out[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
        Block::from_bytes(out)
    }

    /// Reference byte-wise implementation, kept to cross-check the T-table
    /// fast path in tests.
    #[must_use]
    pub fn encrypt_block_reference(&self, pt: Block) -> Block {
        let mut s = pt.to_bytes();
        add_round_key(&mut s, &self.round_keys[0]);
        for r in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[r]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[10]);
        Block::from_bytes(s)
    }
}

#[inline]
fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State layout is column-major: byte `s[4c + r]` is row r, column c.
#[inline]
fn shift_rows(s: &mut [u8; 16]) {
    let t = *s;
    for c in 0..4 {
        s[4 * c + 1] = t[4 * ((c + 1) % 4) + 1];
        s[4 * c + 2] = t[4 * ((c + 2) % 4) + 2];
        s[4 * c + 3] = t[4 * ((c + 3) % 4) + 3];
    }
}

#[inline]
fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut s[4 * c..4 * c + 4];
        let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
        let t = a0 ^ a1 ^ a2 ^ a3;
        col[0] = a0 ^ t ^ xtime(a0 ^ a1);
        col[1] = a1 ^ t ^ xtime(a1 ^ a2);
        col[2] = a2 ^ t ^ xtime(a2 ^ a3);
        col[3] = a3 ^ t ^ xtime(a3 ^ a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_197_appendix_b() {
        // Key = 2b7e151628aed2a6abf7158809cf4f3c, PT = 3243f6a8885a308d313198a2e0370734
        let key = Block::from_bytes([
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let pt = Block::from_bytes([
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ]);
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(key).encrypt_block(pt).to_bytes(), expect);
    }

    #[test]
    fn fips_197_appendix_c1() {
        // Key = 000102030405060708090a0b0c0d0e0f, PT = 00112233445566778899aabbccddeeff
        let key = Block::from_bytes(std::array::from_fn(|i| i as u8));
        let pt = Block::from_bytes(std::array::from_fn(|i| (i as u8) * 0x11));
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(key).encrypt_block(pt).to_bytes(), expect);
    }

    #[test]
    fn t_table_matches_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..64 {
            let key = Block::from(rng.gen::<u128>());
            let pt = Block::from(rng.gen::<u128>());
            let aes = Aes128::new(key);
            assert_eq!(aes.encrypt_block(pt), aes.encrypt_block_reference(pt));
        }
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let k1 = Block::from(1u128);
        let k2 = Block::from(2u128);
        let pt = Block::from(42u128);
        assert_eq!(Aes128::new(k1).encrypt_block(pt), Aes128::new(k1).encrypt_block(pt));
        assert_ne!(Aes128::new(k1).encrypt_block(pt), Aes128::new(k2).encrypt_block(pt));
    }
}
