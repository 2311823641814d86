//! Packed-bit helpers and the column→row transposition used by OT extension.

/// Reads bit `i` from a packed little-endian bit buffer.
#[inline]
#[must_use]
pub fn get_bit(buf: &[u8], i: usize) -> bool {
    (buf[i / 8] >> (i % 8)) & 1 == 1
}

/// Sets bit `i` in a packed little-endian bit buffer.
#[inline]
pub fn set_bit(buf: &mut [u8], i: usize, v: bool) {
    if v {
        buf[i / 8] |= 1 << (i % 8);
    } else {
        buf[i / 8] &= !(1 << (i % 8));
    }
}

/// Packs a slice of bools into little-endian bytes.
#[must_use]
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// XORs `src` into `dst` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Transposes a packed bit matrix, the one kernel under every OT
/// extension: the PRGs produce columns, the hashes need rows.
///
/// `src` holds rows of `src_stride` bytes, bit `j` of a row at byte `j / 8`,
/// bit `j % 8`; `dst` receives bit column `j` of `src` as its row `j`, for
/// as many rows of `dst_stride` bytes as it holds. Source bits past that
/// are ignored and a last group of fewer than eight source rows is padded
/// with zero rows, so neither dimension has to be a multiple of eight. An
/// empty `dst` asks for nothing.
///
/// Whole 64×64 tiles go as 64 words in, [`transpose64`], 64 words out;
/// only the rows past the last multiple of 64 on either side take the 8×8
/// block path.
///
/// # Panics
///
/// Panics if a buffer is not a whole number of rows, if `dst` has more rows
/// than `src` has bit columns, or if `dst_stride` is not exactly the bytes
/// that the source row count packs into.
pub(crate) fn transpose_bits(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize) {
    if dst.is_empty() {
        return;
    }
    assert!(
        src.len().is_multiple_of(src_stride) && dst.len().is_multiple_of(dst_stride),
        "ragged bit matrix"
    );
    let (src_rows, dst_rows) = (src.len() / src_stride, dst.len() / dst_stride);
    assert!(dst_rows <= 8 * src_stride, "more rows asked for than the source has bit columns");
    assert_eq!(
        dst_stride,
        src_rows.div_ceil(8),
        "destination rows must hold one bit per source row"
    );
    // Tile (a, b): source rows 64·a.., bytes 8·b.. of each, to destination
    // rows 64·b.., bytes 8·a.. of each. Walking a band of 64 source rows
    // end to end reads each row front to back.
    let (tiles_a, tiles_b) = (src_rows / 64, dst_rows / 64);
    let mut tile = [0u64; 64];
    for a in 0..tiles_a {
        for b in 0..tiles_b {
            for (k, word) in tile.iter_mut().enumerate() {
                let at = (64 * a + k) * src_stride + 8 * b;
                *word = u64::from_le_bytes(src[at..at + 8].try_into().expect("eight bytes"));
            }
            transpose64(&mut tile);
            for (k, word) in tile.iter().enumerate() {
                let at = (64 * b + k) * dst_stride + 8 * a;
                dst[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
        }
    }
    // Block (r8, c): source rows 8·r8.., byte c of each, to destination
    // rows 8·c.., byte r8 of each.
    let mut block = |r8: usize, c: usize| {
        let mut x = [0u8; 8];
        for (k, byte) in x.iter_mut().enumerate().take(src_rows - 8 * r8) {
            *byte = src[(8 * r8 + k) * src_stride + c];
        }
        let y = transpose8(u64::from_le_bytes(x)).to_le_bytes();
        for (b, &byte) in y.iter().enumerate().take(dst_rows - 8 * c) {
            dst[(8 * c + b) * dst_stride + r8] = byte;
        }
    };
    let src_bytes = dst_rows.div_ceil(8);
    for r8 in 8 * tiles_a..dst_stride {
        for c in 0..src_bytes {
            block(r8, c);
        }
    }
    for r8 in 0..8 * tiles_a {
        for c in 8 * tiles_b..src_bytes {
            block(r8, c);
        }
    }
}

/// Transposes the 64×64 bit matrix whose row `k` is word `k` (bit `l` is
/// column `l`) in place: Eklundh's six rounds, each swapping the
/// off-diagonal `w×w` halves of every `2w×2w` block with one masked XOR
/// per pair of rows.
fn transpose64(x: &mut [u64; 64]) {
    const ROUNDS: [(usize, u64); 6] = [
        (32, 0x0000_0000_FFFF_FFFF),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (2, 0x3333_3333_3333_3333),
        (1, 0x5555_5555_5555_5555),
    ];
    for (w, mask) in ROUNDS {
        for pair in x.chunks_exact_mut(2 * w) {
            let (top, bottom) = pair.split_at_mut(w);
            for (t, b) in top.iter_mut().zip(bottom) {
                let d = ((*t >> w) ^ *b) & mask;
                *t ^= d << w;
                *b ^= d;
            }
        }
    }
}

/// Transposes the 8×8 bit matrix whose row `k` is byte `k` of `x`
/// (little-endian, bit `b` of a byte is column `b`): three rounds of
/// swapping the off-diagonal halves of 2×2, 4×4 and 8×8 blocks.
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The extension's transpose kernel on one heap vector per column and per
/// row. Exists for `bench/`, which times it as `ot.transpose_8192_us_t1`
/// and `_t2` (`threads` is accepted and has no effect), and for the
/// `iknp_transpose` row of `BENCH_crypto.json`; to be dropped by the next
/// `[benchmark]` PR together with the `_t2` row.
///
/// # Panics
///
/// Panics if any column is shorter than ⌈m/8⌉ bytes.
#[must_use]
pub fn transpose_columns_par(cols: &[Vec<u8>], m: usize, threads: usize) -> Vec<Vec<u8>> {
    let _ = threads;
    let (col_bytes, row_bytes) = (m.div_ceil(8), cols.len().div_ceil(8));
    if row_bytes == 0 {
        return vec![Vec::new(); m];
    }
    let mut flat = Vec::with_capacity(cols.len() * col_bytes);
    for (i, c) in cols.iter().enumerate() {
        assert!(c.len() >= col_bytes, "column {i} too short: {} < {col_bytes}", c.len());
        flat.extend_from_slice(&c[..col_bytes]);
    }
    let mut rows = vec![0u8; m * row_bytes];
    transpose_bits(&flat, col_bytes, &mut rows, row_bytes);
    rows.chunks_exact(row_bytes).map(<[u8]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_round_trip() {
        let mut buf = vec![0u8; 4];
        set_bit(&mut buf, 0, true);
        set_bit(&mut buf, 9, true);
        set_bit(&mut buf, 31, true);
        assert!(get_bit(&buf, 0));
        assert!(get_bit(&buf, 9));
        assert!(get_bit(&buf, 31));
        assert!(!get_bit(&buf, 1));
        set_bit(&mut buf, 9, false);
        assert!(!get_bit(&buf, 9));
    }

    #[test]
    fn pack_matches_get() {
        let bits = [true, false, true, true, false, false, false, true, true];
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 2);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(get_bit(&packed, i), b);
        }
    }

    #[test]
    fn xor_is_involutive() {
        let mut a = vec![1u8, 2, 3];
        let b = vec![7u8, 7, 7];
        xor_in_place(&mut a, &b);
        xor_in_place(&mut a, &b);
        assert_eq!(a, vec![1, 2, 3]);
    }

    /// The bit-at-a-time definition of [`transpose_bits`]: `dst_rows` rows
    /// of the source's bit columns.
    fn transpose_by_bits(src: &[u8], src_stride: usize, dst_rows: usize) -> Vec<u8> {
        let src_rows = src.len() / src_stride;
        let dst_stride = src_rows.div_ceil(8);
        let mut dst = vec![0u8; dst_rows * dst_stride];
        for (i, row) in src.chunks_exact(src_stride).enumerate() {
            for j in 0..dst_rows {
                set_bit(&mut dst[j * dst_stride..], i, get_bit(row, j));
            }
        }
        dst
    }

    proptest! {
        /// The kernel against its bit-at-a-time definition, run both ways:
        /// columns to rows as every extension does, and rows back to
        /// columns. `m` covers 8- and 64-bit tails on short columns and,
        /// up to a KK13 matrix of 8 299 OTs, whole 64×64 tiles with ragged
        /// edges on either side.
        #[test]
        fn transpose_is_correct(m in 1usize..8300, short: bool, wide: bool, seed: u64) {
            use rand::{Rng, SeedableRng};
            let m = if short { m % 600 + 1 } else { m };
            let k = if wide { 256 } else { 128 };
            let (col_bytes, row_bytes) = (m.div_ceil(8), k / 8);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cols: Vec<u8> = (0..k * col_bytes).map(|_| rng.gen()).collect();
            let mut rows = vec![0u8; m * row_bytes];
            transpose_bits(&cols, col_bytes, &mut rows, row_bytes);
            prop_assert_eq!(&rows, &transpose_by_bits(&cols, col_bytes, m), "m={} k={}", m, k);
            let mut back = vec![0u8; k * col_bytes];
            transpose_bits(&rows, row_bytes, &mut back, col_bytes);
            prop_assert_eq!(back, transpose_by_bits(&rows, row_bytes, k), "m={} k={} back", m, k);
        }
    }
}
