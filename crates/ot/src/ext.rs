//! The extension matrix: the one algorithm under IKNP, KK13 and the silent
//! bootstrap.
//!
//! Every IKNP-style extension stretches `8·W` base-OT seeds into `8·W`
//! pseudorandom bit columns of `m` bits, corrects them with a column
//! message `u`, and transposes to one `W`-byte row per OT:
//!
//! ```text
//! receiver:  t_i = G(k_i^0)    u_i = t_i ⊕ G(k_i^1) ⊕ d_i     row_j = (t_i[j])_i
//! sender:    q_i = G(k_i^{s_i}) ⊕ s_i·u_i                    row_j = (q_i[j])_i
//!                                                            = t-row_j ⊕ (D-row_j ∧ s)
//! ```
//!
//! where `d_i` is column `i` of the code matrix `D` whose row `j` encodes
//! OT `j`'s choice: the repetition code for IKNP (`W = 16`, every column
//! the packed choice bits) and the Walsh–Hadamard code for KK13
//! (`W = 32`). What a protocol adds on top — which frame carries `u`,
//! which tweaks and hashes turn rows into keys — stays in its own module.
//!
//! Matrices are flat: columns back to back in one `Vec<u8>` (the layout of
//! `u` on the wire), each PRG column written where it lies, rows as
//! `Vec<[u8; W]>`, one [`transpose_bits`] from the one to the other. Both
//! codes are built by columns, so no code matrix is ever transposed.

use crate::bits::{get_bit, pack_bits, transpose_bits, xor_in_place};
use crate::{base, OtError};
use abnn2_crypto::{Block, Prg};
use abnn2_net::Transport;
use rand::Rng;

/// The half that holds the correlation secret `s` and one PRG per column
/// (IKNP's sender, KK13's sender).
#[derive(Clone)]
pub(crate) struct Sender<const W: usize> {
    /// The secret `s`, packed: bit `i` selected seed `i`.
    pub(crate) s: [u8; W],
    prgs: Vec<Prg>,
}

/// The half that holds both PRGs of every column (IKNP's receiver, KK13's
/// chooser).
#[derive(Clone)]
pub(crate) struct Receiver {
    prg_pairs: Vec<(Prg, Prg)>,
}

impl<const W: usize> Sender<W> {
    /// `8·W` base OTs with this party choosing by the bits of a fresh `s`.
    pub(crate) fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, OtError> {
        let s_bits: Vec<bool> = (0..8 * W).map(|_| rng.gen()).collect();
        let seeds = base::recv(ch, &s_bits, rng)?;
        Ok(Sender {
            s: pack_bits(&s_bits).try_into().expect("8·W bits pack into W bytes"),
            prgs: seeds.into_iter().map(Prg::from_seed).collect(),
        })
    }

    /// The rows `q_j` of `m` OTs from the peer's column message `u`.
    pub(crate) fn rows(&mut self, u: &[u8], m: usize) -> Result<Vec<[u8; W]>, OtError> {
        let col_bytes = m.div_ceil(8);
        if u.len() != 8 * W * col_bytes {
            return Err(OtError::Malformed("OT-extension column batch has wrong length"));
        }
        if m == 0 {
            return Ok(Vec::new());
        }
        let mut q = vec![0u8; u.len()];
        for (i, ((prg, qi), ui)) in self
            .prgs
            .iter_mut()
            .zip(q.chunks_exact_mut(col_bytes))
            .zip(u.chunks_exact(col_bytes))
            .enumerate()
        {
            prg.fill_bytes(qi);
            if get_bit(&self.s, i) {
                xor_in_place(qi, ui);
            }
        }
        Ok(rows(&q, m))
    }
}

impl Receiver {
    /// `columns` base OTs with this party offering fresh seed pairs.
    pub(crate) fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        columns: usize,
        rng: &mut R,
    ) -> Result<Self, OtError> {
        let seed_pairs: Vec<(Block, Block)> =
            (0..columns).map(|_| (Block::random(rng), Block::random(rng))).collect();
        base::send(ch, &seed_pairs, rng)?;
        Ok(Receiver {
            prg_pairs: seed_pairs
                .into_iter()
                .map(|(a, b)| (Prg::from_seed(a), Prg::from_seed(b)))
                .collect(),
        })
    }

    /// Bytes of key schedule and stream position this half holds between
    /// extensions.
    pub(crate) fn parked_bytes(&self) -> usize {
        2 * self.prg_pairs.len() * Prg::HELD_BYTES
    }

    /// Expands both PRGs of every pair by `m` bits: the column message `u`
    /// for the peer and this party's own `t` columns, still untransposed so
    /// the caller can send `u` before it pays for [`rows`].
    ///
    /// `code` is the code matrix by columns, `⌈m/8⌉` bytes each with the
    /// bits past `m` clear: one column per pair, or a single column that
    /// stands for all of them.
    pub(crate) fn columns(&mut self, code: &[u8], m: usize) -> (Vec<u8>, Vec<u8>) {
        let col_bytes = m.div_ceil(8);
        if m == 0 {
            return (Vec::new(), Vec::new());
        }
        assert!(
            code.len() == col_bytes || code.len() == self.prg_pairs.len() * col_bytes,
            "code matrix has neither one column nor one per PRG pair"
        );
        let mut u = vec![0u8; self.prg_pairs.len() * col_bytes];
        let mut t = vec![0u8; u.len()];
        for (((prg0, prg1), d), (ui, ti)) in self
            .prg_pairs
            .iter_mut()
            .zip(code.chunks_exact(col_bytes).cycle())
            .zip(u.chunks_exact_mut(col_bytes).zip(t.chunks_exact_mut(col_bytes)))
        {
            prg0.fill_bytes(ti);
            prg1.fill_bytes(ui);
            xor_in_place(ui, ti);
            xor_in_place(ui, d);
        }
        (u, t)
    }
}

/// One `W`-byte row per OT from `8·W` columns of `m` bits.
pub(crate) fn rows<const W: usize>(cols: &[u8], m: usize) -> Vec<[u8; W]> {
    let mut rows = vec![[0u8; W]; m];
    transpose_bits(cols, m.div_ceil(8), rows.as_flattened_mut(), W);
    rows
}

/// `8·W` columns of `rows.len()` bits, bits past that clear, from one
/// `W`-byte row per OT: [`rows`] run the other way, the definition KK13's
/// code columns are tested against.
#[cfg(test)]
pub(crate) fn columns<const W: usize>(rows: &[[u8; W]]) -> Vec<u8> {
    let col_bytes = rows.len().div_ceil(8);
    let mut cols = vec![0u8; 8 * W * col_bytes];
    transpose_bits(rows.as_flattened(), W, &mut cols, col_bytes);
    cols
}
