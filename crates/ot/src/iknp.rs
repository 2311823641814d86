//! IKNP 1-out-of-2 OT extension with chosen, correlated and random variants.
//!
//! After a one-time setup of κ = 128 base OTs (with roles reversed), any
//! number of OTs cost only symmetric operations plus κ bits per OT from the
//! receiver. The correlated variant (`C-OT`) is what SecureML's triplet
//! generation uses: the sender's first message is pseudorandom and only an
//! ℓ-bit correction word crosses the wire.

use crate::bits::pack_bits;
use crate::frames::{IknpColumns, IknpCts, OtCorrections, OtVecPayload, SilentBaseColumns};
use crate::{base, ext, KAPPA};
use abnn2_crypto::{Block, RoHash};
use abnn2_math::Ring;
use abnn2_net::{Frame, Transport, TransportError};
use rand::Rng;

/// Sender side of IKNP extension (holds the message pairs). Not `Clone`:
/// two copies would extend one set of PRG streams twice.
pub struct IknpSender {
    ext: ext::Sender<{ KAPPA / 8 }>,
    tweak: u64,
}

impl std::fmt::Debug for IknpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IknpSender").field("tweak", &self.tweak).finish()
    }
}

/// Receiver side of IKNP extension (holds the choice bits). Not `Clone`:
/// two copies would extend one pair of PRG streams twice.
pub struct IknpReceiver {
    ext: ext::Receiver,
    tweak: u64,
}

impl std::fmt::Debug for IknpReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IknpReceiver").field("tweak", &self.tweak).finish()
    }
}

fn blocks(rows: Vec<[u8; KAPPA / 8]>) -> Vec<Block> {
    rows.into_iter().map(Block::from_bytes).collect()
}

impl IknpSender {
    /// Runs setup: κ base OTs with this party as base-OT chooser holding the
    /// global secret `s`.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        Ok(IknpSender { ext: ext::Sender::setup(ch, rng)?, tweak: 0 })
    }

    /// [`setup`](Self::setup) up to its wait: sends the base-OT chooser's
    /// points. [`setup_finish`](Self::setup_finish) takes the reply.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_start<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<base::PendingRecv, TransportError> {
        ext::Sender::<{ KAPPA / 8 }>::setup_start(ch, rng)
    }

    /// [`setup`](Self::setup) from its wait: receives the base-OT
    /// ciphertexts.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_finish<T: Transport>(
        ch: &mut T,
        pending: base::PendingRecv,
    ) -> Result<Self, TransportError> {
        Ok(IknpSender { ext: ext::Sender::setup_finish(ch, pending)?, tweak: 0 })
    }

    /// The global correlation block `s`: for every extension row,
    /// `q_j = t_j ⊕ c_j·s`. The silent-OT bootstrap reads this as its Δ.
    #[must_use]
    pub fn delta(&self) -> Block {
        Block::from_bytes(self.ext.s)
    }

    /// Core extension step: receives the masked columns and returns the row
    /// values `q_j`, from which both message keys derive.
    fn extend_rows<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
    ) -> Result<Vec<Block>, TransportError> {
        let IknpColumns(u) = ch.recv_frame()?;
        Ok(blocks(self.ext.rows(&u, m)?))
    }

    /// Raw correlated-OT extension for the silent-OT bootstrap: returns the
    /// *unhashed* rows `q_j = t_j ⊕ c_j·Δ` (Δ = [`delta`](Self::delta)),
    /// moved under the dedicated silent bootstrap frame so silent traffic
    /// stays fully self-labelled on the wire.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn extend_cot<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
    ) -> Result<Vec<Block>, TransportError> {
        let SilentBaseColumns(u) = ch.recv_frame()?;
        let rows = blocks(self.ext.rows(&u, m)?);
        self.bump_tweak(m);
        Ok(rows)
    }

    /// Sends `pairs.len()` chosen-message OTs of one block each.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn send_chosen<T: Transport>(
        &mut self,
        ch: &mut T,
        pairs: &[(Block, Block)],
    ) -> Result<(), TransportError> {
        let qs = self.extend_rows(ch, pairs.len())?;
        let base_tweak = self.bump_tweak(pairs.len());
        // The hashes become the ciphertexts where they lie.
        let mut cts = self.hash_both(&qs, base_tweak);
        for (h, pair) in cts.chunks_exact_mut(2).zip(pairs) {
            h[0] ^= pair.0;
            h[1] ^= pair.1;
        }
        ch.send_frame(&IknpCts(cts))
    }

    /// One batched hash pass over `H(t, q)` and `H(t, q ⊕ s)` for every
    /// row, interleaved `[h0, h1, h0, h1, …]`.
    fn hash_both(&self, qs: &[Block], base_tweak: u64) -> Vec<Block> {
        let s = self.delta();
        let mut sigmas = Vec::with_capacity(qs.len() * 2);
        for (j, q) in qs.iter().enumerate() {
            let t = Block::from((base_tweak + j as u64) as u128);
            sigmas.push(*q ^ t);
            sigmas.push(*q ^ s ^ t);
        }
        RoHash::shared().hash_blocks(&mut sigmas);
        sigmas
    }

    /// Random OT: returns `m` pseudorandom pairs with no extra message
    /// beyond the extension itself.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn send_random<T: Transport>(
        &mut self,
        ch: &mut T,
        m: usize,
    ) -> Result<Vec<(Block, Block)>, TransportError> {
        let qs = self.extend_rows(ch, m)?;
        let base_tweak = self.bump_tweak(m);
        let hs = self.hash_both(&qs, base_tweak);
        Ok(hs.chunks_exact(2).map(|h| (h[0], h[1])).collect())
    }

    /// Correlated OT over a ring: for each `delta`, the sender learns a
    /// pseudorandom `x0` and the receiver learns `x0` or `x0 + delta`.
    /// Only one ⌈ℓ/8⌉-byte correction per OT crosses the wire.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    pub fn send_correlated<T: Transport>(
        &mut self,
        ch: &mut T,
        deltas: &[u64],
        ring: Ring,
    ) -> Result<Vec<u64>, TransportError> {
        let qs = self.extend_rows(ch, deltas.len())?;
        let base_tweak = self.bump_tweak(deltas.len());
        let hs = self.hash_both(&qs, base_tweak);
        let mut x0s = Vec::with_capacity(deltas.len());
        let mut corrections = Vec::with_capacity(deltas.len());
        for (h, &delta) in hs.chunks_exact(2).zip(deltas) {
            let x0 = ring.reduce(h[0].as_u128() as u64);
            let mask1 = ring.reduce(h[1].as_u128() as u64);
            // correction = x0 + delta − H(q ⊕ s): receiver with bit 1 adds its
            // mask back to recover x0 + delta.
            corrections.push(ring.sub(ring.add(x0, delta), mask1));
            x0s.push(x0);
        }
        ch.send_frame(&OtCorrections(ring.encode_slice(&corrections)))?;
        Ok(x0s)
    }

    /// Vector correlated OT: like [`IknpSender::send_correlated`] but each
    /// OT carries a whole vector of ring elements (the batch-packing used
    /// by amortized triplet generation). Returns the per-OT `x0` vectors.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed receiver messages.
    ///
    /// # Panics
    ///
    /// Panics if the delta vectors are ragged.
    pub fn send_correlated_vec<T: Transport>(
        &mut self,
        ch: &mut T,
        deltas: &[Vec<u64>],
        ring: Ring,
    ) -> Result<Vec<Vec<u64>>, TransportError> {
        let width = deltas.first().map_or(0, Vec::len);
        assert!(deltas.iter().all(|d| d.len() == width), "ragged delta vectors");
        let qs = self.extend_rows(ch, deltas.len())?;
        let base_tweak = self.bump_tweak(deltas.len());
        let elem_len = width * ring.byte_len();
        // Both keys of every OT, `H(t, q)` then `H(t, q ⊕ s)`, in one
        // oracle batch.
        let rows: Vec<u8> =
            qs.iter().flat_map(|q| [*q, *q ^ self.delta()]).flat_map(Block::to_bytes).collect();
        let tweak = |i| u128::from(base_tweak + (i / 2) as u64);
        let mut masks = vec![0u8; 2 * qs.len() * elem_len];
        RoHash::shared().hash_expand_rows(&rows, 16, tweak, elem_len, &mut masks);
        let mut x0s = Vec::with_capacity(deltas.len());
        let mut payload = Vec::with_capacity(deltas.len() * elem_len);
        for (j, delta) in deltas.iter().enumerate() {
            let pair = &masks[2 * j * elem_len..2 * (j + 1) * elem_len];
            let x0 = ring.decode_slice(&pair[..elem_len]);
            let mask1 = ring.decode_slice(&pair[elem_len..]);
            let corr: Vec<u64> =
                (0..width).map(|k| ring.sub(ring.add(x0[k], delta[k]), mask1[k])).collect();
            payload.extend(ring.encode_slice(&corr));
            x0s.push(x0);
        }
        ch.send_frame(&OtVecPayload(payload))?;
        Ok(x0s)
    }

    fn bump_tweak(&mut self, m: usize) -> u64 {
        let t = self.tweak;
        self.tweak += m as u64;
        t
    }
}

impl IknpReceiver {
    /// Bytes this receiver holds between extensions: what parking it
    /// costs a store.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        self.ext.parked_bytes()
    }

    /// Runs setup: κ base OTs with this party as base-OT sender holding
    /// random seed pairs.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        base::finished(Self::setup_start(ch, rng)?, ch)
    }

    /// [`setup`](Self::setup) up to its wait: the receiver, whole already
    /// (its seeds are its own), and the base-OT batch whose
    /// [`finish`](base::PendingSend::finish) completes the transfer. No
    /// extension may run before it does.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_start<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<(Self, base::PendingSend), TransportError> {
        let (ext, pending) = ext::Receiver::setup_start(ch, KAPPA, rng)?;
        Ok((IknpReceiver { ext, tweak: 0 }, pending))
    }

    /// Core extension step, the same for every variant: sends the masked
    /// columns as frame `F` and returns this party's `t` columns still
    /// untransposed, to be turned into rows ([`rows_of`](Self::rows_of))
    /// after the send and, where the sender answers, after the receive, so
    /// the sender gets to start on its own transpose one transpose sooner.
    /// Which frames cross the wire, their order and their bytes do not
    /// depend on where the transpose runs.
    fn extend_columns<T: Transport, F: Frame>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
        frame: impl FnOnce(Vec<u8>) -> F,
    ) -> Result<Vec<u8>, TransportError> {
        // IKNP's code is repetition: every column of `D` is the choice
        // vector.
        let (u, t_cols) = self.ext.columns(&pack_bits(choices), choices.len());
        ch.send_frame(&frame(u))?;
        Ok(t_cols)
    }

    /// Raw correlated-OT extension for the silent-OT bootstrap: returns the
    /// *unhashed* rows `t_j` with `q_j = t_j ⊕ c_j·Δ` on the sender side,
    /// moved under the dedicated silent bootstrap frame.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    pub fn extend_cot<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, TransportError> {
        let t_cols = self.extend_columns(ch, choices, SilentBaseColumns)?;
        self.bump_tweak(choices.len());
        Ok(Self::rows_of(&t_cols, choices.len()))
    }

    /// The per-row blocks `t_j` (the key for the chosen message) of `m`
    /// OTs' worth of `t` columns.
    fn rows_of(t_cols: &[u8], m: usize) -> Vec<Block> {
        blocks(ext::rows(t_cols, m))
    }

    /// One batched hash pass over `H(t, t_j)` for every row, in place.
    fn hash_rows(mut ts: Vec<Block>, base_tweak: u64) -> Vec<Block> {
        for (j, t) in ts.iter_mut().enumerate() {
            *t ^= Block::from((base_tweak + j as u64) as u128);
        }
        RoHash::shared().hash_blocks(&mut ts);
        ts
    }

    /// Receives chosen-message OTs: one block per choice bit.
    /// [`recv_start`](Self::recv_start), then [`PendingOts::finish`].
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, TransportError> {
        self.recv_start(ch, choices)?.finish(ch)
    }

    /// The first half of [`recv`](Self::recv) and
    /// [`recv_correlated`](Self::recv_correlated): sends the masked
    /// columns. The sender's answer is the pending value's to take.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    pub fn recv_start<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<PendingOts, TransportError> {
        let t_cols = self.extend_columns(ch, choices, IknpColumns)?;
        let base_tweak = self.bump_tweak(choices.len());
        Ok(PendingOts { t_cols, base_tweak, choices: choices.to_vec() })
    }

    /// Random OT receiver: learns `x_c` for pseudorandom pairs.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv_random<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
    ) -> Result<Vec<Block>, TransportError> {
        let t_cols = self.extend_columns(ch, choices, IknpColumns)?;
        let base_tweak = self.bump_tweak(choices.len());
        Ok(Self::hash_rows(Self::rows_of(&t_cols, choices.len()), base_tweak))
    }

    /// Correlated OT receiver: learns `x0 + c·delta` per OT.
    /// [`recv_start`](Self::recv_start), then
    /// [`PendingOts::finish_correlated`].
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv_correlated<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
        ring: Ring,
    ) -> Result<Vec<u64>, TransportError> {
        self.recv_start(ch, choices)?.finish_correlated(ch, ring)
    }

    /// Vector correlated OT receiver: learns `x0 + c·delta` element-wise
    /// per OT.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn recv_correlated_vec<T: Transport>(
        &mut self,
        ch: &mut T,
        choices: &[bool],
        width: usize,
        ring: Ring,
    ) -> Result<Vec<Vec<u64>>, TransportError> {
        let t_cols = self.extend_columns(ch, choices, IknpColumns)?;
        let base_tweak = self.bump_tweak(choices.len());
        let elem_len = width * ring.byte_len();
        let OtVecPayload(payload) = ch.recv_frame()?;
        if payload.len() != elem_len * choices.len() {
            return Err(TransportError::Malformed("vector C-OT correction batch length"));
        }
        let rows = ext::rows::<{ KAPPA / 8 }>(&t_cols, choices.len());
        let tweak = |i| u128::from(base_tweak + i as u64);
        let mut masks = vec![0u8; payload.len()];
        RoHash::shared().hash_expand_rows(rows.as_flattened(), 16, tweak, elem_len, &mut masks);
        Ok(choices
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let at = j * elem_len..(j + 1) * elem_len;
                let mask = ring.decode_slice(&masks[at.clone()]);
                if c {
                    ring.add_vec(&ring.decode_slice(&payload[at]), &mask)
                } else {
                    mask
                }
            })
            .collect())
    }

    fn bump_tweak(&mut self, m: usize) -> u64 {
        let t = self.tweak;
        self.tweak += m as u64;
        t
    }
}

/// Receiver OTs whose columns are out, waiting for the sender's answer.
#[derive(Debug)]
pub struct PendingOts {
    t_cols: Vec<u8>,
    base_tweak: u64,
    choices: Vec<bool>,
}

impl PendingOts {
    /// The rest of [`IknpReceiver::recv`]: receives the ciphertexts and
    /// decrypts the chosen block of each.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn finish<T: Transport>(self, ch: &mut T) -> Result<Vec<Block>, TransportError> {
        let IknpCts(cts) = ch.recv_frame()?;
        if cts.len() != 2 * self.choices.len() {
            return Err(TransportError::Malformed("IKNP ciphertext batch has wrong length"));
        }
        // The chosen ciphertexts are selected into the hashes.
        let mut hs = self.hashes();
        for (j, (h, &c)) in hs.iter_mut().zip(&self.choices).enumerate() {
            *h ^= cts[2 * j + c as usize];
        }
        Ok(hs)
    }

    /// The rest of [`IknpReceiver::recv_correlated`]: receives the
    /// corrections and learns `x0 + c·delta` per OT.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed sender messages.
    pub fn finish_correlated<T: Transport>(
        self,
        ch: &mut T,
        ring: Ring,
    ) -> Result<Vec<u64>, TransportError> {
        let OtCorrections(corr_bytes) = ch.recv_frame()?;
        if corr_bytes.len() != ring.byte_len() * self.choices.len() {
            return Err(TransportError::Malformed("C-OT correction batch has wrong length"));
        }
        let corrections = ring.decode_slice(&corr_bytes);
        Ok(self
            .hashes()
            .iter()
            .zip(&self.choices)
            .zip(&corrections)
            .map(|((h, &c), &corr)| {
                let mask = ring.reduce(h.as_u128() as u64);
                if c {
                    ring.add(corr, mask)
                } else {
                    mask
                }
            })
            .collect())
    }

    /// `H(t, t_j)` of every row.
    fn hashes(&self) -> Vec<Block> {
        let rows = IknpReceiver::rows_of(&self.t_cols, self.choices.len());
        IknpReceiver::hash_rows(rows, self.base_tweak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};
    use rand::SeedableRng;

    fn setup_pair(
        test: impl FnOnce(&mut IknpSender, &mut Endpoint) -> Vec<(Block, Block)> + Send,
        choices: Vec<bool>,
    ) -> (Vec<(Block, Block)>, Vec<Block>) {
        run_two(test, move |r, ch| r.recv(ch, &choices).expect("recv"))
    }

    fn run_two<A: Send, B: Send>(
        f_s: impl FnOnce(&mut IknpSender, &mut Endpoint) -> A + Send,
        f_r: impl FnOnce(&mut IknpReceiver, &mut Endpoint) -> B + Send,
    ) -> (A, B) {
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let mut s = IknpSender::setup(ch, &mut rng).expect("sender setup");
                f_s(&mut s, ch)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let mut r = IknpReceiver::setup(ch, &mut rng).expect("receiver setup");
                f_r(&mut r, ch)
            },
        );
        (a, b)
    }

    #[test]
    fn chosen_message_ot() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = 300;
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let choices2 = choices.clone();
        let (pairs, got) = setup_pair(
            move |s, ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(4);
                let pairs: Vec<(Block, Block)> =
                    (0..m).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
                s.send_chosen(ch, &pairs).expect("send");
                pairs
            },
            choices2,
        );
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(got[j], if c { pairs[j].1 } else { pairs[j].0 }, "ot {j}");
        }
    }

    #[test]
    fn random_ot_agrees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = 100;
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let choices2 = choices.clone();
        let (pairs, got) = run_two(
            move |s, ch| s.send_random(ch, m).expect("send_random"),
            move |r, ch| r.recv_random(ch, &choices2).expect("recv_random"),
        );
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(got[j], if c { pairs[j].1 } else { pairs[j].0 });
            assert_ne!(pairs[j].0, pairs[j].1);
        }
    }

    #[test]
    fn correlated_ot_over_rings() {
        for bits in [8u32, 32, 64] {
            let ring = Ring::new(bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let m = 200;
            let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
            let deltas: Vec<u64> = ring.sample_vec(&mut rng, m);
            let (choices2, deltas2) = (choices.clone(), deltas.clone());
            let (x0s, xcs) = run_two(
                move |s, ch| s.send_correlated(ch, &deltas2, ring).expect("send_correlated"),
                move |r, ch| r.recv_correlated(ch, &choices2, ring).expect("recv_correlated"),
            );
            for j in 0..m {
                let expect = if choices[j] { ring.add(x0s[j], deltas[j]) } else { x0s[j] };
                assert_eq!(xcs[j], expect, "bits={bits} ot {j}");
            }
        }
    }

    #[test]
    fn vector_correlated_ot() {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let (m, width) = (50, 3);
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let deltas: Vec<Vec<u64>> = (0..m).map(|_| ring.sample_vec(&mut rng, width)).collect();
        let (choices2, deltas2) = (choices.clone(), deltas.clone());
        let (x0s, xcs) = run_two(
            move |s, ch| s.send_correlated_vec(ch, &deltas2, ring).expect("send"),
            move |r, ch| r.recv_correlated_vec(ch, &choices2, width, ring).expect("recv"),
        );
        for j in 0..m {
            for k in 0..width {
                let expect = if choices[j] { ring.add(x0s[j][k], deltas[j][k]) } else { x0s[j][k] };
                assert_eq!(xcs[j][k], expect, "ot {j} slot {k}");
            }
        }
    }

    #[test]
    fn multiple_extends_use_fresh_tweaks() {
        let choices = vec![true, false, true];
        let choices2 = choices.clone();
        let ((p1, p2), (g1, g2)) = run_two(
            move |s, ch| {
                let pairs: Vec<(Block, Block)> = (0..3)
                    .map(|i| (Block::from(i as u128), Block::from((i + 10) as u128)))
                    .collect();
                s.send_chosen(ch, &pairs).expect("send 1");
                s.send_chosen(ch, &pairs).expect("send 2");
                (pairs.clone(), pairs)
            },
            move |r, ch| {
                let g1 = r.recv(ch, &choices2).expect("recv 1");
                let g2 = r.recv(ch, &choices2).expect("recv 2");
                (g1, g2)
            },
        );
        for (j, &c) in choices.iter().enumerate() {
            assert_eq!(g1[j], if c { p1[j].1 } else { p1[j].0 });
            assert_eq!(g2[j], if c { p2[j].1 } else { p2[j].0 });
        }
    }

    #[test]
    fn raw_cot_rows_satisfy_the_correlation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(70);
        let m = 77;
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let choices2 = choices.clone();
        let ((qs, delta), ts) = run_two(
            move |s, ch| {
                let qs = s.extend_cot(ch, m).expect("sender cot");
                (qs, s.delta())
            },
            move |r, ch| r.extend_cot(ch, &choices2).expect("receiver cot"),
        );
        for (j, &c) in choices.iter().enumerate() {
            let want = if c { qs[j] ^ delta } else { qs[j] };
            assert_eq!(ts[j], want, "ot {j}");
        }
    }

    #[test]
    fn non_multiple_of_eight_batch() {
        let choices = vec![true; 13];
        let (pairs, got) = setup_pair(
            move |s, ch| {
                let pairs: Vec<(Block, Block)> = (0..13)
                    .map(|i| (Block::from(i as u128), Block::from((100 + i) as u128)))
                    .collect();
                s.send_chosen(ch, &pairs).expect("send");
                pairs
            },
            choices,
        );
        assert!(got.iter().zip(&pairs).all(|(g, p)| *g == p.1));
    }
}
