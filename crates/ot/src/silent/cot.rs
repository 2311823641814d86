//! The silent random-COT generator: bootstrap, SPCOT/MPCOT refills, and
//! primal-LPN expansion.
//!
//! Both sides hold a pool of random correlated OTs over 128-bit blocks —
//! the receiver `(x, z)`, the sender `(Δ, y)` with `z = y ⊕ x·Δ` — and
//! consume from it in lockstep via [`take`](SilentCotSender::take). When the
//! pool runs dry both sides deterministically run one refill, so no control
//! messages are needed: the only wire traffic is the one-time bootstrap
//! column matrix, then per refill ⌈t·d/8⌉ derandomization bytes, `t·d`
//! masked sum pairs, and `t` correction blocks.
//!
//! The receiver carries its own seeded [`StdRng`]: after setup it draws no
//! external randomness, so a cloned receiver replays bit-identically — the
//! property the session driver's checkpoint/resume machinery relies on.

use super::{spcot, LpnParams};
use crate::bits::{get_bit, pack_bits};
use crate::frames::{SilentDerand, SilentSpcotMasks, SilentSpcotSums};
use crate::iknp::{IknpReceiver, IknpSender};
use crate::OtError;
use abnn2_crypto::{Block, Prg, RoHash};
use abnn2_net::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Tweak domain for SPCOT level masks: bit 127 set, bits 126/125 clear.
const SPCOT_TWEAK: u128 = 1 << 127;

/// Fixed public seed of the LPN local code ("ABNN2 LPN code." as bytes).
const LPN_CODE_SEED: [u8; 16] = *b"ABNN2 LPN code.\0";

/// The public `D`-local code: `params.d` base indices per output position,
/// derived from a fixed PRG seed so both parties expand identically.
fn lpn_indices(params: LpnParams) -> Vec<u16> {
    // Eight little-endian 16-bit words per stream block.
    let mut blocks = vec![Block::ZERO; (params.n * params.d).div_ceil(8)];
    Prg::from_seed(Block::from_bytes(LPN_CODE_SEED)).fill_blocks(&mut blocks);
    let mask = (params.k - 1) as u16;
    let mut indices = Vec::with_capacity(blocks.len() * 8);
    for b in &blocks {
        indices.extend((0..8).map(|i| (b.as_u128() >> (16 * i)) as u16 & mask));
    }
    indices.truncate(params.n * params.d);
    indices
}

/// Sender side of the silent COT generator: holds Δ and one `y` block per
/// produced COT. In ABNN² this is the client (the fragment-OT sender).
pub struct SilentCotSender {
    iknp: IknpSender,
    params: LpnParams,
    delta: Block,
    rng: StdRng,
    reserve: Vec<Block>,
    pool: VecDeque<Block>,
    tweak: u64,
}

impl std::fmt::Debug for SilentCotSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SilentCotSender")
            .field("tweak", &self.tweak)
            .field("pool", &self.pool.len())
            .finish()
    }
}

/// Receiver side of the silent COT generator: holds one `(x, z)` pair per
/// produced COT. In ABNN² this is the server (the fragment-OT chooser).
#[derive(Clone)]
pub struct SilentCotReceiver {
    iknp: IknpReceiver,
    params: LpnParams,
    rng: StdRng,
    reserve: Vec<(bool, Block)>,
    pool: VecDeque<(bool, Block)>,
    tweak: u64,
}

impl std::fmt::Debug for SilentCotReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SilentCotReceiver")
            .field("tweak", &self.tweak)
            .field("pool", &self.pool.len())
            .finish()
    }
}

impl SilentCotSender {
    /// One-time setup: κ base OTs seeding the bootstrap IKNP extension,
    /// whose global secret becomes the silent correlation Δ.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        Self::setup_with_params(ch, LpnParams::default(), rng)
    }

    /// [`setup`](Self::setup) with an explicit [`LpnParams`] preset. Both
    /// parties must pass the same preset — the refill schedule and every
    /// frame size derive from it.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    ///
    /// # Panics
    ///
    /// Panics if the preset violates [`LpnParams::validate`].
    pub fn setup_with_params<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        params: LpnParams,
        rng: &mut R,
    ) -> Result<Self, OtError> {
        params.validate();
        let iknp = IknpSender::setup(ch, rng)?;
        let delta = iknp.delta();
        Ok(SilentCotSender {
            iknp,
            params,
            delta,
            rng: StdRng::seed_from_u64(rng.next_u64()),
            reserve: Vec::new(),
            pool: VecDeque::new(),
            tweak: 0,
        })
    }

    /// The global correlation block: `z = y ⊕ x·Δ` for every COT produced.
    #[must_use]
    pub fn delta(&self) -> Block {
        self.delta
    }

    /// Takes `count` COT sender blocks from the pool, running refills as
    /// needed (in lockstep with the receiver's identical decision).
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    pub fn take<T: Transport>(&mut self, ch: &mut T, count: usize) -> Result<Vec<Block>, OtError> {
        while self.pool.len() < count {
            self.refill(ch)?;
        }
        Ok(self.pool.drain(..count).collect())
    }

    /// Drops the COTs produced but not taken. Both parties call this at
    /// the same point (the clean end of a session), so the pools stay in
    /// lockstep; the reserve that seeds the next refill stays.
    pub fn drop_pool(&mut self) {
        self.pool.clear();
    }

    fn refill<T: Transport>(&mut self, ch: &mut T) -> Result<(), OtError> {
        let p = self.params;
        if self.reserve.is_empty() {
            self.reserve = self.iknp.extend_cot(ch, p.reserve())?;
        }
        let base = std::mem::take(&mut self.reserve);
        let (v, ys) = base.split_at(p.k);

        let SilentDerand(derand) = ch.recv_frame()?;
        if derand.len() != (p.t * p.tree_depth).div_ceil(8) {
            return Err(OtError::Malformed("SPCOT derandomization batch has wrong length"));
        }
        let mut masks = Vec::with_capacity(p.t * p.tree_depth * 32);
        let mut sums = Vec::with_capacity(p.t * 16);
        let mut s = Vec::with_capacity(p.n);
        for tree in 0..p.t {
            let root = Block::random(&mut self.rng);
            let (leaves, level_sums) = spcot::expand(RoHash::shared(), root, p.tree_depth);
            let mut correction = self.delta;
            for &leaf in &leaves {
                correction ^= leaf;
            }
            // Whiten both mask keys of every level, hash the tree in one
            // batch, then XOR in the level sums.
            let mut h = Vec::with_capacity(2 * p.tree_depth);
            for l in 0..p.tree_depth {
                let d = get_bit(&derand, tree * p.tree_depth + l);
                let y = ys[tree * p.tree_depth + l];
                let tw = Block::from(SPCOT_TWEAK | u128::from(self.bump_tweak()));
                h.push(if d { y ^ self.delta } else { y } ^ tw);
                h.push(if d { y } else { y ^ self.delta } ^ tw);
            }
            RoHash::shared().hash_blocks(&mut h);
            for (&(k0, k1), hm) in level_sums.iter().zip(h.chunks_exact(2)) {
                masks.extend_from_slice(&(k0 ^ hm[0]).to_bytes());
                masks.extend_from_slice(&(k1 ^ hm[1]).to_bytes());
            }
            sums.extend_from_slice(&correction.to_bytes());
            s.extend(leaves);
        }
        ch.send_frame(&SilentSpcotMasks(masks))?;
        ch.send_frame(&SilentSpcotSums(sums))?;

        let idx = lpn_indices(p);
        let mut out = Vec::with_capacity(p.n);
        for (j, &sj) in s.iter().enumerate() {
            let mut y = sj;
            for &i in &idx[j * p.d..(j + 1) * p.d] {
                y ^= v[i as usize];
            }
            out.push(y);
        }
        self.reserve = out.split_off(p.n - p.reserve());
        self.pool.extend(out);
        Ok(())
    }

    fn bump_tweak(&mut self) -> u64 {
        let t = self.tweak;
        self.tweak += 1;
        t
    }
}

impl SilentCotReceiver {
    /// One-time setup: κ base OTs seeding the bootstrap IKNP extension plus
    /// an internal replay-deterministic RNG drawn once from `rng`.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup<T: Transport, R: Rng + ?Sized>(ch: &mut T, rng: &mut R) -> Result<Self, OtError> {
        Self::setup_with_params(ch, LpnParams::default(), rng)
    }

    /// [`setup`](Self::setup) with an explicit [`LpnParams`] preset. Both
    /// parties must pass the same preset — the refill schedule and every
    /// frame size derive from it.
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    ///
    /// # Panics
    ///
    /// Panics if the preset violates [`LpnParams::validate`].
    pub fn setup_with_params<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        params: LpnParams,
        rng: &mut R,
    ) -> Result<Self, OtError> {
        params.validate();
        let iknp = IknpReceiver::setup(ch, rng)?;
        Ok(SilentCotReceiver {
            iknp,
            params,
            rng: StdRng::seed_from_u64(rng.next_u64()),
            reserve: Vec::new(),
            pool: VecDeque::new(),
            tweak: 0,
        })
    }

    /// Takes `count` COT receiver pairs `(x, z)` from the pool, running
    /// refills as needed.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    pub fn take<T: Transport>(
        &mut self,
        ch: &mut T,
        count: usize,
    ) -> Result<Vec<(bool, Block)>, OtError> {
        while !self.refill_toward(ch, count)? {}
        Ok(self.pool.drain(..count).collect())
    }

    /// Runs at most one refill toward a pool of `count` COTs and returns
    /// whether the pool now holds them. A refill is the only point where
    /// [`take`](Self::take) waits on the peer, so a caller that must not
    /// wait twice in one call advances the pool with this first.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    pub fn refill_toward<T: Transport>(
        &mut self,
        ch: &mut T,
        count: usize,
    ) -> Result<bool, OtError> {
        if self.pool.len() < count {
            self.refill(ch)?;
        }
        Ok(self.pool.len() >= count)
    }

    /// Drops the COTs produced but not taken; see
    /// [`SilentCotSender::drop_pool`].
    pub fn drop_pool(&mut self) {
        self.pool.clear();
    }

    /// Bytes this receiver holds between takes: the bootstrap extension's
    /// key schedules, the refill reserve and the pool.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        self.iknp.parked_bytes()
            + (self.reserve.len() + self.pool.len()) * std::mem::size_of::<(bool, Block)>()
    }

    fn refill<T: Transport>(&mut self, ch: &mut T) -> Result<(), OtError> {
        let p = self.params;
        if self.reserve.is_empty() {
            let choices: Vec<bool> = (0..p.reserve()).map(|_| self.rng.gen()).collect();
            let ts = self.iknp.extend_cot(ch, &choices)?;
            self.reserve = choices.into_iter().zip(ts).collect();
        }
        let base = std::mem::take(&mut self.reserve);
        let (uw, xz) = base.split_at(p.k);

        let alphas: Vec<usize> =
            (0..p.t).map(|_| self.rng.gen_range(0..1u64 << p.tree_depth) as usize).collect();
        let mut bits = vec![false; p.t * p.tree_depth];
        for (tree, &alpha) in alphas.iter().enumerate() {
            for l in 0..p.tree_depth {
                let complement = ((alpha >> (p.tree_depth - 1 - l)) & 1) ^ 1;
                bits[tree * p.tree_depth + l] = xz[tree * p.tree_depth + l].0 ^ (complement == 1);
            }
        }
        ch.send_frame(&SilentDerand(pack_bits(&bits)))?;

        let SilentSpcotMasks(masks) = ch.recv_frame()?;
        if masks.len() != p.t * p.tree_depth * 32 {
            return Err(OtError::Malformed("SPCOT mask batch has wrong length"));
        }
        let SilentSpcotSums(sums) = ch.recv_frame()?;
        if sums.len() != p.t * 16 {
            return Err(OtError::Malformed("SPCOT correction batch has wrong length"));
        }

        let mut sparse: Vec<(bool, Block)> = Vec::with_capacity(p.n);
        for (tree, &alpha) in alphas.iter().enumerate() {
            // One batched unmasking hash per tree.
            let mut h = Vec::with_capacity(p.tree_depth);
            for l in 0..p.tree_depth {
                let z = xz[tree * p.tree_depth + l].1;
                let tw = Block::from(SPCOT_TWEAK | u128::from(self.bump_tweak()));
                h.push(z ^ tw);
            }
            RoHash::shared().hash_blocks(&mut h);
            let mut ks = Vec::with_capacity(p.tree_depth);
            for (l, &hz) in h.iter().enumerate() {
                let complement = ((alpha >> (p.tree_depth - 1 - l)) & 1) ^ 1;
                let off = (tree * p.tree_depth + l) * 32 + complement * 16;
                let m = Block::from_bytes(masks[off..off + 16].try_into().expect("16 bytes"));
                ks.push(m ^ hz);
            }
            let mut leaves = spcot::reconstruct(RoHash::shared(), alpha, p.tree_depth, &ks);
            let mut punctured =
                Block::from_bytes(sums[tree * 16..(tree + 1) * 16].try_into().expect("16 bytes"));
            for (j, &leaf) in leaves.iter().enumerate() {
                if j != alpha {
                    punctured ^= leaf;
                }
            }
            leaves[alpha] = punctured;
            for (j, leaf) in leaves.into_iter().enumerate() {
                sparse.push((j == alpha, leaf));
            }
        }

        let idx = lpn_indices(p);
        let mut out = Vec::with_capacity(p.n);
        for (j, &(e, r)) in sparse.iter().enumerate() {
            let mut x = e;
            let mut z = r;
            for &i in &idx[j * p.d..(j + 1) * p.d] {
                let (u, w) = uw[i as usize];
                x ^= u;
                z ^= w;
            }
            out.push((x, z));
        }
        self.reserve = out.split_off(p.n - p.reserve());
        self.pool.extend(out);
        Ok(())
    }

    fn bump_tweak(&mut self) -> u64 {
        let t = self.tweak;
        self.tweak += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, Endpoint, NetworkModel};

    fn run_cot<A: Send, B: Send>(
        f_s: impl FnOnce(&mut SilentCotSender, &mut Endpoint) -> A + Send,
        f_r: impl FnOnce(&mut SilentCotReceiver, &mut Endpoint) -> B + Send,
    ) -> (A, B) {
        let (a, b, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut s = SilentCotSender::setup(ch, &mut rng).expect("sender setup");
                f_s(&mut s, ch)
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(22);
                let mut r = SilentCotReceiver::setup(ch, &mut rng).expect("receiver setup");
                f_r(&mut r, ch)
            },
        );
        (a, b)
    }

    #[test]
    fn expanded_cots_satisfy_the_correlation() {
        let m = 100;
        let ((ys, delta), xzs) = run_cot(
            move |s, ch| {
                let ys = s.take(ch, m).expect("sender take");
                (ys, s.delta())
            },
            move |r, ch| r.take(ch, m).expect("receiver take"),
        );
        let mut ones = 0;
        for (j, (&y, &(x, z))) in ys.iter().zip(&xzs).enumerate() {
            let want = if x { y ^ delta } else { y };
            assert_eq!(z, want, "cot {j}");
            ones += usize::from(x);
        }
        // Choice bits are pseudorandom, not constant.
        assert!(ones > m / 4 && ones < 3 * m / 4, "suspicious bit balance: {ones}/{m}");
    }

    #[test]
    fn pool_survives_multiple_refills() {
        // Drain past one refill's yield so a second refill (self-seeded
        // from the reserve, no new bootstrap) must run.
        let m = LpnParams::CI.refill_yield() + 10;
        let ((ys, delta), xzs) = run_cot(
            move |s, ch| {
                let a = s.take(ch, m).expect("take 1");
                let b = s.take(ch, 5).expect("take 2");
                (([a, b].concat()), s.delta())
            },
            move |r, ch| {
                let a = r.take(ch, m).expect("take 1");
                let b = r.take(ch, 5).expect("take 2");
                [a, b].concat()
            },
        );
        for (j, (&y, &(x, z))) in ys.iter().zip(&xzs).enumerate() {
            assert_eq!(z, if x { y ^ delta } else { y }, "cot {j}");
        }
    }

    #[test]
    fn lpn_code_is_deterministic_and_in_range() {
        let p = LpnParams::CI;

        let a = lpn_indices(p);
        let b = lpn_indices(p);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.n * p.d);
        assert!(a.iter().all(|&i| (i as usize) < p.k));
    }
}
