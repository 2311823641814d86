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
//! A refill allocates one buffer of `n` blocks (and the receiver `n` bits):
//! the GGM forest grows inside it, LPN adds the code into it, and it
//! becomes the pool, so a pool is a position in it. The public LPN code is
//! derived once per process.
//!
//! The receiver carries its own seeded [`StdRng`]: after setup it draws no
//! external randomness. Its refill is two halves,
//! [`refill_start`](SilentCotReceiver::refill_start) (the derandomization
//! bits out) and [`refill_finish`](SilentCotReceiver::refill_finish) (the
//! sender's masks and sums in), so a resumable caller waits between them.

use super::{spcot, D, K, N, RESERVE, TREES, TREE_DEPTH};
use crate::base::{self, PendingSend};
use crate::bits::{get_bit, set_bit};
use crate::frames::{SilentDerand, SilentSpcotMasks, SilentSpcotSums};
use crate::iknp::{IknpReceiver, IknpSender};
use abnn2_crypto::{Block, Prg, RoHash};
use abnn2_net::{Transport, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

/// Tweak domain for SPCOT level masks: bit 127 set, bits 126/125 clear.
const SPCOT_TWEAK: u128 = 1 << 127;

/// Fixed public seed of the LPN local code ("ABNN2 LPN code." as bytes).
const LPN_CODE_SEED: [u8; 16] = *b"ABNN2 LPN code.\0";

/// Derives the public `D`-local code: `D` base indices per output
/// position, from a fixed PRG seed so both parties expand identically.
fn lpn_indices() -> Vec<u16> {
    // Eight little-endian 16-bit words per stream block.
    let mut blocks = vec![Block::ZERO; (N * D).div_ceil(8)];
    Prg::from_seed(Block::from_bytes(LPN_CODE_SEED)).fill_blocks(&mut blocks);
    let mask = (K - 1) as u16;
    let mut indices = Vec::with_capacity(blocks.len() * 8);
    for b in &blocks {
        indices.extend((0..8).map(|i| (b.as_u128() >> (16 * i)) as u16 & mask));
    }
    indices.truncate(N * D);
    indices
}

/// The code, derived on first use and kept for the life of the process,
/// so a refill borrows it.
fn lpn_code() -> &'static [u16] {
    static CODE: LazyLock<Vec<u16>> = LazyLock::new(lpn_indices);
    &CODE
}

/// A run of COTs: one block each and, on the receiver's side, one choice
/// bit each, packed 64 to a word (COT `i` at bit `i % 64` of word `i / 64`,
/// bits past the last COT clear). The sender's runs carry no choice bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cots {
    /// `y` on the sender's side, `z` on the receiver's.
    pub(crate) blocks: Vec<Block>,
    /// The receiver's choice bits `x`; empty on the sender's side.
    pub(crate) choices: Vec<u64>,
}

impl Cots {
    /// The blocks: `y` on the sender's side, `z` on the receiver's.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of COTs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are none.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The choice bit of COT `i` (receiver side).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the run has no choice bits.
    #[must_use]
    pub fn choice(&self, i: usize) -> bool {
        (self.choices[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Appends COTs `range` of `src`, with their choice bits if `src` has
    /// any.
    fn extend_from(&mut self, src: &Cots, range: Range<usize>) {
        let at = self.blocks.len();
        self.blocks.extend_from_slice(&src.blocks[range.clone()]);
        if !src.choices.is_empty() {
            self.choices.resize(self.blocks.len().div_ceil(64), 0);
            for (k, i) in (at..).zip(range) {
                self.choices[k / 64] |= u64::from(src.choice(i)) << (k % 64);
            }
        }
    }
}

/// A generator's COTs between takes: the newest refill's output (or the bootstrap's) and a cursor into it. Its COTs
/// `pos..end` are the pool and `end..` the reserve that seeds the next
/// refill; a refill that runs before the pool is taken leaves what is left
/// of it in `older`, so no COT is copied until it is taken.
#[derive(Debug, Clone, Default)]
struct Pool {
    older: VecDeque<(Arc<Cots>, Range<usize>)>,
    last: Arc<Cots>,
    pos: usize,
    end: usize,
}

impl Pool {
    /// COTs that can be taken.
    fn len(&self) -> usize {
        self.older.iter().map(|(_, r)| r.len()).sum::<usize>() + self.end - self.pos
    }

    /// The refill output holding the reserve and where the reserve starts
    /// in it, or `None` before the bootstrap.
    fn reserve(&self) -> Option<(Arc<Cots>, usize)> {
        (self.last.len() > self.end).then(|| (Arc::clone(&self.last), self.end))
    }

    /// Makes a refill's output the pool, keeping its last `reserve` COTs
    /// for the next refill.
    fn push(&mut self, cots: Cots, reserve: usize) {
        let end = cots.len() - reserve;
        let old = std::mem::replace(&mut self.last, Arc::new(cots));
        if self.pos < self.end {
            self.older.push_back((old, self.pos..self.end));
        }
        (self.pos, self.end) = (0, end);
    }

    /// The next `count` COTs, oldest first, copied out once.
    fn take(&mut self, count: usize) -> Cots {
        assert!(count <= self.len(), "take beyond the pool");
        let mut out = Cots { blocks: Vec::with_capacity(count), choices: Vec::new() };
        while out.len() < count {
            let Some((cots, range)) = self.older.front_mut() else { break };
            let n = range.len().min(count - out.len());
            out.extend_from(cots, range.start..range.start + n);
            range.start += n;
            if range.start == range.end {
                self.older.pop_front();
            }
        }
        let n = count - out.len();
        out.extend_from(&self.last, self.pos..self.pos + n);
        self.pos += n;
        out
    }

    /// Drops the pool and keeps the reserve. Its refill output stays whole
    /// until the next refill frees it, just after allocating its
    /// successor, so every refill gets memory the allocator already holds;
    /// freed here, it would be faulted in afresh every session.
    fn clear(&mut self) {
        self.older.clear();
        self.pos = self.end;
    }

    /// COTs held: the pool and the reserve.
    fn held(&self) -> usize {
        self.len() + self.last.len() - self.end
    }
}

/// Sender side of the silent COT generator: holds Δ and one `y` block per
/// produced COT. In ABNN² this is the client (the fragment-OT sender).
pub struct SilentCotSender {
    iknp: IknpSender,
    delta: Block,
    rng: StdRng,
    pool: Pool,
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
/// Not `Clone`: two copies would extend one IKNP stream twice.
pub struct SilentCotReceiver {
    iknp: IknpReceiver,
    rng: StdRng,
    pool: Pool,
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
    pub fn setup<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<Self, TransportError> {
        let iknp = IknpSender::setup(ch, rng)?;
        let delta = iknp.delta();
        Ok(SilentCotSender {
            iknp,
            delta,
            rng: StdRng::seed_from_u64(rng.next_u64()),
            pool: Pool::default(),
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
    pub fn take<T: Transport>(
        &mut self,
        ch: &mut T,
        count: usize,
    ) -> Result<Vec<Block>, TransportError> {
        while self.pool.len() < count {
            self.refill(ch)?;
        }
        Ok(self.pool.take(count).blocks)
    }

    /// Drops the COTs produced but not taken. Both parties call this at
    /// the same point (the clean end of a session), so the pools stay in
    /// lockstep; the reserve that seeds the next refill stays.
    pub fn drop_pool(&mut self) {
        self.pool.clear();
    }

    fn refill<T: Transport>(&mut self, ch: &mut T) -> Result<(), TransportError> {
        let (base, at) = match self.pool.reserve() {
            Some(reserve) => reserve,
            None => {
                let blocks = self.iknp.extend_cot(ch, RESERVE)?;
                (Arc::new(Cots { blocks, choices: Vec::new() }), 0)
            }
        };
        let (v, ys) = base.blocks[at..at + RESERVE].split_at(K);

        let SilentDerand(derand) = ch.recv_frame()?;
        if derand.len() != (TREES * TREE_DEPTH).div_ceil(8) {
            return Err(TransportError::Malformed("SPCOT derandomization batch has wrong length"));
        }
        // Both whitened mask keys of every tree level in one hash batch;
        // the level sums are XORed in as the forest grows.
        let mut keys = Vec::with_capacity(2 * ys.len());
        for (i, &y) in ys.iter().enumerate() {
            let tw = Block::from(SPCOT_TWEAK | u128::from(self.tweak + i as u64));
            let zero = if get_bit(&derand, i) { y ^ self.delta } else { y };
            keys.extend([zero ^ tw, zero ^ self.delta ^ tw]);
        }
        self.tweak += ys.len() as u64;
        RoHash::shared().hash_blocks(&mut keys);

        let mut out = vec![Block::ZERO; N];
        for root in &mut out[..TREES] {
            *root = Block::random(&mut self.rng);
        }
        let mut sums = Vec::with_capacity(TREES * 16);
        spcot::expand(RoHash::shared(), &mut out, TREE_DEPTH, |l, level| {
            for (tree, nodes) in level.chunks_exact(2 << l).enumerate() {
                let (k0, k1) = spcot::side_sums(nodes);
                let at = 2 * (tree * TREE_DEPTH + l);
                keys[at] ^= k0;
                keys[at + 1] ^= k1;
                if l + 1 == TREE_DEPTH {
                    sums.extend_from_slice(&(self.delta ^ k0 ^ k1).to_bytes());
                }
            }
        });
        let masks = keys.iter().flat_map(|k| k.to_bytes()).collect();
        ch.send_frame(&SilentSpcotMasks(masks))?;
        ch.send_frame(&SilentSpcotSums(sums))?;

        for (y, code) in out.iter_mut().zip(lpn_code().chunks_exact(D)) {
            for &i in code {
                *y ^= v[i as usize];
            }
        }
        self.pool.push(Cots { blocks: out, choices: Vec::new() }, RESERVE);
        Ok(())
    }
}

impl SilentCotReceiver {
    /// One-time setup: κ base OTs seeding the bootstrap IKNP extension plus
    /// an internal replay-deterministic RNG drawn once from `rng`.
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

    /// [`setup`](Self::setup) up to its wait, as
    /// [`IknpReceiver::setup_start`].
    ///
    /// # Errors
    ///
    /// Propagates base-OT failures.
    pub fn setup_start<T: Transport, R: Rng + ?Sized>(
        ch: &mut T,
        rng: &mut R,
    ) -> Result<(Self, PendingSend), TransportError> {
        let (iknp, pending) = IknpReceiver::setup_start(ch, rng)?;
        let receiver = SilentCotReceiver {
            iknp,
            rng: StdRng::seed_from_u64(rng.next_u64()),
            pool: Pool::default(),
            tweak: 0,
        };
        Ok((receiver, pending))
    }

    /// Takes `count` COT receiver pairs `(x, z)` from the pool, running
    /// refills as needed.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    pub fn take<T: Transport>(&mut self, ch: &mut T, count: usize) -> Result<Cots, TransportError> {
        while let Some(refill) = self.refill_start(ch, count)? {
            self.refill_finish(ch, refill)?;
        }
        Ok(self.pool.take(count))
    }

    /// Drops the COTs produced but not taken; see
    /// [`SilentCotSender::drop_pool`].
    pub fn drop_pool(&mut self) {
        self.pool.clear();
    }

    /// Bytes this receiver holds between takes: the bootstrap extension's
    /// key schedules, and 16 bytes and a bit for every COT of the reserve
    /// and the pool. The rest of the refill output those COTs lie in stays
    /// allocated until the next refill and is not counted.
    #[must_use]
    pub fn parked_bytes(&self) -> usize {
        let cots = self.pool.held();
        self.iknp.parked_bytes() + cots * 16 + cots.div_ceil(8)
    }

    /// Starts a refill if the pool holds fewer than `count` COTs: the
    /// bootstrap columns if this is the first, then the derandomization
    /// bits. `None` if the pool holds them already. A refill is the only
    /// point where [`take`](Self::take) waits on the peer.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    pub fn refill_start<T: Transport>(
        &mut self,
        ch: &mut T,
        count: usize,
    ) -> Result<Option<PendingRefill>, TransportError> {
        if self.pool.len() >= count {
            return Ok(None);
        }
        let (base, at) = match self.pool.reserve() {
            Some(reserve) => reserve,
            None => {
                let choices: Vec<bool> = (0..RESERVE).map(|_| self.rng.gen()).collect();
                let mut cots = Cots { blocks: Vec::new(), choices: vec![0; RESERVE.div_ceil(64)] };
                for (i, &c) in choices.iter().enumerate() {
                    cots.choices[i / 64] |= u64::from(c) << (i % 64);
                }
                cots.blocks = self.iknp.extend_cot(ch, &choices)?;
                (Arc::new(cots), 0)
            }
        };
        let alphas: Vec<usize> =
            (0..TREES).map(|_| self.rng.gen_range(0..1u64 << TREE_DEPTH) as usize).collect();
        let refill = PendingRefill { base, at, alphas };
        let mut derand = vec![0u8; (RESERVE - K).div_ceil(8)];
        for j in 0..RESERVE - K {
            set_bit(&mut derand, j, refill.base.choice(at + K + j) ^ (refill.complement(j) == 1));
        }
        ch.send_frame(&SilentDerand(derand))?;
        Ok(Some(refill))
    }

    /// Finishes a refill [`refill_start`](Self::refill_start) began: takes
    /// the sender's level masks and corrections and makes the output the
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or malformed refill messages.
    pub fn refill_finish<T: Transport>(
        &mut self,
        ch: &mut T,
        refill: PendingRefill,
    ) -> Result<(), TransportError> {
        let PendingRefill { ref base, at, ref alphas } = refill;
        // Base COT `i` of the code is `at + i`, SPCOT COT `j` is `at + k + j`.
        let uw = at..at + K;
        let xz = at + K..at + RESERVE;
        let SilentSpcotMasks(masks) = ch.recv_frame()?;
        if masks.len() != TREES * TREE_DEPTH * 32 {
            return Err(TransportError::Malformed("SPCOT mask batch has wrong length"));
        }
        let SilentSpcotSums(sums) = ch.recv_frame()?;
        if sums.len() != TREES * 16 {
            return Err(TransportError::Malformed("SPCOT correction batch has wrong length"));
        }
        // The complement sum of every tree level, unmasked in one hash batch.
        let mut ks: Vec<Block> = base.blocks[xz]
            .iter()
            .enumerate()
            .map(|(j, &z)| z ^ Block::from(SPCOT_TWEAK | u128::from(self.tweak + j as u64)))
            .collect();
        self.tweak += ks.len() as u64;
        RoHash::shared().hash_blocks(&mut ks);
        for (j, (k, mask)) in ks.iter_mut().zip(masks.chunks_exact(32)).enumerate() {
            let off = refill.complement(j) * 16;
            *k ^= Block::from_bytes(mask[off..off + 16].try_into().expect("16 bytes"));
        }
        let punctured: Vec<Block> = sums
            .chunks_exact(16)
            .map(|s| Block::from_bytes(s.try_into().expect("16 bytes")))
            .collect();

        let mut out = vec![Block::ZERO; N];
        spcot::reconstruct(RoHash::shared(), &mut out, TREE_DEPTH, alphas, &ks, &punctured);
        let mut choices = vec![0u64; N.div_ceil(64)];
        for (tree, &alpha) in alphas.iter().enumerate() {
            let j = (tree << TREE_DEPTH) + alpha;
            choices[j / 64] |= 1 << (j % 64);
        }
        let (u, w) = (base, &base.blocks[uw.clone()]);
        for (j, (z, code)) in out.iter_mut().zip(lpn_code().chunks_exact(D)).enumerate() {
            let mut x = 0u64;
            for &i in code {
                x ^= u64::from(u.choice(uw.start + i as usize));
                *z ^= w[i as usize];
            }
            choices[j / 64] ^= x << (j % 64);
        }
        self.pool.push(Cots { blocks: out, choices }, RESERVE);
        Ok(())
    }
}

/// A receiver refill whose derandomization bits are out, waiting for the
/// sender's level masks and corrections.
#[derive(Debug)]
pub struct PendingRefill {
    /// The COTs the refill consumes, from position `at`.
    base: Arc<Cots>,
    at: usize,
    /// Each tree's punctured leaf.
    alphas: Vec<usize>,
}

impl PendingRefill {
    /// The complement of the path bit SPCOT COT `j` stands for: the side
    /// whose sum the receiver unmasks.
    fn complement(&self, j: usize) -> usize {
        let (tree, l) = (j / TREE_DEPTH, j % TREE_DEPTH);
        ((self.alphas[tree] >> (TREE_DEPTH - 1 - l)) & 1) ^ 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silent::REFILL_YIELD;
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

    fn assert_correlated(ys: &[Block], delta: Block, xzs: &Cots) {
        assert_eq!(ys.len(), xzs.len());
        for (j, (&y, &z)) in ys.iter().zip(&xzs.blocks).enumerate() {
            assert_eq!(z, if xzs.choice(j) { y ^ delta } else { y }, "cot {j}");
        }
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
        assert_correlated(&ys, delta, &xzs);
        // Choice bits are pseudorandom, not constant.
        let ones = (0..m).filter(|&j| xzs.choice(j)).count();
        assert!(ones > m / 4 && ones < 3 * m / 4, "suspicious bit balance: {ones}/{m}");
    }

    #[test]
    fn pool_survives_multiple_refills() {
        // Drain past one refill's yield so a second refill (self-seeded
        // from the reserve, no new bootstrap) must run.
        let m = REFILL_YIELD + 10;
        let ((ys, delta), xzs) = run_cot(
            move |s, ch| {
                let a = s.take(ch, m).expect("take 1");
                let b = s.take(ch, 5).expect("take 2");
                (([a, b].concat()), s.delta())
            },
            move |r, ch| {
                let mut a = r.take(ch, m).expect("take 1");
                let b = r.take(ch, 5).expect("take 2");
                a.extend_from(&b, 0..5);
                a
            },
        );
        assert_correlated(&ys, delta, &xzs);
    }

    /// Takes across several refills, and refills that run while the pool
    /// still holds COTs (one `refill_start`, which leaves an older refill's
    /// rest in the pool), hand out every COT once and in step on both
    /// sides; a dropped pool keeps the reserve alone.
    #[test]
    fn takes_across_refills_stay_in_step() {
        let y = REFILL_YIELD;
        let sizes = [3, 2 * y + 70, 61, y - 200, 1];
        let ((ys, delta), (xzs, held, parked)) = run_cot(
            move |s, ch| {
                let mut ys = Vec::new();
                for n in sizes {
                    ys.extend(s.take(ch, n).expect("take"));
                }
                (ys, s.delta())
            },
            move |r, ch| {
                let mut xzs = Cots::default();
                for n in sizes {
                    if let Some(refill) = r.refill_start(ch, n).expect("refill") {
                        r.refill_finish(ch, refill).expect("refill");
                    }
                    let got = r.take(ch, n).expect("take");
                    xzs.extend_from(&got, 0..n);
                }
                r.drop_pool();
                (xzs, r.pool.held(), r.parked_bytes() - r.iknp.parked_bytes())
            },
        );
        assert_eq!(ys.len(), sizes.iter().sum::<usize>());
        assert_correlated(&ys, delta, &xzs);
        assert_eq!((held, parked), (RESERVE, RESERVE * 16 + RESERVE.div_ceil(8)));
    }

    #[test]
    fn lpn_code_is_deterministic_and_in_range() {
        let a = lpn_code();
        assert_eq!(a, &lpn_indices()[..], "the cached code is the fresh one");
        assert!(std::ptr::eq(a, lpn_code()), "derived once");
        assert_eq!(a.len(), N * D);
        assert!(a.iter().all(|&i| (i as usize) < K));
    }
}
