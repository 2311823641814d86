//! Quantized matrix-multiplication triplet generation (§4.1).
//!
//! Computes additive shares of `W·R` where the server holds the quantized
//! weight matrix `W ∈ 𝔻^{m×n}` (𝔻 the scheme's weight domain) and the
//! client holds a random matrix `R ∈ ℤ_{2^ℓ}^{n×o}` — the offline half of a
//! linear layer, `o` being the prediction batch size.
//!
//! For every weight `w_ij` and fragment `g`, one 1-out-of-N OT runs with the
//! server's digit `w_ij[g]` as the choice symbol. The client's message for
//! symbol `t` is the packed vector `{scaleᵍ·t·r_jk − s_k}_{k<o}` — so a
//! single OT finishes the whole batch row (§4.1.2, "multi-batch"). With
//! `o = 1`, the correlated-OT trick of §4.1.3 kicks in: the symbol-0
//! message is *derived from the chooser's own mask* instead of being sent,
//! reducing traffic to N−1 ciphertexts per OT.

use crate::frames::TripletMasked;
use crate::ProtocolError;
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::Transport;
use abnn2_ot::silent::PendingRefill;
use abnn2_ot::{FragmentChooser, FragmentChooserKeys, FragmentSender};
use rand::Rng;
use std::collections::VecDeque;

/// Which §4.1 message layout to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripletMode {
    /// §4.1.2: N messages per OT, each packing `o` ring elements.
    MultiBatch,
    /// §4.1.3: N−1 messages per OT; the symbol-0 plaintext is derived from
    /// the random-oracle output itself (correlated-OT style).
    OneBatch,
}

impl TripletMode {
    /// The paper's selection rule: the correlated trick for single
    /// predictions, message packing otherwise.
    #[must_use]
    pub fn for_batch(o: usize) -> Self {
        if o == 1 {
            TripletMode::OneBatch
        } else {
            TripletMode::MultiBatch
        }
    }

    /// The lowest symbol whose ciphertext crosses the wire — the one place
    /// the two layouts differ: `OneBatch` is `MultiBatch` from symbol 1,
    /// with the client's share taken from mask 0 instead of sampled.
    fn first_sent(self) -> usize {
        usize::from(self == TripletMode::OneBatch)
    }
}

/// Execution options for the triplet protocols.
///
/// The paper's conclusion notes its measurements are single-core and that
/// "our protocols are more efficient when optimized with multi-cores
/// parallelization" — `threads > 1` implements that future work: the
/// per-OT mask derivations and message packing are sharded across worker
/// threads (the transcript layout is unchanged, only who computes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripletConfig {
    /// Message layout (§4.1.2 vs §4.1.3).
    pub mode: TripletMode,
    /// Worker threads for mask computation (1 = the paper's setting).
    pub threads: usize,
}

impl TripletConfig {
    /// Single-threaded execution with the given mode.
    #[must_use]
    pub fn new(mode: TripletMode) -> Self {
        TripletConfig { mode, threads: 1 }
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = crate::config::checked_threads(threads);
        self
    }

    /// Mode chosen by the paper's batch rule, single-threaded.
    #[must_use]
    pub fn for_batch(o: usize) -> Self {
        TripletConfig::new(TripletMode::for_batch(o))
    }
}

impl From<TripletMode> for TripletConfig {
    fn from(mode: TripletMode) -> Self {
        TripletConfig::new(mode)
    }
}

/// Server side (model holder, OT chooser): learns `U` with
/// `U + V = W·R (mod 2^ℓ)`.
///
/// `weights` is row-major `m×n` with entries in `scheme`'s domain.
///
/// # Errors
///
/// Returns [`ProtocolError`] on dimension mismatch, disconnection, or
/// malformed client messages.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn triplet_server<T: Transport>(
    ch: &mut T,
    kk: &mut FragmentChooser,
    weights: &[i64],
    m: usize,
    n: usize,
    o: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    mode: TripletMode,
) -> Result<Matrix, ProtocolError> {
    triplet_server_with(ch, kk, weights, m, n, o, scheme, ring, mode.into())
}

/// [`triplet_server`] with explicit execution options (thread count): one
/// `TripletWalk` through a `SendAhead`, every fragment group's columns sent
/// before the first reply is read.
///
/// # Errors
///
/// As [`triplet_server`].
#[allow(clippy::too_many_arguments)]
pub fn triplet_server_with<T: Transport>(
    ch: &mut T,
    kk: &mut FragmentChooser,
    weights: &[i64],
    m: usize,
    n: usize,
    o: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    cfg: TripletConfig,
) -> Result<Matrix, ProtocolError> {
    let mut ahead = SendAhead::default();
    ahead.push(TripletWalk::new(weights.iter().copied(), m, n, o, scheme, ring, cfg)?);
    loop {
        ahead.send(ch, kk)?;
        if let Some(u) = ahead.take(ch, kk)? {
            return Ok(u);
        }
    }
}

/// The server half of one triplet, a fragment group at a time:
/// [`send`](Self::send) extends the next group and sends its columns (or
/// starts the silent refill that extension waits for), and
/// [`decode`](Self::decode) takes a group's [`TripletMasked`] batch with
/// the keys its extension returned and adds it into the partial share `U`.
/// Every group can be sent before the first is decoded.
#[derive(Debug)]
pub(crate) struct TripletWalk {
    m: usize,
    n: usize,
    o: usize,
    ring: Ring,
    cfg: TripletConfig,
    /// Each fragment group's radix, then each weight's digit in every
    /// group.
    radices: Vec<u64>,
    digits: Vec<Vec<u64>>,
    /// Next fragment group to extend.
    next: usize,
    /// Fragment groups decoded so far.
    decoded: usize,
    /// Sum of the fragments decoded so far.
    u: Matrix,
}

/// What the client owes the server for one of its sends: the
/// [`TripletMasked`] batch of an extended group, decoded with its keys, or
/// a silent refill's two frames.
#[derive(Debug)]
enum Owed {
    Masked(FragmentChooserKeys),
    Refill(PendingRefill),
}

impl TripletWalk {
    /// Checks `weights` (row-major `m×n`) against the scheme's domain and
    /// decomposes each into its fragment digits.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Dimension`] on a length or domain mismatch.
    pub(crate) fn new(
        weights: impl ExactSizeIterator<Item = i64>,
        m: usize,
        n: usize,
        o: usize,
        scheme: &FragmentScheme,
        ring: Ring,
        cfg: TripletConfig,
    ) -> Result<Self, ProtocolError> {
        if weights.len() != m * n {
            return Err(ProtocolError::Dimension("weights length must be m*n"));
        }
        let digits = weights
            .map(|w| scheme.contains(w).then(|| scheme.decompose(w)))
            .collect::<Option<_>>()
            .ok_or(ProtocolError::Dimension("weight outside scheme domain"))?;
        Ok(TripletWalk {
            m,
            n,
            o,
            ring,
            cfg,
            radices: scheme.fragments().iter().map(|f| f.n).collect(),
            digits,
            next: 0,
            decoded: 0,
            u: Matrix::zeros(m, o),
        })
    }

    /// Whether every fragment group has been extended.
    fn sent_all(&self) -> bool {
        self.next == self.radices.len()
    }

    /// Extends the next fragment group and sends its columns, or starts the
    /// silent refill that extension would wait for.
    fn send<T: Transport>(
        &mut self,
        ch: &mut T,
        kk: &mut FragmentChooser,
    ) -> Result<Owed, ProtocolError> {
        let (g, radix) = (self.next, self.radices[self.next]);
        if let Some(refill) = kk.refill_start(ch, self.digits.len(), radix)? {
            return Ok(Owed::Refill(refill));
        }
        let choices: Vec<u64> = self.digits.iter().map(|d| d[g]).collect();
        let keys = kk.extend(ch, &choices, radix)?;
        self.next += 1;
        Ok(Owed::Masked(keys))
    }

    /// Receives the next fragment group's [`TripletMasked`] batch and
    /// decodes it with that group's `keys`; the finished share `U` after
    /// the last group.
    fn decode<T: Transport>(
        &mut self,
        ch: &mut T,
        keys: &FragmentChooserKeys,
    ) -> Result<Option<Matrix>, ProtocolError> {
        let (g, digits) = (self.decoded, &self.digits);
        let (m, n, o, ring) = (self.m, self.n, self.o, self.ring);
        let (radix, t_start) = (self.radices[g] as usize, self.cfg.mode.first_sent());
        let (width, elem_len) = (ring.byte_len(), o * ring.byte_len());
        let per_ot = radix - t_start;
        let TripletMasked(data) = ch.recv_frame()?;
        if data.len() != m * n * per_ot * elem_len {
            return Err(ProtocolError::Malformed("triplet ciphertext batch length"));
        }

        // Per-OT decryption is independent; shard it across workers and
        // sum the partial shares.
        let decode_range = |range: std::ops::Range<usize>| -> Vec<u64> {
            let mut u_part = vec![0u64; m * o];
            let mut masks = Vec::new();
            for ots in chunks(range, MASKS_PER_CHUNK) {
                masks.resize(ots.len() * elem_len, 0);
                keys.masks(ots.clone(), elem_len, &mut masks);
                for (k, idx) in ots.enumerate() {
                    let mask = &mut masks[k * elem_len..][..elem_len];
                    // A symbol below `t_start` is not on the wire: its
                    // plaintext *is* the chooser's mask.
                    if let Some(t) = (digits[idx][g] as usize).checked_sub(t_start) {
                        let off = (idx * per_ot + t) * elem_len;
                        mask.iter_mut().zip(&data[off..off + elem_len]).for_each(|(m, c)| *m ^= c);
                    }
                    let row = &mut u_part[idx / n * o..][..o];
                    for (acc, bytes) in row.iter_mut().zip(mask.chunks_exact(width)) {
                        *acc = ring.add(*acc, ring.decode(bytes));
                    }
                }
            }
            u_part
        };
        for part in run_sharded(m * n, self.cfg.threads, &decode_range) {
            add_assign(self.u.as_mut_slice(), &part, ring);
        }
        self.decoded += 1;
        Ok((self.decoded == self.radices.len())
            .then(|| std::mem::replace(&mut self.u, Matrix::zeros(0, 0))))
    }
}

/// Triplets sent ahead of their replies: the [`TripletWalk`]s not yet
/// finished, in op order, and what the client owes for their sends, in the
/// order it owes it. [`send`](Self::send) sends every group it can before
/// anything comes back; [`take`](Self::take) takes the oldest debt's
/// frames.
#[derive(Debug, Default)]
pub(crate) struct SendAhead {
    walks: VecDeque<TripletWalk>,
    owed: VecDeque<Owed>,
}

impl SendAhead {
    /// Queues a triplet behind the ones in flight; [`send`](Self::send)
    /// sends its groups once theirs are out.
    pub(crate) fn push(&mut self, walk: TripletWalk) {
        self.walks.push_back(walk);
    }

    /// Whether nothing is queued or owed.
    pub(crate) fn is_empty(&self) -> bool {
        self.walks.is_empty() && self.owed.is_empty()
    }

    /// Frames the next [`take`](Self::take) waits for: a refill's two or a
    /// group's one.
    pub(crate) fn needs(&self) -> usize {
        match self.owed.front() {
            Some(Owed::Refill(_)) => 2,
            Some(Owed::Masked(_)) => 1,
            None => 0,
        }
    }

    /// Sends every queued group not yet out, in order, and returns whether
    /// all are out. It stops at a silent refill: the chooser extends again
    /// only once the refill is [`take`](Self::take)n.
    pub(crate) fn send<T: Transport>(
        &mut self,
        ch: &mut T,
        kk: &mut FragmentChooser,
    ) -> Result<bool, ProtocolError> {
        if self.owed.iter().any(|o| matches!(o, Owed::Refill(_))) {
            return Ok(false);
        }
        for walk in &mut self.walks {
            while !walk.sent_all() {
                let owed = walk.send(ch, kk)?;
                let refill = matches!(owed, Owed::Refill(_));
                self.owed.push_back(owed);
                if refill {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Takes the oldest debt's frames: finishes a refill, or decodes a
    /// group into the oldest triplet, returning its share `U` once that was
    /// its last group.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on disconnection or a malformed client message.
    pub(crate) fn take<T: Transport>(
        &mut self,
        ch: &mut T,
        kk: &mut FragmentChooser,
    ) -> Result<Option<Matrix>, ProtocolError> {
        match self.owed.pop_front() {
            Some(Owed::Refill(refill)) => kk.refill_finish(ch, refill)?,
            Some(Owed::Masked(keys)) => {
                let walk = self.walks.front_mut().expect("a group is owed to a walk");
                if let Some(u) = walk.decode(ch, &keys)? {
                    self.walks.pop_front();
                    return Ok(Some(u));
                }
            }
            None => {}
        }
        Ok(None)
    }
}

/// Masks derived per oracle batch by both parties' loops: bounds what a
/// shard holds at once (rows, seeds and masks of one batch, a few hundred
/// KB at the served shapes) whatever the layer's size. Public for the
/// probes that time mask derivation the way a triplet runs it.
pub const MASKS_PER_CHUNK: usize = 4096;

/// `range` cut into consecutive pieces of at most `len`.
fn chunks(
    range: std::ops::Range<usize>,
    len: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    range.clone().step_by(len).map(move |at| at..(at + len).min(range.end))
}

/// `acc += part` element-wise over `ring`.
fn add_assign(acc: &mut [u64], part: &[u64], ring: Ring) {
    for (a, &p) in acc.iter_mut().zip(part) {
        *a = ring.add(*a, p);
    }
}

/// SplitMix64 finalizer: decorrelates the per-OT mask streams derived
/// from one group seed in [`triplet_client_with`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Splits `0..total` into up to `threads` contiguous ranges and runs `f`
/// on each (on scoped worker threads when `threads > 1`), returning the
/// results in range order.
fn run_sharded<T, F>(total: usize, threads: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let threads = threads.max(1).min(total.max(1));
    if threads <= 1 {
        return vec![f(0..total)];
    }
    let chunk = total.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let start = t * chunk;
                let end = ((t + 1) * chunk).min(total);
                scope.spawn(move || f(start..end))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// Client side (data owner, OT sender): learns `V` with
/// `U + V = W·R (mod 2^ℓ)` for its own random `R` (`n×o`).
///
/// `m` is the public output dimension of the layer.
///
/// # Errors
///
/// Returns [`ProtocolError`] on dimension mismatch or disconnection.
#[allow(clippy::too_many_arguments)]
pub fn triplet_client<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    r: &Matrix,
    m: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    mode: TripletMode,
    rng: &mut RNG,
) -> Result<Matrix, ProtocolError> {
    triplet_client_with(ch, kk, r, m, scheme, ring, mode.into(), rng)
}

/// [`triplet_client`] with explicit execution options (thread count).
///
/// # Errors
///
/// As [`triplet_client`].
#[allow(clippy::too_many_arguments)]
pub fn triplet_client_with<T: Transport, RNG: Rng + ?Sized>(
    ch: &mut T,
    kk: &mut FragmentSender,
    r: &Matrix,
    m: usize,
    scheme: &FragmentScheme,
    ring: Ring,
    cfg: TripletConfig,
    rng: &mut RNG,
) -> Result<Matrix, ProtocolError> {
    let (n, o) = (r.rows(), r.cols());
    let (width, elem_len) = (ring.byte_len(), o * ring.byte_len());
    let t_start = cfg.mode.first_sent();
    let mut v = Matrix::zeros(m, o);

    for frag in scheme.fragments() {
        let radix = frag.n as usize;
        let keys = kk.extend(ch, m * n, frag.n)?;
        let per_ot = radix - t_start;

        // Message packing per OT is independent; shard across workers and
        // concatenate the buffers in index order. One group seed is drawn
        // here — exactly one `rng` call for any thread count — and each
        // OT derives its own mask stream from (seed, index), so the frame
        // is byte-identical no matter how the index range is sharded.
        let mask_seed: u64 = rng.gen();
        let pack_range = |range: std::ops::Range<usize>| -> (Vec<u8>, Vec<u64>) {
            use rand::SeedableRng;
            let mut v_part = vec![0u64; m * o];
            let mut data = Vec::with_capacity(range.len() * per_ot * elem_len);
            let mut masks = Vec::new();
            let mut s = vec![0u64; o];
            for ots in chunks(range, (MASKS_PER_CHUNK / radix).max(1)) {
                masks.resize(ots.len() * radix * elem_len, 0);
                keys.masks(ots.clone(), 0..frag.n, elem_len, &mut masks);
                for (k, idx) in ots.enumerate() {
                    let mask = |t: usize| &masks[(k * radix + t) * elem_len..][..elem_len];
                    let r_row = r.row(idx % n);
                    // The client's per-OT shares s_k.
                    if t_start == 0 {
                        let mut ot_rng = rand::rngs::StdRng::seed_from_u64(splitmix64(
                            mask_seed ^ splitmix64(idx as u64),
                        ));
                        s.iter_mut().for_each(|sk| *sk = ring.sample(&mut ot_rng));
                    } else {
                        // s_k := contribution(0, r_k) − decode(mask₀)_k, so
                        // the chooser's symbol-0 plaintext equals its own
                        // mask and needs no transmission.
                        for ((sk, &rk), m0) in
                            s.iter_mut().zip(r_row).zip(mask(0).chunks_exact(width))
                        {
                            *sk = ring.sub(frag.contribution(0, rk, &ring), ring.decode(m0));
                        }
                    }
                    add_assign(&mut v_part[idx / n * o..][..o], &s, ring);
                    for t in t_start..radix {
                        for ((&rk, &sk), mask) in
                            r_row.iter().zip(&s).zip(mask(t).chunks_exact(width))
                        {
                            let plain = ring.sub(frag.contribution(t as u64, rk, &ring), sk);
                            data.extend(plain.to_le_bytes().iter().zip(mask).map(|(p, m)| p ^ m));
                        }
                    }
                }
            }
            (data, v_part)
        };
        let mut data = Vec::with_capacity(m * n * per_ot * elem_len);
        for (buf, v_part) in run_sharded(m * n, cfg.threads, &pack_range) {
            data.extend_from_slice(&buf);
            add_assign(v.as_mut_slice(), &v_part, ring);
        }
        ch.send_frame(&TripletMasked(data))?;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel, TrafficReport};
    use abnn2_ot::OfflineMode;
    use rand::SeedableRng;

    /// Runs the full triplet protocol (including session setup) over the
    /// portable KK13 backend and returns (U, V, R, traffic).
    #[allow(clippy::too_many_arguments)]
    fn run_triplet(
        weights: Vec<i64>,
        m: usize,
        n: usize,
        o: usize,
        scheme: FragmentScheme,
        ring: Ring,
        mode: TripletMode,
        seed: u64,
    ) -> (Matrix, Matrix, Matrix, TrafficReport) {
        run_triplet_over(OfflineMode::Iknp, weights, m, n, o, scheme, ring, mode, seed)
    }

    /// [`run_triplet`] with an explicit OT backend.
    #[allow(clippy::too_many_arguments)]
    fn run_triplet_over(
        ot: OfflineMode,
        weights: Vec<i64>,
        m: usize,
        n: usize,
        o: usize,
        scheme: FragmentScheme,
        ring: Ring,
        mode: TripletMode,
        seed: u64,
    ) -> (Matrix, Matrix, Matrix, TrafficReport) {
        let scheme2 = scheme.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = Matrix::random(n, o, &ring, &mut rng);
        let r2 = r.clone();
        let (u, v, report) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                let mut kk = FragmentChooser::setup(ch, ot, &mut rng).expect("chooser setup");
                triplet_server(ch, &mut kk, &weights, m, n, o, &scheme, ring, mode).expect("server")
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                let mut kk = FragmentSender::setup(ch, ot, &mut rng).expect("sender setup");
                triplet_client(ch, &mut kk, &r2, m, &scheme2, ring, mode, &mut rng).expect("client")
            },
        );
        (u, v, r, report)
    }

    fn expected_product(weights: &[i64], m: usize, n: usize, r: &Matrix, ring: Ring) -> Matrix {
        let w_ring: Vec<u64> = weights.iter().map(|&w| ring.from_i64(w)).collect();
        Matrix::new(m, n, w_ring).mul(r, &ring)
    }

    #[test]
    fn one_batch_ternary_dot_product() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::ternary();
        let weights = vec![-1i64, 0, 1, 1, -1];
        let (u, v, r, _) =
            run_triplet(weights.clone(), 1, 5, 1, scheme, ring, TripletMode::OneBatch, 100);
        let expect = expected_product(&weights, 1, 5, &r, ring);
        assert_eq!(u.add(&v, &ring), expect);
    }

    #[test]
    fn multi_batch_signed_8bit() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (m, n, o) = (4, 6, 3);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-128i64..128)).collect();
        let (u, v, r, _) =
            run_triplet(weights.clone(), m, n, o, scheme, ring, TripletMode::MultiBatch, 200);
        let expect = expected_product(&weights, m, n, &r, ring);
        assert_eq!(u.add(&v, &ring), expect);
    }

    #[test]
    fn all_paper_schemes_produce_correct_triplets() {
        let ring = Ring::new(32);
        let mut seed = 300;
        for eta in [8u32, 6, 4, 3] {
            for scheme in FragmentScheme::paper_schemes(eta) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let (lo, hi) = scheme.weight_range();
                let weights: Vec<i64> = (0..6).map(|_| rng.gen_range(lo..=hi)).collect();
                let (u, v, r, _) = run_triplet(
                    weights.clone(),
                    2,
                    3,
                    1,
                    scheme.clone(),
                    ring,
                    TripletMode::OneBatch,
                    seed,
                );
                let expect = expected_product(&weights, 2, 3, &r, ring);
                assert_eq!(u.add(&v, &ring), expect, "scheme {scheme} η={eta}");
                seed += 1;
            }
        }
    }

    #[test]
    fn non_power_of_two_radixes_produce_correct_triplets() {
        // The optimizer's balanced base-7 scheme and a signed base-6 scheme
        // run through the same KK13 machinery (any N ≤ 256).
        let ring = Ring::new(32);
        for (seed, scheme) in (600..).zip([
            FragmentScheme::balanced(7, 3),
            FragmentScheme::base_n_signed(6, 3),
            FragmentScheme::base_n(5, 2),
            FragmentScheme::optimize(8, 1, 32),
        ]) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (lo, hi) = scheme.weight_range();
            let weights: Vec<i64> = (0..12).map(|_| rng.gen_range(lo..=hi)).collect();
            let (u, v, r, _) = run_triplet(
                weights.clone(),
                3,
                4,
                2,
                scheme.clone(),
                ring,
                TripletMode::MultiBatch,
                seed,
            );
            let expect = expected_product(&weights, 3, 4, &r, ring);
            assert_eq!(u.add(&v, &ring), expect, "scheme {scheme}");
        }
    }

    #[test]
    fn sixty_four_bit_ring() {
        let ring = Ring::new(64);
        let scheme = FragmentScheme::signed_bit_fields(&[4, 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let weights: Vec<i64> = (0..8).map(|_| rng.gen_range(-128i64..128)).collect();
        let (u, v, r, _) =
            run_triplet(weights.clone(), 2, 4, 2, scheme, ring, TripletMode::MultiBatch, 400);
        assert_eq!(u.add(&v, &ring), expected_product(&weights, 2, 4, &r, ring));
    }

    #[test]
    fn silent_backend_produces_correct_triplets() {
        // Same protocol, silent (LPN) OT backend: both §4.1 layouts must
        // still reconstruct W·R exactly.
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, n) = (3, 5);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-128i64..128)).collect();
        for (o, mode) in [(1usize, TripletMode::OneBatch), (2, TripletMode::MultiBatch)] {
            let (u, v, r, _) = run_triplet_over(
                OfflineMode::Silent,
                weights.clone(),
                m,
                n,
                o,
                scheme.clone(),
                ring,
                mode,
                700 + o as u64,
            );
            let expect = expected_product(&weights, m, n, &r, ring);
            assert_eq!(u.add(&v, &ring), expect, "mode {mode:?}");
        }
    }

    #[test]
    fn one_batch_saves_communication() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[4, 4]); // N = 16: big gap
        let weights: Vec<i64> = (0..32).map(|i| (i % 20) - 10).collect();
        let (_, _, _, rep1) =
            run_triplet(weights.clone(), 4, 8, 1, scheme.clone(), ring, TripletMode::OneBatch, 500);
        let (_, _, _, rep2) =
            run_triplet(weights, 4, 8, 1, scheme, ring, TripletMode::MultiBatch, 501);
        assert!(
            rep1.total_bytes() < rep2.total_bytes(),
            "one-batch {} should beat multi-batch {}",
            rep1.total_bytes(),
            rep2.total_bytes()
        );
    }

    #[test]
    fn weight_domain_enforced() {
        let ring = Ring::new(32);
        let scheme = FragmentScheme::binary();
        let scheme2 = scheme.clone();
        // Weight 7 is outside {0,1}: the server must error out before any
        // OT, and the client then fails on the dropped channel.
        let (server_res, client_res, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let mut kk =
                    FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                triplet_server(ch, &mut kk, &[7], 1, 1, 1, &scheme, ring, TripletMode::OneBatch)
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                let mut kk = FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                let r = Matrix::column(vec![5]);
                triplet_client(ch, &mut kk, &r, 1, &scheme2, ring, TripletMode::OneBatch, &mut rng)
            },
        );
        assert_eq!(
            server_res.err(),
            Some(ProtocolError::Dimension("weight outside scheme domain"))
        );
        assert!(client_res.is_err(), "client must observe the aborted protocol");
    }

    #[test]
    fn mode_selection_rule() {
        assert_eq!(TripletMode::for_batch(1), TripletMode::OneBatch);
        assert_eq!(TripletMode::for_batch(32), TripletMode::MultiBatch);
        assert_eq!(TripletConfig::for_batch(1).threads, 1);
        assert_eq!(TripletConfig::for_batch(1).with_threads(4).threads, 4);
    }

    #[test]
    fn multithreaded_triplets_remain_correct() {
        // The paper's future-work parallelization: any mix of thread counts
        // between the parties must produce valid triplets.
        let ring = Ring::new(32);
        let scheme = FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let (m, n, o) = (6, 9, 4);
        let weights: Vec<i64> = (0..m * n).map(|_| rng.gen_range(-128i64..128)).collect();
        let r = Matrix::random(n, o, &ring, &mut rng);
        for (st, ct) in [(1usize, 3usize), (4, 1), (3, 2)] {
            let (w2, r2, s1, s2) = (weights.clone(), r.clone(), scheme.clone(), scheme.clone());
            let (u, v, _) = run_pair(
                NetworkModel::instant(),
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(78);
                    let mut kk =
                        FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                    let cfg = TripletConfig::new(TripletMode::MultiBatch).with_threads(st);
                    triplet_server_with(ch, &mut kk, &w2, m, n, o, &s1, ring, cfg).expect("server")
                },
                move |ch| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(79);
                    let mut kk =
                        FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                    let cfg = TripletConfig::new(TripletMode::MultiBatch).with_threads(ct);
                    triplet_client_with(ch, &mut kk, &r2, m, &s2, ring, cfg, &mut rng)
                        .expect("client")
                },
            );
            let expect = expected_product(&weights, m, n, &r, ring);
            assert_eq!(u.add(&v, &ring), expect, "server {st} threads, client {ct} threads");
        }
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        let _ = TripletConfig::for_batch(1).with_threads(0);
    }
}
