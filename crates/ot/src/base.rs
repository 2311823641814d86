//! Chou–Orlandi "simplest OT" base oblivious transfer.
//!
//! The sender holds message pairs `(m₀, m₁)`; the chooser holds bits `c` and
//! learns `m_c`. One batch runs any number of OTs with a single round trip
//! after the sender's setup message:
//!
//! ```text
//! S: y ←$,  A = yB,  T = yA                  --A-->
//! R: xᵢ ←$, Rᵢ = cᵢ·A + xᵢ·B                 <--Rᵢ--
//! S: k⁰ᵢ = KDF(i, yRᵢ), k¹ᵢ = KDF(i, yRᵢ−T)  --ctᵢ-->
//! R: k^cᵢ = KDF(i, xᵢ·A)
//! ```
//!
//! Where the time goes: the chooser's `xᵢ·B` and `xᵢ·A` are fixed-base
//! (the process-wide base table and one [`PointTable`] built per batch for
//! `A`), its keys are derived while the sender is still computing, only the
//! sender's `y·Rᵢ` is a variable-base multiplication, and every batch of
//! points is normalised for encoding with a single field inversion.
//!
//! Security holds in the random-oracle model under computational
//! Diffie–Hellman on the curve (semi-honest parties; the chooser's `Rᵢ` is a
//! uniformly random point for either choice).

use crate::frames::{BaseCtBatch, BasePoint, BasePointBatch};
use abnn2_crypto::curve::{EdwardsPoint, PointTable};
use abnn2_crypto::{sha256::sha256, Block};
use abnn2_net::{Transport, TransportError};
use rand::Rng;

const NOT_ON_CURVE: TransportError = TransportError::Malformed("base-OT point is not on the curve");

fn random_scalar<R: Rng + ?Sized>(rng: &mut R) -> [u8; 32] {
    let mut s = [0u8; 32];
    rng.fill(&mut s);
    s[31] &= 0x0f; // < 2^252, comfortably below the group order × cofactor
    s
}

fn kdf(index: u64, point: &[u8; 64]) -> Block {
    let mut data = [0u8; 72];
    data[..64].copy_from_slice(point);
    data[64..].copy_from_slice(&index.to_le_bytes());
    let digest = sha256(&data);
    Block::from_bytes(digest[..16].try_into().expect("16 bytes"))
}

/// Runs the sender side, transferring `pairs[i].0` or `pairs[i].1` according
/// to the chooser's bit: [`send_start`], then [`PendingSend::finish`].
///
/// # Errors
///
/// Returns [`TransportError`] on disconnection, or `Malformed` if the
/// chooser sends invalid curve points.
pub fn send<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    pairs: &[(Block, Block)],
    rng: &mut R,
) -> Result<(), TransportError> {
    send_start(ch, pairs.to_vec(), rng)?.finish(ch)
}

/// A sender whose point `A` is out, waiting for the chooser's `Rᵢ`.
#[derive(Debug)]
pub struct PendingSend {
    y: [u8; 32],
    t: EdwardsPoint,
    pub(crate) pairs: Vec<(Block, Block)>,
}

/// The sender's first half: draws `y` and sends `A = yB`.
///
/// # Errors
///
/// Returns [`TransportError`] on disconnection.
pub fn send_start<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    pairs: Vec<(Block, Block)>,
    rng: &mut R,
) -> Result<PendingSend, TransportError> {
    let y = random_scalar(rng);
    let a = PointTable::base().mul(&y);
    let t = a.scalar_mul(&y);
    ch.send_frame(&BasePoint(a.to_bytes().to_vec()))?;
    Ok(PendingSend { y, t, pairs })
}

impl PendingSend {
    /// The sender's second half: receives the chooser's `Rᵢ` and sends
    /// both ciphertexts of every pair.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] on disconnection, or `Malformed` if the
    /// chooser sends invalid curve points.
    pub fn finish<T: Transport>(self, ch: &mut T) -> Result<(), TransportError> {
        let PendingSend { y, t, pairs } = self;
        let BasePointBatch(r_bytes) = ch.recv_frame()?;
        if r_bytes.len() != 64 * pairs.len() {
            return Err(TransportError::Malformed("chooser point batch has wrong length"));
        }
        // Both KDF inputs of every OT, normalised with one inversion.
        let mut shared = Vec::with_capacity(2 * pairs.len());
        for pt in r_bytes.chunks_exact(64) {
            let r_i = EdwardsPoint::from_bytes(pt.try_into().expect("64 bytes"))
                .map_err(|_| NOT_ON_CURVE)?;
            let yr = r_i.scalar_mul(&y);
            shared.push(yr);
            shared.push(yr.sub(&t));
        }
        let mut cts = Vec::with_capacity(pairs.len() * 32);
        for (i, (pair, keys)) in
            pairs.iter().zip(EdwardsPoint::batch_to_bytes(&shared).chunks_exact(2)).enumerate()
        {
            cts.extend_from_slice(&(pair.0 ^ kdf(i as u64, &keys[0])).to_bytes());
            cts.extend_from_slice(&(pair.1 ^ kdf(i as u64, &keys[1])).to_bytes());
        }
        ch.send_frame(&BaseCtBatch(cts))
    }
}

/// Runs the chooser side, learning one block per choice bit:
/// [`recv_start`], then [`PendingRecv::finish`].
///
/// # Errors
///
/// Returns [`TransportError`] on disconnection or malformed sender messages.
pub fn recv<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    choices: &[bool],
    rng: &mut R,
) -> Result<Vec<Block>, TransportError> {
    recv_start(ch, choices.to_vec(), rng)?.finish(ch)
}

/// The blocking setup of an OT half whose base OTs this party sends: the
/// half its `setup_start` returned, once the transfer has finished.
///
/// # Errors
///
/// As [`PendingSend::finish`].
pub fn finished<X, T: Transport>(
    (half, pending): (X, PendingSend),
    ch: &mut T,
) -> Result<X, TransportError> {
    pending.finish(ch)?;
    Ok(half)
}

/// A chooser whose `Rᵢ` are out, waiting for the ciphertexts.
#[derive(Debug)]
pub struct PendingRecv {
    a: EdwardsPoint,
    xs: Vec<[u8; 32]>,
    pub(crate) choices: Vec<bool>,
}

/// The chooser's first half: receives `A`, draws the `xᵢ` and sends the
/// `Rᵢ`.
///
/// # Errors
///
/// Returns [`TransportError`] on disconnection or an invalid `A`.
pub fn recv_start<T: Transport, R: Rng + ?Sized>(
    ch: &mut T,
    choices: Vec<bool>,
    rng: &mut R,
) -> Result<PendingRecv, TransportError> {
    let BasePoint(a_bytes) = ch.recv_frame()?;
    let a_arr: [u8; 64] = a_bytes.as_slice().try_into().expect("frame-validated 64 bytes");
    let a = EdwardsPoint::from_bytes(&a_arr).map_err(|_| NOT_ON_CURVE)?;

    let xs: Vec<[u8; 32]> = choices.iter().map(|_| random_scalar(rng)).collect();
    let rs: Vec<EdwardsPoint> = choices
        .iter()
        .zip(&xs)
        .map(|(&c, x)| {
            let xb = PointTable::base().mul(x);
            if c {
                a.add(&xb)
            } else {
                xb
            }
        })
        .collect();
    ch.send_frame(&BasePointBatch(EdwardsPoint::batch_to_bytes(&rs).concat()))?;
    // The flush hands the sender its `Rᵢ` now (a coalescing transport
    // would otherwise hold them until our recv), so its `y·Rᵢ` run while
    // `finish` derives the keys.
    ch.flush()?;
    Ok(PendingRecv { a, xs, choices })
}

impl PendingRecv {
    /// The chooser's second half: derives the keys, which need nothing from
    /// the sender's reply, then receives the ciphertexts and decrypts one
    /// block per choice bit.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] on disconnection or malformed sender
    /// messages.
    pub fn finish<T: Transport>(self, ch: &mut T) -> Result<Vec<Block>, TransportError> {
        let a_table = PointTable::new(&self.a);
        let shared: Vec<EdwardsPoint> = self.xs.iter().map(|x| a_table.mul(x)).collect();
        let keys = EdwardsPoint::batch_to_bytes(&shared);

        let BaseCtBatch(cts) = ch.recv_frame()?;
        if cts.len() != 32 * self.choices.len() {
            return Err(TransportError::Malformed("ciphertext batch has wrong length"));
        }
        let mut out = Vec::with_capacity(self.choices.len());
        for (i, (&c, key)) in self.choices.iter().zip(&keys).enumerate() {
            let off = 32 * i + if c { 16 } else { 0 };
            let ct = Block::from_bytes(cts[off..off + 16].try_into().expect("16 bytes"));
            out.push(ct ^ kdf(i as u64, key));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abnn2_net::{run_pair, NetworkModel};
    use rand::SeedableRng;

    fn run_base_ot(choices: Vec<bool>, seed: u64) -> (Vec<(Block, Block)>, Vec<Block>) {
        let n = choices.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs: Vec<(Block, Block)> =
            (0..n).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
        let pairs_clone = pairs.clone();
        let (_, got, _) = run_pair(
            NetworkModel::instant(),
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1);
                send(ch, &pairs_clone, &mut rng).expect("sender");
            },
            move |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 2);
                recv(ch, &choices, &mut rng).expect("chooser")
            },
        );
        (pairs, got)
    }

    #[test]
    fn transfers_chosen_messages() {
        let choices = vec![false, true, true, false, true];
        let (pairs, got) = run_base_ot(choices.clone(), 42);
        for (i, &c) in choices.iter().enumerate() {
            let expect = if c { pairs[i].1 } else { pairs[i].0 };
            assert_eq!(got[i], expect, "ot {i}");
        }
    }

    #[test]
    fn all_zero_and_all_one_choices() {
        let (pairs, got) = run_base_ot(vec![false; 8], 1);
        assert!(got.iter().zip(&pairs).all(|(g, p)| *g == p.0));
        let (pairs, got) = run_base_ot(vec![true; 8], 2);
        assert!(got.iter().zip(&pairs).all(|(g, p)| *g == p.1));
    }

    #[test]
    fn kappa_sized_batch() {
        // The size used to seed IKNP.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let choices: Vec<bool> = (0..128).map(|_| rng.gen()).collect();
        let (pairs, got) = run_base_ot(choices.clone(), 7);
        for (i, &c) in choices.iter().enumerate() {
            assert_eq!(got[i], if c { pairs[i].1 } else { pairs[i].0 });
        }
    }

    /// Hashes every frame the wrapped party sends and receives, in the
    /// order that party sees them.
    struct Tap<'a, T> {
        inner: &'a mut T,
        log: Vec<u8>,
    }

    impl<T: Transport> Transport for Tap<'_, T> {
        fn send(&mut self, payload: &[u8]) -> Result<(), abnn2_net::TransportError> {
            self.log.push(b'>');
            self.log.extend_from_slice(&sha256(payload));
            self.inner.send(payload)
        }
        fn recv(&mut self) -> Result<Vec<u8>, abnn2_net::TransportError> {
            let frame = self.inner.recv()?;
            self.log.push(b'<');
            self.log.extend_from_slice(&sha256(&frame));
            Ok(frame)
        }
        fn snapshot(&self) -> abnn2_net::CommSnapshot {
            self.inner.snapshot()
        }
    }

    /// The full transcript of a seeded κ-OT batch, pinned on the commit
    /// before the windowed/fixed-base kernels landed: any change to RNG
    /// draw order, point values or encodings changes this digest.
    #[test]
    fn seeded_transcript_is_pinned() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA5E);
        let pairs: Vec<(Block, Block)> =
            (0..128).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
        let choices: Vec<bool> = (0..128).map(|_| rng.gen()).collect();
        let (_, (got, log), _) = run_pair(
            NetworkModel::instant(),
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA5E + 1);
                send(ch, &pairs, &mut rng).expect("sender");
            },
            |ch| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA5E + 2);
                let mut tap = Tap { inner: ch, log: Vec::new() };
                let got = recv(&mut tap, &choices, &mut rng).expect("chooser");
                (got, tap.log)
            },
        );
        for (i, &c) in choices.iter().enumerate() {
            assert_eq!(got[i], if c { pairs[i].1 } else { pairs[i].0 });
        }
        assert_eq!(log.len(), 3 * 33, "A, the R batch and the ciphertext batch");
        let hex: String = sha256(&log).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "c180c0d5acedf85eb45e5738abf61e2a47861752ccbc194a035af6593a75222e");
    }

    #[test]
    fn kdf_separates_indices() {
        let p = EdwardsPoint::base().to_bytes();
        assert_ne!(kdf(0, &p), kdf(1, &p));
    }
}
