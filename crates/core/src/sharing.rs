//! Additive secret sharing over ℤ_{2^ℓ} (§2.3 of the paper).

use abnn2_math::Ring;
use rand::Rng;

/// Splits `x` into two additive shares: `⟨x⟩₀ + ⟨x⟩₁ = x (mod 2^ℓ)`.
///
/// The paper's `Share(x)` with the roles as used by the client: the second
/// share is the uniformly random mask `r`.
#[must_use]
pub fn share<R: Rng + ?Sized>(x: u64, ring: Ring, rng: &mut R) -> (u64, u64) {
    let r = ring.sample(rng);
    (ring.sub(x, r), r)
}

/// Reconstructs `x = ⟨x⟩₀ + ⟨x⟩₁ (mod 2^ℓ)` — the paper's `Reconst`.
#[must_use]
pub fn reconstruct(s0: u64, s1: u64, ring: Ring) -> u64 {
    ring.add(s0, s1)
}

/// Shares every element of a slice.
#[must_use]
pub fn share_vec<R: Rng + ?Sized>(xs: &[u64], ring: Ring, rng: &mut R) -> (Vec<u64>, Vec<u64>) {
    let r = ring.sample_vec(rng, xs.len());
    (ring.sub_vec(xs, &r), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn share_reconstruct_round_trip(bits in 1u32..=64, x: u64, seed: u64) {
            let ring = Ring::new(bits);
            let x = ring.reduce(x);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (s0, s1) = share(x, ring, &mut rng);
            prop_assert_eq!(reconstruct(s0, s1, ring), x);
        }

        #[test]
        fn shares_are_additively_homomorphic(x: u64, y: u64, seed: u64) {
            let ring = Ring::new(32);
            let (x, y) = (ring.reduce(x), ring.reduce(y));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (x0, x1) = share(x, ring, &mut rng);
            let (y0, y1) = share(y, ring, &mut rng);
            prop_assert_eq!(
                reconstruct(ring.add(x0, y0), ring.add(x1, y1), ring),
                ring.add(x, y)
            );
        }

        #[test]
        fn vector_sharing(seed: u64) {
            let ring = Ring::new(24);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let xs = ring.sample_vec(&mut rng, 50);
            let (s0, s1) = share_vec(&xs, ring, &mut rng);
            for i in 0..xs.len() {
                prop_assert_eq!(reconstruct(s0[i], s1[i], ring), xs[i]);
            }
        }
    }

    #[test]
    fn share_of_zero_is_random_pair() {
        let ring = Ring::new(32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (a0, a1) = share(0, ring, &mut rng);
        let (b0, b1) = share(0, ring, &mut rng);
        assert_eq!(reconstruct(a0, a1, ring), 0);
        assert_ne!((a0, a1), (b0, b1), "fresh randomness per sharing");
    }
}
