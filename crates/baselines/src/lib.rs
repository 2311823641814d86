//! Baseline protocols the paper compares against, reimplemented from their
//! published descriptions over the same substrates as ABNN² (so measured
//! differences reflect protocol design, not implementation stacks):
//!
//! * [`secureml`] — SecureML's (S&P'17) OT-based multiplication triplets:
//!   ℓ correlated OTs per scalar product, independent of weight bitwidth
//!   (Table 3's comparison),
//! * [`minionn`] — MiniONN's (CCS'17) offline linear phase on additively
//!   homomorphic encryption with plaintext slot packing (Table 4's
//!   comparison; see `DESIGN.md` for the SEAL→Paillier substitution),
//! * [`quotient`] — QUOTIENT's (CCS'19) ternary multiplication via two
//!   binary correlated OTs per weight (Table 5's comparison).
//!
//! The end-to-end baselines (MiniONN, QUOTIENT) run ABNN²'s online phase
//! itself: each offline protocol ends in the `(Yao party, bundle)` pair
//! that `abnn2_core`'s `SecureServer::online` / `SecureClient::online_raw`
//! take, exactly as the paper shares its online phase across systems.

pub mod minionn;
pub mod quotient;
pub mod secureml;

/// Layer dimensions `[in, hidden…, out]` of the fully-connected stack a
/// public model describes (the baselines serve MLPs only).
fn mlp_dims(model: &abnn2_core::PublicModel) -> Vec<usize> {
    let graph = model.graph();
    std::iter::once(graph.input_len())
        .chain(graph.ops.iter().filter(|op| op.is_linear()).map(|op| op.out_len()))
        .collect()
}
