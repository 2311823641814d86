//! GGM puncturable-PRF tree underlying SPCOT.
//!
//! The sender expands a random root into a full binary tree; the receiver,
//! given per level the XOR of all nodes on the side *opposite* its secret
//! path, rebuilds every leaf except the one at its secret index. Child
//! derivation uses the shared random oracle under two fixed tweaks whose
//! high bits keep them disjoint from every per-OT tweak domain in the repo.

use abnn2_crypto::{Block, RoHash};

/// Left/right child tweaks: bit 125 marks the GGM domain.
const GGM_LEFT: u128 = 1 << 125;
const GGM_RIGHT: u128 = (1 << 125) | 1;

/// Expands `root` to depth `depth`. Returns the `2^depth` leaves and, per
/// level, the XOR of all left children and of all right children produced
/// at that level — the values the SPCOT sender masks with base COTs.
///
/// All child derivations of one level run as a single batched hash call,
/// so the deepest levels (hundreds of nodes) hit the backend's wide path.
pub(super) fn expand(
    hash: &RoHash,
    root: Block,
    depth: usize,
) -> (Vec<Block>, Vec<(Block, Block)>) {
    let (tl, tr) = (Block::from(GGM_LEFT), Block::from(GGM_RIGHT));
    let mut level = vec![root];
    let mut sums = Vec::with_capacity(depth);
    for _ in 0..depth {
        let mut next = Vec::with_capacity(level.len() * 2);
        for &node in &level {
            next.push(node ^ tl);
            next.push(node ^ tr);
        }
        hash.hash_blocks(&mut next);
        let (mut k0, mut k1) = (Block::ZERO, Block::ZERO);
        for pair in next.chunks_exact(2) {
            k0 ^= pair[0];
            k1 ^= pair[1];
        }
        sums.push((k0, k1));
        level = next;
    }
    (level, sums)
}

/// Rebuilds every leaf except index `alpha` from `ks[ℓ]` = the XOR of all
/// level-`ℓ+1` nodes on the side opposite `alpha`'s path bit. The punctured
/// slot comes back as `Block::ZERO` for the caller to patch.
///
/// At each level the receiver expands every known node; the one unknown
/// child on the complement side is the path node's sibling, recovered as
/// the difference between `ks[ℓ]` and the known same-side children.
pub(super) fn reconstruct(hash: &RoHash, alpha: usize, depth: usize, ks: &[Block]) -> Vec<Block> {
    assert_eq!(ks.len(), depth, "one complement sum per level");
    assert!(alpha < 1 << depth, "punctured index outside the tree");
    let (tl, tr) = (Block::from(GGM_LEFT), Block::from(GGM_RIGHT));
    let mut nodes = vec![Block::ZERO];
    let mut path = 0usize;
    for (l, &k) in ks.iter().enumerate() {
        let bit = (alpha >> (depth - 1 - l)) & 1;
        let side = bit ^ 1;
        // Both children of every known node in one batched hash call; the
        // path node stays skipped, exactly as in the scalar loop.
        let mut h = Vec::with_capacity(nodes.len().saturating_sub(1) * 2);
        for (i, &node) in nodes.iter().enumerate() {
            if i == path {
                continue;
            }
            h.push(node ^ tl);
            h.push(node ^ tr);
        }
        hash.hash_blocks(&mut h);
        let mut next = vec![Block::ZERO; nodes.len() * 2];
        let mut sum = k;
        let mut pairs = h.chunks_exact(2);
        for i in 0..nodes.len() {
            if i == path {
                continue;
            }
            let pair = pairs.next().expect("one child pair per known node");
            sum ^= pair[side];
            next[2 * i] = pair[0];
            next[2 * i + 1] = pair[1];
        }
        next[2 * path + side] = sum;
        path = 2 * path + bit;
        nodes = next;
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_matches_expansion_except_at_alpha() {
        let hash = RoHash::new();
        let depth = 4;
        let root = Block::from(0x5eed_5eedu128);
        let (leaves, sums) = expand(&hash, root, depth);
        assert_eq!(leaves.len(), 16);
        for alpha in 0..16usize {
            let ks: Vec<Block> = (0..depth)
                .map(|l| {
                    let bit = (alpha >> (depth - 1 - l)) & 1;
                    if bit == 0 {
                        sums[l].1
                    } else {
                        sums[l].0
                    }
                })
                .collect();
            let got = reconstruct(&hash, alpha, depth, &ks);
            for (j, (&want, &have)) in leaves.iter().zip(&got).enumerate() {
                if j == alpha {
                    assert_eq!(have, Block::ZERO, "alpha={alpha}");
                } else {
                    assert_eq!(have, want, "alpha={alpha} leaf {j}");
                }
            }
        }
    }

    #[test]
    fn level_sums_cover_all_children() {
        let hash = RoHash::new();
        let (leaves, sums) = expand(&hash, Block::from(7u128), 3);
        let mut left = Block::ZERO;
        let mut right = Block::ZERO;
        for (j, &leaf) in leaves.iter().enumerate() {
            if j % 2 == 0 {
                left ^= leaf;
            } else {
                right ^= leaf;
            }
        }
        assert_eq!(sums[2], (left, right));
    }

    #[test]
    fn depth_one_tree() {
        let hash = RoHash::new();
        let (leaves, sums) = expand(&hash, Block::from(1u128), 1);
        // alpha = 0: receiver learns the right child directly.
        let got = reconstruct(&hash, 0, 1, &[sums[0].1]);
        assert_eq!(got[1], leaves[1]);
        assert_eq!(got[0], Block::ZERO);
    }
}
