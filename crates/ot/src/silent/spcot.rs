//! GGM puncturable-PRF trees underlying SPCOT, all of a refill's trees at
//! once, inside the refill's output buffer.
//!
//! The sender expands `t` random roots into `t` full binary trees; the
//! receiver, given per tree and level the XOR of all nodes on the side
//! *opposite* its secret path, rebuilds every leaf except the one at its
//! secret index. Child derivation uses the shared random oracle under two
//! fixed tweaks whose high bits keep them disjoint from every per-OT tweak
//! domain in the repo.
//!
//! Level `l` of the forest is `t·2^l` nodes at the front of one buffer,
//! tree `i`'s at `i·2^l..(i+1)·2^l`, so the children of node `g` are nodes
//! `2g` and `2g+1` of the next level whichever tree `g` is in. Writing them
//! from the top index down overwrites only nodes already read, and the last
//! level is the `t` trees' leaves back to back.

use abnn2_crypto::{Block, RoHash};

/// Left/right child tweaks: bit 125 marks the GGM domain.
const GGM_LEFT: u128 = 1 << 125;
const GGM_RIGHT: u128 = (1 << 125) | 1;

/// Expands the roots in `nodes[..t]` in place into the `t = nodes.len() /
/// 2^depth` trees of depth `depth` that fill `nodes`, one
/// [`RoHash::hash_blocks`] call per level for every tree. After each level
/// `l` it hands `level(l, nodes)` the `t·2^(l+1)` nodes it produced.
pub(super) fn expand(
    hash: &RoHash,
    nodes: &mut [Block],
    depth: usize,
    mut level: impl FnMut(usize, &mut [Block]),
) {
    let (tl, tr) = (Block::from(GGM_LEFT), Block::from(GGM_RIGHT));
    let t = nodes.len() >> depth;
    assert_eq!(t << depth, nodes.len(), "whole trees of depth {depth}");
    for l in 0..depth {
        let width = t << l;
        for g in (0..width).rev() {
            let node = nodes[g];
            nodes[2 * g + 1] = node ^ tr;
            nodes[2 * g] = node ^ tl;
        }
        let next = &mut nodes[..2 * width];
        hash.hash_blocks(next);
        level(l, next);
    }
}

/// The XOR of the nodes at even and at odd positions of `nodes`: of all
/// left and of all right children when `nodes` is one tree's level.
pub(super) fn side_sums(nodes: &[Block]) -> (Block, Block) {
    nodes
        .chunks_exact(2)
        .fold((Block::ZERO, Block::ZERO), |(k0, k1), pair| (k0 ^ pair[0], k1 ^ pair[1]))
}

/// The receiver's side: rebuilds the trees of `nodes` (`nodes.len() /
/// 2^depth` of them) from `ks[i·depth + l]`, the XOR of tree `i`'s
/// level-`l+1` nodes on the side opposite `alphas[i]`'s path bit, and sets
/// tree `i`'s leaf `alphas[i]` to `punctured[i]` XOR all its other leaves.
///
/// Every node is expanded, path nodes included, so the trees share the
/// sender's [`expand`]; a path node's children are then garbage, and the
/// one unknown child on the complement side — the next path node's sibling
/// — is recovered from `ks` as the XOR of the known same-side children.
pub(super) fn reconstruct(
    hash: &RoHash,
    nodes: &mut [Block],
    depth: usize,
    alphas: &[usize],
    ks: &[Block],
    punctured: &[Block],
) {
    assert_eq!(ks.len(), alphas.len() * depth, "one complement sum per tree level");
    nodes[..alphas.len()].fill(Block::ZERO);
    expand(hash, nodes, depth, |l, level| {
        for (i, tree) in level.chunks_exact_mut(2 << l).enumerate() {
            let alpha = alphas[i];
            assert!(alpha < 1 << depth, "punctured index outside the tree");
            let side = ((alpha >> (depth - 1 - l)) & 1) ^ 1;
            let sibling = 2 * (alpha >> (depth - l)) + side;
            let (k0, k1) = side_sums(tree);
            let fix = ks[i * depth + l] ^ if side == 0 { k0 } else { k1 };
            tree[sibling] ^= fix;
            if l + 1 == depth {
                tree[alpha] ^= punctured[i] ^ k0 ^ k1 ^ fix;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One tree at a time, one `Vec` per level: the definition [`expand`]
    /// computes for all trees in place. Returns the leaves and, per level,
    /// the XOR of all left and of all right children.
    fn expand_one(hash: &RoHash, root: Block, depth: usize) -> (Vec<Block>, Vec<(Block, Block)>) {
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

    /// One tree at a time, skipping the path node: the definition
    /// [`reconstruct`] computes for all trees in place. The punctured slot
    /// comes back as `Block::ZERO`.
    fn reconstruct_one(hash: &RoHash, alpha: usize, depth: usize, ks: &[Block]) -> Vec<Block> {
        let (tl, tr) = (Block::from(GGM_LEFT), Block::from(GGM_RIGHT));
        let mut nodes = vec![Block::ZERO];
        let mut path = 0usize;
        for (l, &k) in ks.iter().enumerate() {
            let bit = (alpha >> (depth - 1 - l)) & 1;
            let side = bit ^ 1;
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

    /// The complement sum of every level of a tree with sums `sums`.
    fn complement_sums(sums: &[(Block, Block)], alpha: usize) -> Vec<Block> {
        let depth = sums.len();
        let bit = |l: usize| (alpha >> (depth - 1 - l)) & 1;
        sums.iter().enumerate().map(|(l, s)| if bit(l) == 0 { s.1 } else { s.0 }).collect()
    }

    /// The forest in place against one tree at a time, both sides: every
    /// leaf and level sum of the sender's, and every leaf of the
    /// receiver's with the punctured one patched to leaf ⊕ Δ.
    fn check_forest(depth: usize, roots: &[Block], alphas: &[usize], delta: Block) {
        let hash = RoHash::shared();
        let (t, leaves) = (roots.len(), 1 << depth);
        let mut nodes = vec![Block::ZERO; t << depth];
        nodes[..t].copy_from_slice(roots);
        let mut sums = vec![(Block::ZERO, Block::ZERO); t * depth];
        expand(hash, &mut nodes, depth, |l, level| {
            for (i, tree) in level.chunks_exact(2 << l).enumerate() {
                sums[i * depth + l] = side_sums(tree);
            }
        });
        let (mut ks, mut punctured) = (Vec::new(), Vec::new());
        for (i, (&root, &alpha)) in roots.iter().zip(alphas).enumerate() {
            let (want, want_sums) = expand_one(hash, root, depth);
            assert_eq!(nodes[i * leaves..][..leaves], want[..], "tree {i} leaves");
            assert_eq!(sums[i * depth..][..depth], want_sums[..], "tree {i} sums");
            ks.extend(complement_sums(&want_sums, alpha));
            punctured.push(delta ^ Block::xor_all(&want));
        }
        let mut rebuilt = vec![Block::ONES; t << depth];
        reconstruct(hash, &mut rebuilt, depth, alphas, &ks, &punctured);
        for (i, &alpha) in alphas.iter().enumerate() {
            let mut want = reconstruct_one(hash, alpha, depth, &ks[i * depth..][..depth]);
            assert_eq!(want[alpha], Block::ZERO);
            want[alpha] = nodes[i * leaves + alpha] ^ delta;
            assert_eq!(rebuilt[i * leaves..][..leaves], want[..], "tree {i} alpha {alpha}");
        }
    }

    proptest! {
        /// Depth 1..=10 and 1..=16 trees, random roots and punctured
        /// indices; at depth ≤ 4 every index in every tree position.
        #[test]
        fn forest_matches_one_tree_at_a_time(depth in 1usize..=10, t in 1usize..=16, seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let roots: Vec<Block> = (0..t).map(|_| Block::random(&mut rng)).collect();
            let delta = Block::random(&mut rng);
            if depth <= 4 {
                for alpha in 0..1 << depth {
                    let alphas: Vec<usize> = (0..t).map(|i| (alpha + i) % (1 << depth)).collect();
                    check_forest(depth, &roots, &alphas, delta);
                }
            } else {
                let alphas: Vec<usize> = (0..t).map(|_| rng.gen_range(0..1 << depth)).collect();
                check_forest(depth, &roots, &alphas, delta);
            }
        }
    }

    #[test]
    fn reconstruction_matches_expansion_except_at_alpha() {
        let hash = RoHash::new();
        let depth = 4;
        let (leaves, sums) = expand_one(&hash, Block::from(0x5eed_5eedu128), depth);
        assert_eq!(leaves.len(), 16);
        for alpha in 0..16usize {
            let got = reconstruct_one(&hash, alpha, depth, &complement_sums(&sums, alpha));
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
        let (leaves, sums) = expand_one(&hash, Block::from(7u128), 3);
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
        let (leaves, sums) = expand_one(&hash, Block::from(1u128), 1);
        // alpha = 0: receiver learns the right child directly.
        let got = reconstruct_one(&hash, 0, 1, &[sums[0].1]);
        assert_eq!(got[1], leaves[1]);
        assert_eq!(got[0], Block::ZERO);
    }
}
