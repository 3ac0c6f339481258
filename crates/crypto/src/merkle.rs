//! Merkle integrity tree over encryption-counter blocks.
//!
//! The paper (§2.2, §7.1) requires that counters, while not secret, be
//! protected against tampering and replay — citing Bonsai Merkle Trees
//! \[31\]. This module implements a binary SHA-256 Merkle tree whose
//! leaves are the serialized per-page counter lines. The root is
//! assumed to live in tamper-proof on-chip storage; on real hardware
//! everything else would sit in untrusted NVM.
//!
//! The tree keeps its leaves, not their digests. In the simulator the
//! off-chip nodes live in host memory, and every modelled attack acts
//! on NVM lines, counter lines included: nothing can write a node. So
//! every node is the hash of its children, and a walk up a leaf's
//! authentication path reaches the root if and only if the given line
//! hashes to the leaf's digest, that is (barring a SHA-256 collision)
//! if it equals the leaf's line. [`MerkleTree::verify_leaf`] therefore
//! compares 64 bytes and hashes nothing. [`MerkleTree::root`] hashes on
//! demand, and only the subtrees that hold a leaf differing from the
//! initial line: a subtree whose leaves all hold the initial line has
//! one digest per height, computed at construction. Every verdict and
//! every root equals what eager leaf-to-root re-hashing would give.

use crate::sha256::{Digest, Sha256};
use crate::Line;

/// Domain-separation tags so leaves can never be confused with nodes.
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// A binary Merkle tree that stores its leaves and hashes its root on
/// demand.
///
/// # Examples
///
/// ```
/// use ss_crypto::MerkleTree;
///
/// let mut tree = MerkleTree::new(4, &[0; 64]);
/// let fresh = tree.root();
/// tree.update_leaf(2, &[7; 64]);
/// assert!(tree.verify_leaf(2, &[7; 64]));
/// assert!(!tree.verify_leaf(2, &[0; 64]));
/// assert_ne!(tree.root(), fresh);
/// tree.update_leaf(2, &[0; 64]);
/// assert_eq!(tree.root(), fresh);
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Number of leaves, padded up to a power of two.
    leaves: usize,
    /// The line every leaf holds until it is updated.
    initial: Line,
    /// `uniform[h]`: the digest of a subtree of height `h` whose leaves
    /// all hold `initial`. The last one is the root of a fresh tree.
    uniform: Vec<Digest>,
    /// Every leaf's current line. Empty until the first update, so a
    /// tree that is never updated allocates no leaves.
    lines: Vec<Line>,
}

fn hash_leaf(line: &Line) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(line);
    h.finalize()
}

fn hash_node(l: &Digest, r: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]);
    h.update(l);
    h.update(r);
    h.finalize()
}

impl MerkleTree {
    /// Creates a tree covering `leaf_count` leaves (rounded up to the
    /// next power of two), every one holding `initial`. Because all
    /// leaves are identical, construction hashes one digest per level.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_count == 0`.
    pub fn new(leaf_count: usize, initial: &Line) -> Self {
        assert!(leaf_count > 0, "tree must have at least one leaf");
        let leaves = leaf_count.next_power_of_two();
        let uniform = std::iter::successors(Some(hash_leaf(initial)), |d| Some(hash_node(d, d)))
            .take(leaves.trailing_zeros() as usize + 1)
            .collect();
        MerkleTree {
            leaves,
            initial: *initial,
            uniform,
            lines: Vec::new(),
        }
    }

    /// Number of leaf slots.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The current root digest (kept on-chip in the threat model),
    /// hashed from the leaves that differ from the initial line.
    pub fn root(&self) -> Digest {
        let height = self.leaves.trailing_zeros() as usize;
        self.changed_subtree(0, height)
            .unwrap_or_else(|| self.initial_subtree(height))
    }

    /// The digest of a subtree of `height` whose leaves all hold the
    /// initial line. Heights are in range by construction, so the zero
    /// fallback is unreachable; it keeps the lookup panic-free.
    fn initial_subtree(&self, height: usize) -> Digest {
        self.uniform.get(height).copied().unwrap_or([0; 32])
    }

    /// The digest of the subtree of `height` whose leaves start at
    /// `first`, or `None` when all of them hold the initial line.
    fn changed_subtree(&self, first: usize, height: usize) -> Option<Digest> {
        let Some(below) = height.checked_sub(1) else {
            let line = self.lines.get(first).filter(|l| **l != self.initial)?;
            return Some(hash_leaf(line));
        };
        match (
            self.changed_subtree(first, below),
            self.changed_subtree(first + (1 << below), below),
        ) {
            (None, None) => None,
            (l, r) => {
                let u = self.initial_subtree(below);
                Some(hash_node(&l.unwrap_or(u), &r.unwrap_or(u)))
            }
        }
    }

    /// Sets leaf `index` to `line`. Nothing is hashed.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn update_leaf(&mut self, index: usize, line: &Line) {
        assert!(index < self.leaves, "leaf index {index} out of range");
        if self.lines.is_empty() {
            self.lines = vec![self.initial; self.leaves];
        }
        if let Some(slot) = self.lines.get_mut(index) {
            *slot = *line;
        }
    }

    /// Verifies `line` as leaf `index` against the root: whether it is
    /// the line the leaf holds, which is the path walk's verdict (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn verify_leaf(&self, index: usize, line: &Line) -> bool {
        assert!(index < self.leaves, "leaf index {index} out of range");
        self.lines.get(index).unwrap_or(&self.initial) == line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use ss_common::DetRng;

    fn random_line(rng: &mut DetRng) -> Line {
        let mut line = [0; 64];
        rng.fill_bytes(&mut line);
        line
    }

    #[test]
    fn uniform_construction_matches_incremental() {
        // A tree built on one line and a tree whose every leaf was set to
        // it hash the same root, one from the construction digests, the
        // other leaf by leaf.
        let uniform = MerkleTree::new(8, &[0x5A; 64]);
        let mut incremental = MerkleTree::new(8, &[0; 64]);
        for i in 0..8 {
            incremental.update_leaf(i, &[0x5A; 64]);
        }
        assert_eq!(uniform.root(), incremental.root());
        assert!(uniform.verify_leaf(3, &[0x5A; 64]));
        assert!(!uniform.verify_leaf(3, &[0; 64]));
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = MerkleTree::new(1, &[0; 64]);
        assert!(t.verify_leaf(0, &[0; 64]));
        assert_eq!(t.root(), hash_leaf(&[0; 64]));
        t.update_leaf(0, &[1; 64]);
        assert!(t.verify_leaf(0, &[1; 64]));
        assert!(!t.verify_leaf(0, &[0; 64]));
        assert_eq!(t.root(), hash_leaf(&[1; 64]));
    }

    #[test]
    fn fresh_tree_verifies_the_initial_line() {
        let tree = MerkleTree::new(8, &[3; 64]);
        for i in 0..8 {
            assert!(tree.verify_leaf(i, &[3; 64]));
            assert!(!tree.verify_leaf(i, &[0; 64]));
        }
    }

    #[test]
    fn update_then_verify() {
        let mut tree = MerkleTree::new(5, &[0; 64]); // padded to 8
        assert_eq!(tree.leaf_count(), 8);
        tree.update_leaf(3, &[0x68; 64]);
        assert!(tree.verify_leaf(3, &[0x68; 64]));
        assert!(!tree.verify_leaf(3, &[0x77; 64]));
        // Other leaves unaffected.
        assert!(tree.verify_leaf(0, &[0; 64]));
    }

    #[test]
    fn root_changes_on_update() {
        let mut tree = MerkleTree::new(4, &[0; 64]);
        let r0 = tree.root();
        tree.update_leaf(0, &[0x78; 64]);
        assert_ne!(tree.root(), r0);
        tree.update_leaf(0, &[0; 64]);
        // Same content → same root (deterministic).
        assert_eq!(tree.root(), r0);
    }

    #[test]
    fn tampered_counter_data_detected() {
        // The realistic attack: a counter line in untrusted NVM is
        // replaced with an older one.
        let mut tree = MerkleTree::new(4, &[0; 64]);
        tree.update_leaf(2, &[1; 64]);
        tree.update_leaf(2, &[2; 64]);
        assert!(!tree.verify_leaf(2, &[1; 64]));
        assert!(!tree.verify_leaf(2, &[0; 64]));
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A leaf holding what looks like two concatenated digests must
        // not hash equal to the internal node of those digests.
        let l = sha256(b"l");
        let r = sha256(b"r");
        let mut cat = [0; 64];
        cat[..32].copy_from_slice(&l);
        cat[32..].copy_from_slice(&r);
        assert_ne!(hash_leaf(&cat), hash_node(&l, &r));
    }

    /// Leaf-to-root re-hashing on every update and a path walk on every
    /// verify: the behaviour the leaf tree must reproduce, verdict for
    /// verdict and root for root.
    struct EagerTree {
        leaves: usize,
        nodes: Vec<Digest>,
    }

    impl EagerTree {
        fn new(leaf_count: usize, initial: &Line) -> Self {
            let leaves = leaf_count.next_power_of_two();
            let mut nodes = vec![hash_leaf(initial); 2 * leaves];
            for i in (1..leaves).rev() {
                nodes[i] = hash_node(&nodes[2 * i], &nodes[2 * i + 1]);
            }
            EagerTree { leaves, nodes }
        }

        fn update_leaf(&mut self, index: usize, line: &Line) {
            let mut i = self.leaves + index;
            self.nodes[i] = hash_leaf(line);
            while i > 1 {
                i /= 2;
                self.nodes[i] = hash_node(&self.nodes[2 * i], &self.nodes[2 * i + 1]);
            }
        }

        fn verify_leaf(&self, index: usize, line: &Line) -> bool {
            let mut digest = hash_leaf(line);
            let mut i = self.leaves + index;
            while i > 1 {
                let sibling = self.nodes[i ^ 1];
                digest = if i.is_multiple_of(2) {
                    hash_node(&digest, &sibling)
                } else {
                    hash_node(&sibling, &digest)
                };
                i /= 2;
            }
            digest == self.nodes[1]
        }

        fn root(&self) -> Digest {
            self.nodes[1]
        }
    }

    #[test]
    fn lazy_tree_matches_eager_rehashing() {
        let mut rng = DetRng::new(0x3E_0010);
        // Updates that put a written leaf back to the initial line, and
        // roots taken while some written leaf holds it again.
        let (mut write_backs, mut mixed_roots) = (0, 0);
        for round in 0..32 {
            let leaf_count = 1 + rng.below(40) as usize;
            // Half the trees start from the all-zero line, half from a
            // random one.
            let initial = if round % 2 == 0 {
                [0; 64]
            } else {
                random_line(&mut rng)
            };
            let mut tree = MerkleTree::new(leaf_count, &initial);
            let mut eager = EagerTree::new(leaf_count, &initial);
            let leaves = tree.leaf_count();
            assert_eq!(tree.root(), eager.root());
            let mut current = vec![initial; leaves];
            let mut previous = current.clone();
            let mut written = vec![false; leaves];
            // A few hot leaves take bursts of updates between reads: a
            // page's write-through counter writes, then its shred.
            let hot: Vec<usize> = (0..3).map(|_| rng.below(leaves as u64) as usize).collect();
            for _ in 0..200 {
                let index = if rng.below(2) == 0 {
                    hot[rng.below(3) as usize]
                } else {
                    rng.below(leaves as u64) as usize
                };
                match rng.below(8) {
                    0..=2 => {
                        for _ in 0..=rng.below(9) {
                            let line = random_line(&mut rng);
                            tree.update_leaf(index, &line);
                            eager.update_leaf(index, &line);
                            previous[index] = std::mem::replace(&mut current[index], line);
                            written[index] = true;
                        }
                    }
                    3 => {
                        // Back to the initial line: its subtrees may hold
                        // the initial line throughout again.
                        if current[index] != initial {
                            write_backs += 1;
                        }
                        tree.update_leaf(index, &initial);
                        eager.update_leaf(index, &initial);
                        previous[index] = std::mem::replace(&mut current[index], initial);
                    }
                    _ => {
                        let line = match rng.below(4) {
                            0 => current[index],
                            1 => previous[index],
                            2 => initial,
                            _ => random_line(&mut rng),
                        };
                        assert_eq!(
                            tree.verify_leaf(index, &line),
                            eager.verify_leaf(index, &line)
                        );
                    }
                }
                assert_eq!(tree.root(), eager.root());
                if (0..leaves).any(|j| written[j] && current[j] == initial) {
                    mixed_roots += 1;
                }
            }
            for (j, line) in current.iter().enumerate() {
                assert!(tree.verify_leaf(j, line));
                assert_eq!(
                    tree.verify_leaf(j, &initial),
                    eager.verify_leaf(j, &initial)
                );
            }
        }
        assert!(write_backs > 100, "{write_backs} write-backs");
        assert!(mixed_roots > 1000, "{mixed_roots} roots over write-backs");
    }

    #[test]
    fn root_of_a_counter_region_sized_tree() {
        let mut rng = DetRng::new(0x3E_0011);
        let initial = random_line(&mut rng);
        let mut tree = MerkleTree::new(4096, &initial);
        let mut eager = EagerTree::new(4096, &initial);
        let mut current = vec![initial; 4096];
        assert_eq!(tree.root(), eager.root());
        for step in 1..=3000usize {
            let index = rng.below(4096) as usize;
            let line = if rng.below(4) == 0 {
                initial
            } else {
                random_line(&mut rng)
            };
            tree.update_leaf(index, &line);
            eager.update_leaf(index, &line);
            current[index] = line;
            let probe = rng.below(4096) as usize;
            assert!(tree.verify_leaf(index, &current[index]));
            assert!(tree.verify_leaf(probe, &current[probe]));
            assert!(!tree.verify_leaf(probe, &[0xEE; 64]));
            // Roots of a sparsely and of a densely written tree.
            if step.is_power_of_two() || step % 500 == 0 {
                assert_eq!(tree.root(), eager.root(), "after {step} updates");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_panics() {
        MerkleTree::new(0, &[0; 64]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        MerkleTree::new(2, &[0; 64]).update_leaf(2, &[0; 64]);
    }
}
