//! Merkle integrity tree over encryption-counter blocks.
//!
//! The paper (§2.2, §7.1) requires that counters, while not secret, be
//! protected against tampering and replay — citing Bonsai Merkle Trees
//! \[31\]. This module implements a binary SHA-256 Merkle tree whose
//! leaves are the serialized per-page counter blocks. The root is assumed
//! to live in tamper-proof on-chip storage; everything else could sit in
//! untrusted NVM.
//!
//! Updates are lazy. [`MerkleTree::update_leaf`] re-hashes the leaf and
//! only marks its ancestors stale; the next operation that needs the
//! stored ancestors current ([`MerkleTree::verify_leaves`],
//! [`MerkleTree::tamper_node`], and [`MerkleTree::verify_leaf`] after a
//! forgery) re-hashes every stale ancestor once, children before parents. Leaves updated in between
//! share the re-hashing of their common ancestors — the coalesced
//! ancestor updates of *Streamlining
//! Integrity Tree Updates* (arXiv:2003.04693). Every
//! verdict and every root equals what eager leaf-to-root re-hashing would
//! produce, tampered nodes included: [`MerkleTree::tamper_node`] flushes
//! before it writes.
//!
//! [`MerkleTree::verify_leaf`] hashes the given leaf once and compares
//! it with the stored leaf digest. Until the first
//! [`MerkleTree::tamper_node`], every stored digest is the hash of its
//! children (or stale, and then re-hashed from them before anything reads
//! it), so the path walk would rebuild exactly the stored digests up to
//! the stored root if and only if the leaf digests match: the comparison
//! is the walk's verdict, barring a SHA-256 collision. After a forgery
//! the stored digests no longer hash up, and `verify_leaf` re-walks the
//! authentication path against the root.
//! [`MerkleTree::verify_leaves`] checks a whole run of leaves in one
//! bottom-up pass (one hash per node instead of one path per leaf).

#[cfg(test)]
use crate::sha256::sha256;
use crate::sha256::{Digest, Sha256};

/// Domain-separation tags so leaves can never be confused with nodes.
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// A binary Merkle tree with lazily re-hashed ancestors.
///
/// # Examples
///
/// ```
/// use ss_crypto::MerkleTree;
///
/// let mut tree = MerkleTree::new(4);
/// tree.update_leaf(2, b"counter block for page 2");
/// let root = tree.root();
/// assert!(tree.verify_leaf(2, b"counter block for page 2"));
/// assert!(!tree.verify_leaf(2, b"tampered"));
/// assert_eq!(tree.root(), root);
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// Number of leaves, padded up to a power of two.
    leaves: usize,
    /// Flat heap layout: `nodes[1]` is the root, children of `i` are
    /// `2i`/`2i+1`, leaves occupy `leaves..2*leaves`.
    nodes: Vec<Digest>,
    /// `stale[i]`: internal node `i` has a leaf update below it that its
    /// stored digest does not reflect yet. A stale node's parent is stale
    /// too, so marking stops at the first stale ancestor.
    stale: Vec<bool>,
    /// The stale internal nodes, each listed once.
    pending: Vec<usize>,
    /// Set by the first [`MerkleTree::tamper_node`]: some stored digest
    /// may differ from the hash of its children, so `verify_leaf` must
    /// walk the path instead of comparing leaf digests.
    forged: bool,
}

fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(data);
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
    /// Creates a tree covering `leaf_count` leaves (rounded up to the next
    /// power of two), all initialised to the hash of the empty block.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_count == 0`.
    pub fn new(leaf_count: usize) -> Self {
        Self::with_initial_leaf(leaf_count, &[])
    }

    /// Creates a tree whose every leaf starts as the hash of `leaf_data`.
    /// Because all leaves are identical, each tree level holds a single
    /// repeated digest, so construction hashes only O(log n) values.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_count == 0`.
    pub fn with_initial_leaf(leaf_count: usize, leaf_data: &[u8]) -> Self {
        assert!(leaf_count > 0, "tree must have at least one leaf");
        let leaves = leaf_count.next_power_of_two();
        let mut nodes = vec![[0u8; 32]; 2 * leaves];
        let mut level_digest = hash_leaf(leaf_data);
        let mut level_start = leaves;
        loop {
            if let Some(level) = nodes.get_mut(level_start..level_start * 2) {
                for node in level {
                    *node = level_digest;
                }
            }
            if level_start == 1 {
                break;
            }
            level_digest = hash_node(&level_digest, &level_digest);
            level_start /= 2;
        }
        MerkleTree {
            leaves,
            nodes,
            stale: vec![false; leaves],
            pending: Vec::new(),
            forged: false,
        }
    }

    /// Number of leaf slots.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The current root digest (kept on-chip in the threat model). Stale
    /// ancestors are re-hashed on the fly without being stored, so a
    /// shared borrow suffices.
    pub fn root(&self) -> Digest {
        self.current(1)
    }

    /// Node `i`'s digest as eager re-hashing would have stored it.
    fn current(&self, i: usize) -> Digest {
        if self.stale.get(i).copied().unwrap_or(false) {
            hash_node(&self.current(2 * i), &self.current(2 * i + 1))
        } else {
            self.node(i)
        }
    }

    /// Checked node read. Indices are in range by construction (the heap
    /// layout is allocated up front and never shrinks), so the zero
    /// fallback is unreachable; it exists so the hot path stays panic-free.
    fn node(&self, i: usize) -> Digest {
        self.nodes.get(i).copied().unwrap_or([0u8; 32])
    }

    /// Checked node write; out-of-range writes are silently impossible.
    fn set_node(&mut self, i: usize, digest: Digest) {
        if let Some(node) = self.nodes.get_mut(i) {
            *node = digest;
        }
    }

    /// Re-hashes leaf `index` from `data` and marks its ancestors stale.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn update_leaf(&mut self, index: usize, data: &[u8]) {
        assert!(index < self.leaves, "leaf index {index} out of range");
        let mut i = self.leaves + index;
        self.set_node(i, hash_leaf(data));
        while i > 1 {
            i /= 2;
            match self.stale.get_mut(i) {
                Some(stale) if !*stale => {
                    *stale = true;
                    self.pending.push(i);
                }
                _ => break,
            }
        }
    }

    /// Re-hashes every stale ancestor once and stores the result. A
    /// child's heap index is larger than its parent's, so descending
    /// index order re-hashes children before parents.
    fn flush(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &pending {
            self.set_node(i, hash_node(&self.node(2 * i), &self.node(2 * i + 1)));
            if let Some(stale) = self.stale.get_mut(i) {
                *stale = false;
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Verifies that `data` matches leaf `index` against the root.
    /// Returns `false` on any mismatch (tampered leaf or tampered
    /// internal node).
    ///
    /// Until the first [`MerkleTree::tamper_node`] this is one digest
    /// and a compare with the stored leaf digest, which gives the path
    /// walk's verdict (see the module docs) and leaves stale ancestors
    /// stale. After it, stale ancestors are flushed and the
    /// authentication path is re-walked.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn verify_leaf(&mut self, index: usize, data: &[u8]) -> bool {
        assert!(index < self.leaves, "leaf index {index} out of range");
        let leaf = hash_leaf(data);
        if !self.forged {
            return leaf == self.node(self.leaves + index);
        }
        self.flush();
        self.walk_path(index, leaf)
    }

    /// Whether `leaf`, re-hashed up `index`'s path with the stored
    /// siblings, reaches the stored root. Call only with nothing stale.
    fn walk_path(&self, index: usize, leaf: Digest) -> bool {
        let mut digest = leaf;
        let mut i = self.leaves + index;
        while i > 1 {
            let sibling = self.node(i ^ 1);
            digest = if i.is_multiple_of(2) {
                hash_node(&digest, &sibling)
            } else {
                hash_node(&sibling, &digest)
            };
            i /= 2;
        }
        digest == self.node(1)
    }

    /// Verifies leaves `0..data.len()` against the root in one bottom-up
    /// pass: every given leaf is hashed once and every ancestor of one is
    /// rebuilt once from them (a subtree holding none of them contributes
    /// its stored digest). That is about two hashes per leaf, where
    /// walking each path costs one per tree level. The stored digests on
    /// the given leaves' paths are recomputed, not read.
    ///
    /// Returns `None` when the rebuilt root equals the stored one.
    /// Otherwise returns the first leaf whose own path walk fails (the
    /// leaf a loop of [`MerkleTree::verify_leaf`] calls reports first);
    /// one exists unless SHA-256 collides.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > leaf_count()`.
    pub fn verify_leaves<D: AsRef<[u8]>>(&mut self, data: &[D]) -> Option<usize> {
        assert!(
            data.len() <= self.leaves,
            "{} leaves given to a tree of {}",
            data.len(),
            self.leaves
        );
        self.flush();
        if data.is_empty() {
            return None;
        }
        let mut level: Vec<Digest> = data.iter().map(|d| hash_leaf(d.as_ref())).collect();
        // Heap index of `level[0]`, the leftmost node of its tree level.
        let mut first = self.leaves;
        while first > 1 {
            if level.len() % 2 == 1 {
                level.push(self.node(first + level.len()));
            }
            let parents = level.len() / 2;
            for p in 0..parents {
                if let (Some(l), Some(r)) = (level.get(2 * p), level.get(2 * p + 1)) {
                    let parent = hash_node(l, r);
                    if let Some(slot) = level.get_mut(p) {
                        *slot = parent;
                    }
                }
            }
            level.truncate(parents);
            first /= 2;
        }
        if level.first() == Some(&self.node(1)) {
            return None;
        }
        Some(
            data.iter()
                .enumerate()
                .position(|(i, d)| !self.walk_path(i, hash_leaf(d.as_ref())))
                .unwrap_or(0),
        )
    }

    /// Simulates an attacker overwriting an internal node or leaf hash in
    /// untrusted storage (for security tests). Returns the previous value.
    /// Stale ancestors are flushed first, so the write lands on the state
    /// eager re-hashing would hold. From then on
    /// [`MerkleTree::verify_leaf`] walks paths.
    ///
    /// # Panics
    ///
    /// Panics if `node_index` is 0 or out of range (node 0 is unused and
    /// node 1, the root, is on-chip and untamperable in the threat model).
    pub fn tamper_node(&mut self, node_index: usize, value: Digest) -> Digest {
        assert!(
            node_index > 1 && node_index < self.nodes.len(),
            "node {node_index} is not a tamperable off-chip node"
        );
        self.flush();
        self.forged = true;
        match self.nodes.get_mut(node_index) {
            Some(node) => std::mem::replace(node, value),
            None => [0u8; 32],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::DetRng;

    #[test]
    fn uniform_construction_matches_incremental() {
        // Build with the fast uniform path, then rebuild the same state
        // with explicit per-leaf updates; roots must agree.
        let mut uniform = MerkleTree::with_initial_leaf(8, b"zz");
        let mut incremental = MerkleTree::new(8);
        for i in 0..8 {
            incremental.update_leaf(i, b"zz");
        }
        assert_eq!(uniform.root(), incremental.root());
        assert!(uniform.verify_leaf(3, b"zz"));
        assert!(!uniform.verify_leaf(3, b"z"));
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = MerkleTree::new(1);
        assert!(t.verify_leaf(0, &[]));
        t.update_leaf(0, b"data");
        assert!(t.verify_leaf(0, b"data"));
        assert_eq!(t.verify_leaves(&[b"data"]), None);
        assert_eq!(t.verify_leaves(&[b"atad"]), Some(0));
    }

    #[test]
    fn fresh_tree_verifies_empty_leaves() {
        let mut tree = MerkleTree::new(8);
        for i in 0..8 {
            assert!(tree.verify_leaf(i, &[]));
        }
    }

    #[test]
    fn update_then_verify() {
        let mut tree = MerkleTree::new(5); // padded to 8
        assert_eq!(tree.leaf_count(), 8);
        tree.update_leaf(3, b"hello");
        assert!(tree.verify_leaf(3, b"hello"));
        assert!(!tree.verify_leaf(3, b"world"));
        // Other leaves unaffected.
        assert!(tree.verify_leaf(0, &[]));
    }

    #[test]
    fn root_changes_on_update() {
        let mut tree = MerkleTree::new(4);
        let r0 = tree.root();
        tree.update_leaf(0, b"x");
        let r1 = tree.root();
        assert_ne!(r0, r1);
        tree.update_leaf(0, b"");
        // Same content → same root (deterministic).
        assert_eq!(tree.root(), r0);
        let _ = r1;
    }

    #[test]
    fn tampered_counter_data_detected() {
        // The realistic attack: counter data in untrusted NVM is replaced.
        let mut tree = MerkleTree::new(4);
        tree.update_leaf(2, b"counters");
        assert!(!tree.verify_leaf(2, b"replayed old counters"));
    }

    #[test]
    fn tampered_sibling_leaf_hash_detected() {
        let mut tree = MerkleTree::new(4);
        tree.update_leaf(2, b"counters");
        let leaves = tree.leaf_count();
        // Attacker forges the hash of leaf 3, which sits on leaf 2's
        // authentication path; verification of leaf 2 must now fail.
        tree.tamper_node(leaves + 3, sha256(b"forged"));
        assert!(!tree.verify_leaf(2, b"counters"));
    }

    #[test]
    fn tampered_internal_node_detected() {
        let mut tree = MerkleTree::new(8);
        tree.update_leaf(5, b"c5");
        // Node 2 (left half) is the top-level path sibling of every leaf in
        // the right half (leaves 4..8); tampering it breaks their paths.
        tree.tamper_node(2, [0xAA; 32]);
        assert!(!tree.verify_leaf(5, b"c5"));
        // Leaves in the left half treat node 2 as an ancestor, which is
        // recomputed rather than read, so they still verify.
        assert!(tree.verify_leaf(0, &[]));
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A leaf containing what looks like two concatenated digests must
        // not hash equal to the internal node of those digests.
        let l = sha256(b"l");
        let r = sha256(b"r");
        let mut cat = Vec::new();
        cat.extend_from_slice(&l);
        cat.extend_from_slice(&r);
        assert_ne!(hash_leaf(&cat), hash_node(&l, &r));
    }

    #[test]
    fn updates_under_a_shared_ancestor_mark_it_once() {
        let mut tree = MerkleTree::new(16);
        for i in 4..8 {
            tree.update_leaf(i, b"x");
        }
        // Leaves 4..8 sit under nodes 10 and 11, which share node 5 and
        // its ancestors 2 and 1: five stale nodes, each listed once.
        assert_eq!(tree.pending.len(), 5);
        tree.flush();
        assert!(tree.pending.is_empty());
        assert!(tree.stale.iter().all(|s| !s));
    }

    #[test]
    fn verify_leaves_accepts_the_stored_run() {
        let mut tree = MerkleTree::new(6); // padded to 8
        let data: Vec<Vec<u8>> = (0u8..6).map(|i| vec![i; 3]).collect();
        for (i, d) in data.iter().enumerate() {
            tree.update_leaf(i, d);
        }
        assert_eq!(tree.verify_leaves(&data), None);
        // A shorter prefix leans on the stored digests to its right.
        assert_eq!(tree.verify_leaves(&data[..3]), None);
        let mut replayed = data.clone();
        replayed[4] = vec![9; 3];
        assert_eq!(tree.verify_leaves(&replayed), Some(4));
    }

    #[test]
    fn verify_leaves_reads_the_digests_beyond_the_run() {
        let mut tree = MerkleTree::new(8);
        let data: Vec<[u8; 1]> = (0u8..8).map(|i| [i]).collect();
        for (i, d) in data.iter().enumerate() {
            tree.update_leaf(i, d);
        }
        // Forge leaf 7's digest. Leaves 0..7 do not cover it, so the pass
        // reads the forgery; leaf 6's path is the first to cross it.
        tree.tamper_node(8 + 7, [0x55; 32]);
        assert_eq!(tree.verify_leaves(&data[..7]), Some(6));
    }

    /// Leaf-to-root re-hashing on every update: the behaviour the lazy
    /// tree must reproduce verdict for verdict.
    struct EagerTree {
        leaves: usize,
        nodes: Vec<Digest>,
    }

    impl EagerTree {
        fn new(leaf_count: usize) -> Self {
            let leaves = leaf_count.next_power_of_two();
            let mut nodes = vec![hash_leaf(&[]); 2 * leaves];
            for i in (1..leaves).rev() {
                nodes[i] = hash_node(&nodes[2 * i], &nodes[2 * i + 1]);
            }
            EagerTree { leaves, nodes }
        }

        fn update_leaf(&mut self, index: usize, data: &[u8]) {
            let mut i = self.leaves + index;
            self.nodes[i] = hash_leaf(data);
            while i > 1 {
                i /= 2;
                self.nodes[i] = hash_node(&self.nodes[2 * i], &self.nodes[2 * i + 1]);
            }
        }

        fn verify_leaf(&self, index: usize, data: &[u8]) -> bool {
            let mut digest = hash_leaf(data);
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
    }

    #[test]
    fn lazy_tree_matches_eager_rehashing() {
        let mut rng = DetRng::new(0x3E_0010);
        for _ in 0..32 {
            let leaf_count = 1 + rng.below(40) as usize;
            let mut lazy = MerkleTree::new(leaf_count);
            let mut eager = EagerTree::new(leaf_count);
            let leaves = lazy.leaf_count();
            let mut current: Vec<Vec<u8>> = vec![Vec::new(); leaves];
            let mut tampered = false;
            for _ in 0..200 {
                let index = rng.below(leaves as u64) as usize;
                match rng.below(8) {
                    0..=3 => {
                        let mut data = vec![0u8; rng.below(70) as usize];
                        rng.fill_bytes(&mut data);
                        lazy.update_leaf(index, &data);
                        eager.update_leaf(index, &data);
                        current[index] = data;
                    }
                    4 | 5 => {
                        let data = if rng.below(2) == 0 {
                            current[index].clone()
                        } else {
                            vec![rng.below(256) as u8]
                        };
                        assert_eq!(
                            lazy.verify_leaf(index, &data),
                            eager.verify_leaf(index, &data)
                        );
                    }
                    6 if leaves > 1 => {
                        let node = 2 + rng.below(2 * leaves as u64 - 2) as usize;
                        let mut forged = [0u8; 32];
                        rng.fill_bytes(&mut forged);
                        assert_eq!(lazy.tamper_node(node, forged), eager.nodes[node]);
                        eager.nodes[node] = forged;
                        tampered = true;
                    }
                    // The one-pass check recomputes the digests on the
                    // run's paths instead of reading them, so it matches
                    // the per-leaf loop only while they are untampered.
                    _ if !tampered => {
                        let n = rng.below(leaves as u64 + 1) as usize;
                        let first_bad = (0..n).find(|&i| !eager.verify_leaf(i, &current[i]));
                        assert_eq!(lazy.verify_leaves(&current[..n]), first_bad);
                    }
                    _ => {}
                }
                assert_eq!(lazy.root(), eager.nodes[1]);
            }
        }
    }

    #[test]
    fn verifies_against_thousands_of_stale_ancestors() {
        let mut rng = DetRng::new(0x3E_0011);
        let mut lazy = MerkleTree::new(4096);
        let mut eager = EagerTree::new(4096);
        let mut current: Vec<Vec<u8>> = vec![Vec::new(); 4096];
        for _ in 0..2500 {
            let index = rng.below(4096) as usize;
            let mut data = vec![0u8; 64];
            rng.fill_bytes(&mut data);
            lazy.update_leaf(index, &data);
            eager.update_leaf(index, &data);
            current[index] = data;
            // Verify the updated leaf, a random one and a forgery without
            // ever flushing the stale ancestors. Nothing is tampered, so
            // the eager tree accepts every stored leaf and no other data.
            let probe = rng.below(4096) as usize;
            assert!(lazy.verify_leaf(index, &current[index]));
            assert!(lazy.verify_leaf(probe, &current[probe]));
            assert!(!lazy.verify_leaf(probe, b"replayed"));
        }
        assert!(
            lazy.pending.len() > 2000,
            "only {} stale ancestors",
            lazy.pending.len()
        );
        assert_eq!(lazy.root(), eager.nodes[1]);
        // The first forgery flushes, and verification walks paths again.
        let forged = lazy.tamper_node(4096 + 1, [0x77; 32]);
        assert_eq!(forged, eager.nodes[4096 + 1]);
        eager.nodes[4096 + 1] = [0x77; 32];
        assert!(lazy.pending.is_empty());
        assert_eq!(lazy.root(), eager.nodes[1]);
        for index in [0, 1, 2, 4095] {
            assert_eq!(
                lazy.verify_leaf(index, &current[index]),
                eager.verify_leaf(index, &current[index])
            );
        }
        assert!(!lazy.verify_leaf(0, &current[0]));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_panics() {
        MerkleTree::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        MerkleTree::new(2).update_leaf(2, b"");
    }
}
