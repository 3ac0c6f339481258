//! Merkle integrity tree over encryption-counter blocks.
//!
//! The paper (§2.2, §7.1) requires that counters, while not secret, be
//! protected against tampering and replay — citing Bonsai Merkle Trees
//! \[31\]. This module implements a binary SHA-256 Merkle tree whose
//! leaves are the serialized per-page counter blocks. The root is assumed
//! to live in tamper-proof on-chip storage; everything else could sit in
//! untrusted NVM.
//!
//! Hashing waits until a digest is read. [`MerkleTree::update_leaf`]
//! keeps the leaf's data as its pending preimage (a later update of the
//! same leaf overwrites it) and marks its ancestors stale. Only the
//! operations that need the stored digests current
//! ([`MerkleTree::tamper_node`], and [`MerkleTree::verify_leaf`] and
//! [`MerkleTree::verify_leaves`] after a forgery) flush: every pending
//! leaf is hashed once, then every stale ancestor, children before
//! parents. Leaves updated in between share the re-hashing of their
//! common ancestors — the coalesced ancestor updates of *Streamlining
//! Integrity Tree Updates* (arXiv:2003.04693) — and a leaf updated
//! many times is hashed once. [`MerkleTree::root`] hashes pending
//! leaves and stale ancestors on the fly. Every verdict and every root
//! equals what eager leaf-to-root re-hashing would produce, tampered
//! nodes included: [`MerkleTree::tamper_node`] flushes before it writes.
//!
//! Until the first [`MerkleTree::tamper_node`], every stored digest is
//! the hash of its children (or stale, and re-hashed from them before
//! anything reads it), so a path walk would rebuild exactly the stored
//! digests up to the stored root if and only if the given leaf hashes
//! to the leaf's digest. [`MerkleTree::verify_leaf`] therefore checks
//! the leaf alone: a pending leaf by comparing the given data with its
//! preimage byte for byte (equal inputs, equal digests), a hashed leaf
//! by hashing the data once and comparing digests. Both give the path
//! walk's verdict, barring a SHA-256 collision, and leave pending
//! leaves and stale ancestors as they are. [`MerkleTree::verify_leaves`]
//! checks a run of leaves the same way, leaf by leaf. After a forgery
//! the stored digests no longer hash up, so `verify_leaf`, and with it
//! `verify_leaves`, re-walks each leaf's authentication path against
//! the root.

#[cfg(test)]
use crate::sha256::sha256;
use crate::sha256::{Digest, Sha256};
use ss_common::LINE_SIZE;

/// Domain-separation tags so leaves can never be confused with nodes.
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// The longest leaf data [`MerkleTree::update_leaf`] keeps unhashed:
/// one serialized counter block. Longer data is hashed at once.
const PREIMAGE_MAX: usize = LINE_SIZE;

/// A binary Merkle tree with lazily hashed leaves and ancestors.
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
    /// `2i`/`2i+1`, leaves occupy `leaves..2*leaves`. A pending leaf's
    /// stored digest is out of date.
    nodes: Vec<Digest>,
    /// `stale[i]`: internal node `i` has a leaf update below it that its
    /// stored digest does not reflect yet. A stale node's parent is stale
    /// too, so marking stops at the first stale ancestor.
    stale: Vec<bool>,
    /// The stale internal nodes, each listed once. A pending leaf's
    /// parent is one of them.
    pending: Vec<usize>,
    /// `preimage_len[j]`: 0 when leaf `j`'s stored digest is current,
    /// else 1 + the length of its pending preimage, the first bytes of
    /// `preimages[j]`. Both are empty until the first update, so a tree
    /// that is never updated allocates nothing for them.
    preimage_len: Vec<u8>,
    preimages: Vec<[u8; PREIMAGE_MAX]>,
    /// Set by the first [`MerkleTree::tamper_node`]: some stored digest
    /// may differ from the hash of its children, so verification must
    /// walk paths instead of checking leaves alone.
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
            preimage_len: Vec::new(),
            preimages: Vec::new(),
            forged: false,
        }
    }

    /// Number of leaf slots.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The current root digest (kept on-chip in the threat model).
    /// Pending leaves and stale ancestors are hashed on the fly without
    /// being stored, so a shared borrow suffices.
    pub fn root(&self) -> Digest {
        self.current(1)
    }

    /// Node `i`'s digest as eager re-hashing would have stored it.
    fn current(&self, i: usize) -> Digest {
        if let Some(pre) = i.checked_sub(self.leaves).and_then(|j| self.preimage(j)) {
            hash_leaf(pre)
        } else if self.stale.get(i).copied().unwrap_or(false) {
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

    /// Leaf `j`'s pending preimage, or `None` when its stored digest is
    /// current.
    fn preimage(&self, j: usize) -> Option<&[u8]> {
        let len = usize::from(*self.preimage_len.get(j)?).checked_sub(1)?;
        self.preimages.get(j)?.get(..len)
    }

    /// Sets leaf `index` to `data` and marks its ancestors stale. The
    /// leaf is hashed when its digest is first read. Data longer than a
    /// serialized counter block is hashed now.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn update_leaf(&mut self, index: usize, data: &[u8]) {
        assert!(index < self.leaves, "leaf index {index} out of range");
        let mut i = self.leaves + index;
        let len = if data.len() > PREIMAGE_MAX {
            self.set_node(i, hash_leaf(data));
            0
        } else {
            if self.preimages.is_empty() {
                self.preimage_len = vec![0; self.leaves];
                self.preimages = vec![[0; PREIMAGE_MAX]; self.leaves];
            }
            if let Some(slot) = self
                .preimages
                .get_mut(index)
                .and_then(|p| p.get_mut(..data.len()))
            {
                slot.copy_from_slice(data);
            }
            data.len() as u8 + 1
        };
        if let Some(slot_len) = self.preimage_len.get_mut(index) {
            *slot_len = len;
        }
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

    /// Hashes leaf `j`'s pending preimage into its stored digest.
    fn settle_leaf(&mut self, j: usize) {
        if let Some(digest) = self.preimage(j).map(hash_leaf) {
            self.set_node(self.leaves + j, digest);
            if let Some(len) = self.preimage_len.get_mut(j) {
                *len = 0;
            }
        }
    }

    /// Re-hashes every pending leaf and stale ancestor once and stores
    /// the result. A child's heap index is larger than its parent's, so
    /// descending index order re-hashes children before parents; a
    /// pending leaf is hashed when its stale parent comes up.
    fn flush(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &pending {
            if 2 * i >= self.leaves {
                self.settle_leaf(2 * i - self.leaves);
                self.settle_leaf(2 * i + 1 - self.leaves);
            }
            self.set_node(i, hash_node(&self.node(2 * i), &self.node(2 * i + 1)));
            if let Some(stale) = self.stale.get_mut(i) {
                *stale = false;
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Whether `data` is what leaf `index` holds: its pending preimage,
    /// byte for byte, or data that hashes to its stored digest. Until
    /// the first forgery this is the path walk's verdict (see the module
    /// docs).
    fn leaf_matches(&self, index: usize, data: &[u8]) -> bool {
        match self.preimage(index) {
            Some(pre) => pre == data,
            None => hash_leaf(data) == self.node(self.leaves + index),
        }
    }

    /// Verifies that `data` matches leaf `index` against the root.
    /// Returns `false` on any mismatch (tampered leaf or tampered
    /// internal node).
    ///
    /// Until the first [`MerkleTree::tamper_node`] this checks the leaf
    /// alone — a byte compare with a pending preimage, or one digest
    /// and a compare with the stored leaf digest — which gives the path
    /// walk's verdict (see the module docs) and hashes nothing pending.
    /// After it, the tree is flushed and the authentication path is
    /// re-walked.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn verify_leaf(&mut self, index: usize, data: &[u8]) -> bool {
        assert!(index < self.leaves, "leaf index {index} out of range");
        if !self.forged {
            return self.leaf_matches(index, data);
        }
        self.flush();
        self.walk_path(index, hash_leaf(data))
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

    /// Verifies leaves `0..data.len()` against the root and returns the
    /// first that fails, or `None`: each leaf is checked as
    /// [`MerkleTree::verify_leaf`] checks it. Until the first
    /// [`MerkleTree::tamper_node`] that is a byte compare per pending
    /// leaf and one digest per hashed leaf, and nothing pending is
    /// hashed; after it, one path walk per leaf.
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
        data.iter()
            .enumerate()
            .position(|(i, d)| !self.verify_leaf(i, d.as_ref()))
    }

    /// Simulates an attacker overwriting an internal node or leaf hash in
    /// untrusted storage (for security tests). Returns the previous value.
    /// Pending leaves and stale ancestors are flushed first, so the write
    /// lands on the state eager re-hashing would hold. From then on
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
        assert!((0..16).all(|j| tree.preimage(j).is_none()));
        assert_eq!(tree.node(16 + 4), hash_leaf(b"x"));
    }

    #[test]
    fn a_leaf_is_hashed_when_its_digest_is_read() {
        let mut tree = MerkleTree::new(16);
        let untouched = tree.node(16 + 5);
        // A page's eight write-through counter writes and its shred.
        for round in 1u8..=9 {
            tree.update_leaf(5, &[round; 64]);
        }
        let pending = |t: &MerkleTree| (0..16).filter(|&j| t.preimage(j).is_some()).count();
        assert_eq!(pending(&tree), 1);
        assert_eq!(tree.preimage(5), Some(&[9u8; 64][..]));
        assert_eq!(tree.node(16 + 5), untouched, "nothing hashed yet");
        // Checking a pending leaf compares bytes and leaves it pending.
        assert!(tree.verify_leaf(5, &[9; 64]));
        assert!(!tree.verify_leaf(5, &[8; 64]));
        let mut run = vec![Vec::new(); 8];
        run[5] = vec![9; 64];
        assert_eq!(tree.verify_leaves(&run), None);
        run[5] = vec![8; 64];
        assert_eq!(tree.verify_leaves(&run), Some(5));
        assert_eq!(tree.preimage(5), Some(&[9u8; 64][..]));
        assert_eq!(tree.node(16 + 5), untouched);
        // A forgery flushes: the leaf is hashed once, then its ancestors.
        let root = tree.root();
        tree.tamper_node(16 + 12, [0x11; 32]);
        assert_eq!(pending(&tree), 0);
        assert_eq!(tree.node(16 + 5), hash_leaf(&[9; 64]));
        assert_eq!(tree.node(1), root);
        assert!(tree.pending.is_empty());
        assert!(tree.verify_leaf(5, &[9; 64]));
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
        // Forge leaf 7's digest. Leaves 0..7 do not cover it, and leaf
        // 6's path, which reads it as a sibling, is the first to fail.
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
        // `verify_leaves` runs that mix pending and hashed leaves, runs
        // on a forged tree, and forgeries of a pending leaf's digest.
        let (mut mixed_runs, mut forged_runs, mut pending_forgeries) = (0, 0, 0);
        for round in 0..32 {
            let leaf_count = 1 + rng.below(40) as usize;
            let mut lazy = MerkleTree::new(leaf_count);
            let mut eager = EagerTree::new(leaf_count);
            let leaves = lazy.leaf_count();
            let mut current: Vec<Vec<u8>> = vec![Vec::new(); leaves];
            let mut previous = current.clone();
            // A few hot leaves take bursts of updates between reads: a
            // page's write-through counter writes, then its shred.
            let hot: Vec<usize> = (0..3).map(|_| rng.below(leaves as u64) as usize).collect();
            // Half the trees are never forged, so their leaf-only checks
            // run all along.
            let forgeable = round % 2 == 1 && leaves > 1;
            let mut tampered = false;
            for _ in 0..200 {
                let index = if rng.below(2) == 0 {
                    hot[rng.below(3) as usize]
                } else {
                    rng.below(leaves as u64) as usize
                };
                match rng.below(16) {
                    0..=6 => {
                        for _ in 0..=rng.below(9) {
                            // A counter line, or up to 69 bytes: data
                            // longer than a preimage slot is hashed at once.
                            let len = if rng.below(2) == 0 {
                                PREIMAGE_MAX
                            } else {
                                rng.below(70) as usize
                            };
                            let mut data = vec![0u8; len];
                            rng.fill_bytes(&mut data);
                            lazy.update_leaf(index, &data);
                            eager.update_leaf(index, &data);
                            previous[index] = std::mem::replace(&mut current[index], data);
                        }
                    }
                    7..=10 => {
                        let data = match rng.below(3) {
                            0 => current[index].clone(),
                            1 => previous[index].clone(),
                            _ => vec![rng.below(256) as u8],
                        };
                        assert_eq!(
                            lazy.verify_leaf(index, &data),
                            eager.verify_leaf(index, &data)
                        );
                    }
                    11 if forgeable => {
                        let pending: Vec<usize> = (0..leaves)
                            .filter(|&j| lazy.preimage(j).is_some())
                            .collect();
                        let node = if !pending.is_empty() && rng.below(2) == 0 {
                            pending_forgeries += 1;
                            leaves + pending[rng.below(pending.len() as u64) as usize]
                        } else {
                            2 + rng.below(2 * leaves as u64 - 2) as usize
                        };
                        let mut forged = [0u8; 32];
                        rng.fill_bytes(&mut forged);
                        assert_eq!(lazy.tamper_node(node, forged), eager.nodes[node]);
                        eager.nodes[node] = forged;
                        tampered = true;
                    }
                    _ => {
                        let n = rng.below(leaves as u64 + 1) as usize;
                        let mut run = current[..n].to_vec();
                        if n > 0 && rng.below(2) == 0 {
                            // A replayed line somewhere in the run.
                            let bad = rng.below(n as u64) as usize;
                            run[bad] = previous[bad].clone();
                        }
                        let pending = (0..n).filter(|&i| lazy.preimage(i).is_some()).count();
                        if pending > 0 && pending < n {
                            mixed_runs += 1;
                        }
                        if tampered {
                            forged_runs += 1;
                        }
                        let first_bad = (0..n).find(|&i| !eager.verify_leaf(i, &run[i]));
                        assert_eq!(lazy.verify_leaves(&run), first_bad);
                    }
                }
                assert_eq!(lazy.root(), eager.nodes[1]);
            }
        }
        assert!(mixed_runs > 100, "{mixed_runs} mixed runs");
        assert!(forged_runs > 100, "{forged_runs} runs on a forged tree");
        assert!(
            pending_forgeries > 5,
            "{pending_forgeries} pending forgeries"
        );
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
