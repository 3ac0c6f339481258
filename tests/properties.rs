//! Property-style tests over the core data structures and the
//! controller's architectural invariants.
//!
//! These were originally proptest properties; the container builds with
//! no network access, so each property is now driven by explicit seeded
//! [`DetRng`] generators — same randomised coverage, fully
//! deterministic, no external dependency. The two shrunk proptest
//! counterexamples that the old suite had pinned live on as named tests
//! in `tests/regression.rs`.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{run_hierarchy_coherence, run_kernel_frame_conservation};
use silent_shredder::common::{BlockAddr, Cycles, DetRng, PageId, LINE_SIZE};
use silent_shredder::core::counters::{BumpOutcome, CounterBlock};
use silent_shredder::core::NvmTarget;
use silent_shredder::crypto::iv::{MINOR_FIRST, MINOR_MAX, MINOR_SHREDDED};
use silent_shredder::crypto::{sha256, CtrEngine, Iv, MerkleTree};
use silent_shredder::nvm::{StartGap, WriteScheme};
use silent_shredder::prelude::*;

fn rand_line(rng: &mut DetRng) -> [u8; LINE_SIZE] {
    let mut line = [0u8; LINE_SIZE];
    rng.fill_bytes(&mut line);
    line
}

fn rand_key(rng: &mut DetRng) -> [u8; 16] {
    let mut key = [0u8; 16];
    rng.fill_bytes(&mut key);
    key
}

/// AES-CTR line encryption round-trips for arbitrary data and IVs.
#[test]
fn ctr_roundtrip() {
    let mut rng = DetRng::new(0xC7_0001);
    for _ in 0..128 {
        let engine = CtrEngine::new(rand_key(&mut rng));
        let data = rand_line(&mut rng);
        let iv = Iv::new(
            rng.next_u64() & ((1 << 48) - 1),
            rng.below(64) as u8,
            rng.next_u64(),
            rng.below(128) as u8,
        );
        assert_eq!(
            engine.decrypt_line(&iv, &engine.encrypt_line(&iv, &data)),
            data
        );
    }
}

/// Changing the IV's major counter decrypts to something other than the
/// plaintext (the unintelligibility property shredding relies on).
#[test]
fn ctr_wrong_iv_never_recovers() {
    let mut rng = DetRng::new(0xC7_0002);
    let engine = CtrEngine::new([7; 16]);
    for _ in 0..128 {
        let data = rand_line(&mut rng);
        let major = rng.next_u64();
        let bump = 1 + rng.below(999);
        let iv = Iv::new(1, 1, major, 1);
        let wrong = Iv::new(1, 1, major.wrapping_add(bump), 1);
        let ct = engine.encrypt_line(&iv, &data);
        assert_ne!(engine.decrypt_line(&wrong, &ct), data);
    }
}

/// SHA-256 streaming equals one-shot for arbitrary splits.
#[test]
fn sha256_streaming() {
    let mut rng = DetRng::new(0x5A_0003);
    for _ in 0..64 {
        let len = rng.below(512) as usize;
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let split = (rng.below(512) as usize).min(len);
        let mut h = silent_shredder::crypto::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    }
}

/// Merkle verification accepts the written line and rejects others.
#[test]
fn merkle_verify() {
    let mut rng = DetRng::new(0x3E_0004);
    for _ in 0..64 {
        let leaves = 1 + rng.below(63) as usize;
        let mut tree = MerkleTree::new(leaves, &[0; 64]);
        let index = rng.below(64) as usize % tree.leaf_count();
        let mut data = [0u8; 64];
        rng.fill_bytes(&mut data);
        let mut other = [0u8; 64];
        rng.fill_bytes(&mut other);
        tree.update_leaf(index, &data);
        assert!(tree.verify_leaf(index, &data));
        if other != data {
            assert!(!tree.verify_leaf(index, &other));
        }
    }
}

/// Counter blocks survive serialisation for arbitrary contents.
#[test]
fn counter_block_roundtrip() {
    let mut rng = DetRng::new(0xCB_0005);
    for _ in 0..64 {
        let mut block = CounterBlock {
            major: rng.next_u64(),
            minors: [0; 64],
        };
        for m in &mut block.minors {
            *m = (rng.next_u64() & 0x7F) as u8;
        }
        assert_eq!(CounterBlock::from_line(&block.to_line()), block);
    }
}

/// The minor-counter write discipline never produces the reserved zero
/// for a live block, and overflow always bumps the major.
#[test]
fn minor_discipline() {
    let mut rng = DetRng::new(0x31_0006);
    for _ in 0..64 {
        let writes = 1 + rng.below(399) as usize;
        let block = rng.below(64) as usize;
        let mut c = CounterBlock::default();
        let mut majors = 0u64;
        for _ in 0..writes {
            let before = c.major;
            c.bump_for_write(block);
            assert_ne!(c.minors[block], 0, "live block got reserved minor");
            if c.major != before {
                majors += 1;
            }
        }
        // 127 writes per major epoch once live.
        assert!(majors <= 1 + writes as u64 / 127);
    }
}

/// A minor counter hitting its 7-bit maximum overflows into a major
/// bump: live minors reset to [`MINOR_FIRST`], shredded minors stay at
/// the reserved [`MINOR_SHREDDED`] zero, and the page's whole IV space
/// moves on (so re-encryption of live blocks is forced, never skipped).
#[test]
fn minor_overflow_bumps_major_and_preserves_shred_marks() {
    let mut rng = DetRng::new(0x0F_0016);
    for _ in 0..32 {
        let live = rng.below(64) as usize;
        let shredded = (live + 1 + rng.below(63) as usize) % 64;
        let mut c = CounterBlock::default();
        assert_eq!(c.bump_for_write(live), BumpOutcome::Advanced);
        // Drive the live block's minor to the ceiling.
        while c.minors[live] < MINOR_MAX {
            assert_eq!(c.bump_for_write(live), BumpOutcome::Advanced);
        }
        assert_eq!(c.minors[shredded], MINOR_SHREDDED);
        let major_before = c.major;
        assert_eq!(c.bump_for_write(live), BumpOutcome::Overflowed);
        assert_eq!(c.major, major_before + 1, "overflow must bump the major");
        assert_eq!(c.minors[live], MINOR_FIRST);
        assert_eq!(
            c.minors[shredded], MINOR_SHREDDED,
            "overflow must not resurrect shredded blocks"
        );
        // The IV for every live block changed across the overflow, so
        // old ciphertext can never be mistaken for current.
        assert_ne!(c.iv(1, live), {
            let mut old = c;
            old.major = major_before;
            old.iv(1, live)
        });
    }
}

/// Controller-level overflow: hammering one block past 127 writes walks
/// through the re-encryption path and leaves every line readable.
#[test]
fn minor_overflow_reencrypts_through_controller() {
    let mut mc = MemoryController::new(ControllerConfig::small_test()).unwrap();
    let page = PageId::new(1);
    let hot = page.block_addr(0);
    let cold = page.block_addr(7);
    mc.write_block(cold, &[0xEE; LINE_SIZE], false, Cycles::ZERO)
        .unwrap();
    for i in 0..130u32 {
        mc.write_block(hot, &[i as u8; LINE_SIZE], false, Cycles::ZERO)
            .unwrap();
    }
    assert!(
        mc.inspect().stats().reencryptions.get() > 0,
        "127 writes to one block must trip a major-epoch re-encryption"
    );
    assert_eq!(mc.read_block(hot, Cycles::ZERO).unwrap().data, [129u8; 64]);
    assert_eq!(
        mc.read_block(cold, Cycles::ZERO).unwrap().data,
        [0xEE; LINE_SIZE],
        "re-encryption must carry unwritten live blocks across the epoch"
    );
}

/// Start-Gap remains a permutation under any write pattern.
#[test]
fn start_gap_permutation() {
    let mut rng = DetRng::new(0x56_0007);
    for _ in 0..64 {
        let lines = 1 + rng.below(63);
        let interval = 1 + rng.below(15);
        let writes = rng.below(500);
        let mut sg = StartGap::new(lines, interval);
        for _ in 0..writes {
            sg.on_write();
        }
        let mut seen = BTreeSet::new();
        for l in 0..lines {
            assert!(seen.insert(sg.remap(l)));
        }
    }
}

/// DCW never reports more flipped bits than the line holds, and zero
/// for identical lines.
#[test]
fn write_schemes_bounds() {
    let mut rng = DetRng::new(0xDC_0008);
    for _ in 0..128 {
        let old = rand_line(&mut rng);
        let new = rand_line(&mut rng);
        let mut flips = [false; 16];
        let dcw = WriteScheme::Dcw.apply(&old, &new, &mut flips);
        assert!(dcw.bits_written <= 512);
        let mut flips2 = [false; 16];
        let same = WriteScheme::Dcw.apply(&old, &old, &mut flips2);
        assert_eq!(same.bits_written, 0);
        let mut flips3 = [false; 16];
        let fnw = WriteScheme::FlipNWrite.apply(&old, &new, &mut flips3);
        // FNW is at worst half the bits plus one flip bit per word.
        assert!(fnw.bits_written <= 16 * 17);
    }
}

/// Shared driver: random write/shred/read interleavings against a
/// shadow map; reads must always return the last write since the last
/// shred of the page, or zeros.
fn drive_read_your_writes(mc: &mut MemoryController, seed: u64, ops: usize) {
    let mut rng = DetRng::new(seed);
    let mut shadow: BTreeMap<u64, [u8; LINE_SIZE]> = BTreeMap::new();
    for _ in 0..ops {
        let page_id = PageId::new(1 + rng.below(4));
        let addr = page_id.block_addr(rng.below(4) as usize);
        match rng.below(3) {
            0 => {
                let value = rng.next_u64() as u8;
                mc.write_block(addr, &[value; LINE_SIZE], false, Cycles::ZERO)
                    .unwrap();
                shadow.insert(addr.raw(), [value; LINE_SIZE]);
            }
            1 => {
                mc.shred_page_at(page_id, true, Cycles::ZERO).unwrap();
                for b in page_id.blocks() {
                    shadow.insert(b.raw(), [0u8; LINE_SIZE]);
                }
            }
            _ => {
                let read = mc.read_block(addr, Cycles::ZERO).unwrap();
                let expected = shadow.get(&addr.raw()).copied().unwrap_or([0u8; LINE_SIZE]);
                assert_eq!(read.data, expected);
            }
        }
    }
    // A final fence + power cycle must preserve everything.
    mc.fence_drain(Cycles::ZERO).unwrap();
    mc.power_loss().unwrap();
    mc.recover_mut().unwrap();
    for (raw, expected) in shadow {
        let read = mc.read_block(BlockAddr::new(raw), Cycles::ZERO).unwrap();
        assert_eq!(read.data, expected);
    }
}

/// Architectural read-your-writes through the real controller, with
/// shreds interleaved.
#[test]
fn controller_read_your_writes() {
    for seed in 0..32 {
        let mut mc = MemoryController::new(ControllerConfig::small_test()).unwrap();
        drive_read_your_writes(&mut mc, 0xA110 + seed, 60);
    }
}

/// The same invariant holds with the controller write queue enabled
/// (forwarding + drain bursts must never change architectural state).
#[test]
fn write_queue_read_your_writes() {
    for seed in 0..32 {
        let mut mc = MemoryController::new(
            ControllerConfigBuilder::small_test()
                .write_queue(Some(silent_shredder::core::WriteQueueConfig {
                    capacity: 8,
                    drain_low: 1,
                    drain_high: 4,
                }))
                .build()
                .unwrap(),
        )
        .unwrap();
        drive_read_your_writes(&mut mc, 0xB220 + seed, 80);
    }
}

/// The same invariant holds with DEUCE partial re-encryption enabled.
#[test]
fn deuce_read_your_writes() {
    for seed in 0..32 {
        let mut mc = MemoryController::new(
            ControllerConfigBuilder::small_test()
                .deuce(true)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut rng = DetRng::new(0xD330 + seed);
        let mut shadow: BTreeMap<u64, [u8; LINE_SIZE]> = BTreeMap::new();
        // Four lines, mostly writes and rare shreds: lines take well over
        // 16 writes between shreds, so DEUCE epochs roll over.
        for _ in 0..240 {
            let page_id = PageId::new(1 + rng.below(2));
            let addr = page_id.block_addr(rng.below(2) as usize);
            match rng.below(32) {
                0..=23 => {
                    // Partial update: mutate one byte of the current value.
                    let mut line = shadow.get(&addr.raw()).copied().unwrap_or([0u8; 64]);
                    line[rng.below(64) as usize] = rng.next_u64() as u8;
                    mc.write_block(addr, &line, false, Cycles::ZERO).unwrap();
                    shadow.insert(addr.raw(), line);
                }
                24 => {
                    mc.shred_page_at(page_id, true, Cycles::ZERO).unwrap();
                    for b in page_id.blocks() {
                        shadow.insert(b.raw(), [0u8; 64]);
                    }
                }
                _ => {
                    let read = mc.read_block(addr, Cycles::ZERO).unwrap();
                    let expected = shadow.get(&addr.raw()).copied().unwrap_or([0u8; 64]);
                    assert_eq!(read.data, expected);
                }
            }
        }
    }
}

/// Shred semantics, leakage side: under arbitrary write/shred/read
/// interleavings no read ever observes pre-shred plaintext again, and a
/// cold scan of the raw NVM array never surfaces it either (the paper's
/// remanence argument — data "shredded" by a counter bump must be as
/// gone as if overwritten).
#[test]
fn shreds_never_leak_preshred_plaintext() {
    for seed in 0..24u64 {
        let mut mc = MemoryController::new(ControllerConfig::small_test()).unwrap();
        let mut rng = DetRng::new(0x5EC_000 + seed);
        let mut shadow = ss_harness::ShadowModel::new();
        for _ in 0..80 {
            let page = PageId::new(1 + rng.below(4));
            let addr = page.block_addr(rng.below(8) as usize);
            match rng.below(4) {
                0 | 1 => {
                    let line = rand_line(&mut rng);
                    mc.write_block(addr, &line, false, Cycles::ZERO).unwrap();
                    shadow.note_write(addr, line);
                }
                2 => {
                    mc.shred_page_at(page, true, Cycles::ZERO).unwrap();
                    shadow.note_shred(page);
                }
                _ => {
                    let read = mc.read_block(addr, Cycles::ZERO).unwrap();
                    assert_eq!(read.data, shadow.expected(addr, true).unwrap());
                    assert!(
                        !shadow.is_secret(&read.data) || read.data == [0u8; LINE_SIZE],
                        "read returned pre-shred plaintext"
                    );
                }
            }
        }
        // Remanence: the raw array holds only ciphertext; none of it may
        // equal a plaintext line that was live when its page was shredded.
        if shadow.secret_count() > 0 {
            for (addr, raw) in mc.faults().cold_scan_data() {
                assert!(
                    !shadow.is_secret(&raw),
                    "pre-shred plaintext survives in NVM at {addr}"
                );
            }
        }
    }
}

/// Shred semantics, zero-fill side: the reserved minor value 0 is
/// reachable only through the zero-fill path. A block reads
/// `zero_filled` exactly while its page slot is fresh or shredded, any
/// write takes it out of that state, and a shred puts it back.
#[test]
fn minor_zero_only_via_zero_fill_path() {
    let mut mc = MemoryController::new(ControllerConfig::small_test()).unwrap();
    let page = PageId::new(3);
    let addr = page.block_addr(5);
    // Fresh: never written, minor is the reserved 0 → zero-filled zeros.
    let fresh = mc.read_block(addr, Cycles::ZERO).unwrap();
    assert!(fresh.zero_filled);
    assert_eq!(fresh.data, [0u8; LINE_SIZE]);
    // Written: minor becomes live, the read must come from ciphertext.
    mc.write_block(addr, &[9; LINE_SIZE], false, Cycles::ZERO)
        .unwrap();
    let live = mc.read_block(addr, Cycles::ZERO).unwrap();
    assert!(!live.zero_filled, "live block must not be zero-filled");
    assert_eq!(live.data, [9; LINE_SIZE]);
    // Even writing an all-zero line is a *live* write, not a shred:
    // the minor must advance, not reset to the reserved value.
    mc.write_block(addr, &[0; LINE_SIZE], false, Cycles::ZERO)
        .unwrap();
    let zero_write = mc.read_block(addr, Cycles::ZERO).unwrap();
    assert!(
        !zero_write.zero_filled,
        "an explicit zero write must stay distinguishable from a shred"
    );
    assert_eq!(zero_write.data, [0u8; LINE_SIZE]);
    // Shredded: back to the reserved minor, served by zero-fill again.
    mc.shred_page_at(page, true, Cycles::ZERO).unwrap();
    let shredded = mc.read_block(addr, Cycles::ZERO).unwrap();
    assert!(shredded.zero_filled);
    assert_eq!(shredded.data, [0u8; LINE_SIZE]);
    // And zero-fill truly skipped the array: no NVM read was needed —
    // cross-check via the counter block itself.
    let counters = CounterBlock::from_line(&mc.faults().nvm_peek(NvmTarget::Counter(page)));
    assert!(counters.is_shredded(5));
}

/// Zero-fill reads are exclusive to the Silent Shredder configuration:
/// with the shredder disabled nothing is ever served as `zero_filled`.
#[test]
fn no_zero_fill_without_shredder() {
    for protection in [ProtectionMode::Ctr, ProtectionMode::Ecb] {
        let mut mc = MemoryController::new(
            ControllerConfigBuilder::small_test()
                .protection(protection)
                .shredder(false)
                .integrity(false)
                .build()
                .unwrap(),
        )
        .unwrap();
        let addr = PageId::new(1).block_addr(0);
        assert!(!mc.read_block(addr, Cycles::ZERO).unwrap().zero_filled);
        mc.write_block(addr, &[5; LINE_SIZE], false, Cycles::ZERO)
            .unwrap();
        assert!(!mc.read_block(addr, Cycles::ZERO).unwrap().zero_filled);
    }
}

/// Cache hierarchy: a value written via any core is the value read by
/// any other core (coherence), for arbitrary small access patterns of
/// every access kind, and invalidations and flushes hand memory the
/// newest value. Two cores, and sixteen (the most a hierarchy has)
/// reading and writing half as many lines three times as often, so a
/// line is shared by many cores, core 15 among them, when a write
/// snoops them out.
#[test]
fn hierarchy_coherence() {
    for (cores, lines, len) in [(2, 32, 80), (16, 16, 240)] {
        for seed in 0..32u64 {
            let mut rng = DetRng::new(0x00CA_CE00 + seed);
            let ops: Vec<(u8, usize, u64, u8)> = (0..len)
                .map(|_| {
                    (
                        // Full-line writes, reads, partial stores, then
                        // rarer line invalidations and flushes.
                        [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4][rng.below(16) as usize],
                        rng.below(cores) as usize,
                        rng.below(lines),
                        rng.next_u64() as u8,
                    )
                })
                .collect();
            run_hierarchy_coherence(cores as usize, &ops);
        }
    }
}

/// Kernel frame accounting: under arbitrary alloc/touch/free/exit
/// sequences, no frame is ever lost, double-allocated, or mapped into
/// two live processes at once.
#[test]
fn kernel_frame_conservation() {
    for seed in 0..32u64 {
        let mut rng = DetRng::new(0x00F4_AE00 + seed);
        let ops: Vec<(u8, usize, u64)> = (0..120)
            .map(|_| (rng.below(5) as u8, rng.below(4) as usize, rng.below(8)))
            .collect();
        run_kernel_frame_conservation(&ops);
    }
}

/// Hypervisor frame conservation: arbitrary VM create/destroy/balloon
/// sequences never lose or duplicate host frames.
#[test]
fn hypervisor_frame_conservation() {
    use silent_shredder::os::machine::MockMachine;
    use silent_shredder::os::{Hypervisor, VmId};

    for seed in 0..32u64 {
        let mut rng = DetRng::new(0x0041_FE00 + seed);
        let total = 256u64;
        let mut machine = MockMachine::new(total);
        let mut hyp = Hypervisor::new(
            (0..total)
                .map(silent_shredder::common::PageId::new)
                .collect(),
            ZeroStrategy::NonTemporal,
            ZeroStrategy::NonTemporal,
        );
        let mut vms: Vec<Option<VmId>> = vec![None; 3];
        let mut granted: Vec<u64> = vec![0; 3];

        for _ in 0..60 {
            let op = rng.below(4) as u8;
            let slot = rng.below(3) as usize;
            let n = 1 + rng.below(31) as usize;
            match op {
                0 => {
                    if vms[slot].is_none() {
                        if let Ok((vm, _)) = hyp.create_vm(&mut machine, 0, n + 2, Cycles::ZERO) {
                            vms[slot] = Some(vm);
                            granted[slot] = n as u64 + 2;
                        }
                    }
                }
                1 => {
                    if let Some(vm) = vms[slot] {
                        if let Ok((got, _)) =
                            hyp.balloon_reclaim(&mut machine, 0, vm, n, Cycles::ZERO)
                        {
                            granted[slot] -= got as u64;
                        }
                    }
                }
                2 => {
                    if let Some(vm) = vms[slot] {
                        if hyp
                            .balloon_grant(&mut machine, 0, vm, n, Cycles::ZERO)
                            .is_ok()
                        {
                            granted[slot] += n as u64;
                        }
                    }
                }
                _ => {
                    if let Some(vm) = vms[slot].take() {
                        hyp.destroy_vm(vm).expect("destroy");
                        granted[slot] = 0;
                    }
                }
            }
            // Conservation: host free + frames granted to live VMs = total.
            let live_granted: u64 = granted.iter().sum();
            assert_eq!(
                hyp.free_host_frames() as u64 + live_granted,
                total,
                "host frames leaked or duplicated"
            );
        }
    }
}

// --- ss_core::interleave: the page→shard bijection ------------------

/// Global → (shard, local) → global round-trips for random pages under
/// assorted shard counts, including the non-power-of-two ones the
/// round-robin arithmetic must not special-case.
#[test]
fn interleave_bijection_roundtrip() {
    use silent_shredder::core::Interleave;
    let mut rng = DetRng::new(0x11_7E01);
    for shards in [1u32, 2, 3, 4, 5, 7, 8, 12, 256] {
        let il = Interleave::new(shards).unwrap();
        for _ in 0..256 {
            let page = PageId::new(rng.below(1 << 20));
            let (s, l) = (il.shard_of_page(page), il.local_page(page));
            assert!(s < shards, "shard index out of range for {page}");
            assert_eq!(
                il.global_page(s, l),
                page,
                "{shards} shards: not a bijection at {page}"
            );
            // Inverse direction: a random (shard, local) pair maps to a
            // global page owned by exactly that shard at that frame.
            let s2 = rng.below(u64::from(shards)) as u32;
            let l2 = PageId::new(rng.below(1 << 18));
            let g = il.global_page(s2, l2);
            assert_eq!(il.shard_of_page(g), s2);
            assert_eq!(il.local_page(g), l2);
        }
    }
}

/// Edge case: one shard is the identity map — same pages, shard 0,
/// bit-identical to the unsharded controller's address space.
#[test]
fn interleave_single_shard_is_identity() {
    use silent_shredder::core::Interleave;
    let il = Interleave::new(1).unwrap();
    let mut rng = DetRng::new(0x11_7E02);
    for _ in 0..256 {
        let page = PageId::new(rng.next_u64() >> 12);
        assert_eq!(il.shard_of_page(page), 0);
        assert_eq!(il.local_page(page), page);
        assert_eq!(il.global_page(0, page), page);
    }
}

/// Edge case: as many shards as frames — every shard owns exactly one
/// frame, at local index 0.
#[test]
fn interleave_shards_equal_frames() {
    use silent_shredder::core::Interleave;
    let frames = 256u64;
    let il = Interleave::new(frames as u32).unwrap();
    let mut seen = BTreeSet::new();
    for p in 0..frames {
        let page = PageId::new(p);
        assert_eq!(il.shard_of_page(page), p as u32, "one frame per shard");
        assert_eq!(
            il.local_page(page),
            PageId::new(0),
            "local frame bound is 1"
        );
        assert!(seen.insert(il.shard_of_page(page)), "shard aliased twice");
    }
    assert_eq!(seen.len() as u64, frames);
}

/// Shard-local frame bounds: when `frames` divides evenly across `n`
/// shards (the `ShardedConfig::validate` precondition), every global
/// frame lands at a local index `< frames / n`, each shard receives
/// exactly `frames / n` frames, and no (shard, local) slot is used
/// twice. Exercised for non-power-of-two shard counts too.
#[test]
fn interleave_partitions_frames_within_local_bounds() {
    use silent_shredder::core::Interleave;
    let frames = 240u64; // divisible by every shard count below
    for shards in [1u32, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16] {
        assert_eq!(frames % u64::from(shards), 0, "test precondition");
        let per_shard = frames / u64::from(shards);
        let il = Interleave::new(shards).unwrap();
        let mut slots = BTreeSet::new();
        let mut per_shard_count = BTreeMap::new();
        for p in 0..frames {
            let page = PageId::new(p);
            let (s, l) = (il.shard_of_page(page), il.local_page(page));
            assert!(
                l.raw() < per_shard,
                "{shards} shards: page {p} exceeds local bound ({} >= {per_shard})",
                l.raw()
            );
            assert!(
                slots.insert((s, l.raw())),
                "{shards} shards: slot ({s}, {}) aliased",
                l.raw()
            );
            *per_shard_count.entry(s).or_insert(0u64) += 1;
        }
        assert_eq!(slots.len() as u64, frames);
        for (s, count) in per_shard_count {
            assert_eq!(count, per_shard, "{shards} shards: shard {s} unbalanced");
        }
    }
}

/// Blocks inherit their page's shard and keep their in-page offset
/// (random pages and block indices, random shard counts).
#[test]
fn interleave_blocks_follow_their_page() {
    use silent_shredder::common::BLOCKS_PER_PAGE;
    use silent_shredder::core::Interleave;
    let mut rng = DetRng::new(0x11_7E03);
    for _ in 0..256 {
        let shards = 1 + rng.below(16) as u32;
        let il = Interleave::new(shards).unwrap();
        let page = PageId::new(rng.below(1 << 20));
        let addr = page.block_addr(rng.below(BLOCKS_PER_PAGE as u64) as usize);
        assert_eq!(il.shard_of_block(addr), il.shard_of_page(page));
        let local = il.local_block(addr);
        assert_eq!(local.page(), il.local_page(page));
        assert_eq!(local.block_in_page(), addr.block_in_page());
    }
}
