//! One function per paper artifact (figures 4, 5, 8–12; tables 1–2) plus
//! the DESIGN.md ablations. Each returns structured rows; the `repro`
//! binary formats them.

use ss_common::{Cycles, PageId, Result, LINE_SIZE, PAGE_SIZE};
use ss_core::{ControllerConfigBuilder, NvmTarget, ShredStrategy};
use ss_cpu::Op;
use ss_nvm::{NvmConfig, NvmDevice, WriteScheme};
use ss_os::ZeroStrategy;
use ss_sim::{System, SystemConfig};
use ss_workloads::{spec_suite, GraphApp, GraphWorkload, Workload};

use crate::runner::{run_workload, scaled_graph, scaled_spec, ExperimentScale};

// ---------------------------------------------------------------------
// Figure 4: the impact of kernel zeroing on memset performance.
// ---------------------------------------------------------------------

/// One data-size point of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Allocation size in MiB (the paper sweeps 64 MiB–1 GiB; scaled).
    pub size_mib: u64,
    /// Cycles of the first `memset` (faults + kernel zeroing + program
    /// zeroing).
    pub first_memset: u64,
    /// Cycles of the second `memset` (program zeroing only).
    pub second_memset: u64,
    /// Cycles the kernel spent in `clear_page` during the first pass.
    pub kernel_zeroing: u64,
    /// `kernel_zeroing / first_memset` (the paper reports ≈32%).
    pub zeroing_fraction: f64,
}

/// Reproduces Fig. 3/4: `malloc` + two `memset`s over a size sweep, on a
/// stock (temporal-zeroing) kernel.
///
/// # Errors
///
/// Propagates system construction errors.
pub fn fig04(scale: ExperimentScale) -> Result<Vec<Fig4Row>> {
    let sizes: &[u64] = match scale {
        ExperimentScale::Quick => &[1, 2],
        ExperimentScale::Full => &[4, 8, 16, 32, 64],
    };
    let mut rows = Vec::new();
    for &size_mib in sizes {
        let mut cfg =
            scale.apply(SystemConfig::baseline().with_zero_strategy(ZeroStrategy::Temporal));
        cfg.hierarchy.cores = 1;
        // The allocation must fit with room to spare.
        cfg.controller.data_capacity = cfg.controller.data_capacity.max((size_mib * 4) << 20);
        let mut system = System::new(cfg)?;
        system.age_free_frames();
        let pid = system.spawn_process(0)?;
        let bytes = size_mib << 20;
        let heap = system.sys_alloc(pid, bytes)?;
        let memset_ops = || {
            (0..bytes / LINE_SIZE as u64)
                .map(|i| Op::StoreLine(heap.add(i * LINE_SIZE as u64)))
                .collect::<Vec<_>>()
        };
        let first = system.run(vec![memset_ops().into_iter()], None);
        let kernel_zeroing = system.kernel().stats().zeroing_cycles.raw();
        system.reset_stats();
        let second = system.run(vec![memset_ops().into_iter()], None);
        let first_cycles = first.makespan().raw();
        rows.push(Fig4Row {
            size_mib,
            first_memset: first_cycles,
            second_memset: second.makespan().raw(),
            kernel_zeroing,
            zeroing_fraction: kernel_zeroing as f64 / first_cycles.max(1) as f64,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Figure 5: kernel shredding's share of main-memory writes during graph
// construction, under temporal / non-temporal / no zeroing.
// ---------------------------------------------------------------------

/// One application row of Fig. 5 (writes normalised to the unmodified
/// temporal-zeroing kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Fig. 5 x-axis label.
    pub app: &'static str,
    /// Relative writes with temporal kernel zeroing (1.0 by definition).
    pub unmodified: f64,
    /// Relative writes with non-temporal kernel zeroing.
    pub non_temporal: f64,
    /// Relative writes with zeroing disabled entirely.
    pub no_zeroing: f64,
}

/// Reproduces Fig. 5 over the eleven PowerGraph applications.
///
/// # Errors
///
/// Propagates run errors.
pub fn fig05(scale: ExperimentScale) -> Result<Vec<Fig5Row>> {
    let mut rows = Vec::new();
    for app in GraphApp::fig5_suite() {
        let w = scaled_graph(GraphWorkload::new(app), scale);
        let writes = |strategy: ZeroStrategy| -> Result<u64> {
            let cfg = SystemConfig::baseline().with_zero_strategy(strategy);
            Ok(run_workload(cfg, &w, scale)?.data_writes())
        };
        let temporal = writes(ZeroStrategy::Temporal)? as f64;
        let non_temporal = writes(ZeroStrategy::NonTemporal)? as f64;
        let none = writes(ZeroStrategy::None)? as f64;
        rows.push(Fig5Row {
            app: app.label(),
            unmodified: 1.0,
            non_temporal: non_temporal / temporal.max(1.0),
            no_zeroing: none / temporal.max(1.0),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Figures 8–11: write savings, read savings, read speedup, relative IPC.
// ---------------------------------------------------------------------

/// One benchmark row of Figs. 8–11.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Benchmark name as in the figures.
    pub name: String,
    /// Fraction of baseline main-memory writes eliminated (Fig. 8).
    pub write_savings: f64,
    /// Fraction of read traffic served by zero-fill (Fig. 9).
    pub read_savings: f64,
    /// Baseline mean read latency / shredder mean read latency (Fig. 10).
    pub read_speedup: f64,
    /// Shredder IPC / baseline IPC (Fig. 11).
    pub relative_ipc: f64,
}

/// Arithmetic means over rows (the "Average" bar of each figure).
pub fn average_row(rows: &[BenchRow]) -> BenchRow {
    let n = rows.len().max(1) as f64;
    BenchRow {
        name: "Average".into(),
        write_savings: rows.iter().map(|r| r.write_savings).sum::<f64>() / n,
        read_savings: rows.iter().map(|r| r.read_savings).sum::<f64>() / n,
        read_speedup: rows.iter().map(|r| r.read_speedup).sum::<f64>() / n,
        relative_ipc: rows.iter().map(|r| r.relative_ipc).sum::<f64>() / n,
    }
}

fn bench_row(name: &str, w: &dyn Workload, scale: ExperimentScale) -> Result<BenchRow> {
    let baseline = run_workload(SystemConfig::baseline(), w, scale)?;
    let shredder = run_workload(SystemConfig::silent_shredder(), w, scale)?;
    let write_savings = 1.0 - shredder.data_writes() as f64 / baseline.data_writes().max(1) as f64;
    let read_speedup = baseline.mean_read_latency() / shredder.mean_read_latency().max(1.0);
    Ok(BenchRow {
        name: name.to_string(),
        write_savings,
        read_savings: shredder.read_traffic_savings(),
        read_speedup,
        relative_ipc: shredder.ipc() / baseline.ipc().max(f64::MIN_POSITIVE),
    })
}

/// Reproduces Figs. 8–11: 26 SPEC models plus the three PowerGraph apps,
/// each run on the baseline and on Silent Shredder.
///
/// # Errors
///
/// Propagates run errors.
pub fn fig08_to_11(scale: ExperimentScale) -> Result<Vec<BenchRow>> {
    let mut rows = Vec::new();
    let suite = match scale {
        ExperimentScale::Quick => spec_suite().into_iter().take(3).collect::<Vec<_>>(),
        ExperimentScale::Full => spec_suite(),
    };
    for spec in suite {
        let w = scaled_spec(spec, scale);
        rows.push(bench_row(w.name(), &w, scale)?);
    }
    for app in GraphApp::fig8_suite() {
        let w = scaled_graph(GraphWorkload::new(app), scale);
        rows.push(bench_row(&w.name().to_uppercase(), &w, scale)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Figure 12: counter-cache (IV cache) size vs miss rate.
// ---------------------------------------------------------------------

/// One size point of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Counter-cache capacity in bytes.
    pub size_bytes: usize,
    /// Observed counter-cache miss rate.
    pub miss_rate: f64,
}

/// Reproduces Fig. 12: sweep the counter-cache capacity under a
/// multiprogrammed memory-hungry mix. The paper sweeps 32 KiB–32 MiB
/// against 16 GiB of memory and finds the knee at 4 MiB; at our scaled
/// footprint the knee lands at the proportionally scaled capacity
/// (1/64 of the counter working set — see EXPERIMENTS.md).
///
/// # Errors
///
/// Propagates run errors.
pub fn fig12(scale: ExperimentScale) -> Result<Vec<Fig12Row>> {
    let sizes: Vec<usize> = match scale {
        ExperimentScale::Quick => vec![4 << 10, 16 << 10, 64 << 10],
        ExperimentScale::Full => vec![
            8 << 10,
            16 << 10,
            32 << 10,
            64 << 10,
            128 << 10,
            256 << 10,
            512 << 10,
            1 << 20,
            2 << 20,
        ],
    };
    // A large-footprint benchmark (MCF) exercises many counter blocks.
    let w = {
        let mut w = spec_suite()
            .into_iter()
            .find(|w| w.name() == "MCF")
            .expect("MCF in suite");
        w.pages = match scale {
            ExperimentScale::Quick => 128,
            ExperimentScale::Full => 2048,
        };
        w
    };
    let mut rows = Vec::new();
    for size in sizes {
        let mut cfg = scale.apply(SystemConfig::silent_shredder());
        cfg.controller.counter_cache_bytes = size;
        let cores = cfg.cores();
        let mut system = System::new(cfg)?;
        system.age_free_frames();
        let mut streams = Vec::new();
        for core in 0..cores {
            let pid = system.spawn_process(core)?;
            let heap = system.sys_alloc(pid, w.footprint_bytes())?;
            streams.push(w.trace(heap).into_iter());
        }
        system.run(streams, None);
        rows.push(Fig12Row {
            size_bytes: size,
            miss_rate: system
                .hardware()
                .controller
                .inspect()
                .counter_cache_stats()
                .miss_rate(),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Table 2: measured feature matrix of initialization mechanisms.
// ---------------------------------------------------------------------

/// One mechanism row of Table 2, with the measurements behind each tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// L1 evictions per shredded page attributable to the mechanism
    /// (pollution metric; ≈0 for cache-bypassing mechanisms).
    pub pollution_evictions_per_page: f64,
    /// Kernel cycles per shredded page.
    pub cpu_cycles_per_page: f64,
    /// Mean latency (cycles) of the first read of a shredded page.
    pub fresh_read_latency: f64,
    /// NVM data writes per shredded page caused by the mechanism.
    pub mem_writes_per_page: f64,
    /// NVM bus transfers per shredded page caused by the mechanism.
    pub bus_writes_per_page: f64,
    /// Whether the shredded state survives a crash right after shredding.
    pub persistent: bool,
}

impl Table2Row {
    /// The paper's six feature columns, derived from the measurements.
    pub fn features(&self) -> [bool; 6] {
        [
            self.pollution_evictions_per_page < 1.0, // no cache pollution
            self.cpu_cycles_per_page < 150.0,        // low processor time
            self.fresh_read_latency < 100.0,         // fast to read
            self.mem_writes_per_page < 1.0,          // no memory writes
            self.persistent,                         // persistent
            self.bus_writes_per_page < 1.0,          // no memory bus writes
        ]
    }
}

/// Reproduces Table 2 by *measuring* each mechanism on the simulator
/// rather than asserting the paper's ticks.
///
/// # Errors
///
/// Propagates run errors.
pub fn table2(scale: ExperimentScale) -> Result<Vec<Table2Row>> {
    let pages: u64 = match scale {
        ExperimentScale::Quick => 16,
        ExperimentScale::Full => 128,
    };
    let mechanisms: [(&'static str, ZeroStrategy); 5] = [
        ("Non-temporal stores", ZeroStrategy::NonTemporal),
        ("Temporal stores", ZeroStrategy::Temporal),
        ("DMA bulk zeroing engine", ZeroStrategy::DmaEngine),
        ("RowClone-style in-memory", ZeroStrategy::RowClone),
        ("Silent Shredder", ZeroStrategy::ShredCommand),
    ];
    let mut rows = Vec::new();
    for (name, strategy) in mechanisms {
        rows.push(measure_mechanism(name, strategy, pages, scale)?);
    }
    Ok(rows)
}

fn measure_mechanism(
    name: &'static str,
    strategy: ZeroStrategy,
    pages: u64,
    scale: ExperimentScale,
) -> Result<Table2Row> {
    // The controller always has the shredder available so every strategy
    // is legal; only the kernel's clear_page differs.
    let mut cfg = scale.apply(SystemConfig::silent_shredder().with_zero_strategy(strategy));
    cfg.hierarchy.cores = 1;
    let bytes = pages * PAGE_SIZE as u64;

    // --- Phase 1: a previous owner dirties the frames with a secret. ---
    let mut system = System::new(cfg)?;
    let owner = system.spawn_process(0)?;
    let secret_heap = system.sys_alloc(owner, bytes)?;
    let dirty_ops: Vec<Op> = (0..pages)
        .flat_map(|p| (0..4u64).map(move |l| Op::StoreLine(secret_heap.add(p * 4096 + l * 64))))
        .collect();
    system.run(vec![dirty_ops.into_iter()], None);
    system.drain_caches();
    system.exit_process_on(0)?;
    system.reset_stats();

    // --- Phase 2: reallocation triggers the mechanism per page. ---
    let l1_evictions_before = system
        .hardware()
        .level_stats(ss_cache::Level::L1)
        .cache
        .evictions
        .get();
    let bus_before = system
        .hardware()
        .controller
        .inspect()
        .stats()
        .bus_transfers
        .get();
    let reads_before = system
        .hardware()
        .controller
        .inspect()
        .stats()
        .mem
        .reads
        .get()
        + system
            .hardware()
            .controller
            .inspect()
            .stats()
            .mem
            .counter_reads
            .get();
    let writes_before = system
        .hardware()
        .controller
        .inspect()
        .nvm_stats()
        .writes
        .get();
    let pid = system.spawn_process(0)?;
    let heap = system.sys_alloc(pid, bytes)?;
    // Touch one line per page: the fault handler runs the mechanism.
    let touch: Vec<Op> = (0..pages).map(|p| Op::Store(heap.add(p * 4096))).collect();
    system.run(vec![touch.into_iter()], None);
    let zeroing_cycles = system.kernel().stats().zeroing_cycles.raw();
    let shredded = system.kernel().stats().pages_shredded.get().max(1);
    let l1_evictions = system
        .hardware()
        .level_stats(ss_cache::Level::L1)
        .cache
        .evictions
        .get()
        - l1_evictions_before;

    // --- Fresh-read latency: read untouched lines of the most recently
    // shredded pages (right after zeroing, where temporal zeroing's
    // cached zeros still help — the paper's "fast to read" column).
    // Measured before draining so cache state is as the mechanism left
    // it. ---
    let recent = 16.min(pages);
    // Let the posted zeroing writes drain off the channels first (idle
    // compute); the latency of interest is the read path itself, not the
    // queue backlog behind the mechanism's writes.
    let reads: Vec<Op> = std::iter::once(Op::Compute(1_000_000))
        .chain((0..recent).map(|i| Op::Load(heap.add((pages - 1 - i) * 4096 + 32 * 64))))
        .collect();
    let read_summary = system.run(vec![reads.into_iter()], None);
    let fresh_read_latency = read_summary.mean_load_latency();

    // Count the mechanism's deferred writes too (temporal zeroing leaves
    // them in the caches — the paper's "indirect" memory writes).
    system.drain_caches();
    // Writes caused by the mechanism = device writes during this phase
    // minus the RFO/app traffic (measured against the None strategy this
    // would be differential; the one partial store per page is ~1 write).
    let mem_writes = system
        .hardware()
        .controller
        .inspect()
        .nvm_stats()
        .writes
        .get()
        .saturating_sub(writes_before);
    // Bus *writes*: scheduled transfers minus the read transfers (reads
    // are also bus traffic but belong to the fresh-read probe).
    let reads_after = system
        .hardware()
        .controller
        .inspect()
        .stats()
        .mem
        .reads
        .get()
        + system
            .hardware()
            .controller
            .inspect()
            .stats()
            .mem
            .counter_reads
            .get();
    let bus_writes = system
        .hardware()
        .controller
        .inspect()
        .stats()
        .bus_transfers
        .get()
        .saturating_sub(bus_before)
        .saturating_sub(reads_after - reads_before);

    // --- Persistence: crash immediately after shredding a dirty frame. ---
    let persistent = measure_persistence(strategy, scale)?;

    Ok(Table2Row {
        mechanism: name,
        pollution_evictions_per_page: l1_evictions as f64 / shredded as f64,
        cpu_cycles_per_page: zeroing_cycles as f64 / shredded as f64,
        fresh_read_latency,
        mem_writes_per_page: mem_writes.saturating_sub(pages) as f64 / shredded as f64,
        bus_writes_per_page: bus_writes.saturating_sub(2 * pages) as f64 / shredded as f64,
        persistent,
    })
}

fn measure_persistence(strategy: ZeroStrategy, scale: ExperimentScale) -> Result<bool> {
    let mut cfg = scale.apply(SystemConfig::silent_shredder().with_zero_strategy(strategy));
    cfg.hierarchy.cores = 1;
    let mut system = System::new(cfg)?;
    // Owner writes a secret and pushes it to NVM.
    let owner = system.spawn_process(0)?;
    let heap = system.sys_alloc(owner, PAGE_SIZE as u64)?;
    system.run(vec![vec![Op::StoreLine(heap)].into_iter()], None);
    system.drain_caches();
    // Find the frame and remember its pre-shred plaintext.
    let pa = match system.kernel().translate(owner, heap, false)? {
        ss_os::page_table::Translation::Ok(pa) => pa,
        other => panic!("expected mapping, got {other:?}"),
    };
    let frame = pa.page();
    let secret = system
        .hardware_mut()
        .controller
        .faults()
        .peek_plaintext(pa.block())?;
    assert_ne!(secret, [0u8; 64], "secret never reached NVM");
    system.exit_process_on(0)?;
    // Reallocate: the mechanism shreds the frame.
    let pid = system.spawn_process(0)?;
    let heap2 = system.sys_alloc(pid, PAGE_SIZE as u64)?;
    // A store triggers the store fault → frame allocation → shred.
    system.run(vec![vec![Op::Store(heap2.add(64))].into_iter()], None);
    // CRASH: caches vanish, controller handles power loss per its
    // persistence mode (battery-backed by default).
    system.crash()?;
    // After restart, does the frame still decrypt to the secret?
    let post = system
        .hardware_mut()
        .controller
        .faults()
        .peek_plaintext(frame.block_addr(0))?;
    Ok(post != secret)
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4).
// ---------------------------------------------------------------------

/// One row of the shred-strategy ablation (§4.2's three options).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Page re-encryptions triggered.
    pub reencryptions: u64,
    /// NVM data writes.
    pub writes: u64,
    /// Whether a fresh read of a shredded page returns zeros (software
    /// compatibility, the glibc-rtld requirement of §4.2).
    pub reads_zero: bool,
}

/// Compares the three §4.2 shred-strategy options under heavy page reuse.
///
/// # Errors
///
/// Propagates controller errors.
pub fn ablation_counter_strategy() -> Result<Vec<StrategyRow>> {
    let strategies = [
        ("minor-increment-all", ShredStrategy::MinorIncrementAll),
        ("major-bump-only", ShredStrategy::MajorBumpOnly),
        (
            "major-bump-reset-minors",
            ShredStrategy::MajorBumpResetMinors,
        ),
    ];
    let mut rows = Vec::new();
    for (name, strategy) in strategies {
        let mut mc = ss_core::MemoryController::new(
            ControllerConfigBuilder::small_test()
                .shred_strategy(strategy)
                .build()?,
        )?;
        let page = PageId::new(1);
        // Write the page once, then shred it 200 times (the VM-churn
        // pattern): option 1 overflows its 7-bit minors repeatedly.
        for b in 0..4 {
            mc.write_block(page.block_addr(b), &[7; 64], false, Cycles::ZERO)?;
        }
        for _ in 0..200 {
            mc.shred_page_at(page, true, Cycles::ZERO)?;
        }
        let read = mc.read_block(page.block_addr(0), Cycles::ZERO)?;
        rows.push(StrategyRow {
            strategy: name,
            reencryptions: mc.inspect().stats().reencryptions.get(),
            writes: mc.inspect().stats().mem.writes.get(),
            reads_zero: read.data == [0u8; 64],
        });
    }
    Ok(rows)
}

/// One row of the DCW / Flip-N-Write ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct DcwRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Mean memory-cell programmings (bit flips) per line write.
    pub bits_per_write: f64,
}

/// Reproduces Young et al.'s observation (§1, §8) that encryption's
/// diffusion defeats DCW and Flip-N-Write, and that DEUCE-style partial
/// re-encryption restores much of the benefit.
///
/// # Errors
///
/// Propagates device/controller errors.
pub fn ablation_dcw_fnw() -> Result<Vec<DcwRow>> {
    let mut rows = Vec::new();
    let writes_per_addr = 32u64;
    let addrs = 64u64;

    // Raw device-level comparison: plaintext-like updates (few bits
    // change per write) vs encrypted updates (≈50% of bits change).
    for (scenario, scheme, encrypted) in [
        ("plaintext + DCW", WriteScheme::Dcw, false),
        ("plaintext + FNW", WriteScheme::FlipNWrite, false),
        ("encrypted + DCW", WriteScheme::Dcw, true),
        ("encrypted + FNW", WriteScheme::FlipNWrite, true),
    ] {
        let mut nvm = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            write_scheme: scheme,
            ..NvmConfig::default()
        });
        let engine = ss_crypto::CtrEngine::new([9; 16]);
        let mut rng = ss_common::DetRng::new(1234);
        for a in 0..addrs {
            let addr = ss_common::BlockAddr::new(a * 64);
            let mut plain = [0u8; LINE_SIZE];
            for minor in 1..=writes_per_addr as u8 {
                // A plaintext-like update: flip a couple of bytes.
                plain[(rng.below(64)) as usize] = rng.next_u64() as u8;
                let line = if encrypted {
                    let iv = ss_crypto::Iv::new(a, 0, 1, minor.min(127));
                    engine.encrypt_line(&iv, &plain)
                } else {
                    plain
                };
                nvm.write_line(addr, &line)?;
            }
        }
        let stats = nvm.stats();
        rows.push(DcwRow {
            scenario,
            bits_per_write: stats.bits_written as f64 / stats.writes.get() as f64,
        });
    }

    // DEUCE on an encrypted controller: unmodified chunks keep identical
    // ciphertext, so flips drop. DEUCE's benefit case is the common
    // *hot-word* pattern (repeated writes to the same words of a line),
    // so the update stream mutates bytes of chunk 0 only.
    for (scenario, deuce) in [
        ("CTR controller + DCW", false),
        ("DEUCE controller + DCW", true),
    ] {
        let mut mc = ss_core::MemoryController::new(
            ControllerConfigBuilder::small_test().deuce(deuce).build()?,
        )?;
        // Note: the controller's NVM uses the Raw scheme; we measure
        // ciphertext diffusion directly instead.
        let mut rng = ss_common::DetRng::new(99);
        let mut total_flips = 0u64;
        let mut writes = 0u64;
        for a in 0..addrs {
            let page = PageId::new(a / 64 + 1);
            let addr = page.block_addr((a % 64) as usize);
            let mut plain = [0u8; LINE_SIZE];
            mc.write_block(addr, &plain, false, Cycles::ZERO)?;
            let mut prev = mc.faults().nvm_peek(NvmTarget::Data(addr));
            for _ in 0..writes_per_addr {
                plain[(rng.below(16)) as usize] = rng.next_u64() as u8;
                mc.write_block(addr, &plain, false, Cycles::ZERO)?;
                let cur = mc.faults().nvm_peek(NvmTarget::Data(addr));
                total_flips += u64::from(ss_nvm::device::line_diff_bits(&prev, &cur));
                prev = cur;
                writes += 1;
            }
        }
        rows.push(DcwRow {
            scenario,
            bits_per_write: total_flips as f64 / writes as f64,
        });
    }
    Ok(rows)
}

/// One row of the counter-persistence ablation (§7.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistenceRow {
    /// Counter-cache persistence mode.
    pub mode: &'static str,
    /// Counter-block NVM writes per shred command.
    pub counter_writes_per_shred: f64,
    /// Whether data survives a crash immediately after shredding.
    pub crash_safe: bool,
}

/// Compares counter-persistence modes under heavy shredding: the paper
/// notes a write-through counter cache costs one 64 B counter write per
/// 4 KiB page shredded — still 64× cheaper than zeroing — while
/// battery-backed write-back batches them.
///
/// # Errors
///
/// Propagates controller errors.
pub fn ablation_counter_persistence() -> Result<Vec<PersistenceRow>> {
    use ss_core::CounterPersistence;
    let modes = [
        (
            "battery-backed write-back",
            CounterPersistence::BatteryBackedWriteBack,
        ),
        ("write-through", CounterPersistence::WriteThrough),
        (
            "volatile write-back (unsafe)",
            CounterPersistence::VolatileWriteBack,
        ),
    ];
    let shreds = 256u64;
    let mut rows = Vec::new();
    for (mode, persistence) in modes {
        let mut mc = ss_core::MemoryController::new(
            ControllerConfigBuilder::small_test()
                .counter_persistence(persistence)
                .build()?,
        )?;
        // Shred many distinct pages (VM-churn pattern); counters change
        // on every shred even for already-shredded pages (major bump).
        for p in 0..shreds {
            mc.shred_page_at(PageId::new(p % 200), true, Cycles::ZERO)?;
        }
        let counter_writes = mc.inspect().stats().mem.counter_writes.get();
        // Crash safety: after power loss, is the state recoverable?
        mc.power_loss()?;
        let crash_safe = mc.recover_mut().is_ok();
        rows.push(PersistenceRow {
            mode,
            counter_writes_per_shred: counter_writes as f64 / shreds as f64,
            crash_safe,
        });
    }
    Ok(rows)
}

/// One row of the wear-levelling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct WearLevelRow {
    /// Configuration name.
    pub config: &'static str,
    /// Total device line writes (including gap-movement copies).
    pub device_writes: u64,
    /// Writes endured by the most-worn device line.
    pub max_line_wear: u64,
}

/// Start-Gap wear levelling \[30\] under a hot-line workload: the same
/// skewed write stream with and without rotation. Silent Shredder
/// composes with this (§8): fewer writes mean slower rotation at equal
/// levelling.
///
/// # Errors
///
/// Propagates controller errors.
pub fn ablation_wear_leveling() -> Result<Vec<WearLevelRow>> {
    let mut rows = Vec::new();
    for (config, wear_leveling) in [("no wear levelling", false), ("start-gap", true)] {
        let mut mc = ss_core::MemoryController::new(
            ControllerConfigBuilder::new()
                .data_capacity(32 << 10) // 512 lines: rotations complete fast
                .counter_cache_bytes(16 << 10)
                .wear_leveling(wear_leveling)
                .build()?,
        )?;
        let mut rng = ss_common::DetRng::new(17);
        // Zipf-skewed writes over 8 pages: a few lines take most writes.
        for i in 0..4000u64 {
            let page = PageId::new(rng.zipf(8, 1.4));
            let block = rng.zipf(64, 1.4) as usize;
            mc.write_block(page.block_addr(block), &[i as u8; 64], false, Cycles::ZERO)?;
        }
        rows.push(WearLevelRow {
            config,
            device_writes: mc.inspect().nvm_stats().writes.get(),
            max_line_wear: mc.inspect().nvm_max_wear().map(|(_, n)| n).unwrap_or(0),
        });
    }
    Ok(rows)
}

/// One row of the self-healing ablation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfHealRow {
    /// Configuration name.
    pub config: &'static str,
    /// Reads served after inline ECC correction.
    pub corrected: u64,
    /// Reads that needed the retry/backoff path and then succeeded.
    pub retried_ok: u64,
    /// Lines rescued into the spare pool under a fresh IV.
    pub remaps: u64,
    /// Lines quarantined (uncorrectable and unrescuable).
    pub quarantined: u64,
    /// Lines proactively healed by the background scrubber.
    pub scrub_heals: u64,
}

/// The self-healing path (DESIGN.md "Error model & recovery path") under
/// a hot-line workload: aggressive wear-out with and without the
/// background scrubber, and a soft-error (transient BER) sweep. The
/// scrubber catches single weak cells on idle cycles and rescues them
/// before they accumulate past the ECC correction bound, so it should
/// convert would-be quarantines into remaps.
///
/// # Errors
///
/// Propagates controller errors.
pub fn ablation_self_healing() -> Result<Vec<SelfHealRow>> {
    let cases: [(&'static str, Option<u64>, Option<u64>, f64); 3] = [
        ("wear-out, demand heal only", Some(24), None, 0.0),
        ("wear-out + scrubber", Some(24), Some(1), 0.0),
        ("soft errors (BER 1e-4)", None, None, 1e-4),
    ];
    let mut rows = Vec::new();
    for (config, endurance_limit, scrub_interval, transient_read_ber) in cases {
        let mut mc = ss_core::MemoryController::new(
            ControllerConfigBuilder::new()
                .data_capacity(32 << 10) // 512 lines: hot lines wear out fast
                .counter_cache_bytes(16 << 10)
                .endurance_limit(endurance_limit)
                .scrub_interval(scrub_interval)
                .transient_read_ber(transient_read_ber)
                .spare_lines(256)
                .nvm_fault_seed(7)
                .build()?,
        )?;
        let mut rng = ss_common::DetRng::new(23);
        // Zipf-skewed, write-heavy traffic (7 writes : 1 read) over 8
        // pages: demand reads are too rare to catch wear early, which is
        // exactly the gap the scrubber covers. Reads of quarantined
        // lines fail loudly by design; the ablation only tallies how
        // often each healing tier fired.
        for i in 0..6000u64 {
            let page = PageId::new(rng.zipf(8, 1.4));
            let block = rng.zipf(64, 1.4) as usize;
            let addr = page.block_addr(block);
            if i % 8 == 7 {
                let _ = mc.read_block(addr, Cycles::ZERO);
            } else {
                let _ = mc.write_block(addr, &[i as u8; 64], false, Cycles::ZERO);
            }
        }
        let h = &mc.inspect().stats().health;
        rows.push(SelfHealRow {
            config,
            corrected: h.ecc_corrected.get(),
            retried_ok: h.retried_ok.get(),
            remaps: h.remaps.get(),
            quarantined: h.quarantined.get(),
            scrub_heals: h.scrub_heals.get(),
        });
    }
    Ok(rows)
}

/// One point of the load sweep (§6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRow {
    /// Runnable processes per core.
    pub load: f64,
    /// Baseline aggregate instructions per cycle.
    pub baseline_ipc: f64,
    /// Silent Shredder aggregate IPC.
    pub shredder_ipc: f64,
}

impl LoadRow {
    /// Relative IPC at this load point.
    pub fn relative_ipc(&self) -> f64 {
        self.shredder_ipc / self.baseline_ipc.max(f64::MIN_POSITIVE)
    }
}

/// §6.1: "a highly loaded system will suffer from a high rate of page
/// faults, and page fault latency is critical in this situation" — so
/// Silent Shredder's advantage should grow with load. Load is modelled
/// as *generations* of time-shared processes churning through the same
/// frames: the first generation touches fresh NVM (nothing to shred),
/// every later one recycles dirty frames and pays full shredding.
///
/// # Errors
///
/// Propagates run errors.
pub fn ablation_load(scale: ExperimentScale) -> Result<Vec<LoadRow>> {
    use ss_cpu::Op;
    let loads: &[usize] = match scale {
        ExperimentScale::Quick => &[1, 2, 4],
        ExperimentScale::Full => &[1, 2, 4, 8],
    };
    let pages_per_job: u64 = 48;
    let mut rows = Vec::new();
    for &generations in loads {
        let mut ipc = [0.0f64; 2];
        for (i, shredder) in [false, true].into_iter().enumerate() {
            let cfg = scale.apply(if shredder {
                SystemConfig::silent_shredder()
            } else {
                SystemConfig::baseline()
            });
            let cores = cfg.cores();
            let mut sys = ss_sim::System::new(cfg)?;
            // NOT aged: generation 1 runs on fresh NVM; later generations
            // recycle the frames the previous one freed.
            let mut instructions = 0u64;
            let mut cycles = 0u64;
            for _ in 0..generations {
                let mut jobs = Vec::new();
                let mut pids = Vec::new();
                for _ in 0..2 * cores {
                    let pid = sys.kernel_create_process();
                    let heap = sys.sys_alloc(pid, pages_per_job * PAGE_SIZE as u64)?;
                    let ops: Vec<Op> = (0..pages_per_job)
                        .flat_map(|p| {
                            [
                                Op::StoreLine(heap.add(p * PAGE_SIZE as u64)),
                                Op::Compute(120),
                                Op::Load(heap.add(p * PAGE_SIZE as u64 + 2048)),
                                Op::Compute(120),
                            ]
                        })
                        .collect();
                    pids.push(pid);
                    jobs.push((pid, ops));
                }
                let summary = sys.run_timeshared(jobs);
                instructions += summary.total_instructions();
                cycles += summary.cores.iter().map(|c| c.cycles.raw()).sum::<u64>();
                for pid in pids {
                    sys.terminate_process(pid)?;
                }
            }
            ipc[i] = instructions as f64 / cycles.max(1) as f64;
        }
        rows.push(LoadRow {
            load: generations as f64,
            baseline_ipc: ipc[0],
            shredder_ipc: ipc[1],
        });
    }
    Ok(rows)
}

/// One row of the DRAM-vs-NVM motivation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaRow {
    /// Memory technology.
    pub media: &'static str,
    /// Cycles to zero one 4 KiB page with non-temporal stores + fence.
    pub zero_page_cycles: u64,
    /// Device energy for the zeroing, exact whole picojoules.
    pub energy_pj: u64,
    /// Whether the old data would survive a power-off (remanence).
    pub remanent: bool,
}

/// The paper's §1/§3 motivation: zeroing that is merely "costly" on DRAM
/// is "multiple times more costly" on NVM — and only NVM leaks the old
/// data if zeroing is skipped.
///
/// # Errors
///
/// Propagates device errors.
pub fn ablation_dram_vs_nvm() -> Result<Vec<MediaRow>> {
    use ss_nvm::{NvmConfig, NvmDevice};
    let mut rows = Vec::new();
    for media in ["DRAM", "NVM (PCM-like)"] {
        let config = if media == "DRAM" {
            NvmDevice::dram_config(1 << 20)
        } else {
            NvmConfig {
                capacity_bytes: 1 << 20,
                ..NvmConfig::default()
            }
        };
        let timing = config.timing;
        let mut device = NvmDevice::new(config);
        let mut channels = ss_core::ChannelSched::new(&timing);
        // Previous owner's data.
        let page = PageId::new(4);
        for addr in page.blocks() {
            device.write_line(addr, &[0x5E; LINE_SIZE])?;
        }
        device.reset_stats();
        // Zero the page: 64 non-temporal stores, then wait for the drain.
        let mut issue = Cycles::ZERO;
        for addr in page.blocks() {
            channels.schedule(issue, timing.write_cycles());
            device.write_line(addr, &[0u8; LINE_SIZE])?;
            issue += Cycles::new(1);
        }
        let done = channels.all_idle_at().max(issue + timing.write_cycles());
        let energy = device.stats().energy_pj;
        // Remanence check: skip zeroing on a second page and power off.
        let secret_page = PageId::new(8);
        device.write_line(secret_page.block_addr(0), &[0xAA; LINE_SIZE])?;
        device.power_cycle();
        let remanent = device.peek(secret_page.block_addr(0)) == [0xAA; LINE_SIZE];
        rows.push(MediaRow {
            media,
            zero_page_cycles: done.raw(),
            energy_pj: energy,
            remanent,
        });
    }
    Ok(rows)
}

/// One row of the write-queue ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteQueueRow {
    /// Configuration name.
    pub config: &'static str,
    /// Mean demand-read latency at the controller (cycles).
    pub mean_read_latency: f64,
}

/// Quantifies the read-priority write queue: zeroing bursts steal read
/// bandwidth when writes hit the bus immediately; buffering them behind
/// reads softens the blow — and Silent Shredder removes the burst
/// entirely, which is worth more than any queue.
///
/// # Errors
///
/// Propagates run errors.
pub fn ablation_write_queue(scale: ExperimentScale) -> Result<Vec<WriteQueueRow>> {
    let w = scaled_spec(
        spec_suite()
            .into_iter()
            .find(|w| w.name() == "MCF")
            .expect("MCF in suite"),
        scale,
    );
    let mut rows = Vec::new();
    let wq = ss_core::WriteQueueConfig::default();
    let configs: [(&'static str, SystemConfig); 3] = [
        ("baseline, no write queue", SystemConfig::baseline()),
        ("baseline + write queue", {
            let mut c = SystemConfig::baseline();
            c.controller.write_queue = Some(wq);
            c
        }),
        ("silent shredder, no queue", SystemConfig::silent_shredder()),
    ];
    for (name, cfg) in configs {
        let report = run_workload(cfg, &w, scale)?;
        rows.push(WriteQueueRow {
            config: name,
            mean_read_latency: report.mean_read_latency(),
        });
    }
    Ok(rows)
}

/// One row of the endurance ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceRow {
    /// Configuration name.
    pub config: &'static str,
    /// Total NVM line writes.
    pub nvm_writes: u64,
    /// Writes endured by the most-worn line.
    pub max_line_wear: u64,
    /// NVM array energy consumed, microjoules.
    pub energy_uj: f64,
}

/// Quantifies lifetime improvement: the same workload's device wear
/// under the baseline vs Silent Shredder.
///
/// # Errors
///
/// Propagates run errors.
pub fn ablation_endurance(scale: ExperimentScale) -> Result<Vec<EnduranceRow>> {
    let w = scaled_spec(
        spec_suite()
            .into_iter()
            .find(|w| w.name() == "DEAL")
            .expect("DEAL in suite"),
        scale,
    );
    let baseline = run_workload(SystemConfig::baseline(), &w, scale)?;
    let shredder = run_workload(SystemConfig::silent_shredder(), &w, scale)?;
    Ok(vec![
        EnduranceRow {
            config: "baseline (non-temporal zeroing)",
            nvm_writes: baseline.nvm_writes,
            max_line_wear: baseline.max_line_wear,
            energy_uj: baseline.nvm_energy_pj as f64 / 1e6,
        },
        EnduranceRow {
            config: "silent shredder",
            nvm_writes: shredder.nvm_writes,
            max_line_wear: shredder.max_line_wear,
            energy_uj: shredder.nvm_energy_pj as f64 / 1e6,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_quick_shape() {
        let rows = fig04(ExperimentScale::Quick).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.first_memset > r.second_memset, "{r:?}");
            assert!(
                r.zeroing_fraction > 0.05 && r.zeroing_fraction < 0.9,
                "{r:?}"
            );
        }
    }

    #[test]
    fn ablation_counter_strategy_shape() {
        let rows = ablation_counter_strategy().unwrap();
        assert_eq!(rows.len(), 3);
        let minor = &rows[0];
        let major_only = &rows[1];
        let chosen = &rows[2];
        // Option 1 re-encrypts often; the others never.
        assert!(minor.reencryptions > 0);
        assert_eq!(major_only.reencryptions, 0);
        assert_eq!(chosen.reencryptions, 0);
        // Only the chosen option restores read-as-zero semantics.
        assert!(chosen.reads_zero);
        assert!(!major_only.reads_zero);
    }

    #[test]
    fn ablation_self_healing_shape() {
        let rows = ablation_self_healing().unwrap();
        assert_eq!(rows.len(), 3);
        let (demand, scrubbed, soft) = (&rows[0], &rows[1], &rows[2]);
        // Wear-out cases heal by correction + remap; the scrubber heals
        // proactively and keeps every line inside the correction bound.
        assert!(demand.remaps > 0 && demand.corrected > 0);
        assert_eq!(scrubbed.quarantined, 0, "{scrubbed:?}");
        assert!(scrubbed.scrub_heals > 0);
        assert!(scrubbed.quarantined <= demand.quarantined);
        // The soft-error case never wears out lines: retries, no remaps.
        assert!(soft.retried_ok > 0);
        assert_eq!(soft.remaps, 0);
        assert_eq!(soft.quarantined, 0);
    }

    #[test]
    fn ablation_dram_vs_nvm_shape() {
        let rows = ablation_dram_vs_nvm().unwrap();
        assert_eq!(rows.len(), 2);
        let (dram, nvm) = (&rows[0], &rows[1]);
        assert!(nvm.zero_page_cycles > dram.zero_page_cycles);
        assert!(
            nvm.energy_pj > 3 * dram.energy_pj,
            "NVM zeroing should cost much more energy"
        );
        assert!(!dram.remanent, "DRAM should forget");
        assert!(nvm.remanent, "NVM should remember (the vulnerability)");
    }

    #[test]
    fn ablation_wear_leveling_shape() {
        let rows = ablation_wear_leveling().unwrap();
        assert_eq!(rows.len(), 2);
        let (off, on) = (&rows[0], &rows[1]);
        // Start-Gap pays extra copies but flattens the wear peak.
        assert!(on.device_writes > off.device_writes);
        assert!(
            on.max_line_wear * 2 < off.max_line_wear,
            "levelling ineffective: {} vs {}",
            on.max_line_wear,
            off.max_line_wear
        );
    }

    #[test]
    fn ablation_dcw_shape() {
        let rows = ablation_dcw_fnw().unwrap();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.scenario == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .bits_per_write
        };
        // Diffusion: encrypted updates flip far more cells than
        // plaintext updates under DCW.
        assert!(get("encrypted + DCW") > 5.0 * get("plaintext + DCW"));
        // FNW bounds encrypted flips below plain DCW.
        assert!(get("encrypted + FNW") <= get("encrypted + DCW"));
        // DEUCE restores locality: fewer flips than full re-encryption.
        assert!(get("DEUCE controller + DCW") < 0.6 * get("CTR controller + DCW"));
    }
}
