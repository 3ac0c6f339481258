//! Metric extraction: everything the paper's figures are made of.

use ss_common::MemStats;
use ss_core::HealthStats;
use ss_cpu::RunSummary;
use ss_os::KernelStats;

use crate::system::System;

/// The measurements of one workload run on one configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-core execution summary (IPC, latencies).
    pub summary: RunSummary,
    /// Memory-controller traffic.
    pub mem: MemStats,
    /// Kernel-side counters.
    pub kernel: KernelStats,
    /// Shred commands executed.
    pub shreds: u64,
    /// Page re-encryptions (minor-counter overflow).
    pub reencryptions: u64,
    /// Counter-cache miss rate (Fig. 12's metric).
    pub counter_cache_miss_rate: f64,
    /// NVM energy consumed, exact whole picojoules.
    pub nvm_energy_pj: u64,
    /// Most-worn-line write count (endurance proxy).
    pub max_line_wear: u64,
    /// Total NVM line writes at the device.
    pub nvm_writes: u64,
    /// Aggregate TLB miss rate across cores.
    pub tlb_miss_rate: f64,
    /// Self-healing activity (ECC corrections, retries, remaps,
    /// quarantines, scrubbing) at the controller.
    pub health: HealthStats,
}

impl RunReport {
    /// Collects a report after a run.
    pub fn collect(system: &System, summary: RunSummary) -> Self {
        let hw = system.hardware();
        let insp = hw.controller.inspect();
        let cstats = insp.stats();
        let ccache = insp.counter_cache_stats();
        let nvm = insp.nvm_stats();
        let mut tlb_hits = 0u64;
        let mut tlb_misses = 0u64;
        for core in 0..system.config().cores() {
            let t = system.tlb_stats(core);
            tlb_hits += t.hits.get();
            tlb_misses += t.misses.get();
        }
        let tlb_total = tlb_hits + tlb_misses;
        RunReport {
            summary,
            mem: cstats.mem,
            kernel: system.kernel().stats().clone(),
            shreds: cstats.shreds.get(),
            reencryptions: cstats.reencryptions.get(),
            counter_cache_miss_rate: ccache.miss_rate(),
            nvm_energy_pj: nvm.energy_pj,
            max_line_wear: insp.nvm_max_wear().map(|(_, n)| n).unwrap_or(0),
            nvm_writes: nvm.writes.get(),
            tlb_miss_rate: if tlb_total == 0 {
                0.0
            } else {
                tlb_misses as f64 / tlb_total as f64
            },
            health: cstats.health.clone(),
        }
    }

    /// Total healing interventions: ECC corrections, successful
    /// retries, and bad-line remaps. Zero on a fault-free device.
    pub fn healing_events(&self) -> u64 {
        self.health.ecc_corrected.get() + self.health.retried_ok.get() + self.health.remaps.get()
    }

    /// Mean per-core IPC (Fig. 11's metric).
    pub fn ipc(&self) -> f64 {
        self.summary.mean_ipc()
    }

    /// Mean demand-read latency at the controller, cycles (Fig. 10).
    pub fn mean_read_latency(&self) -> f64 {
        self.mem.read_latency.mean()
    }

    /// Data writes that reached NVM (Fig. 8's denominator).
    pub fn data_writes(&self) -> u64 {
        self.mem.writes.get()
    }

    /// Demand reads that reached the array plus zero-filled reads: total
    /// read demand (Fig. 9's denominator).
    pub fn read_demand(&self) -> u64 {
        self.mem.reads.get() + self.mem.zero_fill_reads.get()
    }

    /// Fraction of read demand served without touching NVM (Fig. 9).
    pub fn read_traffic_savings(&self) -> f64 {
        let demand = self.read_demand();
        if demand == 0 {
            0.0
        } else {
            self.mem.zero_fill_reads.get() as f64 / demand as f64
        }
    }

    /// The headline metrics as ordered `(name, rendered value)` rows.
    ///
    /// The order is fixed by this function, never by a map, so any
    /// renderer iterating this surface emits byte-identical output for
    /// identical runs — the same stability contract as
    /// `faultsweep --json`.
    pub fn metric_rows(&self) -> Vec<(&'static str, String)> {
        vec![
            ("ipc", format!("{:.6}", self.ipc())),
            (
                "read_latency_cycles",
                format!("{:.3}", self.mean_read_latency()),
            ),
            ("data_writes", self.data_writes().to_string()),
            ("read_demand", self.read_demand().to_string()),
            (
                "zero_fill_reads",
                self.mem.zero_fill_reads.get().to_string(),
            ),
            (
                "read_traffic_savings",
                format!("{:.6}", self.read_traffic_savings()),
            ),
            ("shreds", self.shreds.to_string()),
            ("reencryptions", self.reencryptions.to_string()),
            (
                "counter_cache_miss_rate",
                format!("{:.6}", self.counter_cache_miss_rate),
            ),
            ("nvm_energy_pj", format!("{}", self.nvm_energy_pj)),
            ("max_line_wear", self.max_line_wear.to_string()),
            ("nvm_writes", self.nvm_writes.to_string()),
            ("tlb_miss_rate", format!("{:.6}", self.tlb_miss_rate)),
            ("healing_events", self.healing_events().to_string()),
        ]
    }
}

/// One row of the Table 1 configuration listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Parameter name.
    pub parameter: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// This reproduction's value.
    pub ours: String,
}

/// Produces the Table 1 comparison for a configuration.
pub fn table1(config: &crate::SystemConfig) -> Vec<Table1Row> {
    use ss_cache::hierarchy::LATENCIES;
    use ss_core::controller::{COUNTER_CACHE_LATENCY, COUNTER_CACHE_WAYS, NVM_TIMING};
    let h = &config.hierarchy;
    let c = &config.controller;
    let row = |parameter, paper, ours| Table1Row {
        parameter,
        paper,
        ours,
    };
    vec![
        row(
            "CPU",
            "8 cores x86-64, 2GHz",
            format!("{} cores (model), 2GHz", h.cores),
        ),
        row(
            "L1",
            "2 cycles, 64KB, 8-way, 64B",
            format!(
                "{} cycles, {}KB, {}-way",
                LATENCIES[0].raw(),
                h.l1_size >> 10,
                h.ways
            ),
        ),
        row(
            "L2",
            "8 cycles, 512KB, 8-way, 64B",
            format!(
                "{} cycles, {}KB, {}-way",
                LATENCIES[1].raw(),
                h.l2_size >> 10,
                h.ways
            ),
        ),
        row(
            "L3",
            "25 cycles, 8MB, 8-way, 64B",
            format!(
                "{} cycles, {}KB, {}-way",
                LATENCIES[2].raw(),
                h.l3_size >> 10,
                h.ways
            ),
        ),
        row(
            "L4",
            "35 cycles, 64MB, 8-way, 64B",
            format!(
                "{} cycles, {}KB, {}-way",
                LATENCIES[3].raw(),
                h.l4_size >> 10,
                h.ways
            ),
        ),
        row(
            "Coherency",
            "MESI",
            "MESI-style invalidate + forward".to_string(),
        ),
        row(
            "Memory capacity",
            "16 GB",
            format!("{} MB (scaled; see DESIGN.md)", c.data_capacity >> 20),
        ),
        row("Channels", "2 x 12.8 GB/s", {
            format!("{} x {} MB/s", NVM_TIMING.channels, NVM_TIMING.channel_mbps)
        }),
        row("Read latency", "75 ns", format!("{}", NVM_TIMING.read)),
        row("Write latency", "150 ns", format!("{}", NVM_TIMING.write)),
        row(
            "Counter cache",
            "10 cycles, 4MB, 8-way, 64B",
            format!(
                "{} cycles, {}KB, {}-way",
                COUNTER_CACHE_LATENCY.raw(),
                c.counter_cache_bytes >> 10,
                COUNTER_CACHE_WAYS
            ),
        ),
        row(
            "OS",
            "Gentoo, kernel 3.4.91",
            "simulated kernel (ss-os)".to_string(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{System, SystemConfig};

    #[test]
    fn metric_rows_are_ordered_and_byte_stable() {
        let run = || {
            let mut sys = System::new(SystemConfig::small_test(true)).unwrap();
            let pid = sys.spawn_process(0).unwrap();
            let buf = sys.sys_alloc(pid, 4 * 4096).unwrap();
            let ops: Vec<ss_cpu::Op> = (0..4u64)
                .map(|i| ss_cpu::Op::StoreLine(buf.add(i * 4096)))
                .collect();
            sys.run_report(vec![ops.into_iter()], None)
        };
        let a = run().metric_rows();
        let b = run().metric_rows();
        // Identical runs render identically, byte for byte.
        assert_eq!(a, b);
        // The row order is part of the report's contract.
        let names: Vec<&str> = a.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "ipc",
                "read_latency_cycles",
                "data_writes",
                "read_demand",
                "zero_fill_reads",
                "read_traffic_savings",
                "shreds",
                "reencryptions",
                "counter_cache_miss_rate",
                "nvm_energy_pj",
                "max_line_wear",
                "nvm_writes",
                "tlb_miss_rate",
                "healing_events",
            ]
        );
    }

    #[test]
    fn table1_has_all_rows() {
        let rows = table1(&SystemConfig::baseline());
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().any(|r| r.parameter == "Counter cache"));
        for r in &rows {
            assert!(!r.ours.is_empty());
        }
    }
}
