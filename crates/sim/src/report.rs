//! Metric extraction: everything the paper's figures are made of.

use ss_common::MemStats;
use ss_cpu::RunSummary;

use crate::system::System;

/// The measurements of one workload run on one configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-core execution summary (IPC, latencies).
    pub summary: RunSummary,
    /// Memory-controller traffic.
    pub mem: MemStats,
    /// Shred commands executed.
    pub shreds: u64,
    /// NVM energy consumed, exact whole picojoules.
    pub nvm_energy_pj: u64,
    /// Most-worn-line write count (endurance proxy).
    pub max_line_wear: u64,
    /// Total NVM line writes at the device.
    pub nvm_writes: u64,
}

impl RunReport {
    /// Collects a report after a run.
    pub fn collect(system: &System, summary: RunSummary) -> Self {
        let hw = system.hardware();
        let insp = hw.controller.inspect();
        let cstats = insp.stats();
        let nvm = insp.nvm_stats();
        RunReport {
            summary,
            mem: cstats.mem,
            shreds: cstats.shreds.get(),
            nvm_energy_pj: nvm.energy_pj,
            max_line_wear: insp.nvm_max_wear().map(|(_, n)| n).unwrap_or(0),
            nvm_writes: nvm.writes.get(),
        }
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
    use crate::SystemConfig;

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
