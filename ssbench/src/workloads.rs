//! The four workloads. Each rep builds its inputs from the seed, sets
//! up a fresh system or controller, runs the measured phase, checks the
//! outputs, and returns the simulated metrics. Only the program crates'
//! public APIs are used.

use ss_cache::Level;
use ss_common::{
    BlockAddr, Cycles, DetRng, PageId, VirtAddr, BLOCKS_PER_PAGE, LINE_SIZE, PAGE_SIZE,
};
use ss_core::{
    ControllerConfigBuilder, CounterPersistence, MemoryController, PersistDomain, ReadResult,
};
use ss_cpu::{Op, RunSummary};
use ss_sim::{System, SystemConfig};
use ss_trace::profile::Stage;
use ss_workloads::{GraphApp, GraphWorkload, MicroPattern, MicroWorkload, Workload as _};

use crate::metrics::{per_layer, Source, Values, CORE_COUNTS};
use crate::spans::{kinds_of, OpKind, PullClock, Pulled, Tracer};
use crate::stats::nearest_rank;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Graph construction on the full system, Silent Shredder vs baseline.
    GraphIngest,
    /// Steady-state random loads and stores on the full system.
    RandRw,
    /// Tenant write/read/shred churn straight at the controller.
    TenantChurn,
    /// The same churn under ADR, with power losses and recovery.
    PersistAdr,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GraphIngest,
        Workload::RandRw,
        Workload::TenantChurn,
        Workload::PersistAdr,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphIngest => "graph_ingest",
            Workload::RandRw => "rand_rw",
            Workload::TenantChurn => "tenant_churn",
            Workload::PersistAdr => "persist_adr",
        }
    }

    /// Why the benchmark runs it (one line, as in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GraphIngest => "every heap page is first-touched and shredded: OS fault, shred and zero-fill work dominate (Figs. 8-11, shredder vs baseline)",
            Workload::RandRw => "steady state with no faults, shreds or zero-fill: cache walks and AES-decrypted array reads; shred, OS and zero-fill changes must not move it",
            Workload::TenantChurn => "the controller alone: shred latency, zero-fill reads and counter-cache churn with cpu, cache and OS bypassed",
            Workload::PersistAdr => "the tenant churn under ADR with write-through counters, power losses and recovery: ordering-journal writes",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a rep is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny sizes for tests and quick checks.
    Smoke,
}

/// Controller-workload geometry: 16 MiB of data (4096 pages) and a
/// 64 KiB counter cache, a quarter of the counter working set.
const CTRL_DATA: u64 = 16 << 20;
const CTRL_COUNTER_CACHE: usize = 64 << 10;
const TENANT_PAGES: u64 = 64;
const LINES_PER_PAGE: usize = 8;

struct Sizes {
    cores: usize,
    shrink: usize,
    data_mib: u64,
    graph_nodes: u64,
    rand_pages: u64,
    rand_ops: usize,
    churn_rounds: u64,
    adr_rounds: u64,
    recover_every: u64,
}

impl Scale {
    fn sizes(self) -> Sizes {
        match self {
            // Table 1 caches shrunk 128x (a 512 KiB L4) over 128 MiB of
            // NVM, 8 simulated cores.
            Scale::Full => Sizes {
                cores: 8,
                shrink: 128,
                data_mib: 128,
                graph_nodes: 8192,
                rand_pages: 256,
                rand_ops: 25_000,
                churn_rounds: 250,
                adr_rounds: 80,
                recover_every: 40,
            },
            // A 32 KiB L4, so rand_rw's heaps still overflow it.
            Scale::Smoke => Sizes {
                cores: 2,
                shrink: 2048,
                data_mib: 16,
                graph_nodes: 256,
                rand_pages: 16,
                rand_ops: 2000,
                churn_rounds: 6,
                adr_rounds: 6,
                recover_every: 3,
            },
        }
    }
}

/// What one rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Operations in the measured phase: simulated loads and stores, or
    /// public controller calls.
    pub ops: u64,
    /// Failed checks plus `Err` returns.
    pub failed: u64,
    /// Every simulated metric, end-to-end and per-layer.
    pub sim: Values,
    /// The rep's spans — `setup` (`gen`, `new`, `prep`) and `measure` —
    /// and the chunk marks of `measure`.
    pub tracer: Tracer,
}

/// Failure bookkeeping: counts every failure, prints the first few.
#[derive(Debug, Default)]
struct Checks {
    failed: u64,
}

impl Checks {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        if self.failed < 5 {
            eprintln!("ssbench: check failed: {}", what());
        }
        self.failed += 1;
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what);
        }
    }
}

/// Runs one rep of `w`. `per_op` records the per-operation spans.
pub fn run_rep(w: Workload, seed: u64, scale: Scale, per_op: bool) -> Rep {
    let sizes = scale.sizes();
    let mut t = Tracer::new(per_op);
    let mut checks = Checks::default();
    let (ops, mut sim) = match w {
        Workload::GraphIngest => graph_ingest(seed, &sizes, &mut t, &mut checks),
        Workload::RandRw => rand_rw(seed, &sizes, &mut t, &mut checks),
        Workload::TenantChurn => churn(seed, &sizes, false, &mut t, &mut checks),
        Workload::PersistAdr => churn(seed, &sizes, true, &mut t, &mut checks),
    };
    // A layer the workload does not exercise reads 0.
    for d in per_layer().into_iter().filter(|d| d.source == Source::Sim) {
        sim.entry(d.name).or_insert(0.0);
    }
    Rep {
        ops,
        failed: checks.failed,
        sim,
        tracer: t,
    }
}

// ---------------------------------------------------------------------
// Full-system workloads
// ---------------------------------------------------------------------

fn boot(shredder: bool, sizes: &Sizes) -> System {
    let base = if shredder {
        SystemConfig::silent_shredder()
    } else {
        SystemConfig::baseline()
    };
    let mut cfg = base.scaled(sizes.shrink, sizes.data_mib);
    cfg.hierarchy.cores = sizes.cores;
    System::new(cfg).expect("benchmark system configuration is valid")
}

/// Spawns one process per core and reserves `bytes` of heap for each.
fn spawn_heaps(sys: &mut System, cores: usize, bytes: u64) -> Vec<VirtAddr> {
    (0..cores)
        .map(|core| {
            let pid = sys.spawn_process(core).expect("core in range");
            sys.sys_alloc(pid, bytes).expect("heap fits in memory")
        })
        .collect()
}

/// Per-core op streams, with their span kinds when tracing per op.
struct Streams {
    ops: Vec<Vec<Op>>,
    kinds: Option<Vec<Vec<OpKind>>>,
}

impl Streams {
    /// `pretouched`: the heaps were written before these streams run.
    fn new(ops: Vec<Vec<Op>>, per_op: bool, pretouched: bool) -> Self {
        let kinds = per_op.then(|| ops.iter().map(|s| kinds_of(s, pretouched)).collect());
        Streams { ops, kinds }
    }
}

/// `System::run` then `drain_caches`, in spans `run` and `drain`.
fn run_streams(sys: &mut System, streams: Streams, t: &mut Tracer) -> RunSummary {
    t.enter("run");
    let clock = PullClock::new(t);
    let mut kinds = streams.kinds.map(Vec::into_iter);
    let pulled = streams
        .ops
        .into_iter()
        .map(|ops| Pulled::new(ops, kinds.as_mut().and_then(Iterator::next), &clock))
        .collect();
    let summary = sys.run(pulled, None);
    t.exit();
    t.span("drain", || sys.drain_caches());
    summary
}

/// Counters that `System::reset_stats` does not reset, read before the
/// measured phase so the metrics cover it alone.
struct Before {
    tlb: (u64, u64),
    persist_steps: u64,
}

fn before(sys: &System) -> Before {
    Before {
        tlb: tlb_totals(sys),
        persist_steps: sys.hardware().controller.inspect().persist_steps(),
    }
}

fn tlb_totals(sys: &System) -> (u64, u64) {
    (0..sys.config().cores()).fold((0, 0), |(h, m), core| {
        let s = sys.tlb_stats(core);
        (h + s.hits.get(), m + s.misses.get())
    })
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn memory_ops(summary: &RunSummary) -> u64 {
    summary.cores.iter().map(|c| c.loads + c.stores).sum()
}

/// Every simulated metric of a full-system measured phase.
fn system_metrics(sys: &System, summary: &RunSummary, b: &Before) -> Values {
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    let insp = sys.hardware().controller.inspect();
    let stats = insp.stats();
    let mem = &stats.mem;
    let lat = &mem.read_latency;
    let nvm = insp.nvm_stats();
    put("sim_cycles", summary.makespan().raw() as f64);
    put("nvm_writes", nvm.writes.get() as f64);
    put("nvm_energy_pj", nvm.energy_pj as f64);
    put("read_mean_cyc", lat.mean());
    let cyc = |p: u8| lat.percentile(p).map_or(0.0, |c| c.raw() as f64);
    put("lat.read_p99_cyc", cyc(99));
    put("lat.read_p50_cyc", cyc(50));
    put("lat.read.n", lat.count() as f64);

    let mut load_lat = ss_common::LatencyStat::new();
    for c in &summary.cores {
        load_lat.merge(&c.load_latency);
    }
    put("cpu.instructions", summary.total_instructions() as f64);
    put(
        "cpu.loads",
        summary.cores.iter().map(|c| c.loads).sum::<u64>() as f64,
    );
    put(
        "cpu.stores",
        summary.cores.iter().map(|c| c.stores).sum::<u64>() as f64,
    );
    put("cpu.ipc", summary.mean_ipc());
    let load_cyc = |p: u8| load_lat.percentile(p).map_or(0.0, |c| c.raw() as f64);
    put("cpu.load_lat.p50", load_cyc(50));
    put("cpu.load_lat.p99", load_cyc(99));

    let k = sys.kernel().stats();
    put("os.major_faults", k.major_faults.get() as f64);
    put("os.minor_faults", k.minor_faults.get() as f64);
    put("os.pages_shredded", k.pages_shredded.get() as f64);
    put("os.zeroing_cycles", k.zeroing_cycles.raw() as f64);
    put("os.fault_cycles", k.fault_cycles.raw() as f64);
    let (hits, misses) = tlb_totals(sys);
    let (dh, dm) = (hits - b.tlb.0, misses - b.tlb.1);
    put("os.tlb_miss_pct", pct(dm, dh + dm));

    for (i, level) in [Level::L1, Level::L2, Level::L3, Level::L4]
        .into_iter()
        .enumerate()
    {
        let c = sys.hardware().level_stats(level).cache;
        put(&format!("cache.l{}.hits", i + 1), c.hits.get() as f64);
        put(&format!("cache.l{}.misses", i + 1), c.misses.get() as f64);
        put(
            &format!("cache.l{}.dirty_evictions", i + 1),
            c.dirty_evictions.get() as f64,
        );
        if level == Level::L4 {
            put(
                "cache.l4.hit_pct",
                pct(c.hits.get(), c.hits.get() + c.misses.get()),
            );
        }
    }
    let persist_steps = insp.persist_steps() - b.persist_steps;
    controller_metrics(&mut v, &insp, persist_steps, 0, *insp.counter_cache_stats());
    v
}

/// The `core.*`, `ccache.*`, `profile.*` and `nvm.*` metrics.
fn controller_metrics(
    v: &mut Values,
    insp: &ss_core::Inspect<'_>,
    persist_steps: u64,
    recoveries: u64,
    ccache: ss_cache::CacheStats,
) {
    let stats = insp.stats();
    let mem = &stats.mem;
    let counts = [
        mem.reads.get(),
        mem.writes.get(),
        mem.zeroing_writes.get(),
        mem.zero_fill_reads.get(),
        mem.counter_reads.get(),
        mem.counter_writes.get(),
        stats.shreds.get(),
        stats.reencryptions.get(),
        stats.bus_transfers.get(),
        persist_steps,
        recoveries,
    ];
    for (name, n) in CORE_COUNTS.iter().zip(counts) {
        v.insert(format!("core.{name}"), n as f64);
    }
    let zf = mem.zero_fill_reads.get();
    v.insert("core.zero_fill_pct".into(), pct(zf, zf + mem.reads.get()));
    let (h, m) = (ccache.hits.get(), ccache.misses.get());
    v.insert("ccache.hits".into(), h as f64);
    v.insert("ccache.misses".into(), m as f64);
    v.insert("ccache.hit_pct".into(), pct(h, h + m));
    let profile = insp.profile();
    for stage in Stage::ALL {
        v.insert(
            format!("profile.{}.cycles", stage.label()),
            profile.cycles(stage).raw() as f64,
        );
        v.insert(
            format!("profile.{}.ops", stage.label()),
            profile.ops(stage) as f64,
        );
    }
    let nvm = insp.nvm_stats();
    v.insert("nvm.reads".into(), nvm.reads.get() as f64);
    v.insert("nvm.writes".into(), nvm.writes.get() as f64);
    v.insert("nvm.bits_written".into(), nvm.bits_written as f64);
    v.insert("nvm.energy_pj".into(), nvm.energy_pj as f64);
    let wear = insp.nvm_max_wear().map_or(0, |(_, n)| n);
    v.insert("nvm.max_line_wear".into(), wear as f64);
}

/// graph_ingest: each core builds one fig. 8 graph app's CSR input
/// (first-touching and shredding every heap page) and runs its first
/// iterations, on Silent Shredder and on the baseline, over identical
/// traces.
fn graph_ingest(seed: u64, sizes: &Sizes, t: &mut Tracer, checks: &mut Checks) -> (u64, Values) {
    let apps = GraphApp::fig8_suite();
    let graphs: Vec<GraphWorkload> = (0..sizes.cores)
        .map(|core| {
            let app = apps[core % apps.len()];
            GraphWorkload {
                nodes: sizes.graph_nodes,
                seed: seed ^ core as u64,
                ..GraphWorkload::new(app)
            }
        })
        .collect();
    t.enter("setup");
    let (mut ss, mut base) = t.span("new", || (boot(true, sizes), boot(false, sizes)));
    let (ss_heaps, base_heaps) = t.span("prep", || {
        ss.age_free_frames();
        base.age_free_frames();
        let bytes = graphs
            .iter()
            .map(|g| g.footprint_bytes())
            .max()
            .unwrap_or(0);
        (
            spawn_heaps(&mut ss, sizes.cores, bytes),
            spawn_heaps(&mut base, sizes.cores, bytes),
        )
    });
    checks.expect(ss_heaps == base_heaps, || {
        "both systems must place the heaps alike".into()
    });
    let per_op = t.per_op();
    let (ss_streams, base_streams) = t.span("gen", || {
        let ops: Vec<Vec<Op>> = graphs
            .iter()
            .zip(&ss_heaps)
            .map(|(g, &h)| g.trace(h))
            .collect();
        (
            Streams::new(ops.clone(), per_op, false),
            Streams::new(ops, per_op, false),
        )
    });
    t.exit();

    ss.reset_stats();
    base.reset_stats();
    let (ss_before, base_before) = (before(&ss), before(&base));
    t.enter("measure");
    t.mark();
    let ss_summary = run_streams(&mut ss, ss_streams, t);
    let base_summary = run_streams(&mut base, base_streams, t);
    t.mark();
    t.exit();

    let mut v = system_metrics(&ss, &ss_summary, &ss_before);
    let base_v = system_metrics(&base, &base_summary, &base_before);
    checks.expect(v["core.zeroing_writes"] == 0.0, || {
        format!(
            "Silent Shredder issued {} zeroing writes",
            v["core.zeroing_writes"]
        )
    });
    checks.expect(base_v["core.shreds"] == 0.0, || {
        format!(
            "the baseline executed {} shred commands",
            base_v["core.shreds"]
        )
    });
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let fig = [
        (
            "fig.write_savings_pct",
            100.0 - pct(v["core.writes"] as u64, base_v["core.writes"] as u64),
        ),
        ("fig.read_savings_pct", v["core.zero_fill_pct"]),
        (
            "fig.read_speedup",
            ratio(base_v["read_mean_cyc"], v["read_mean_cyc"]),
        ),
        ("fig.relative_ipc", ratio(v["cpu.ipc"], base_v["cpu.ipc"])),
    ];
    for (k, x) in fig {
        v.insert(k.into(), x);
    }
    (memory_ops(&ss_summary) + memory_ops(&base_summary), v)
}

/// rand_rw: every core owns a heap twice the size of the L4 (16x for
/// the eight heaps together) and has written every line of it; the
/// measured phase is uniform random loads and partial stores over it.
fn rand_rw(seed: u64, sizes: &Sizes, t: &mut Tracer, checks: &mut Checks) -> (u64, Values) {
    let bytes = sizes.rand_pages * PAGE_SIZE as u64;
    t.enter("setup");
    let mut sys = t.span("new", || boot(true, sizes));
    let heaps = t.span("prep", || {
        sys.age_free_frames();
        let heaps = spawn_heaps(&mut sys, sizes.cores, bytes);
        let warm: Vec<Vec<Op>> = heaps
            .iter()
            .map(|h| {
                (0..bytes / LINE_SIZE as u64)
                    .map(|l| Op::StoreLine(h.add(l * LINE_SIZE as u64)))
                    .collect()
            })
            .collect();
        sys.run(warm.into_iter().map(Vec::into_iter).collect(), None);
        heaps
    });
    let per_op = t.per_op();
    let streams = t.span("gen", || {
        let ops = heaps
            .iter()
            .enumerate()
            .map(|(core, &h)| {
                MicroWorkload {
                    pattern: MicroPattern::RandomMix,
                    pages: sizes.rand_pages,
                    ops: sizes.rand_ops,
                    seed: seed ^ core as u64,
                }
                .trace(h)
            })
            .collect();
        Streams::new(ops, per_op, true)
    });
    t.exit();

    sys.reset_stats();
    let b = before(&sys);
    t.enter("measure");
    t.mark();
    let summary = run_streams(&mut sys, streams, t);
    t.mark();
    t.exit();

    let v = system_metrics(&sys, &summary, &b);
    for k in [
        "os.major_faults",
        "os.minor_faults",
        "core.shreds",
        "core.zero_fill_reads",
    ] {
        checks.expect(v[k] == 0.0, || {
            format!("measured phase must bypass the mechanism: {k} = {}", v[k])
        });
    }
    (memory_ops(&summary), v)
}

// ---------------------------------------------------------------------
// Controller workloads
// ---------------------------------------------------------------------

type Line = [u8; LINE_SIZE];

/// What a tenant writes to one page: `LINES_PER_PAGE` distinct blocks,
/// each with seeded contents.
type PageLines = [(u8, Line); LINES_PER_PAGE];

/// One churn round: the tenant's slot and what it writes to each page.
struct Round {
    slot: u64,
    pages: Vec<PageLines>,
}

/// A tenant's page contents, drawn from `rng`. Generated in set-up, so
/// the measured phase holds nothing but controller calls and checks.
fn tenant(rng: &mut DetRng) -> Vec<PageLines> {
    (0..TENANT_PAGES)
        .map(|_| {
            let mut blocks: Vec<u8> = (0..BLOCKS_PER_PAGE as u8).collect();
            let mut page = [(0u8, [0u8; LINE_SIZE]); LINES_PER_PAGE];
            for (i, (block, data)) in page.iter_mut().enumerate() {
                let j = i + rng.below((blocks.len() - i) as u64) as usize;
                blocks.swap(i, j);
                *block = blocks[i];
                rng.fill_bytes(data);
            }
            page
        })
        .collect()
}

fn addr(page: u64, block: u8) -> BlockAddr {
    PageId::new(page).block_addr(usize::from(block))
}

/// Latencies the controller returned, per call kind. Calls are issued
/// back to back, so the clock is their sum.
#[derive(Default)]
struct Latencies {
    now: Cycles,
    read: Vec<u64>,
    write: Vec<u64>,
    shred: Vec<u64>,
}

fn tick(now: &mut Cycles, samples: &mut Vec<u64>, lat: Cycles) {
    *now += lat;
    samples.push(lat.raw());
}

/// One controller run: the controller, its clock and its checks.
struct Ctrl<'a> {
    mc: MemoryController,
    lat: Latencies,
    t: &'a mut Tracer,
    checks: &'a mut Checks,
    calls: u64,
}

impl Ctrl<'_> {
    fn write(&mut self, a: BlockAddr, data: &Line) {
        self.calls += 1;
        let now = self.lat.now;
        let mc = &mut self.mc;
        match self
            .t
            .op(OpKind::WriteBlock, || mc.write_block(a, data, false, now))
        {
            Ok(l) => tick(&mut self.lat.now, &mut self.lat.write, l),
            Err(e) => self.checks.fail(|| format!("write_block({a}): {e}")),
        }
    }

    /// Reads `a`, which must hold `want` (or zero-fill when `None`).
    fn read(&mut self, a: BlockAddr, want: Option<&Line>) {
        self.calls += 1;
        let now = self.lat.now;
        let mc = &mut self.mc;
        match self.t.op(OpKind::ReadBlock, || mc.read_block(a, now)) {
            Ok(ReadResult {
                data,
                latency,
                zero_filled,
            }) => {
                tick(&mut self.lat.now, &mut self.lat.read, latency);
                let ok = match want {
                    Some(w) => data == *w && !zero_filled,
                    None => data == [0u8; LINE_SIZE] && zero_filled,
                };
                self.checks.expect(ok, || match want {
                    Some(_) => format!("read_block({a}) did not return the line written"),
                    None => format!("read_block({a}) after a shred did not zero-fill"),
                });
            }
            Err(e) => self.checks.fail(|| format!("read_block({a}): {e}")),
        }
    }

    fn shred(&mut self, page: u64) {
        self.calls += 1;
        let now = self.lat.now;
        let mc = &mut self.mc;
        match self.t.op(OpKind::ShredPage, || {
            mc.shred_page_at(PageId::new(page), true, now)
        }) {
            Ok(l) => tick(&mut self.lat.now, &mut self.lat.shred, l),
            Err(e) => self.checks.fail(|| format!("shred_page({page}): {e}")),
        }
    }
}

/// tenant_churn / persist_adr: a resident 64-page tenant, then rounds of
/// a tenant at a seeded 64-page slot that writes 8 seeded lines per
/// page, reads them back, shreds its pages and reads them again. Under
/// `adr`, every `recover_every` rounds the machine loses power and
/// recovers, and the resident tenant must read back intact.
fn churn(
    seed: u64,
    sizes: &Sizes,
    adr: bool,
    t: &mut Tracer,
    checks: &mut Checks,
) -> (u64, Values) {
    let rounds_n = if adr {
        sizes.adr_rounds
    } else {
        sizes.churn_rounds
    };
    t.enter("setup");
    let (resident, rounds) = t.span("gen", || {
        let mut rng = DetRng::new(seed);
        let slots = CTRL_DATA / PAGE_SIZE as u64 / TENANT_PAGES;
        let resident = tenant(&mut rng);
        let rounds: Vec<Round> = (0..rounds_n)
            .map(|_| Round {
                slot: 1 + rng.below(slots - 1),
                pages: tenant(&mut rng),
            })
            .collect();
        (resident, rounds)
    });
    let mc = t.span("new", || {
        let b = ControllerConfigBuilder::new()
            .data_capacity(CTRL_DATA)
            .counter_cache_bytes(CTRL_COUNTER_CACHE);
        let b = if adr {
            b.persist_domain(PersistDomain::Adr)
                .counter_persistence(CounterPersistence::WriteThrough)
        } else {
            b
        };
        MemoryController::new(b.build().expect("valid controller config"))
            .expect("controller boots")
    });
    let mut c = Ctrl {
        mc,
        lat: Latencies::default(),
        t,
        checks,
        calls: 0,
    };
    c.t.enter("prep");
    for (page, lines) in (0..).zip(&resident) {
        for (b, data) in lines {
            c.write(addr(page, *b), data);
        }
    }
    c.t.exit();
    c.t.exit();

    c.mc.reset_stats();
    c.lat = Latencies::default();
    c.calls = 0;
    let persist_before = c.mc.inspect().persist_steps();
    let mut ccache = ss_cache::CacheStats::default();
    let mut recoveries = 0;
    c.t.enter("measure");
    c.t.mark();
    for (r, round) in (1..).zip(&rounds) {
        let base = round.slot * TENANT_PAGES;
        let pages = || (base..).zip(&round.pages);
        for (page, lines) in pages() {
            for (b, data) in lines {
                c.write(addr(page, *b), data);
            }
        }
        for (page, lines) in pages() {
            for (b, data) in lines {
                c.read(addr(page, *b), Some(data));
            }
        }
        for (page, _) in pages() {
            c.shred(page);
        }
        for (page, lines) in pages() {
            for (b, _) in lines {
                c.read(addr(page, *b), None);
            }
        }
        if adr && r % sizes.recover_every == 0 {
            // Power loss rebuilds the counter cache cold, and its
            // counters with it: bank them first.
            add_cache_stats(&mut ccache, c.mc.inspect().counter_cache_stats());
            c.calls += 2;
            recoveries += 1;
            let mc = &mut c.mc;
            if let Err(e) = c.t.op(OpKind::PowerLoss, || mc.power_loss()) {
                c.checks.fail(|| format!("power_loss: {e}"));
            }
            match c.t.op(OpKind::RecoverMut, || mc.recover_mut()) {
                Ok(report) => c.checks.expect(report.root_verified, || {
                    "recovery did not verify the Merkle root".into()
                }),
                Err(e) => c.checks.fail(|| format!("recover_mut: {e}")),
            }
            for (page, lines) in (0..).zip(&resident) {
                for (b, data) in lines {
                    c.read(addr(page, *b), Some(data));
                }
            }
        }
        c.t.mark();
    }
    c.t.exit();
    add_cache_stats(&mut ccache, c.mc.inspect().counter_cache_stats());

    let mut v = Values::new();
    let insp = c.mc.inspect();
    let persist_steps = insp.persist_steps() - persist_before;
    controller_metrics(&mut v, &insp, persist_steps, recoveries, ccache);
    let lat = &mut c.lat;
    for s in [&mut lat.read, &mut lat.write, &mut lat.shred] {
        s.sort_unstable();
    }
    let at = |s: &[u64], pm: u64| nearest_rank(s, pm).unwrap_or(0) as f64;
    let nvm = insp.nvm_stats();
    let total: u64 = lat.now.raw();
    let reads: u64 = lat.read.iter().sum();
    let values = [
        ("sim_cycles", total as f64),
        ("nvm_writes", nvm.writes.get() as f64),
        ("nvm_energy_pj", nvm.energy_pj as f64),
        ("read_mean_cyc", reads as f64 / lat.read.len().max(1) as f64),
        ("lat.read_p99_cyc", at(&lat.read, 990)),
        ("lat.read_p50_cyc", at(&lat.read, 500)),
        ("lat.write_p99_cyc", at(&lat.write, 990)),
        ("lat.shred_p99_cyc", at(&lat.shred, 990)),
        ("lat.read.n", lat.read.len() as f64),
        ("lat.write.n", lat.write.len() as f64),
        ("lat.shred.n", lat.shred.len() as f64),
        (
            "profile.gap_cyc",
            total as f64 - insp.profile().total_cycles().raw() as f64,
        ),
    ];
    for (k, x) in values {
        v.insert(k.into(), x);
    }
    (c.calls, v)
}

fn add_cache_stats(acc: &mut ss_cache::CacheStats, s: &ss_cache::CacheStats) {
    acc.hits.add(s.hits.get());
    acc.misses.add(s.misses.get());
}
