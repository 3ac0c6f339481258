//! Host-time spans recorded from outside the program.
//!
//! Every rep records a handful of coarse spans (set-up phases, the
//! measured phase and the calls inside it), which is where `setup_s`
//! and the measured wall time come from, and splits the measured phase
//! into chunks of equal work at [`Tracer::mark`]s, which is where
//! `ops_per_s` comes from. The traced rep also records a span per
//! operation: around each public controller call, and — inside
//! `System::run`, which pulls each core's ops lazily — the host time
//! between successive pulls, tagged with the kind of op just pulled.
//! Spans stay in memory; [`Tracer::write_jsonl`] dumps them at exit.

// lint:allow-file(DET-002): host wall-clock time is what this module measures; no reading feeds simulated state or the simulated metrics.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use ss_cpu::Op;

/// Wall-clock time since a start point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// What one per-operation span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// A simulated load, through ss-sim, ss-cache and the controller.
    Load,
    /// A simulated store to a page this core already stored to.
    Store,
    /// A core's first store to a page: a fault, a shred, a frame.
    FirstTouch,
    /// A simulated compute op (ss-cpu retire and scheduling only).
    Compute,
    /// `MemoryController::read_block`.
    ReadBlock,
    /// `MemoryController::write_block`.
    WriteBlock,
    /// `MemoryController::shred_page_at`.
    ShredPage,
    /// `MemoryController::power_loss`.
    PowerLoss,
    /// `MemoryController::recover_mut`.
    RecoverMut,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 9] = [
        OpKind::Load,
        OpKind::Store,
        OpKind::FirstTouch,
        OpKind::Compute,
        OpKind::ReadBlock,
        OpKind::WriteBlock,
        OpKind::ShredPage,
        OpKind::PowerLoss,
        OpKind::RecoverMut,
    ];

    /// Span name.
    pub const fn label(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::FirstTouch => "first_touch",
            OpKind::Compute => "compute",
            OpKind::ReadBlock => "read_block",
            OpKind::WriteBlock => "write_block",
            OpKind::ShredPage => "shred_page",
            OpKind::PowerLoss => "power_loss",
            OpKind::RecoverMut => "recover_mut",
        }
    }

    /// Whether the op reads (the `op.read_ns` family) or writes (the
    /// `op.write_ns` family); `None` for the others.
    pub fn family(self) -> Option<&'static str> {
        match self {
            OpKind::Load | OpKind::ReadBlock => Some("read"),
            OpKind::Store | OpKind::WriteBlock => Some("write"),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpSpan {
    start_ns: u64,
    parent: u32,
    dur_ns: u32,
    kind: OpKind,
}

/// Span recorder for one rep.
///
/// A per-op span runs from the start of its op to the start of the next
/// op, or to the next coarse span boundary. It therefore covers the
/// call plus the benchmark's handling of its result (checks, bookkeeping
/// and one timer read, about 50 ns on a 2-vCPU Intel Xeon VM), and
/// costs one timer read per op.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    per_op: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: Vec<OpSpan>,
    open: Option<(u64, OpKind)>,
    marks: Vec<u64>,
}

impl Tracer {
    /// A recorder; `per_op` turns on the per-operation spans.
    pub fn new(per_op: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            per_op,
            spans: Vec::new(),
            stack: Vec::new(),
            ops: Vec::new(),
            open: None,
            marks: Vec::new(),
        }
    }

    /// Records a chunk boundary of the measured phase.
    pub fn mark(&mut self) {
        let now = self.now_ns();
        self.marks.push(now);
    }

    /// Host time (ns) of each chunk between successive marks.
    pub fn chunks(&self) -> Vec<u64> {
        self.marks.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Whether per-operation spans are recorded.
    pub fn per_op(&self) -> bool {
        self.per_op
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        self.next_op(None);
        let span = Span {
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.stack.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        self.next_op(None);
        let end = self.now_ns();
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Runs one public call `f`, opening a per-op span for it when
    /// per-op tracing is on.
    pub fn op<T>(&mut self, kind: OpKind, f: impl FnOnce() -> T) -> T {
        self.next_op(Some(kind));
        f()
    }

    /// Closes the open per-op span, if any, and opens one of kind `next`
    /// when given. A no-op unless per-op tracing is on.
    fn next_op(&mut self, next: Option<OpKind>) {
        if !self.per_op {
            return;
        }
        let now = self.now_ns();
        if let Some((start_ns, kind)) = self.open.take() {
            let parent = *self.stack.last().expect("per-op span outside any span");
            self.ops.push(OpSpan {
                parent: u32::try_from(parent).expect("fewer than 2^32 coarse spans"),
                start_ns,
                dur_ns: u32::try_from(now.saturating_sub(start_ns)).unwrap_or(u32::MAX),
                kind,
            });
        }
        self.open = next.map(|k| (now, k));
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        ns as f64 / 1e9
    }

    /// Which coarse spans lie inside (or are) a span named `root`.
    fn inside(&self, root: &str) -> Vec<bool> {
        let mut inside = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let under = s.name == root || s.parent.is_some_and(|p| inside[p]);
            inside.push(under);
        }
        inside
    }

    /// Self time (duration minus the part its children cover) of the
    /// spans inside `root`, summed by span name — per-op spans under
    /// their kind's label — in seconds.
    pub fn self_secs(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let inside = self.inside(root);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for o in &self.ops {
            child_ns[o.parent as usize] += u64::from(o.dur_ns);
            if inside[o.parent as usize] {
                *out.entry(o.kind.label()).or_default() += f64::from(o.dur_ns) / 1e9;
            }
        }
        for ((s, child), _) in self
            .spans
            .iter()
            .zip(child_ns)
            .zip(&inside)
            .filter(|(_, &i)| i)
        {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Durations (ns, ascending) of the per-op spans inside `root`, by
    /// family.
    pub fn op_durations(&self, root: &str) -> BTreeMap<&'static str, Vec<u32>> {
        let inside = self.inside(root);
        let mut out: BTreeMap<&'static str, Vec<u32>> = BTreeMap::new();
        for o in self.ops.iter().filter(|o| inside[o.parent as usize]) {
            if let Some(family) = o.kind.family() {
                out.entry(family).or_default().push(o.dur_ns);
            }
        }
        for v in out.values_mut() {
            v.sort_unstable();
        }
        out
    }

    /// Writes every span as one JSON object per line: `id`, `parent`,
    /// `name`, `start_ns`, `end_ns` (nanoseconds since the rep began).
    /// Per-op spans follow the coarse ones.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        let line = |w: &mut std::io::BufWriter<_>,
                    id: usize,
                    parent: Option<usize>,
                    name: &str,
                    start: u64,
                    end: u64| {
            let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
            )
        };
        for (id, s) in self.spans.iter().enumerate() {
            line(&mut w, id, s.parent, s.name, s.start_ns, s.end_ns)?;
        }
        for (i, o) in self.ops.iter().enumerate() {
            let end = o.start_ns + u64::from(o.dur_ns);
            line(
                &mut w,
                self.spans.len() + i,
                Some(o.parent as usize),
                o.kind.label(),
                o.start_ns,
                end,
            )?;
        }
        w.flush()
    }
}

/// Pulls from one chunk mark to the next inside `System::run`: a few
/// milliseconds of host time.
pub const CHUNK_PULLS: u64 = 1 << 14;

/// The clock of `System::run`. Each core's stream is wrapped in a
/// [`Pulled`] iterator sharing one clock, which marks a chunk boundary
/// every [`CHUNK_PULLS`] pulls on all cores together. The scheduling is
/// deterministic, so every rep pulls the same ops in the same order and
/// the i-th chunk is the same work in each.
///
/// When per-op tracing is on, an op's span runs from the pull that
/// handed it out to the next pull on any core, so it covers the op's
/// trip through the data path plus ss-cpu's retire and scheduling.
#[derive(Debug)]
pub struct PullClock<'t> {
    tracer: &'t mut Tracer,
    pulls: u64,
}

impl<'t> PullClock<'t> {
    /// A clock recording into `tracer`.
    pub fn new(tracer: &'t mut Tracer) -> RefCell<Self> {
        RefCell::new(PullClock { tracer, pulls: 0 })
    }

    fn pull(&mut self, next: Option<OpKind>) {
        self.pulls += 1;
        self.tracer.next_op(next);
        if self.pulls.is_multiple_of(CHUNK_PULLS) {
            self.tracer.mark();
        }
    }
}

/// One core's op stream under a [`PullClock`].
#[derive(Debug)]
pub struct Pulled<'a, 't> {
    ops: std::vec::IntoIter<Op>,
    kinds: Option<std::vec::IntoIter<OpKind>>,
    clock: &'a RefCell<PullClock<'t>>,
}

impl<'a, 't> Pulled<'a, 't> {
    /// Wraps `ops`, whose kinds (one per op) are `kinds` when tracing
    /// per op.
    pub fn new(
        ops: Vec<Op>,
        kinds: Option<Vec<OpKind>>,
        clock: &'a RefCell<PullClock<'t>>,
    ) -> Self {
        if let Some(k) = &kinds {
            assert_eq!(ops.len(), k.len(), "one kind per op");
        }
        Pulled {
            ops: ops.into_iter(),
            kinds: kinds.map(Vec::into_iter),
            clock,
        }
    }
}

impl Iterator for Pulled<'_, '_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let kind = self.kinds.as_mut().and_then(Iterator::next);
        self.clock.borrow_mut().pull(kind);
        self.ops.next()
    }
}

/// The span kind of each op in a core's stream: a store is a first
/// touch when it is the core's first store to that page, unless the
/// heap was `pretouched` before the stream began.
pub fn kinds_of(ops: &[Op], pretouched: bool) -> Vec<OpKind> {
    let mut stored = std::collections::BTreeSet::new();
    ops.iter()
        .map(|op| match op {
            Op::Load(_) => OpKind::Load,
            Op::Store(va) | Op::StoreLine(va) | Op::StoreNt(va) => {
                if !pretouched && stored.insert(va.vpn()) {
                    OpKind::FirstTouch
                } else {
                    OpKind::Store
                }
            }
            Op::Compute(_) | Op::Fence => OpKind::Compute,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("measure");
        t.op(OpKind::ReadBlock, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        // Handling the result still counts to the op.
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.span("drain", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let own = t.self_secs("measure");
        let total = t.secs("measure");
        let sum: f64 = own.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the root");
        assert!(own["read_block"] >= 0.003);
        assert!(own["drain"] >= 0.002);
        assert_eq!(t.op_durations("measure")["read"].len(), 1);
        let mut dump = Vec::new();
        t.write_jsonl(&mut dump).unwrap();
        let text = String::from_utf8(dump).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"measure\""));
    }

    #[test]
    fn first_store_to_a_page_is_a_first_touch() {
        use ss_common::VirtAddr;
        let a = VirtAddr::new(0x1000);
        let ops = [
            Op::Load(a),
            Op::Store(a),
            Op::StoreLine(a.add(64)),
            Op::Compute(3),
            Op::Store(a.add(4096)),
        ];
        assert!(kinds_of(&ops, true)
            .iter()
            .all(|&k| k != OpKind::FirstTouch));
        assert_eq!(
            kinds_of(&ops, false),
            vec![
                OpKind::Load,
                OpKind::FirstTouch,
                OpKind::Store,
                OpKind::Compute,
                OpKind::FirstTouch
            ]
        );
    }

    #[test]
    fn pulled_spans_cover_each_op() {
        let mut t = Tracer::new(true);
        t.enter("run");
        let clock = PullClock::new(&mut t);
        let ops = vec![Op::Compute(1), Op::Compute(2)];
        let kinds = kinds_of(&ops, false);
        let n = Pulled::new(ops, Some(kinds), &clock).count();
        t.exit();
        assert_eq!(n, 2);
        assert_eq!(t.ops.len(), 2);
        assert!(t
            .ops
            .iter()
            .all(|o| o.kind == OpKind::Compute && o.parent == 0));
    }

    #[test]
    fn untraced_pulls_mark_equal_chunks() {
        let mut t = Tracer::new(false);
        t.enter("run");
        t.mark();
        let clock = PullClock::new(&mut t);
        let ops = vec![Op::Compute(1); (CHUNK_PULLS * 2 + 5) as usize];
        let n = Pulled::new(ops, None, &clock).count();
        t.mark();
        t.exit();
        assert_eq!(n as u64, CHUNK_PULLS * 2 + 5);
        assert!(t.ops.is_empty(), "no per-op spans when untraced");
        assert_eq!(t.chunks().len(), 3);
    }
}
