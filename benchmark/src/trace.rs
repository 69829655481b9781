//! Spans around the harness's calls into each layer, and a counting
//! allocator read at the same boundaries.
//!
//! An operation is a root span; its children are the calls the harness
//! makes on the operation's behalf. Spans stay in memory — every span
//! of the first [`FULL_SPAN_OPS`] operations, per-name totals for all —
//! and are written out when the trial ends. A span's self time is its
//! duration minus its children's.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Operations whose spans are kept in full.
pub const FULL_SPAN_OPS: u32 = 20_000;

/// Span names: the harness's calls, by the module they enter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Name {
    /// One operation, SPARQL text to checked rows.
    Op,
    /// `rps_query::parse_sparql`.
    Parse,
    /// `SparqlQuery::lower`.
    Lower,
    /// `prepare` of one lowered CQ that hit the plan cache.
    PrepareHit,
    /// `prepare` of one lowered CQ that compiled (or rewrote).
    PrepareMiss,
    /// `execute` of one prepared CQ.
    Execute,
    /// Draining the `AnswerStream` into terms.
    Decode,
    /// `LoweredSparql::assemble`.
    Assemble,
    /// Freeing the per-CQ answer sets once the result is assembled.
    Release,
    /// `LiveSession::apply`.
    Apply,
}

impl Name {
    /// Every name, in discriminant order.
    pub const ALL: [Name; 10] = [
        Name::Op,
        Name::Parse,
        Name::Lower,
        Name::PrepareHit,
        Name::PrepareMiss,
        Name::Execute,
        Name::Decode,
        Name::Assemble,
        Name::Release,
        Name::Apply,
    ];

    /// The span's name in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Parse => "query.sparql.parse",
            Name::Lower => "query.sparql.lower",
            Name::PrepareHit => "core.session.prepare.hit",
            Name::PrepareMiss => "core.session.prepare.miss",
            Name::Execute => "core.session.execute",
            Name::Decode => "core.answers.decode",
            Name::Assemble => "query.sparql.assemble",
            Name::Release => "core.sparql.release",
            Name::Apply => "core.live.apply",
        }
    }
}

/// A finished span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: Name,
    /// The operation it belongs to.
    pub op: u32,
    /// Index of the parent span in [`Tracer::spans`], if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An open span.
#[derive(Clone, Copy)]
pub struct Open {
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    /// Where the span will be stored, when it is kept in full.
    slot: Option<u32>,
}

impl Open {
    /// The index children name as their parent.
    pub fn id(&self) -> Option<u32> {
        self.slot
    }
}

/// Per-name totals.
#[derive(Clone, Copy, Default, Debug)]
pub struct Total {
    /// Spans ended under the name.
    pub count: u64,
    /// Their summed duration.
    pub ns: u64,
}

/// The in-memory span recorder of one trial.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    totals: [Total; Name::ALL.len()],
    /// What each fully kept operation was: `(op, template, cold)`.
    labels: Vec<(u32, &'static str, bool)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; time zero is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            totals: [Total::default(); Name::ALL.len()],
            labels: Vec::new(),
        }
    }

    /// Notes what operation `op` is, for the reader of the trace file.
    pub fn label(&mut self, op: u32, template: &'static str, cold: bool) {
        if op < FULL_SPAN_OPS {
            self.labels.push((op, template, cold));
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op` under `parent`.
    pub fn begin(&mut self, op: u32, parent: Option<&Open>) -> Open {
        let slot = (op < FULL_SPAN_OPS).then(|| {
            // Reserve the slot now so children can point at it; `end`
            // fills in the name and the end time.
            self.spans.push(Span {
                name: Name::Op,
                op,
                parent: parent.and_then(Open::id),
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        Open {
            op,
            parent: parent.and_then(Open::id),
            start_ns: self.now(),
            slot,
        }
    }

    /// Closes `open` as a span named `name`; returns its duration.
    pub fn end(&mut self, open: Open, name: Name) -> u64 {
        let end_ns = self.now();
        let ns = end_ns - open.start_ns;
        let total = &mut self.totals[name as usize];
        total.count += 1;
        total.ns += ns;
        if let Some(slot) = open.slot {
            self.spans[slot as usize] = Span {
                name,
                op: open.op,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
            };
        }
        ns
    }

    /// The spans kept in full.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals of `name` over every operation.
    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    /// Mean duration of `name` in microseconds, if it occurred.
    pub fn mean_us(&self, name: Name) -> Option<f64> {
        let t = self.total(name);
        (t.count > 0).then(|| t.ns as f64 / t.count as f64 / 1e3)
    }

    /// Share of operation time not inside any child span.
    pub fn uncovered_share(&self) -> Option<f64> {
        let root = self.total(Name::Op).ns;
        let children: u64 = Name::ALL[1..].iter().map(|n| self.total(*n).ns).sum();
        (root > 0).then(|| root.saturating_sub(children) as f64 / root as f64)
    }

    /// The trace file's `spans` and `totals` members.
    pub fn to_json(&self) -> Vec<(String, Json)> {
        let names = Name::ALL.iter().map(|n| Json::str(n.label())).collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(s.name as u8 as f64),
                    Json::Num(f64::from(s.op)),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        let totals = Name::ALL.iter().map(|n| {
            let t = self.total(*n);
            (
                n.label(),
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("ns", Json::Num(t.ns as f64)),
                ]),
            )
        });
        let ops = self
            .labels
            .iter()
            .map(|(op, template, cold)| {
                Json::Arr(vec![
                    Json::Num(f64::from(*op)),
                    Json::str(*template),
                    Json::Bool(*cold),
                ])
            })
            .collect();
        vec![
            (
                "op_columns".into(),
                Json::Arr(["op", "template", "cold"].map(Json::str).to_vec()),
            ),
            ("ops".into(), Json::Arr(ops)),
            ("span_names".into(), Json::Arr(names)),
            (
                "span_columns".into(),
                Json::Arr(
                    ["name", "op", "parent", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("spans".into(), Json::Arr(spans)),
            ("totals".into(), Json::obj(totals)),
        ]
    }
}

/// The system allocator, counting calls and bytes while switched on.
/// Install it with `#[global_allocator]` in the binary; where it is not
/// installed the counters stay at zero.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are statistics and publish nothing else.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator counters at one instant.
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocMark {
    /// Allocation calls so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes allocated and not yet freed since counting began (wraps
    /// when memory from before is freed; use differences).
    pub live: u64,
}

impl CountingAlloc {
    /// Switches counting on or off (off costs one relaxed load per call).
    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// The counters now.
    pub fn mark() -> AllocMark {
        AllocMark {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            live: LIVE.load(Ordering::Relaxed),
        }
    }
}
