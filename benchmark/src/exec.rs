//! One read, SPARQL text to decoded rows, through the engine's public
//! API: whole (`answer_sparql`) for the end-to-end runs, and cut into
//! the calls of each layer, with a span around each, for the traced run.
//!
//! `LiveReader` answers conjunctive queries only, so for it the whole
//! read is the same glue `rps_core::sparql` puts around a session:
//! parse, lower, prepare and execute each CQ, assemble.

use crate::trace::{CountingAlloc, Name, Open, Tracer};
use rps_core::{canonical_plan_key, FrozenSession, LiveReader, RpsError, SparqlResult};
use rps_query::parse_sparql;
use rps_rdf::{PrefixMap, Term};
use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counts read at the span boundaries of a traced run.
#[derive(Default, Debug, Clone, Copy)]
pub struct LayerCounts {
    /// Operations traced.
    pub ops: u64,
    /// Lowered CQs prepared and executed.
    pub cqs: u64,
    /// Rows drained from answer streams.
    pub rows: u64,
    /// Terms in those rows.
    pub terms: u64,
    /// Compiled UCQ branches over the CQs that report them.
    pub branches: u64,
    /// CQs that report a branch count (the rewritten route).
    pub branch_cqs: u64,
    /// Allocation calls inside decode spans.
    pub decode_allocs: u64,
    /// Allocation calls inside assemble spans.
    pub assemble_allocs: u64,
    /// Prepares answered from the plan cache.
    pub prepare_hits: u64,
    /// Prepares that compiled.
    pub prepare_misses: u64,
}

/// The recorder of a traced interval: spans, the counts read at their
/// boundaries, and the next operation's number.
#[derive(Default)]
pub struct TraceState {
    /// The spans.
    pub tracer: Tracer,
    /// The counts.
    pub counts: LayerCounts,
    next_op: u32,
}

impl TraceState {
    /// Numbers the next operation and notes what it is.
    pub fn begin_op(&mut self, template: &'static str, cold: bool) -> u32 {
        let op = self.next_op;
        self.next_op += 1;
        self.tracer.label(op, template, cold);
        op
    }

    /// Closes a `prepare` span as a hit or a miss and counts it.
    fn end_prepare(&mut self, open: Open, hit: bool) {
        if hit {
            self.tracer.end(open, Name::PrepareHit);
            self.counts.prepare_hits += 1;
        } else {
            self.tracer.end(open, Name::PrepareMiss);
            self.counts.prepare_misses += 1;
        }
    }
}

/// Where reads go.
pub enum Reader<'a> {
    /// A frozen session.
    Frozen(&'a FrozenSession),
    /// A live reader. The plan cache is per epoch and has no counters,
    /// so the harness keeps the plan keys prepared in the current epoch
    /// to tell a hit from a miss; clear it after every publish.
    Live(&'a LiveReader, HashSet<String>),
}

/// Runs one operation; a typed error or a panic comes back as text.
fn caught(run: impl FnOnce() -> Result<SparqlResult, RpsError>) -> Result<SparqlResult, String> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(payload) => Err(format!(
            "panic: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

impl Reader<'_> {
    /// Forgets the current epoch's plan keys (live only).
    pub fn new_epoch(&mut self) {
        if let Reader::Live(_, seen) = self {
            seen.clear();
        }
    }

    fn answer_live(reader: &LiveReader, text: &str) -> Result<SparqlResult, RpsError> {
        let lowered = parse_sparql(text, &PrefixMap::common())?.lower();
        let answers = lowered
            .queries()
            .into_iter()
            .map(|cq| {
                let plan = reader.prepare(cq)?;
                Ok(reader.execute(&plan)?.collect::<BTreeSet<Vec<Term>>>())
            })
            .collect::<Result<Vec<_>, RpsError>>()?;
        Ok(lowered.assemble(&answers))
    }

    /// One whole read.
    pub fn answer(&mut self, text: &str) -> Result<SparqlResult, String> {
        caught(|| match self {
            Reader::Frozen(frozen) => frozen.answer_sparql(text),
            Reader::Live(reader, _) => Self::answer_live(reader, text),
        })
    }

    /// The same read as the calls of each layer, each inside a span of
    /// operation `op`.
    pub fn answer_traced(
        &mut self,
        text: &str,
        op: u32,
        state: &mut TraceState,
    ) -> Result<SparqlResult, String> {
        caught(|| self.traced(text, op, state))
    }

    fn traced(
        &mut self,
        text: &str,
        op: u32,
        state: &mut TraceState,
    ) -> Result<SparqlResult, RpsError> {
        let root = state.tracer.begin(op, None);
        let result = (|| {
            let s = state.tracer.begin(op, Some(&root));
            let parsed = parse_sparql(text, &PrefixMap::common());
            state.tracer.end(s, Name::Parse);
            let parsed = parsed?;

            let s = state.tracer.begin(op, Some(&root));
            let lowered = parsed.lower();
            state.tracer.end(s, Name::Lower);

            let mut answers = Vec::new();
            for cq in lowered.queries() {
                state.counts.cqs += 1;
                let stream = match self {
                    Reader::Frozen(frozen) => {
                        let misses = frozen.plan_cache_stats().misses;
                        let s = state.tracer.begin(op, Some(&root));
                        let plan = frozen.prepare(cq);
                        state.end_prepare(s, frozen.plan_cache_stats().misses == misses);
                        let plan = plan?;
                        if let Some(b) = plan.branch_count() {
                            state.counts.branches += b as u64;
                            state.counts.branch_cqs += 1;
                        }
                        let s = state.tracer.begin(op, Some(&root));
                        let stream = frozen.execute(&plan);
                        state.tracer.end(s, Name::Execute);
                        stream?
                    }
                    Reader::Live(reader, seen) => {
                        let hit = !seen.insert(canonical_plan_key(cq));
                        let s = state.tracer.begin(op, Some(&root));
                        let plan = reader.prepare(cq);
                        state.end_prepare(s, hit);
                        let plan = plan?;
                        let s = state.tracer.begin(op, Some(&root));
                        let stream = reader.execute(&plan);
                        state.tracer.end(s, Name::Execute);
                        stream?
                    }
                };
                let before = CountingAlloc::mark().allocs;
                let s = state.tracer.begin(op, Some(&root));
                let set: BTreeSet<Vec<Term>> = stream.collect();
                state.tracer.end(s, Name::Decode);
                state.counts.decode_allocs += CountingAlloc::mark().allocs - before;
                state.counts.rows += set.len() as u64;
                state.counts.terms += (set.len() * cq.arity()) as u64;
                answers.push(set);
            }

            let before = CountingAlloc::mark().allocs;
            let s = state.tracer.begin(op, Some(&root));
            let result = lowered.assemble(&answers);
            state.tracer.end(s, Name::Assemble);
            state.counts.assemble_allocs += CountingAlloc::mark().allocs - before;

            // `execute_sparql` frees the per-CQ answer sets before it
            // returns; on thousands of rows that is time of the read.
            let s = state.tracer.begin(op, Some(&root));
            drop(answers);
            state.tracer.end(s, Name::Release);
            Ok(result)
        })();
        state.tracer.end(root, Name::Op);
        state.counts.ops += 1;
        result
    }
}
