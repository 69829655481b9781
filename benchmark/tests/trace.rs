//! A small traced trial yields a well-formed span tree.

use rps_benchmark::config::{Workload, TINY};
use rps_benchmark::run_trial;
use rps_benchmark::trace::Name;
use rps_benchmark::trial::TrialSpec;

fn traced(workload: Workload) {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trace-{}", workload.name()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let report = run_trial(&TrialSpec {
        workload,
        seed: 11,
        seconds: 0.15,
        trace: true,
        sized: TINY,
        out_dir,
    });
    assert_eq!(report.tally.failed, 0, "{:?}", report.tally.errors);
    let tracer = report.tracer.expect("a traced trial keeps its spans");
    let spans = tracer.spans();
    assert!(spans.len() > 100);
    let mut children_ns = vec![0u64; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        assert!(
            span.end_ns >= span.start_ns,
            "span {i} ends before it starts"
        );
        match span.parent {
            None => assert_eq!(span.name, Name::Op, "only operations are roots"),
            Some(p) => {
                let parent = &spans[p as usize];
                assert_eq!(parent.name, Name::Op);
                assert_eq!(
                    parent.op, span.op,
                    "a child belongs to its parent's operation"
                );
                assert!(
                    parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                    "span {i} leaves its parent"
                );
                children_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
    }
    for (span, inside) in spans.iter().zip(&children_ns) {
        // Self time: the span minus its children.
        assert!(span.end_ns - span.start_ns >= *inside, "negative self time");
    }
    let uncovered = tracer.uncovered_share().expect("operations ran");
    assert!(uncovered < 0.1, "uncovered share {uncovered}");
    assert_eq!(report.metrics.get("trace.uncovered_share"), Some(uncovered));
}

#[test]
fn frozen_trace_is_a_tree() {
    traced(Workload::LookupMat);
}

#[test]
fn live_trace_is_a_tree() {
    traced(Workload::LiveChurn);
}
