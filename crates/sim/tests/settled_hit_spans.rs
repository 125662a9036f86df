//! The settled-hit path opens no profiling span.
//!
//! A demand hit against a hierarchy with nothing due is the hottest path
//! in the simulator. Its `settle` span opens only when a completion is
//! actually due, so arming the span collector costs that path one extra
//! completion-queue peek and never a clock read. This test pins that
//! contract directly instead of timing it: with spans armed, settled
//! hits record nothing, while the first access after a parked prefetch
//! falls due records exactly one `settle` span.

use prefender_obs::{enable_spans, take_thread_profile};
use prefender_sim::{AccessKind, Addr, Cycle, HierarchyConfig, MemorySystem, PrefetchSource};

const HITS: u64 = 100_000;

#[test]
fn settled_hits_open_no_span_until_a_completion_is_due() {
    let mut m = MemorySystem::new(HierarchyConfig::paper_baseline(1).expect("valid baseline"));
    let a = Addr::new(0x4000);
    m.access(0, a, AccessKind::Read, Cycle::ZERO);
    // Park a prefetch far in the future: every hit below peeks a
    // completion queue holding a pending entry that is never due.
    let far = Cycle::new(1 << 40);
    assert!(m.prefetch(0, Addr::new(0x10_0000), PrefetchSource::Other, far));

    enable_spans(true);
    let _ = take_thread_profile();
    let hits_before = m.l1d(0).stats().demand_hits;
    for i in 0..HITS {
        m.access(0, a, AccessKind::Read, Cycle::new(10 + i));
    }
    let settled = take_thread_profile();
    let hits = m.l1d(0).stats().demand_hits - hits_before;

    // Control: once the parked prefetch is due, the next access settles
    // it and opens the span, so the empty profile above is not vacuous.
    m.access(0, a, AccessKind::Read, Cycle::new(1 << 41));
    let due = take_thread_profile();
    enable_spans(false);

    assert_eq!(hits, HITS, "every access in the loop must be a settled L1D hit");
    assert!(settled.is_empty(), "settled hits opened spans: {settled:?}");
    assert_eq!(due.len(), 1, "one phase after the prefetch falls due: {due:?}");
    assert_eq!((due[0].name, due[0].count), ("settle", 1));
}
