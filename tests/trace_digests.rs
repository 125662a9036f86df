//! Pins the armed flight-recorder stream of two representative runs to
//! fixed digests, so any hot-path change that reorders, drops, adds or
//! alters a single `TraceEvent` (a demand hit's set or way, a cycle
//! stamp, an eviction) fails here even when every artifact byte holds.
//!
//! - a fetch-modelled catalog program: `462.libquantum` under the full
//!   defense stacked on a Stride basic prefetcher, 32 access buffers;
//! - a cross-core Flush+Reload trial under the full defense.
//!
//! The digest is `fnv1a64` over every event's inline JSON form, one per
//! line, in emission order.

use std::sync::Mutex;

use prefender::attacks::{AttackKind, AttackSpec, Basic, DefenseConfig, Runner};
use prefender::obs::{arm_trace, disarm_trace, take_thread_trace, TraceBuf};
use prefender::sweep::fnv1a64;
use prefender::{HierarchyConfig, Machine};

/// Arming is process-global: the tests in this file take turns.
static GATE: Mutex<()> = Mutex::new(());

/// Per-thread capacity large enough that neither run drops an event.
const CAPACITY: usize = 1 << 21;

/// `fnv1a64` of the JSON lines, folded one event at a time so the
/// million-event stream is never held as one string.
fn digest(buf: &TraceBuf) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in &buf.events {
        for b in e.to_value().to_json_line().bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn traced(run: impl FnOnce() -> TraceBuf) -> TraceBuf {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _ = take_thread_trace();
    arm_trace(CAPACITY);
    let buf = run();
    disarm_trace();
    let _ = take_thread_trace();
    assert_eq!(buf.dropped, 0, "the pinned stream must be complete");
    buf
}

#[test]
fn fetch_modelled_program_stream_is_pinned() {
    let buf = traced(|| {
        let w = prefender::workloads::all()
            .into_iter()
            .find(|w| w.name() == "462.libquantum")
            .expect("catalog program");
        let mut m = Machine::new(HierarchyConfig::paper_baseline(1).unwrap());
        let p = DefenseConfig::Full.build_prefetcher(64, 4096, 32, Basic::Stride).unwrap();
        m.set_prefetcher(0, p);
        w.install(&mut m);
        assert!(!m.run().truncated);
        take_thread_trace()
    });
    assert_eq!((buf.events.len(), digest(&buf)), (1_163_975, 0xb457_ed1a_6a7a_d7dd));
}

#[test]
fn cross_core_attack_stream_is_pinned() {
    let buf = traced(|| {
        let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full).cross_core(true);
        let mut r = Runner::new(&spec).unwrap();
        assert!(!r.run(&spec).unwrap().leaked);
        r.take_trace()
    });
    assert_eq!((buf.events.len(), digest(&buf)), (598, 0xcb9e_9980_ad4a_3628));
    // The folded digest is the shared `fnv1a64` of the joined lines.
    let lines: String = buf.events.iter().map(|e| e.to_value().to_json_line() + "\n").collect();
    assert_eq!(digest(&buf), fnv1a64(lines.as_bytes()));
}
