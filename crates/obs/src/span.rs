//! Scoped phase timers with a per-thread span stack.
//!
//! Spans are **off by default**. Until [`enable_spans`]`(true)` runs, a
//! span costs one `Relaxed` atomic load and one inlined branch when it
//! opens, and one inlined branch on its guard's `armed` flag when it
//! drops: no clock read, no thread-local touch and no call. That is
//! cheap enough to leave in per-access and per-instruction paths. The
//! recording halves of open and drop sit in `#[cold]` functions that
//! only armed spans reach. When enabled, each span records wall time
//! into a thread-local profile keyed by phase name, with parent spans
//! accumulating child time so *self* time (exclusive of nested spans) is
//! reported alongside totals.
//!
//! The collector is thread-local on purpose: the sweep engine's workers
//! never share collector state, and `repro profile` runs its grids at one
//! thread so the whole profile lands on the calling thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a span collector is installed (spans record wall time).
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Globally arms or disarms span collection. Off by default; artifacts
/// are byte-identical either way (spans only feed profile outputs).
pub fn enable_spans(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_nanos: u64,
}

/// Accumulated timing for one phase name on one thread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct PhaseAcc {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// One phase of a drained thread profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// The phase name passed to [`span`].
    pub name: &'static str,
    /// How many spans of this phase closed.
    pub count: u64,
    /// Total wall nanoseconds, including nested spans.
    pub total_ns: u64,
    /// Wall nanoseconds exclusive of nested spans.
    pub self_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static PROFILE: RefCell<BTreeMap<&'static str, PhaseAcc>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// An open span; closes (and records, if armed) on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to — bind it to a named local"]
pub struct SpanGuard {
    armed: bool,
}

/// Opens a span named `name` on this thread's span stack.
///
/// When spans are disabled this is one atomic load plus one inlined
/// branch, and dropping the returned guard is one more inlined branch —
/// no clock read, no thread-local touch, no call.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard { armed: false };
    }
    open_span(name);
    SpanGuard { armed: true }
}

/// Pushes a frame for `name`: the armed half of [`span`], out of line
/// like [`close_span`].
#[cold]
#[inline(never)]
fn open_span(name: &'static str) {
    STACK.with(|s| {
        s.borrow_mut().push(Frame { name, start: Instant::now(), child_nanos: 0 });
    });
}

/// Opens a span only when `cond` also holds — for hot paths where even
/// an *enabled* span should open solely when there is real work to time
/// (e.g. the settle path opens its span only when completions are due).
#[inline]
pub fn span_if(name: &'static str, cond: bool) -> SpanGuard {
    if cond {
        span(name)
    } else {
        SpanGuard { armed: false }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            close_span();
        }
    }
}

/// Pops this thread's innermost span and books its time: the armed half
/// of [`SpanGuard`]'s drop, kept out of line so a disarmed drop inlines
/// to one branch.
#[cold]
#[inline(never)]
fn close_span() {
    let (name, total, self_ns) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let frame = stack.pop().expect("span stack underflow");
        let total = frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = stack.last_mut() {
            parent.child_nanos += total;
        }
        (frame.name, total, total.saturating_sub(frame.child_nanos))
    });
    PROFILE.with(|p| {
        let mut profile = p.borrow_mut();
        let acc = profile.entry(name).or_default();
        acc.count += 1;
        acc.total_ns += total;
        acc.self_ns += self_ns;
    });
}

/// Drains this thread's accumulated profile, sorted by phase name.
pub fn take_thread_profile() -> Vec<Phase> {
    PROFILE.with(|p| {
        std::mem::take(&mut *p.borrow_mut())
            .into_iter()
            .map(|(name, acc)| Phase {
                name,
                count: acc.count,
                total_ns: acc.total_ns,
                self_ns: acc.self_ns,
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled-spans tests share the one global switch, so they all
    // run under this lock (and restore the disabled default) to avoid
    // arming spans while an unrelated test is mid-flight.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = GATE.lock().unwrap();
        enable_spans(false);
        let _ = take_thread_profile();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        assert!(take_thread_profile().is_empty());
    }

    #[test]
    fn nested_spans_split_self_time() {
        let _g = GATE.lock().unwrap();
        enable_spans(true);
        let _ = take_thread_profile();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
                std::hint::black_box(0u64);
            }
        }
        enable_spans(false);
        let phases = take_thread_profile();
        let by_name =
            |n: &str| phases.iter().find(|p| p.name == n).cloned().expect("phase present");
        let outer = by_name("outer");
        let inner = by_name("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        // Outer's self time excludes the nested spans' total.
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // Names come back sorted.
        let mut names: Vec<_> = phases.iter().map(|p| p.name).collect();
        let sorted = names.clone();
        names.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn span_if_respects_condition() {
        let _g = GATE.lock().unwrap();
        enable_spans(true);
        let _ = take_thread_profile();
        {
            let _skipped = span_if("skipped", false);
            let _taken = span_if("taken", true);
        }
        enable_spans(false);
        let phases = take_thread_profile();
        assert!(phases.iter().any(|p| p.name == "taken"));
        assert!(!phases.iter().any(|p| p.name == "skipped"));
    }

    #[test]
    fn take_drains() {
        let _g = GATE.lock().unwrap();
        enable_spans(true);
        let _ = take_thread_profile();
        {
            let _s = span("once");
        }
        enable_spans(false);
        assert_eq!(take_thread_profile().len(), 1);
        assert!(take_thread_profile().is_empty());
    }
}
