//! The benchmark's own in-memory span recorder.
//!
//! The traced run wraps each call into a layer in a span named
//! `<layer>.<what>` (`cpu.run`, `attacks.trial`, ...). Spans nest through
//! an explicit stack, stay in memory, and are reduced when the run ends:
//! a span's self time is its duration minus the part of its interval
//! that its children cover, with overlapping children counted once.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Records spans when enabled; a disabled recorder hands out no-op
/// guards, so the same executor code serves traced and untraced runs.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: Option<usize>,
    start: Instant,
}

impl Guard<'_> {
    /// Nanoseconds since the span opened (measured even when the
    /// recorder is disabled, for callers that keep per-call costs).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.rec.now_ns();
            let mut inner = self.rec.inner.borrow_mut();
            let top = inner.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close in stack order");
            inner.spans[id].end_ns = end;
        }
    }
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only times calls.
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), enabled, inner: RefCell::new(Inner::default()) }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let start = Instant::now();
        if !self.enabled {
            return Guard { rec: self, id: None, start };
        }
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        inner.stack.push(id);
        Guard { rec: self, id: Some(id), start }
    }

    /// Adds a span timed elsewhere (e.g. from event timestamps), nested
    /// in the innermost open span.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span { name, parent, start_ns, end_ns });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Durations of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// Summed duration of the root spans (the traced run's wall).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // a third child runs past the parent's end and is clipped.
        let spans = vec![
            sp("sweep.scenario", None, 0, 100),
            sp("cpu.run", Some(0), 10, 40),
            sp("cpu.run", Some(0), 30, 60),
            sp("attacks.trial", Some(0), 90, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 50 - 10);
        assert_eq!(t[1..], [30, 30, 40]);
        let by = self_by_layer(&spans);
        assert_eq!(by["sweep"], 40);
        assert_eq!(by["cpu"], 60);
        assert_eq!(by["attacks"], 40);
    }

    #[test]
    fn grandchildren_charge_only_their_parent() {
        let spans = vec![
            sp("leakage.cell", None, 0, 100),
            sp("attacks.trial", Some(0), 0, 80),
            sp("cpu.run", Some(1), 10, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
        assert_eq!(root_ns(&spans), 100);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.span("sweep.scenario");
            let _inner = rec.span("cpu.run");
            rec.record("sweep.shard", 1, 2);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let off = Recorder::new(false);
        drop(off.span("cpu.run"));
        off.record("sweep.shard", 1, 2);
        assert!(off.spans().is_empty());
    }
}
