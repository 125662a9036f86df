//! Events flowing from the CPU model to prefetchers.

use prefender_isa::{Instr, Reg};
use prefender_sim::{AccessKind, AccessOutcome, Addr, Cycle, PrefetchSource};

/// One retired instruction, observed at the execute stage.
///
/// PREFENDER's Scale Tracker updates its per-register `(fva, sc)`
/// calculation buffer from this stream (paper Figure 2: the ST sits at the
/// execute stage).
#[derive(Debug, Clone, Copy)]
pub struct RetireEvent<'a> {
    /// Core that retired the instruction.
    pub core: usize,
    /// The instruction's address.
    pub pc: u64,
    /// The instruction itself.
    pub instr: &'a Instr,
    /// Retirement time.
    pub now: Cycle,
}

/// One retired instruction as the machine buffers it for
/// [`Prefetcher::on_retire_run`](crate::Prefetcher::on_retire_run): an
/// owned [`RetireEvent`] whose core is given once per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// The instruction's address.
    pub pc: u64,
    /// The instruction itself.
    pub instr: Instr,
    /// Retirement time.
    pub now: Cycle,
}

impl Retired {
    /// The event [`Prefetcher::on_retire`](crate::Prefetcher::on_retire)
    /// would have seen for this instruction on `core`.
    pub fn event(&self, core: usize) -> RetireEvent<'_> {
        RetireEvent { core, pc: self.pc, instr: &self.instr, now: self.now }
    }
}

/// One demand L1D access, observed at the memory stage.
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// Core that issued the access.
    pub core: usize,
    /// Address of the load/store instruction (the Access Tracker's key).
    pub pc: u64,
    /// The accessed data address.
    pub vaddr: Addr,
    /// The base register used in address generation, when there was one —
    /// the Scale Tracker looks up this register's scale.
    pub base: Option<Reg>,
    /// Load or store.
    pub kind: AccessKind,
    /// How the hierarchy served the access.
    pub outcome: AccessOutcome,
    /// Access time.
    pub now: Cycle,
}

impl AccessEvent {
    /// `true` when the access missed the private L1D.
    pub fn l1_miss(&self) -> bool {
        !self.outcome.l1_hit()
    }
}

/// A prefetch proposed by a prefetcher, to be issued into the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target address (any byte within the desired line).
    pub addr: Addr,
    /// Attribution for statistics (paper Figures 9 and 11).
    pub source: PrefetchSource,
}

impl PrefetchRequest {
    /// Convenience constructor.
    pub fn new(addr: Addr, source: PrefetchSource) -> Self {
        PrefetchRequest { addr, source }
    }
}

#[cfg(test)]
pub(crate) use tests::access as test_access;

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_sim::Level;

    /// Builds a synthetic access event for prefetcher unit tests.
    pub(crate) fn access(pc: u64, addr: u64, l1_hit: bool) -> AccessEvent {
        AccessEvent {
            core: 0,
            pc,
            vaddr: Addr::new(addr),
            base: None,
            kind: AccessKind::Read,
            outcome: AccessOutcome {
                latency: if l1_hit { 4 } else { 200 },
                served_by: if l1_hit { Level::L1 } else { Level::Memory },
                first_prefetch_use: false,
                prefetch_source: None,
            },
            now: Cycle::ZERO,
        }
    }

    #[test]
    fn l1_miss_classification() {
        assert!(!access(0, 0, true).l1_miss());
        assert!(access(0, 0, false).l1_miss());
    }

    #[test]
    fn request_constructor() {
        let r = PrefetchRequest::new(Addr::new(0x40), PrefetchSource::Basic);
        assert_eq!(r.addr, Addr::new(0x40));
        assert_eq!(r.source, PrefetchSource::Basic);
    }
}
