//! Property test pinning [`MemorySystem::fetch`]'s last-hit shortcut
//! bit-for-bit against the full L1I lookup.
//!
//! Two hierarchies run the same random schedule: one fetches through
//! `fetch` (shortcut first), the other always through `fetch_lookup`
//! (the full `demand_lookup`). Schedules mix two cores' fetches, loads,
//! stores and prefetches over lines that collide in both the 2-way L1I
//! and the 4-way L2 — so L2 misses back-invalidate L1I lines — with
//! flushes, idle time and whole-hierarchy resets. Every fetch latency,
//! every L1I's counters and residency, and the victim a later fill
//! picks must agree at every step. A unit test pins
//! [`MemorySystem::book_fetch_hits`] against repeated fetches the same
//! way.

use proptest::prelude::*;

use crate::{AccessKind, Addr, Cycle, HierarchyConfig, MemorySystem, PrefetchSource};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `times` back-to-back fetches of one line (straight-line code).
    Fetch {
        core: usize,
        slot: u64,
        times: u64,
    },
    Access {
        core: usize,
        slot: u64,
        write: bool,
    },
    Prefetch {
        core: usize,
        slot: u64,
    },
    Flush {
        slot: u64,
    },
    Wait {
        cycles: u64,
    },
    Reset,
}

/// Pool size: six lines in each of two sets (see [`addr_of`]), more
/// than the L1I's 2 ways and the L2's 4.
const SLOTS: u64 = 12;

fn arb_fetch() -> impl Strategy<Value = Op> {
    (0usize..2, 0..SLOTS, 1u64..5).prop_map(|(core, slot, times)| Op::Fetch { core, slot, times })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Fetches are listed four times: half of all steps fetch.
    prop_oneof![
        arb_fetch(),
        arb_fetch(),
        arb_fetch(),
        arb_fetch(),
        (0usize..2, 0..SLOTS, 0u8..2).prop_map(|(core, slot, w)| Op::Access {
            core,
            slot,
            write: w == 1
        }),
        (0usize..2, 0..SLOTS).prop_map(|(core, slot)| Op::Prefetch { core, slot }),
        (0..SLOTS).prop_map(|slot| Op::Flush { slot }),
        (0u64..400).prop_map(|cycles| Op::Wait { cycles }),
        Just(Op::Reset),
    ]
}

/// Slot `s` lands in set `s % 2` of both the tiny L1I (8 sets) and the
/// tiny L2 (32 sets): 2048 bytes is a multiple of both set strides.
fn addr_of(slot: u64) -> Addr {
    Addr::new((slot % 2) * 64 + (slot / 2) * 2048)
}

fn tiny() -> MemorySystem {
    MemorySystem::new(HierarchyConfig::tiny(2).unwrap())
}

/// The victim the L1I of `core` picks next in `slot`'s set: fetch a line
/// from outside the pool into that set on a copy and report the
/// residency it leaves.
fn next_victim(m: &MemorySystem, core: usize, slot: u64, now: Cycle) -> Vec<Addr> {
    let mut m = m.clone();
    m.fetch_lookup(core, addr_of(slot + SLOTS), now);
    m.l1i(core).resident_lines()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fetch_shortcut_matches_full_lookup(ops in prop::collection::vec(arb_op(), 1..80)) {
        let (mut fast, mut full) = (tiny(), tiny());
        let mut now = Cycle::ZERO;
        for op in ops {
            match op {
                Op::Fetch { core, slot, times } => {
                    for _ in 0..times {
                        let a = addr_of(slot);
                        let lat = fast.fetch(core, a, now);
                        prop_assert_eq!(lat, full.fetch_lookup(core, a, now), "fetch at {:?}", now);
                        prop_assert_eq!(
                            next_victim(&fast, core, slot, now),
                            next_victim(&full, core, slot, now)
                        );
                        now += lat + 1;
                    }
                }
                Op::Access { core, slot, write } => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let out = fast.access(core, addr_of(slot), kind, now);
                    prop_assert_eq!(out, full.access(core, addr_of(slot), kind, now));
                    now += out.latency;
                }
                Op::Prefetch { core, slot } => {
                    let src = PrefetchSource::Basic;
                    prop_assert_eq!(
                        fast.prefetch(core, addr_of(slot), src, now),
                        full.prefetch(core, addr_of(slot), src, now)
                    );
                }
                Op::Flush { slot } => {
                    prop_assert_eq!(fast.flush(addr_of(slot), now), full.flush(addr_of(slot), now));
                }
                Op::Wait { cycles } => now += cycles,
                Op::Reset => {
                    fast.reset();
                    full.reset();
                    now = Cycle::ZERO;
                }
            }
            for core in 0..2 {
                prop_assert_eq!(fast.l1i(core).stats(), full.l1i(core).stats());
                prop_assert_eq!(fast.l1i(core).resident_lines(), full.l1i(core).resident_lines());
            }
            prop_assert_eq!(fast.l2().resident_lines(), full.l2().resident_lines());
        }
    }
}

/// Booking `k` fetches of the last-hit line at once equals `k` fetch
/// calls: latencies, L1I counters, the line's last touch, and the victim
/// a later conflicting fill picks. The set also holds a line filled after
/// the last-hit line's own hit, so that victim turns on the booked
/// recency.
#[test]
fn booked_fetch_hits_equal_repeated_fetches() {
    let (a, b) = (addr_of(0), addr_of(2));
    for k in 0..6u64 {
        let mut fetched = tiny();
        assert!(fetched.fetch(0, a, Cycle::ZERO) > 0, "cold miss");
        assert_eq!(fetched.fetch(0, a, Cycle::new(300)), 0, "hit: `a` takes the last-hit slot");
        assert!(fetched.fetch(0, b, Cycle::new(400)) > 0, "a miss leaves the slot alone");
        let mut booked = fetched.clone();
        assert_eq!(booked.fetch_hit_line(0), Some(a));

        let t0 = 1000;
        for i in 0..k {
            assert_eq!(fetched.fetch(0, a, Cycle::new(t0 + i)), 0);
        }
        booked.book_fetch_hits(0, k, Cycle::new(t0 + k.max(1) - 1));

        assert_eq!(booked.l1i(0).stats(), fetched.l1i(0).stats(), "k = {k}");
        assert_eq!(booked.l1i(0).last_touch_of(a), fetched.l1i(0).last_touch_of(a), "k = {k}");
        let later = Cycle::new(5000);
        assert_eq!(next_victim(&booked, 0, 0, later), next_victim(&fetched, 0, 0, later));
    }
    // The booked recency decides the victim: `b` goes once `a` is hit
    // again, `a` goes otherwise.
    let mut m = tiny();
    m.fetch(0, a, Cycle::ZERO);
    m.fetch(0, a, Cycle::new(300));
    m.fetch(0, b, Cycle::new(400));
    let untouched = next_victim(&m, 0, 0, Cycle::new(5000));
    m.book_fetch_hits(0, 3, Cycle::new(1002));
    let touched = next_victim(&m, 0, 0, Cycle::new(5000));
    assert!(untouched.contains(&b) && !untouched.contains(&a), "{untouched:?}");
    assert!(touched.contains(&a) && !touched.contains(&b), "{touched:?}");
}

/// The shortcut actually fires: after one full-lookup hit, the next
/// fetch of the same line is answered from the last-hit slot.
#[test]
fn repeated_fetch_takes_the_shortcut() {
    let mut m = tiny();
    let a = addr_of(3);
    let miss = m.fetch(0, a, Cycle::ZERO);
    assert!(miss > 0);
    assert_eq!(m.fetch(0, a, Cycle::new(miss)), 0);
    let mut l1i = m.l1i(0).clone();
    assert!(l1i.demand_hit_last(a, Cycle::new(miss + 1)));
    assert!(!l1i.demand_hit_last(addr_of(5), Cycle::new(miss + 2)));
}
