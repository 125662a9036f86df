//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use prefender::core::{AccessTracker, AtConfig, CalculationBuffer, RecordProtector, RpConfig};
use prefender::isa::{Instr, Operand, Program, Reg};
use prefender::sim::{AccessKind, Addr, Cache, CacheConfig, Cycle, MshrFile};

// ---------- ISA: assembler/disassembler ----------

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|n| Reg::new(n).expect("in range"))
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![arb_reg().prop_map(Operand::Reg), (-0x10000i64..0x10000).prop_map(Operand::Imm)]
}

fn arb_linear_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), -0x10_0000i64..0x10_0000).prop_map(|(rd, imm)| Instr::LoadImm { rd, imm }),
        (arb_reg(), arb_reg(), -4096i64..4096).prop_map(|(rd, base, offset)| Instr::Load {
            rd,
            base,
            offset
        }),
        (arb_reg(), arb_reg(), -4096i64..4096).prop_map(|(src, base, offset)| Instr::Store {
            src,
            base,
            offset
        }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Add { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Sub { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Mul { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Shl { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Shr { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::And { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Or { rd, a, b }),
        (arb_reg(), arb_reg(), arb_operand()).prop_map(|(rd, a, b)| Instr::Xor { rd, a, b }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Instr::Mov { rd, rs }),
        (arb_reg(), -4096i64..4096).prop_map(|(base, offset)| Instr::Flush { base, offset }),
        arb_reg().prop_map(|rd| Instr::Rdtsc { rd }),
        Just(Instr::Nop),
        Just(Instr::Halt),
    ]
}

proptest! {
    /// Disassembling then re-assembling any straight-line program yields
    /// the identical instruction sequence.
    #[test]
    fn asm_round_trip(instrs in prop::collection::vec(arb_linear_instr(), 1..40)) {
        let p = Program::from_instrs(instrs).expect("no branches, always valid");
        let text = p.to_string();
        let p2 = Program::parse(&text).expect("disassembly must re-assemble");
        prop_assert_eq!(p.instrs(), p2.instrs());
    }

    /// The calculation buffer never tracks a non-positive scale, and a
    /// register with a valid fixed value never carries a usable scale
    /// larger than 1 needing prefetch (constants cannot select lines).
    #[test]
    fn calc_buffer_scale_invariants(instrs in prop::collection::vec(arb_linear_instr(), 0..200)) {
        let mut buf = CalculationBuffer::new();
        for i in &instrs {
            buf.apply(i);
            for r in Reg::all() {
                let t = buf.get(r);
                if let Some(sc) = t.sc {
                    prop_assert!(sc > 0, "{r}: non-positive scale {sc} after {i}");
                }
            }
        }
    }

    /// `mov` always copies the tracked state verbatim.
    #[test]
    fn calc_buffer_mov_copies(instrs in prop::collection::vec(arb_linear_instr(), 0..60),
                              src in arb_reg(), dst in arb_reg()) {
        let mut buf = CalculationBuffer::new();
        for i in &instrs {
            buf.apply(i);
        }
        let before = buf.get(src);
        buf.apply(&Instr::Mov { rd: dst, rs: src });
        prop_assert_eq!(buf.get(dst), before);
    }
}

// ---------- Access Tracker: DiffMin is the true pairwise minimum ----------

proptest! {
    #[test]
    fn diffmin_is_brute_force_minimum(blocks in prop::collection::vec(0u64..256, 1..20)) {
        let mut at = AccessTracker::new(AtConfig::paper());
        let mut decision = None;
        for (k, b) in blocks.iter().enumerate() {
            let blk = Addr::new(0x10_0000 + b * 64);
            decision = Some(at.on_load(0x8000, blk, Cycle::new(k as u64), None, &|_| false));
        }
        let buf = at.buffer(decision.unwrap().buffer.unwrap());
        // Brute-force expectation over the *recorded* blocks (the buffer
        // holds at most 8 after LRU eviction).
        let recorded: Vec<u64> = buf.blocks().collect();
        let mut expect = None;
        for i in 0..recorded.len() {
            for j in (i + 1)..recorded.len() {
                let d = recorded[i].abs_diff(recorded[j]);
                if d != 0 {
                    expect = Some(expect.map_or(d, |m: u64| m.min(d)));
                }
            }
        }
        prop_assert_eq!(buf.diffmin(), expect);
    }

    /// The tracker never prefetches a line that is already recorded in
    /// the activated buffer or resident in the cache.
    #[test]
    fn at_never_prefetches_recorded_or_resident(blocks in prop::collection::vec(0u64..64, 4..30)) {
        let mut at = AccessTracker::new(AtConfig::paper());
        let resident = |a: Addr| a.raw().is_multiple_of(128); // arbitrary residency rule
        for (k, b) in blocks.iter().enumerate() {
            let blk = Addr::new(0x10_0000 + b * 64);
            let d = at.on_load(0x8000, blk, Cycle::new(k as u64), None, &resident);
            if let Some((addr, _)) = d.prefetch {
                prop_assert!(!resident(addr), "prefetched a resident line {addr}");
                let buf = at.buffer(d.buffer.unwrap());
                prop_assert!(!buf.blocks().any(|b| b == addr.raw()), "prefetched a recorded line");
            }
        }
    }
}

// ---------- Record Protector: pattern algebra ----------

proptest! {
    /// After recording (sc, blk), every address blk + k·sc hits, and the
    /// replacement rule keeps the *sparser* of two related patterns.
    #[test]
    fn rp_pattern_membership(sc_idx in 0usize..4, blk in 0u64..1000, k in -50i64..50) {
        let scales = [0x80u64, 0x100, 0x200, 0x400];
        let sc = scales[sc_idx];
        let blk = 0x100_0000 + blk * 64;
        let mut rp = RecordProtector::new(RpConfig::paper());
        rp.record(sc, blk, Cycle::ZERO);
        let member = (blk as i64 + k * sc as i64).max(0) as u64;
        prop_assert_eq!(rp.hit(member), Some((sc, blk)));
    }

    #[test]
    fn rp_subset_keeps_sparser(base in 0u64..100, mult in 1u64..8) {
        // Pattern A: sc, pattern B: sc*mult with matching phase — B ⊂ A.
        let sc = 0x100u64;
        let blk = 0x100_0000 + base * sc;
        let mut rp = RecordProtector::new(RpConfig::paper());
        rp.record(sc, blk, Cycle::ZERO);
        rp.record(sc * mult, blk, Cycle::ZERO);
        let entries = rp.entries();
        prop_assert_eq!(entries.len(), 1, "related patterns must merge");
        prop_assert_eq!(entries[0].sc, sc * mult.max(1));
    }
}

// ---------- Cache: structural invariants ----------

proptest! {
    /// Occupancy never exceeds capacity, and a filled line is always
    /// findable until evicted or invalidated.
    #[test]
    fn cache_occupancy_bounded(ops in prop::collection::vec((0u64..512, 0u8..3), 1..200)) {
        let cfg = CacheConfig::new("T", 4096, 2, 64, 4).expect("valid");
        let capacity = 4096 / 64;
        let mut c = Cache::new(cfg);
        for (k, (line, op)) in ops.iter().enumerate() {
            let addr = Addr::new(line * 64);
            let now = Cycle::new(k as u64);
            match op {
                0 => {
                    c.fill(addr, now, None, false);
                    prop_assert!(c.contains(addr));
                }
                1 => {
                    c.invalidate(addr);
                    prop_assert!(!c.contains(addr));
                }
                _ => {
                    c.demand_lookup(addr, now);
                }
            }
            prop_assert!(c.occupancy() <= capacity);
        }
    }

    /// The MSHR file never reports more outstanding entries than its
    /// capacity, and completion times never move backwards for merges.
    #[test]
    fn mshr_invariants(reqs in prop::collection::vec((0u64..16, 1u64..50), 1..100)) {
        let mut m = MshrFile::new(4, 20);
        let mut now = Cycle::ZERO;
        for (line, gap) in reqs {
            now += gap;
            let out = m.request(line * 64, now, 200);
            prop_assert!(out.ready_at() > now);
            prop_assert!(m.occupancy(now) <= 4);
        }
    }
}

// ---------- Machine: determinism over arbitrary linear programs ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn machine_is_deterministic(instrs in prop::collection::vec(arb_linear_instr(), 1..60)) {
        use prefender::{HierarchyConfig, Machine};
        let p = Program::from_instrs(instrs).expect("linear program");
        let run = || {
            let mut m = Machine::new(HierarchyConfig::paper_baseline(1).expect("valid"));
            m.load_program(0, p.clone());
            let s = m.run();
            (s.cycles, s.instructions, m.core(0).regs().clone())
        };
        prop_assert_eq!(run(), run());
    }

    /// Flushing a line always forces the next access to memory, no matter
    /// what happened before.
    #[test]
    fn flush_always_forces_memory(lines in prop::collection::vec(0u64..64, 1..30), victim in 0u64..64) {
        use prefender::{HierarchyConfig, MemorySystem};
        let mut mem = MemorySystem::new(HierarchyConfig::paper_baseline(1).expect("valid"));
        let mut now = Cycle::ZERO;
        for l in lines {
            mem.access(0, Addr::new(0x10_0000 + l * 64), AccessKind::Read, now);
            now += 300;
        }
        let target = Addr::new(0x10_0000 + victim * 64);
        mem.flush(target, now);
        now += 300;
        let out = mem.access(0, target, AccessKind::Read, now);
        prop_assert_eq!(out.served_by, prefender::sim::Level::Memory);
    }
}

// ---------- Machine: bursts retire exactly like single steps ----------

/// One piece of a generated program: a straight-line instruction, a run
/// of `nop`s, or a branch whose target is resolved once the program's
/// length is known.
#[derive(Debug, Clone)]
enum Piece {
    Linear(Instr),
    Nops(usize),
    Branch {
        kind: u8,
        a: Reg,
        b: Reg,
        target: usize,
    },
    /// A secret-indexed load the Scale Tracker learns a usable scale
    /// for: `ld a, 0(b)`, `mul a, a, scale`, `add a, a, 0x10_0000`,
    /// `ld b, 0(a)`.
    Scaled {
        a: Reg,
        b: Reg,
        scale: i64,
    },
}

fn arb_branch() -> impl Strategy<Value = Piece> {
    (0u8..4, arb_reg(), arb_reg(), 0usize..1000).prop_map(|(kind, a, b, target)| Piece::Branch {
        kind,
        a,
        b,
        target,
    })
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    // Linear instructions are listed three times and branches twice.
    prop_oneof![
        arb_linear_instr().prop_map(Piece::Linear),
        arb_linear_instr().prop_map(Piece::Linear),
        arb_linear_instr().prop_map(Piece::Linear),
        arb_reg().prop_map(|rd| Piece::Linear(Instr::Rdtsc { rd })),
        (arb_reg(), -256i64..256)
            .prop_map(|(base, offset)| Piece::Linear(Instr::Flush { base, offset })),
        (1usize..9).prop_map(Piece::Nops),
        // Long blocks spread code over more lines than the tiny L1I's
        // 8 sets × 2 ways hold, so its LRU victims depend on recency.
        (64usize..160).prop_map(Piece::Nops),
        arb_branch(),
        arb_branch(),
        (arb_reg(), arb_reg(), 1i64..5).prop_map(|(a, b, k)| Piece::Scaled {
            a,
            b,
            scale: 64 << k
        }),
    ]
}

fn build_program(pieces: &[Piece]) -> Program {
    let len: usize = pieces
        .iter()
        .map(|p| match p {
            Piece::Nops(n) => *n,
            Piece::Scaled { .. } => 4,
            _ => 1,
        })
        .sum();
    let mut instrs = Vec::with_capacity(len);
    for p in pieces {
        match *p {
            Piece::Linear(i) => instrs.push(i),
            Piece::Nops(n) => instrs.extend(std::iter::repeat_n(Instr::Nop, n)),
            Piece::Scaled { a, b, scale } => instrs.extend([
                Instr::Load { rd: a, base: b, offset: 0 },
                Instr::Mul { rd: a, a, b: Operand::Imm(scale) },
                Instr::Add { rd: a, a, b: Operand::Imm(0x10_0000) },
                Instr::Load { rd: b, base: a, offset: 0 },
            ]),
            Piece::Branch { kind, a, b, target } => {
                let target = target % len;
                instrs.push(match kind {
                    0 => Instr::Jmp { target },
                    1 => Instr::Bnz { cond: a, target },
                    2 => Instr::Beq { a, b, target },
                    _ => Instr::Blt { a, b, target },
                });
            }
        }
    }
    Program::from_instrs(instrs).expect("branch targets are in range")
}

/// The machine setup a burst-invariance case runs: per-core programs and
/// start cycles, fetch modelling, the instruction cap and the defense.
#[derive(Debug, Clone)]
struct BurstCase {
    programs: Vec<(Program, u64)>,
    model_fetch: bool,
    max_instructions: u64,
    defense: u8,
}

fn arb_burst_case() -> impl Strategy<Value = BurstCase> {
    (
        prop::collection::vec((prop::collection::vec(arb_piece(), 1..24), 0u64..40), 1..4),
        0u8..2,
        1u64..1500,
        0u8..3,
    )
        .prop_map(|(cores, model_fetch, max_instructions, defense)| BurstCase {
            programs: cores.iter().map(|(p, start)| (build_program(p), *start)).collect(),
            model_fetch: model_fetch == 1,
            max_instructions,
            defense,
        })
}

fn burst_machine(case: &BurstCase) -> prefender::Machine {
    use prefender::attacks::Basic;
    use prefender::{CpuConfig, DefenseConfig, HierarchyConfig, Machine};
    let n = case.programs.len();
    let cfg = CpuConfig {
        model_fetch: case.model_fetch,
        max_instructions: case.max_instructions,
        ..CpuConfig::default()
    };
    let mut m = Machine::with_cpu_config(HierarchyConfig::tiny(n).expect("valid"), cfg);
    let (defense, basic) = match case.defense {
        0 => (DefenseConfig::None, Basic::None),
        1 => (DefenseConfig::Full, Basic::None),
        _ => (DefenseConfig::None, Basic::Stride),
    };
    for (c, (program, start)) in case.programs.iter().enumerate() {
        if let Some(p) = defense.build_prefetcher(64, 4096, 16, basic) {
            m.set_prefetcher(c, p);
        }
        m.write_data(0x40 * c as u64, 0x1000 + c as u64);
        m.load_program_at(c, program.clone(), Cycle::new(*start));
    }
    m.trace_mut().set_enabled(true);
    m
}

/// Everything a run leaves behind that a burst could disturb.
#[derive(Debug, PartialEq)]
struct MachineState {
    trace: Vec<prefender::cpu::TraceEntry>,
    cores: Vec<(prefender::cpu::RegFile, usize, Cycle, u64)>,
    caches: Vec<(prefender::sim::CacheStats, Vec<Addr>)>,
    /// Per core and L1I set, the residency a conflicting fetch leaves:
    /// the LRU victims, which read every line's last touch.
    l1i_victims: Vec<Vec<Addr>>,
    prefetchers: Vec<PrefetcherState>,
}

/// One core's prefetches issued, with PREFENDER's per-unit counters and
/// its Scale Tracker's calculation buffer when it runs PREFENDER.
type PrefetcherState = (u64, Option<(prefender::PrefenderStats, Option<CalculationBuffer>)>);

fn machine_state(m: &prefender::Machine) -> MachineState {
    let mem = m.mem();
    let mut caches = Vec::new();
    let mut l1i_victims = Vec::new();
    for c in 0..m.n_cores() {
        for cache in [mem.l1i(c), mem.l1d(c)] {
            caches.push((*cache.stats(), cache.resident_lines()));
        }
        for set in 0..mem.l1i(c).config().n_sets() {
            let mut probe = mem.clone();
            probe.fetch(c, Addr::new(0x40_0000 + set * 64), m.now() + 1000);
            l1i_victims.push(probe.l1i(c).resident_lines());
        }
    }
    caches.push((*mem.l2().stats(), mem.l2().resident_lines()));
    MachineState {
        trace: m.trace().entries().to_vec(),
        cores: (0..m.n_cores())
            .map(|c| {
                let core = m.core(c);
                (core.regs().clone(), core.pc_index(), core.ready_at(), core.retired())
            })
            .collect(),
        caches,
        l1i_victims,
        prefetchers: (0..m.n_cores())
            .map(|c| match m.prefetcher(c) {
                Some(p) => (
                    p.issued(),
                    p.as_any()
                        .and_then(|a| a.downcast_ref::<prefender::Prefender>())
                        .map(|p| (p.stats(), p.scale_tracker().map(|st| st.calc().clone()))),
                ),
                None => (0, None),
            })
            .collect(),
    }
}

fn retired_total(m: &prefender::Machine) -> u64 {
    (0..m.n_cores()).map(|c| m.core(c).retired()).sum()
}

/// `Machine::step` until the cap, summarised the way `run` reports.
fn run_by_steps(m: &mut prefender::Machine, cap: u64) -> prefender::RunSummary {
    let mut executed = 0;
    while executed < cap && m.step() {
        executed += 1;
    }
    prefender::RunSummary {
        cycles: m.now().raw(),
        instructions: retired_total(m),
        truncated: executed >= cap,
    }
}

/// `run_until(deadline)` re-enacted with single steps: step while the
/// earliest-ready running core is ready before the deadline.
fn run_until_by_steps(
    m: &mut prefender::Machine,
    deadline: Cycle,
    cap: u64,
) -> prefender::RunSummary {
    use prefender::cpu::CoreState;
    let start = retired_total(m);
    let mut executed = 0;
    while executed < cap {
        let earliest = (0..m.n_cores())
            .map(|c| m.core(c))
            .filter(|c| c.state() == CoreState::Running)
            .map(|c| c.ready_at())
            .min();
        match earliest {
            Some(t) if t < deadline => {
                m.step();
                executed += 1;
            }
            _ => break,
        }
    }
    prefender::RunSummary {
        cycles: m.now().raw(),
        instructions: retired_total(m) - start,
        truncated: executed >= cap,
    }
}

/// Steps `case` to its cap and checks, after every step, that each
/// core's Scale Tracker has seen every instruction the core retired: it
/// agrees with a reference calculation buffer fed those instructions.
fn scale_trackers_keep_up_with_steps(case: &BurstCase) -> Result<(), TestCaseError> {
    use prefender::Prefender;
    let mut m = burst_machine(case);
    let n = m.n_cores();
    let mut reference = vec![CalculationBuffer::new(); n];
    for _ in 0..case.max_instructions {
        let before: Vec<(u64, usize)> =
            (0..n).map(|c| (m.core(c).retired(), m.core(c).pc_index())).collect();
        if !m.step() {
            break;
        }
        for (c, &(retired, pc_index)) in before.iter().enumerate() {
            let core = m.core(c);
            if core.retired() > retired {
                let program = core.program().expect("a running core has a program");
                reference[c].apply(program.instr(pc_index).expect("it retired"));
            }
            let st = m
                .prefetcher(c)
                .and_then(|p| p.as_any())
                .and_then(|a| a.downcast_ref::<Prefender>())
                .and_then(|p| p.scale_tracker())
                .expect("full PREFENDER has a Scale Tracker");
            prop_assert_eq!(st.calc(), &reference[c]);
        }
    }
    Ok(())
}

fn any_running(m: &prefender::Machine) -> bool {
    (0..m.n_cores()).any(|c| m.core(c).state() == prefender::cpu::CoreState::Running)
}

/// Runs `f` with the flight recorder armed and returns what it returned
/// plus the events it captured on this thread.
fn with_recorder<T>(f: impl FnOnce() -> T) -> (T, Vec<prefender::obs::TraceEvent>) {
    use prefender::obs::{arm_trace, disarm_trace, take_thread_trace};
    let _ = take_thread_trace();
    arm_trace(1 << 16);
    let out = f();
    disarm_trace();
    let buf = take_thread_trace();
    assert_eq!(buf.dropped, 0, "the recorder must capture every event");
    (out, buf.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `run`, a `step` loop and `run_until` in slices leave identical
    /// machines — results, caches, prefetchers and the flight-recorder
    /// stream — on random 1–3 core programs, with fetch on and off, under
    /// no defense, full PREFENDER and a Stride prefetcher, with caps
    /// small enough to truncate.
    #[test]
    fn bursts_retire_like_single_steps(case in arb_burst_case(), slice in 1u64..60) {
        let cap = case.max_instructions;
        let by_run = |case: &BurstCase| {
            let mut m = burst_machine(case);
            let s = m.run();
            (s, machine_state(&m))
        };
        let by_steps = |case: &BurstCase| {
            let mut m = burst_machine(case);
            let s = run_by_steps(&mut m, cap);
            (s, machine_state(&m))
        };
        let (run, run_events) = with_recorder(|| by_run(&case));
        let (steps, step_events) = with_recorder(|| by_steps(&case));
        if run.0.truncated && !case.model_fetch {
            // With fetch unmodelled `run` retires each `nop` run in one
            // batch, which may carry a core past another's time, so where
            // the cap cuts differs from single steps (as it always has).
            // `run_until`, which never batches, covers this case below.
            prop_assert!(steps.0.truncated);
        } else {
            prop_assert_eq!(&run, &steps);
            prop_assert_eq!(run_events, step_events);
        }
        // Disarmed, bursts book L1I hits in bulk: the same machines again.
        prop_assert_eq!(&by_run(&case), &run);
        prop_assert_eq!(&by_steps(&case), &steps);

        // `run_until` in slices against its single-step re-enactment.
        let (mut sliced, mut stepped) = (burst_machine(&case), burst_machine(&case));
        let mut deadline = Cycle::ZERO;
        while any_running(&sliced) && retired_total(&sliced) < 4 * cap {
            deadline += slice;
            prop_assert_eq!(
                sliced.run_until(deadline),
                run_until_by_steps(&mut stepped, deadline, cap),
                "slice ending at {:?}", deadline
            );
        }
        prop_assert_eq!(machine_state(&sliced), machine_state(&stepped));
        if !run.0.truncated {
            prop_assert!(!any_running(&sliced));
            prop_assert_eq!(machine_state(&sliced), run.1);
        }
        if case.defense == 1 {
            scale_trackers_keep_up_with_steps(&case)?;
        }
    }
}
