//! Superblock exactness property test: on random programs — ALU traffic,
//! core-disjoint scratch loads/stores, short forward branches and jumps,
//! **self-modifying stores into the fused code region**, and fault-plan
//! triggers landing in the interior of a would-be block — execution with
//! superblocks enabled is bit-identical to single-stepping: registers,
//! memory, the cycle clock, retired-instruction counts and the full
//! performance-counter block, under every sched x timing combination the
//! battery fans over.
//!
//! Each core runs its own private copy of the generated body (the prelude
//! dispatches on the MMIO core id), so self-modifying stores stay
//! per-core: the relaxed contract excludes *cross-core* code patching (a
//! core racing another core's fetch of the same word), so the generator
//! keeps every program inside the deterministic envelope by construction.

use izhi_isa::encode;
use izhi_isa::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use izhi_isa::reg::Reg;
use izhi_sim::{
    layout, FaultKind, FaultPlan, SchedMode, SimError, System, SystemConfig, TimingModel,
};
use proptest::prelude::*;

/// Per-core scratch page (core id shifted into bits 12+ by the prelude).
const PAGE: u32 = 0x1000;

/// Base register holding `SCRATCH_BASE + core_id * PAGE`; generated
/// instructions never write it, so every data access stays inside the
/// executing core's own page and the program is race-free by construction.
const BASE: Reg = Reg(8);

/// Register holding an encoded `addi x6, x6, 1` word: the payload the
/// self-modifying stores write over the code region.
const CODE: Reg = Reg(7);

/// Register holding the base address of the executing core's own body
/// copy; self-modifying stores are relative to it, so a core only ever
/// patches code it alone executes.
const CBASE: Reg = Reg(5);

/// Generated program length cap (used to bound code-store targets).
const MAX_INSTS: usize = 80;

/// Ebreak terminators behind each body copy. Code stores cannot reach
/// them, so execution can never run off the end of its own copy (and in
/// particular core 0 can never fall through into core 1's copy).
const PAD: usize = 4;

/// Byte span of one body copy including its protected terminator pad.
const SPAN: usize = 4 * (MAX_INSTS + PAD);

/// Instructions in [`prelude`]; the body copies start right behind it.
const PRELUDE_LEN: usize = 11;

/// First byte of core 0's body copy; core 1's starts `SPAN` later.
const BODY_BASE: usize = 4 * PRELUDE_LEN;

/// Prelude: x9 <- core id (MMIO), x8 <- SCRATCH_BASE + id * PAGE,
/// x7 <- encode(addi x6, x6, 1), x5 <- BODY_BASE + id * SPAN, then an
/// indirect jump into the core's own body copy.
fn prelude() -> Vec<Inst> {
    let word = encode(Inst::OpImm {
        op: AluImmOp::Addi,
        rd: Reg(6),
        rs1: Reg(6),
        imm: 1,
    });
    // li expansion: hi20 rounds so the sign-extended addi lands exactly.
    let hi = word.wrapping_add(0x800) & 0xFFFF_F000;
    let lo = word.wrapping_sub(hi) as i32;
    vec![
        Inst::Lui {
            rd: Reg(9),
            imm: 0xF000_0000u32 as i32,
        },
        Inst::Load {
            op: LoadOp::Lw,
            rd: Reg(9),
            rs1: Reg(9),
            imm: layout::MMIO_COREID as i32,
        },
        Inst::Lui {
            rd: BASE,
            imm: layout::SCRATCH_BASE as i32,
        },
        Inst::OpImm {
            op: AluImmOp::Slli,
            rd: CBASE,
            rs1: Reg(9),
            imm: 12,
        },
        Inst::Op {
            op: AluOp::Add,
            rd: BASE,
            rs1: BASE,
            rs2: CBASE,
        },
        Inst::Lui {
            rd: CODE,
            imm: hi as i32,
        },
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd: CODE,
            rs1: CODE,
            imm: lo,
        },
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd: CBASE,
            rs1: Reg(0),
            imm: SPAN as i32,
        },
        Inst::Op {
            op: AluOp::Mul,
            rd: CBASE,
            rs1: CBASE,
            rs2: Reg(9),
        },
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd: CBASE,
            rs1: CBASE,
            imm: BODY_BASE as i32,
        },
        Inst::Jalr {
            rd: Reg(0),
            rs1: CBASE,
            imm: 0,
        },
    ]
}

/// Any destination register except the three kept stable (scratch base,
/// code word, body-copy base).
fn arb_rd() -> impl Strategy<Value = Reg> {
    (0u8..31).prop_map(|r| match r {
        r if r == BASE.0 || r == CODE.0 || r == CBASE.0 => Reg(31),
        r => Reg(r),
    })
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = (0u8..32).prop_map(Reg);
    let alu_op = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Xor),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Mul),
        Just(AluOp::Mulhu),
        Just(AluOp::Div),
        Just(AluOp::Remu),
    ];
    let branch_op = prop_oneof![
        Just(BranchOp::Eq),
        Just(BranchOp::Ne),
        Just(BranchOp::Lt),
        Just(BranchOp::Geu),
    ];
    let load_op = prop_oneof![
        Just((LoadOp::Lw, 4u32)),
        Just((LoadOp::Lh, 2)),
        Just((LoadOp::Lhu, 2)),
        Just((LoadOp::Lb, 1)),
        Just((LoadOp::Lbu, 1)),
    ];
    let store_op = prop_oneof![
        Just((StoreOp::Sw, 4u32)),
        Just((StoreOp::Sh, 2)),
        Just((StoreOp::Sb, 1)),
    ];
    prop_oneof![
        (arb_rd(), -2048i32..2048).prop_map(|(rd, imm)| Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: Reg(10),
            imm
        }),
        (arb_rd(), (-(1i32 << 19)..(1 << 19))).prop_map(|(rd, p)| Inst::Lui { rd, imm: p << 12 }),
        (alu_op, arb_rd(), reg.clone(), reg.clone()).prop_map(|(op, rd, rs1, rs2)| Inst::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        // Data traffic stays inside [BASE, BASE + PAGE): offsets are
        // size-aligned and bounded well below the page size.
        (load_op, arb_rd(), 0i32..256).prop_map(|((op, size), rd, slot)| Inst::Load {
            op,
            rd,
            rs1: BASE,
            imm: slot * size as i32,
        }),
        (store_op, reg.clone(), 0i32..256).prop_map(|((op, size), rs2, slot)| Inst::Store {
            op,
            rs1: BASE,
            rs2,
            imm: slot * size as i32,
        }),
        // Short forward branches and jumps: block terminators. Skips are
        // bounded so a taken branch at the last generated instruction
        // still lands inside the ebreak pad.
        (branch_op, reg.clone(), reg.clone(), 1i32..4).prop_map(|(op, rs1, rs2, skip)| {
            Inst::Branch {
                op,
                rs1,
                rs2,
                imm: 4 * (skip + 1),
            }
        }),
        (arb_rd(), 1i32..4).prop_map(|(rd, skip)| Inst::Jal {
            rd,
            imm: 4 * (skip + 1),
        }),
        // Self-modifying store: overwrite a word of the executing core's
        // own body copy (possibly one a fused superblock covers, possibly
        // this store's own block tail) with `addi x6, x6, 1`.
        (0i32..(MAX_INSTS as i32)).prop_map(|slot| Inst::Store {
            op: StoreOp::Sw,
            rs1: CBASE,
            rs2: CODE,
            imm: 4 * slot,
        }),
    ]
}

/// The sched x timing combinations the scenario battery fans over.
fn modes() -> [SchedMode; 3] {
    let q = SchedMode::DEFAULT_QUANTUM;
    [
        SchedMode::Exact,
        SchedMode::Relaxed {
            quantum: q,
            timing: TimingModel::Unit,
        },
        SchedMode::Relaxed {
            quantum: q,
            timing: TimingModel::Estimated,
        },
    ]
}

fn run(
    insts: &[Inst],
    sched: SchedMode,
    superblocks: bool,
    faults: FaultPlan,
) -> (System, Result<(), SimError>) {
    let cfg = SystemConfig {
        n_cores: 2,
        sched,
        superblocks,
        faults,
        ..Default::default()
    };
    let mut sys = System::new(cfg);
    let pre = prelude();
    assert_eq!(pre.len(), PRELUDE_LEN);
    for (k, inst) in pre.iter().enumerate() {
        sys.shared_mut().mem.write_u32(4 * k as u32, encode(*inst));
    }
    // One private body copy per core; unused slots and the unreachable
    // terminator pad are ebreaks.
    let body: Vec<u32> = insts.iter().map(|i| encode(*i)).collect();
    let ebreak = encode(Inst::Ebreak);
    for copy in 0..2u32 {
        let base = BODY_BASE as u32 + copy * SPAN as u32;
        for slot in 0..(MAX_INSTS + PAD) {
            let word = body.get(slot).copied().unwrap_or(ebreak);
            sys.shared_mut().mem.write_u32(base + 4 * slot as u32, word);
        }
    }
    let res = sys.run(10_000_000).map(|_| ());
    (sys, res)
}

/// Full bit-identity: outcome, registers, clocks, the whole counter
/// block, and both the scratch pages and the (possibly self-modified)
/// code region.
fn assert_identical(
    on: &(System, Result<(), SimError>),
    off: &(System, Result<(), SimError>),
    tag: &str,
) {
    let ((on, on_res), (off, off_res)) = (on, off);
    prop_assert_eq!(on_res, off_res, "{}: outcome diverges", tag);
    for core in 0..2 {
        for r in 0..32u8 {
            prop_assert_eq!(
                on.core(core).reg(Reg(r)),
                off.core(core).reg(Reg(r)),
                "{}: core {} x{} diverges",
                tag,
                core,
                r
            );
        }
        prop_assert_eq!(
            on.core(core).time,
            off.core(core).time,
            "{}: core {} clock diverges",
            tag,
            core
        );
        prop_assert_eq!(
            on.core(core).counters,
            off.core(core).counters,
            "{}: core {} counters diverge",
            tag,
            core
        );
    }
    for word in 0..(2 * PAGE / 4) {
        let addr = layout::SCRATCH_BASE + 4 * word;
        prop_assert_eq!(
            on.shared().mem.read_u32(addr),
            off.shared().mem.read_u32(addr),
            "{}: scratch word {:#x} diverges",
            tag,
            addr
        );
    }
    for word in 0..(PRELUDE_LEN + 2 * (MAX_INSTS + PAD)) {
        let addr = 4 * word as u32;
        prop_assert_eq!(
            on.shared().mem.read_u32(addr),
            off.shared().mem.read_u32(addr),
            "{}: code word {:#x} diverges",
            tag,
            addr
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Superblocks on vs off: bit-identical under every battery mode,
    /// including across self-modifying stores into fused regions.
    #[test]
    fn superblocks_are_bit_identical_under_every_mode(
        insts in prop::collection::vec(arb_inst(), 1..MAX_INSTS),
    ) {
        for mode in modes() {
            let on = run(&insts, mode, true, FaultPlan::none());
            let off = run(&insts, mode, false, FaultPlan::none());
            assert_identical(&on, &off, &format!("{mode:?}"));
        }
    }

    /// A fault-plan trigger whose instret lands in the interior of a
    /// fused block must fire at exactly the same instruction either way
    /// (blocks near a trigger are refused, not split mid-dispatch).
    #[test]
    fn fault_triggers_fire_identically_inside_blocks(
        insts in prop::collection::vec(arb_inst(), 8..MAX_INSTS),
        at in 1u64..200,
        kind in prop_oneof![Just(FaultKind::GuestTrap), Just(FaultKind::CorruptSpike(1))],
    ) {
        for mode in modes() {
            let plan = FaultPlan::none().with(0, at, kind);
            let on = run(&insts, mode, true, plan.clone());
            let off = run(&insts, mode, false, plan);
            assert_identical(&on, &off, &format!("{mode:?} fault@{at}"));
        }
    }

    /// Relaxed quantum sweep: block formation must respect every slice
    /// boundary (blocks never run past `stop`), so any quantum stays
    /// bit-identical with superblocks on.
    #[test]
    fn any_relaxed_quantum_is_bit_identical(
        insts in prop::collection::vec(arb_inst(), 1..MAX_INSTS),
        quantum in 1u64..200,
    ) {
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            let mode = SchedMode::Relaxed { quantum, timing };
            let on = run(&insts, mode, true, FaultPlan::none());
            let off = run(&insts, mode, false, FaultPlan::none());
            assert_identical(&on, &off, &format!("{mode:?}"));
        }
    }
}
