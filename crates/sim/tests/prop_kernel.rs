//! Kernel-batch exactness property tests: executing a registered loop
//! span as a host batch (the native closed-form tier *and* the generic
//! `exec_op` batch) must be bit-identical to interpreting it — registers,
//! memory, the cycle clock and the full performance-counter block —
//! under every relaxed sched × timing combination, across array
//! placements that exercise every screen (scratch/SDRAM, overlapping
//! sweeps, misaligned bases, region-crossing sweeps), across device
//! accesses and traps met mid-batch (`nmpn` into MMIO or misaligned, a
//! store sweep off the end of SDRAM), under fault-plan triggers landing
//! mid-loop, and across self-modifying stores into the span's own code
//! words (which must invalidate the span).
//!
//! The programs are hand-assembled replicas of the engine's dense
//! phase-A scatter (the shape the native tier matches) plus generic
//! counted loops the structural audit accepts but the native matcher
//! does not — so both batch tiers are covered explicitly.

use izhi_isa::encode;
use izhi_isa::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, NmOp, StoreOp};
use izhi_isa::reg::Reg;
use izhi_sim::{
    layout, register_kernel_span, FaultKind, FaultPlan, KernelVariant, SchedMode, SimError,
    SpanState, System, SystemConfig, TimingModel,
};
use proptest::prelude::*;

const A2: Reg = Reg(12);
const T1: Reg = Reg(6);
const T3: Reg = Reg(28);
const T4: Reg = Reg(29);
const T5: Reg = Reg(30);

/// `li rd, val` as the canonical lui+addi pair (hi20 rounds so the
/// sign-extended addi lands exactly).
fn li(rd: Reg, val: u32) -> [Inst; 2] {
    let hi = val.wrapping_add(0x800) & 0xFFFF_F000;
    let lo = val.wrapping_sub(hi) as i32;
    [
        Inst::Lui { rd, imm: hi as i32 },
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: rd,
            imm: lo,
        },
    ]
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst {
    Inst::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

/// The engine's dense phase-A scatter, verbatim: the shape the native
/// tier matches. Entry at instruction 6 (pc 24).
fn dense_axpy_program(w_base: u32, i_base: u32, count: u32) -> (Vec<Inst>, u32) {
    let mut v = Vec::new();
    v.extend(li(A2, w_base));
    v.extend(li(T1, i_base));
    v.extend(li(T3, count));
    let entry = 4 * v.len() as u32;
    v.push(Inst::Load {
        op: LoadOp::Lh,
        rd: T4,
        rs1: A2,
        imm: 0,
    });
    v.push(Inst::Load {
        op: LoadOp::Lw,
        rd: T5,
        rs1: T1,
        imm: 0,
    });
    v.push(Inst::OpImm {
        op: AluImmOp::Slli,
        rd: T4,
        rs1: T4,
        imm: 8,
    });
    v.push(Inst::Op {
        op: AluOp::Add,
        rd: T5,
        rs1: T5,
        rs2: T4,
    });
    v.push(Inst::Store {
        op: StoreOp::Sw,
        rs1: T1,
        rs2: T5,
        imm: 0,
    });
    v.push(addi(A2, A2, 2));
    v.push(addi(T1, T1, 4));
    v.push(addi(T3, T3, -1));
    v.push(Inst::Branch {
        op: BranchOp::Ne,
        rs1: T3,
        rs2: Reg(0),
        imm: entry as i32 - 4 * v.len() as i32,
    });
    v.push(Inst::Ebreak);
    (v, entry)
}

/// Build a system, load `insts` at pc 0, seed the weight/accumulator
/// arrays, register the loop span, run. Returns the final system, the
/// run outcome and the registration outcome.
#[allow(clippy::too_many_arguments)]
fn run_dense(
    insts: &[Inst],
    entry: u32,
    sched: SchedMode,
    kernels: bool,
    faults: FaultPlan,
    weights: &[i16],
    w_base: u32,
    isyn: &[u32],
    i_base: u32,
) -> (System, Result<(), SimError>, bool) {
    let cfg = SystemConfig {
        n_cores: 1,
        sched,
        kernels,
        faults,
        ..Default::default()
    };
    let mut sys = System::new(cfg);
    for (k, inst) in insts.iter().enumerate() {
        sys.shared_mut().mem.write_u32(4 * k as u32, encode(*inst));
    }
    for (k, w) in weights.iter().enumerate() {
        sys.shared_mut()
            .mem
            .write_u16(w_base.wrapping_add(2 * k as u32), *w as u16);
    }
    for (k, w) in isyn.iter().enumerate() {
        sys.shared_mut()
            .mem
            .write_u32(i_base.wrapping_add(4 * k as u32), *w);
    }
    let registered = {
        let sh = sys.shared_mut();
        register_kernel_span(&mut sh.code, &sh.mem, entry, KernelVariant::DenseA).is_ok()
    };
    let res = sys.run(10_000_000).map(|_| ());
    (sys, res, registered)
}

/// The sched × timing combinations the scenario battery fans over.
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

/// Full single-core bit-identity: outcome, registers, clock, counters,
/// and the code + scratch + SDRAM-data windows the programs touch.
fn assert_identical(
    on: &(System, Result<(), SimError>),
    off: &(System, Result<(), SimError>),
    code_words: usize,
    tag: &str,
) {
    let ((on, on_res), (off, off_res)) = (on, off);
    assert_eq!(on_res, off_res, "{tag}: outcome diverges");
    for r in 0..32u8 {
        assert_eq!(
            on.core(0).reg(Reg(r)),
            off.core(0).reg(Reg(r)),
            "{tag}: x{r} diverges"
        );
    }
    assert_eq!(on.core(0).time, off.core(0).time, "{tag}: clock diverges");
    assert_eq!(
        on.core(0).counters,
        off.core(0).counters,
        "{tag}: counters diverge"
    );
    let scratch_size = on.shared().mem.scratch_size();
    let sdram_size = on.shared().mem.sdram_size();
    let windows = [
        (0u32, 4 * code_words as u32),
        (layout::SCRATCH_BASE + 0x1000, layout::SCRATCH_BASE + 0x4800),
        (
            layout::SCRATCH_BASE + scratch_size - 0x200,
            layout::SCRATCH_BASE + scratch_size,
        ),
        (0x2000, 0x3800),
        (sdram_size - 0x200, sdram_size),
    ];
    for (lo, hi) in windows {
        let mut addr = lo;
        while addr < hi {
            assert_eq!(
                on.shared().mem.read_u32(addr),
                off.shared().mem.read_u32(addr),
                "{tag}: word {addr:#x} diverges"
            );
            addr += 4;
        }
    }
}

/// Array placements: every screen of the native tier and the generic
/// batch loop gets exercised, including ones that end in a trap (which
/// must then trap identically).
#[derive(Debug, Clone, Copy)]
enum Placement {
    ScratchDisjoint,
    SdramDisjoint,
    ScratchWeightsSdramIsyn,
    SdramWeightsScratchIsyn,
    /// Accumulator sweep overlapping the weight sweep (order-exactness).
    ScratchOverlap,
    /// Odd weight base: the native screen fails and the first `lh`
    /// traps inside the generic batch.
    MisalignedWeights,
    /// Accumulator sweep crossing the end of scratch mid-loop.
    CrossesScratchEnd,
}

fn arb_placement() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::ScratchDisjoint),
        Just(Placement::SdramDisjoint),
        Just(Placement::ScratchWeightsSdramIsyn),
        Just(Placement::SdramWeightsScratchIsyn),
        Just(Placement::ScratchOverlap),
        Just(Placement::MisalignedWeights),
        Just(Placement::CrossesScratchEnd),
    ]
}

/// Resolve a placement to (weight base, accumulator base) for `count`
/// elements, given small aligned jitters.
fn bases(p: Placement, count: u32, w_off: u32, i_off: u32, scratch_size: u32) -> (u32, u32) {
    let s = layout::SCRATCH_BASE;
    match p {
        Placement::ScratchDisjoint => (s + 0x1000 + 2 * w_off, s + 0x3000 + 4 * i_off),
        Placement::SdramDisjoint => (0x2000 + 2 * w_off, 0x2C00 + 4 * i_off),
        Placement::ScratchWeightsSdramIsyn => (s + 0x1000 + 2 * w_off, 0x2C00 + 4 * i_off),
        Placement::SdramWeightsScratchIsyn => (0x2000 + 2 * w_off, s + 0x3000 + 4 * i_off),
        Placement::ScratchOverlap => {
            let w = s + 0x1000 + 2 * w_off;
            // Accumulator words start inside the live weight sweep.
            (w, (w + 2 * (i_off % count.max(1))) & !3)
        }
        Placement::MisalignedWeights => (s + 0x1001 + 2 * w_off, s + 0x3000 + 4 * i_off),
        Placement::CrossesScratchEnd => {
            // The store sweep runs off the end of scratch after ~8 words.
            (s + 0x1000 + 2 * w_off, s + scratch_size - 32)
        }
    }
}

/// Generic loop bodies for the batch driver: a plain scratch sweep, plus
/// the cases where an op inside a batch must defer or trap exactly where
/// the interpreter does.
#[derive(Debug, Clone, Copy)]
enum GenericBody {
    /// `lw`/`addi`/`xor`/`sw` over a scratch sweep.
    ScratchSweep,
    /// `nmpn` whose target steps from scratch to the spike-log register
    /// (a deferred device access), then off the memory map (a trap).
    NmpnIntoMmio,
    /// `nmpn` whose target is aligned once, then misaligned (a trap).
    NmpnMisaligned,
    /// A store sweep starting eight words before the end of SDRAM, so it
    /// runs off the map mid-batch (a trap).
    StoreCrossesSdramEnd,
}

fn arb_generic_body() -> impl Strategy<Value = GenericBody> {
    prop_oneof![
        Just(GenericBody::ScratchSweep),
        Just(GenericBody::NmpnIntoMmio),
        Just(GenericBody::NmpnMisaligned),
        Just(GenericBody::StoreCrossesSdramEnd),
    ]
}

/// Assemble a generic counted loop: x28 counts down from `count`, x11 is
/// the swept pointer. Returns the program and the loop entry pc.
fn generic_program(
    body: GenericBody,
    count: u32,
    stride: u32,
    bias: i32,
    sdram_size: u32,
) -> (Vec<Inst>, u32) {
    let scratch = layout::SCRATCH_BASE + 0x1000;
    let nmpn_start = scratch + 4 * (bias + 16) as u32;
    let (base, step) = match body {
        GenericBody::ScratchSweep => (scratch, stride),
        GenericBody::NmpnIntoMmio => (
            nmpn_start,
            (layout::MMIO_BASE + layout::MMIO_SPIKE_LOG).wrapping_sub(nmpn_start),
        ),
        GenericBody::NmpnMisaligned => (nmpn_start, stride + 2),
        GenericBody::StoreCrossesSdramEnd => (sdram_size - 32, stride),
    };
    let mut v = Vec::new();
    v.extend(li(Reg(11), base));
    v.extend(li(Reg(15), step));
    v.extend(li(Reg(10), 0x1234_5678u32.wrapping_add(bias as u32)));
    v.extend(li(T3, count));
    let entry = 4 * v.len() as u32;
    match body {
        GenericBody::ScratchSweep => {
            v.push(Inst::Load {
                op: LoadOp::Lw,
                rd: Reg(10),
                rs1: Reg(11),
                imm: 0,
            });
            v.push(addi(Reg(10), Reg(10), bias));
            v.push(Inst::Op {
                op: AluOp::Xor,
                rd: Reg(12),
                rs1: Reg(10),
                rs2: T3,
            });
            v.push(Inst::Store {
                op: StoreOp::Sw,
                rs1: Reg(11),
                rs2: Reg(12),
                imm: 0,
            });
        }
        GenericBody::NmpnIntoMmio | GenericBody::NmpnMisaligned => {
            // nmpn reads its store address from rd and overwrites rd with
            // the spike flag, so the target is re-copied every iteration.
            v.push(Inst::Op {
                op: AluOp::Add,
                rd: Reg(14),
                rs1: Reg(11),
                rs2: Reg(0),
            });
            v.push(Inst::Nm {
                op: NmOp::Nmpn,
                rd: Reg(14),
                rs1: Reg(10),
                rs2: T3,
            });
            v.push(Inst::Op {
                op: AluOp::Xor,
                rd: Reg(10),
                rs1: Reg(10),
                rs2: Reg(14),
            });
            v.push(addi(Reg(10), Reg(10), bias));
        }
        GenericBody::StoreCrossesSdramEnd => {
            v.push(addi(Reg(10), Reg(10), bias));
            v.push(Inst::Op {
                op: AluOp::Xor,
                rd: Reg(12),
                rs1: Reg(10),
                rs2: T3,
            });
            v.push(Inst::Store {
                op: StoreOp::Sw,
                rs1: Reg(11),
                rs2: Reg(12),
                imm: 0,
            });
        }
    }
    v.push(Inst::Op {
        op: AluOp::Add,
        rd: Reg(11),
        rs1: Reg(11),
        rs2: Reg(15),
    });
    v.push(addi(T3, T3, -1));
    v.push(Inst::Branch {
        op: BranchOp::Ne,
        rs1: T3,
        rs2: Reg(0),
        imm: entry as i32 - 4 * v.len() as i32,
    });
    v.push(Inst::Ebreak);
    (v, entry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense phase-A replica, kernels on vs off, across placements that
    /// drive the native tier, the generic batch and its in-batch trap
    /// path, under every battery mode.
    #[test]
    fn dense_axpy_kernels_on_off_bit_identical(
        placement in arb_placement(),
        count in 1u32..400,
        w_off in 0u32..64,
        i_off in 0u32..64,
        seed in any::<u64>(),
    ) {
        let scratch_size = SystemConfig::default().scratch_size;
        let (w_base, i_base) = bases(placement, count, w_off, i_off, scratch_size);
        let (insts, entry) = dense_axpy_program(w_base, i_base, count);
        // Cheap deterministic fill from the seed.
        let mut x = seed | 1;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let weights: Vec<i16> = (0..count).map(|_| next() as i16).collect();
        let isyn: Vec<u32> = (0..count).map(|_| next()).collect();
        for mode in modes() {
            let run = |kernels: bool| {
                let (sys, res, registered) = run_dense(
                    &insts, entry, mode, kernels, FaultPlan::none(),
                    &weights, w_base & !1, &isyn, i_base & !3,
                );
                assert!(registered, "audit rejected the dense shape");
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, insts.len(), &format!("{placement:?} {mode:?}"));
        }
    }

    /// Fault-plan triggers landing in the interior of a kernel batch:
    /// the batch refuses any iteration that could cross the trigger, so
    /// the fault fires at the same retired instruction either way.
    #[test]
    fn fault_triggers_fire_identically_inside_kernel_batches(
        count in 8u32..300,
        at in 1u64..2500,
        kind in prop_oneof![Just(FaultKind::GuestTrap), Just(FaultKind::CorruptSpike(1))],
    ) {
        let (w_base, i_base) = (layout::SCRATCH_BASE + 0x1000, layout::SCRATCH_BASE + 0x3000);
        let (insts, entry) = dense_axpy_program(w_base, i_base, count);
        let weights: Vec<i16> = (0..count).map(|k| (k as i16).wrapping_mul(257)).collect();
        let isyn: Vec<u32> = (0..count).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        for mode in modes() {
            let plan = FaultPlan::none().with(0, at, kind);
            let run = |kernels: bool| {
                let (sys, res, _) = run_dense(
                    &insts, entry, mode, kernels, plan.clone(),
                    &weights, w_base, &isyn, i_base,
                );
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, insts.len(), &format!("{mode:?} {kind:?}@{at}"));
        }
    }

    /// Generic counted loops (audit-accepted, native-matcher-rejected):
    /// the `exec_op` batch driver, over bodies that retire whole
    /// iterations, defer to a device mid-batch, and trap mid-batch.
    #[test]
    fn generic_counted_loops_kernels_on_off_bit_identical(
        body in arb_generic_body(),
        count in 1u32..200,
        stride in prop_oneof![Just(4u32), Just(8u32)],
        bias in -16i32..16,
    ) {
        let sdram_size = SystemConfig::default().sdram_size;
        let (v, entry) = generic_program(body, count, stride, bias, sdram_size);
        for mode in modes() {
            let run = |kernels: bool| {
                let (sys, res, registered) = run_dense(
                    &v, entry, mode, kernels, FaultPlan::none(), &[], 0x2000, &[], 0x2C00,
                );
                assert!(registered, "audit rejected the generic loop");
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, v.len(), &format!("generic {body:?} {mode:?}"));
        }
    }

    /// A loop whose body stores into its own span code every iteration.
    /// Writing back the identical word keeps the fingerprint valid (the
    /// span re-verifies Ready each entry); writing a different word makes
    /// re-verification fail and hands the loop to the interpreter. Both
    /// must stay bit-identical with kernels off.
    #[test]
    fn self_modifying_stores_into_span_stay_identical(
        count in 2u32..60,
        same_word in any::<bool>(),
    ) {
        // Patch target: the `addi x13, x13, 1` at slot 1 of the body.
        let body_inc = addi(Reg(13), Reg(13), 1);
        let patch = if same_word { body_inc } else { addi(Reg(0), Reg(0), 0) };
        let mut v = Vec::new();
        v.extend(li(T3, count));
        v.extend(li(Reg(11), 0)); // patched below once entry is known
        v.extend(li(Reg(12), encode(patch)));
        let entry = 4 * v.len() as u32;
        v[2] = li(Reg(11), entry + 4)[0];
        v[3] = li(Reg(11), entry + 4)[1];
        v.push(Inst::Store { op: StoreOp::Sw, rs1: Reg(11), rs2: Reg(12), imm: 0 });
        v.push(body_inc);
        v.push(addi(T3, T3, -1));
        v.push(Inst::Branch {
            op: BranchOp::Ne,
            rs1: T3,
            rs2: Reg(0),
            imm: entry as i32 - 4 * v.len() as i32,
        });
        v.push(Inst::Ebreak);
        for mode in modes() {
            let run = |kernels: bool| {
                let (sys, res, registered) = run_dense(
                    &v, entry, mode, kernels, FaultPlan::none(), &[], 0x2000, &[], 0x2C00,
                );
                assert!(registered, "audit rejected the self-modifying loop");
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, v.len(), &format!("smc same_word={same_word} {mode:?}"));
        }
    }
}

/// Deterministic lifecycle check: a store that actually changes a span's
/// code words must reject the span (re-verification fails) and the rest
/// of the run must interpret the patched code — while a same-word store
/// only cycles Dirty → Ready.
#[test]
fn span_rejects_after_real_code_change() {
    let run = |same_word: bool| {
        let body_inc = addi(Reg(13), Reg(13), 1);
        let patch = if same_word {
            body_inc
        } else {
            addi(Reg(0), Reg(0), 0)
        };
        let mut v = Vec::new();
        v.extend(li(T3, 5));
        v.extend(li(Reg(11), 0));
        v.extend(li(Reg(12), encode(patch)));
        let entry = 4 * v.len() as u32;
        v[2] = li(Reg(11), entry + 4)[0];
        v[3] = li(Reg(11), entry + 4)[1];
        v.push(Inst::Store {
            op: StoreOp::Sw,
            rs1: Reg(11),
            rs2: Reg(12),
            imm: 0,
        });
        v.push(body_inc);
        v.push(addi(T3, T3, -1));
        v.push(Inst::Branch {
            op: BranchOp::Ne,
            rs1: T3,
            rs2: Reg(0),
            imm: entry as i32 - 4 * v.len() as i32,
        });
        v.push(Inst::Ebreak);
        let sched = SchedMode::Relaxed {
            quantum: SchedMode::DEFAULT_QUANTUM,
            timing: TimingModel::Unit,
        };
        let (sys, res, registered) = run_dense(
            &v,
            entry,
            sched,
            true,
            FaultPlan::none(),
            &[],
            0x2000,
            &[],
            0x2C00,
        );
        assert!(registered);
        res.expect("run completes");
        let spans = sys.shared().code.kernel_spans().to_vec();
        assert_eq!(spans.len(), 1);
        (spans[0].state, sys.core(0).reg(Reg(13)))
    };
    // Same-word patch: the span survives (Ready or Dirty after the final
    // store) and the increment retires every iteration.
    let (state, x13) = run(true);
    assert_ne!(
        state,
        SpanState::Rejected,
        "same-word store must not reject"
    );
    assert_eq!(x13, 5);
    // Real patch: the store precedes the increment in program order, so
    // the slot is already a nop by the time it first executes — the
    // increment never retires — and re-verification rejects the span.
    let (state, x13) = run(false);
    assert_eq!(state, SpanState::Rejected, "changed code must reject");
    assert_eq!(x13, 0);
}
