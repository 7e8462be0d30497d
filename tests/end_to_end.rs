//! End-to-end flows through the public façade: assemble → load → run →
//! read back, across every layer of the stack.

use izhirisc::bench::serve::parse_job;
use izhirisc::core::{HStep, IzhParams, NmRegs, NpUnit};
use izhirisc::fixed::{pack_vu, unpack_vu, Q15_16, Q7_8};
use izhirisc::isa::{Assembler, Reg};
use izhirisc::sim::{System, SystemConfig};
use izhirisc::snn::analysis::SpikeRaster;
use izhirisc::snn::sudoku::{solve_wta, SudokuGrid, WtaParams};

/// Host-side NPU matches a guest program performing the same update.
#[test]
fn host_and_guest_npu_bit_identical() {
    let params = IzhParams::fast_spiking();
    let mut regs = NmRegs::default();
    regs.load_params(&params);
    regs.set_h(HStep::Half);

    // Host trajectory.
    let mut vu_host = pack_vu(Q7_8::from_f64(-65.0), Q7_8::from_f64(-13.0));
    let drive = Q15_16::from_f64(8.25);
    let mut host_spikes = 0u32;
    for _ in 0..500 {
        let out = NpUnit::update(&regs, vu_host, drive);
        vu_host = out.vu;
        host_spikes += out.spike as u32;
    }

    // Identical guest trajectory.
    let q = params.quantize();
    let (rs1, rs2) = q.pack();
    let src = format!(
        "
        _start: li   a6, {rs1:#x}
                li   a7, {rs2:#x}
                nmldl x0, a6, a7
                li   a6, 0
                nmldh x0, a6, x0
                li   s1, 0x10000000
                li   t0, {vu0:#x}
                sw   t0, (s1)
                li   s0, 0
                li   s2, 500
                li   a7, {drive:#x}
        loop:   lw   a6, (s1)
                add  a2, x0, s1
                nmpn a2, a6, a7
                add  s0, s0, a2
                addi s2, s2, -1
                bnez s2, loop
                ebreak
        ",
        vu0 = pack_vu(Q7_8::from_f64(-65.0), Q7_8::from_f64(-13.0)),
        drive = drive.raw() as u32,
    );
    let prog = Assembler::new().assemble(&src).unwrap();
    let mut sys = System::new(SystemConfig::default());
    sys.load_program(&prog);
    sys.run(10_000_000).unwrap();

    assert_eq!(
        sys.core(0).reg(Reg::S0),
        host_spikes,
        "spike counts diverge"
    );
    let vu_guest = sys.shared().mem.read_u32(0x1000_0000).unwrap();
    assert_eq!(vu_guest, vu_host, "final VU words diverge");
    let (v, u) = unpack_vu(vu_guest);
    assert!(v.to_f64().abs() < 128.0 && u.to_f64().abs() < 128.0);
}

/// The WTA network solves a mostly-filled puzzle host-side, and the
/// solution matches classical backtracking.
#[test]
fn wta_and_backtracking_agree() {
    let mut puzzle = SudokuGrid::canonical_solution();
    for i in [3, 13, 23, 33, 43] {
        puzzle.0[i] = 0;
    }
    let res = solve_wta(&puzzle, WtaParams::default(), 11, 4000, 30);
    let wta_sol = res.solution.expect("WTA did not converge");
    let bt_sol = puzzle.solve().expect("backtracking failed");
    assert_eq!(wta_sol, bt_sol);
}

/// Spike-log round trip: guest-packed words decode into a raster whose
/// per-neuron trains are chronological.
#[test]
fn spike_log_raster_roundtrip() {
    let words = [
        SpikeRaster::pack(3, 7),
        SpikeRaster::pack(5, 7),
        SpikeRaster::pack(5, 9),
        SpikeRaster::pack(12, 7),
    ];
    let raster = SpikeRaster::from_packed(16, 20, &words);
    assert_eq!(raster.neuron_times(7), vec![3, 5, 12]);
    assert_eq!(raster.neuron_times(9), vec![5]);
    assert_eq!(raster.population_rate()[5], 2);
}

/// A multi-core program with mutex-protected shared state produces the
/// exact expected result (no lost updates through the full stack).
#[test]
fn multicore_critical_section_exact() {
    let src = "
        .equ MUTEX, 0xF000000C
        .equ BARRIER, 0xF0000010
        .equ COUNTER, 0x10000000
        _start: li   s0, 400
                li   s1, MUTEX
                li   s2, COUNTER
        loop:   lw   t0, (s1)
                beqz t0, loop
                lw   t1, (s2)
                addi t1, t1, 1
                sw   t1, (s2)
                sw   x0, (s1)
                addi s0, s0, -1
                bnez s0, loop
                li   t4, BARRIER
                lw   t5, (t4)
                sw   x0, (t4)
        spin:   lw   t6, (t4)
                beq  t6, t5, spin
                ebreak
    ";
    let prog = Assembler::new().assemble(src).unwrap();
    for cores in [2u32, 4] {
        let mut sys = System::new(SystemConfig::with_cores(cores));
        sys.load_program(&prog);
        sys.run(400_000_000).unwrap();
        assert_eq!(
            sys.shared().mem.read_u32(0x1000_0000),
            Some(400 * cores),
            "{cores} cores"
        );
    }
}

/// The façade's documented quickstart keeps working.
#[test]
fn facade_quickstart() {
    let mut regs = NmRegs::default();
    regs.load_params(&IzhParams::regular_spiking());
    regs.set_h(HStep::Half);
    let mut vu = pack_vu(Q7_8::from_f64(-65.0), Q7_8::from_f64(-13.0));
    let mut spikes = 0u32;
    for _ in 0..2000 {
        let out = NpUnit::update(&regs, vu, Q15_16::from_f64(10.0));
        vu = out.vu;
        spikes += out.spike as u32;
    }
    assert!(spikes > 0);
}

/// Every shape the job service rejects as invalid parameters makes
/// `izhirisc scenario run` exit 2 with the same one-line message, instead
/// of running it (or panicking inside the engine). `--quick` runs are
/// checked at the shape they build.
#[test]
fn cli_rejects_the_shapes_the_service_rejects() {
    for (body, args) in [
        (
            r#"{"scenario":"net8020","n_cores":40,"quick":false}"#,
            &["--cores", "40"][..],
        ),
        (
            r#"{"scenario":"net8020","ticks":70000}"#,
            &["--quick", "--ticks", "70000"],
        ),
        (
            r#"{"scenario":"net8020","n":3000}"#,
            &["--quick", "--n", "3000"],
        ),
    ] {
        let want = parse_job(body).expect_err(body);
        assert!(want.contains("invalid parameters:"), "{body}: {want}");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_izhirisc"))
            .args(["scenario", "run", "net8020"])
            .args(args)
            .output()
            .expect("izhirisc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), want, "{args:?}");
    }
}
