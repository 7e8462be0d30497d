//! The scenario-battery acceptance suite: **every** scenario in the
//! registry — present and future — must be deterministic and
//! raster-identical across `Exact` and `Relaxed`, under both relaxed
//! clocks (`Unit` and `Estimated` timing). A scenario added to the
//! registry is picked up here automatically; one that breaks the
//! cross-mode contract cannot land.

use izhi_bench::battery::{self, BatteryRunner, BatterySpec};
use izhi_programs::scenario::{self, ScenarioParams};
use izhi_sim::SchedMode;

fn run_quick(sc: &scenario::Scenario, sched: SchedMode) -> izhi_programs::WorkloadResult {
    let mut wl = sc.build_quick(&ScenarioParams::default());
    wl.cfg_mut().system.sched = sched;
    let res = wl
        .run()
        .unwrap_or_else(|e| panic!("{}: run failed: {e}", sc.name));
    wl.verify(&res)
        .unwrap_or_else(|e| panic!("{}: verification failed: {e}", sc.name));
    res
}

#[test]
fn every_scenario_is_deterministic_and_sched_identical() {
    for sc in scenario::registry() {
        // Determinism across independent builds of the same scenario.
        let exact = run_quick(sc, SchedMode::Exact);
        let again = run_quick(sc, SchedMode::Exact);
        assert_eq!(
            exact.raster.spikes, again.raster.spikes,
            "{}: exact rebuild changed the spike log",
            sc.name
        );
        assert_eq!(exact.cycles, again.cycles, "{}: cycles drift", sc.name);

        // Relaxed must reproduce the exact physics (raster as a set).
        let relaxed = run_quick(sc, SchedMode::relaxed());
        assert_eq!(
            exact.raster_hash(),
            relaxed.raster_hash(),
            "{}: relaxed scheduling changed the raster",
            sc.name
        );

        // Estimated timing must reproduce the same physics (it only
        // changes the clock), be deterministic, and actually charge more
        // than one cycle per instruction on these load/branch-heavy
        // guests — otherwise it silently degenerated to Unit.
        let est = run_quick(sc, SchedMode::relaxed_estimated());
        assert_eq!(
            exact.raster_hash(),
            est.raster_hash(),
            "{}: estimated timing changed the raster",
            sc.name
        );
        let est_again = run_quick(sc, SchedMode::relaxed_estimated());
        assert_eq!(
            est.raster.spikes, est_again.raster.spikes,
            "{}: estimated rebuild changed the spike log",
            sc.name
        );
        assert_eq!(
            est.cycles, est_again.cycles,
            "{}: est cycles drift",
            sc.name
        );
        assert_eq!(est.instret, relaxed.instret, "{}: instret drift", sc.name);
        // Each core retires the same instructions under both relaxed
        // clocks, and the estimated table charges loads/branches/NPU ops
        // more than one cycle — so the estimated clock must run ahead of
        // the unit clock (`cycles` is the slowest core, so > survives the
        // per-core comparison).
        assert!(
            est.cycles > relaxed.cycles,
            "{}: estimated clock degenerated to unit ({} <= {})",
            sc.name,
            est.cycles,
            relaxed.cycles
        );
    }
}

#[test]
fn stdp_battery_pins_the_golden_weight_hashes() {
    let sc = scenario::find("net8020_stdp").expect("registered");
    let rows = BatteryRunner { host_threads: 2 }
        .run(&[BatterySpec::quick(sc)])
        .expect("battery run");
    battery::check_rows(&rows).expect("battery identity/verification");
    // Golden final-weight-state hashes at the quick shape (n=160,
    // ticks=150, cores=2, density 0.1). Every scheduling mode must land
    // on these exact values; an engine change that alters how STDP
    // evolves the weights must be deliberate enough to re-pin them.
    let golden = [(21u32, 0x281401fe0c8b5c8b_u64), (22, 0x6dc8e5ac94680514)];
    assert_eq!(rows.len(), golden.len() * 3, "seeds x sched modes");
    for row in &rows {
        let expect = golden
            .iter()
            .find(|(s, _)| *s == row.seed)
            .expect("battery seed")
            .1;
        assert_eq!(
            row.weight_hash,
            Some(expect),
            "{}: final weight state drifted from the pinned hash",
            row.key()
        );
    }
}

#[test]
fn sharded_battery_crosses_the_standard_map() {
    // The scale-out acceptance shape: the sharded quick battery runs at
    // >= 8 guest cores (16, on the scaled memory map) and still holds
    // cross-mode raster identity.
    let sc = scenario::find("net8020_sharded").expect("registered");
    let wl = sc.build_quick(&ScenarioParams::default());
    assert!(
        wl.cfg().n_cores >= 8,
        "sharded quick shape must use >= 8 guest cores, got {}",
        wl.cfg().n_cores
    );
    let rows = BatteryRunner { host_threads: 2 }
        .run(&[BatterySpec {
            seeds: vec![sc.battery_seeds[0]],
            ..BatterySpec::quick(sc)
        }])
        .expect("battery run");
    battery::check_rows(&rows).expect("battery identity/verification");
    for row in &rows {
        assert!(
            row.weight_hash.is_none(),
            "{}: not a plastic run",
            row.key()
        );
    }
}

#[test]
fn battery_runner_shards_the_registry_and_checks_identity() {
    // One seed per scenario keeps the suite quick; the runner itself
    // fans (scenario, seed, sched) rows across 2 host worker threads.
    let specs: Vec<BatterySpec> = scenario::registry()
        .iter()
        .map(|s| BatterySpec {
            seeds: vec![s.battery_seeds[0]],
            ..BatterySpec::quick(s)
        })
        .collect();
    let rows = BatteryRunner { host_threads: 2 }
        .run(&specs)
        .expect("battery run");
    assert_eq!(
        rows.len(),
        scenario::registry().len() * 3,
        "one row per scenario x (sched x timing) combination"
    );
    battery::check_rows(&rows).expect("battery identity/verification");
    // Row order is the deterministic work-list order, not completion
    // order: scenario-major, then seed, then sched x timing.
    let labels: Vec<_> = rows.iter().take(3).map(|r| r.sched).collect();
    assert_eq!(labels, ["exact", "relaxed", "relaxed-est"]);
    let timings: Vec<_> = rows.iter().take(3).map(|r| r.timing).collect();
    assert_eq!(timings, ["exact", "unit", "estimated"]);
}

/// Assembler relaxation soundness, swept over **every** registry
/// scenario: the relaxed build must produce the identical spike raster
/// and final weight state while retiring strictly fewer instructions.
/// The per-scenario reduction floors (per-mille of the unrelaxed
/// instret) pin the measured win at the quick shape, so a peephole
/// regression that silently stops firing cannot land:
///
/// | scenario          | measured reduction |
/// |-------------------|--------------------|
/// | sudoku            | 3.4%               |
/// | net8020_large     | 4.2%               |
/// | net8020_points    | 4.2%               |
/// | net8020_basefixed | 0.6%               |
/// | net8020_softfloat | 6.4%               |
/// | sudoku_batch      | 3.4%               |
/// | net8020_sharded   | 7.4%               |
/// | net8020_stdp      | 4.6%               |
/// | net8020_stream    | 5.3%               |
#[test]
fn assembler_relaxation_is_sound_on_every_scenario() {
    for sc in scenario::registry() {
        let run_with = |relax: bool| {
            let mut wl = sc.build_quick(&ScenarioParams::default());
            wl.cfg_mut().system.asm_relax = relax;
            let res = wl
                .run()
                .unwrap_or_else(|e| panic!("{} relax={relax}: run failed: {e}", sc.name));
            wl.verify(&res)
                .unwrap_or_else(|e| panic!("{} relax={relax}: verification failed: {e}", sc.name));
            res
        };
        let on = run_with(true);
        let off = run_with(false);
        assert_eq!(
            on.raster_hash(),
            off.raster_hash(),
            "{}: relaxation changed the spike raster",
            sc.name
        );
        assert_eq!(
            on.weight_hash, off.weight_hash,
            "{}: relaxation changed the final weight state",
            sc.name
        );
        assert!(
            on.instret < off.instret,
            "{}: relaxation saved no instructions ({} >= {})",
            sc.name,
            on.instret,
            off.instret
        );
        // Floors sit safely under the measured reductions above; a new
        // scenario starts at the >0 guarantee until someone pins it.
        let floor_permille = match sc.name {
            "sudoku" | "sudoku_batch" => 30,
            "net8020_large" | "net8020_points" => 35,
            "net8020_basefixed" => 4,
            "net8020_softfloat" => 55,
            "net8020_sharded" => 65,
            "net8020_stdp" => 40,
            "net8020_stream" => 45,
            _ => 0,
        };
        let permille = (off.instret - on.instret) * 1000 / off.instret;
        assert!(
            permille >= floor_permille,
            "{}: relaxation win regressed to {permille} per-mille (floor {floor_permille})",
            sc.name
        );
    }
}
