//! Template-vs-cold acceptance suite: for **every** scenario in the
//! registry — present and future — a run instantiated from its cached
//! [`izhi_programs::template::RunTemplate`] must be bit-identical
//! (raster hash, cycles, instret) to the from-scratch cold build, under
//! every sched × timing combination the battery exercises. A scenario
//! added to the registry is picked up here automatically; a template
//! path that drifts from the cold path cannot land.

use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::WorkloadResult;
use izhi_sim::SchedMode;

/// The battery's three sched × timing combinations.
fn modes() -> [(&'static str, SchedMode); 3] {
    [
        ("exact", SchedMode::Exact),
        ("relaxed", SchedMode::relaxed()),
        ("relaxed-est", SchedMode::relaxed_estimated()),
    ]
}

fn cold_run(sc: &scenario::Scenario, params: &ScenarioParams, sched: SchedMode) -> WorkloadResult {
    let mut wl = sc.build_quick(params);
    wl.cfg_mut().system.sched = sched;
    wl.run_cold()
        .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", sc.name))
}

#[test]
fn template_instances_match_cold_runs_for_every_scenario_and_mode() {
    for sc in scenario::registry() {
        let seed = sc.battery_seeds[0];
        let params = ScenarioParams::default().with_seed(seed);
        let tpl = sc.template_quick(&params);
        for (label, sched) in modes() {
            let cold = cold_run(sc, &params, sched);
            let inst = tpl.instantiate(seed, sched);
            let res = inst
                .run()
                .unwrap_or_else(|e| panic!("{}/{label}: template run failed: {e}", sc.name));
            assert_eq!(
                cold.raster_hash(),
                res.raster_hash(),
                "{}/{label}: template raster drifted from cold build",
                sc.name
            );
            assert_eq!(
                cold.cycles, res.cycles,
                "{}/{label}: template cycles drifted from cold build",
                sc.name
            );
            assert_eq!(
                cold.instret, res.instret,
                "{}/{label}: template instret drifted from cold build",
                sc.name
            );
            assert_eq!(
                cold.weight_hash, res.weight_hash,
                "{}/{label}: template weight state drifted from cold build",
                sc.name
            );
            inst.verify(&res)
                .unwrap_or_else(|e| panic!("{}/{label}: verification failed: {e}", sc.name));
        }
    }
}

#[test]
fn reseeded_instances_match_cold_runs_at_the_new_seed() {
    // Re-seeding an existing template rebuilds only the host-side image
    // (no re-assembly); the result must still match a cold build at that
    // seed exactly. Scenarios with one battery seed get a synthetic
    // second seed — every registry entry takes the re-seed path here.
    for sc in scenario::registry() {
        let built_seed = sc.battery_seeds[0];
        let other = sc
            .battery_seeds
            .get(1)
            .copied()
            .unwrap_or(built_seed.wrapping_add(1));
        let tpl = sc.template_quick(&ScenarioParams::default().with_seed(built_seed));
        let cold = cold_run(
            sc,
            &ScenarioParams::default().with_seed(other),
            SchedMode::Exact,
        );
        let res = tpl
            .instantiate(other, SchedMode::Exact)
            .run()
            .unwrap_or_else(|e| panic!("{}: re-seeded template run failed: {e}", sc.name));
        assert_eq!(
            (
                cold.raster_hash(),
                cold.cycles,
                cold.instret,
                cold.weight_hash
            ),
            (res.raster_hash(), res.cycles, res.instret, res.weight_hash),
            "{}: re-seeded template drifted from the cold build at seed {other}",
            sc.name
        );
    }
}
