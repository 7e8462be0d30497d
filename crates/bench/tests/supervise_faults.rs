//! Fault-injection acceptance suite for the supervision layer: every
//! [`RunErrorKind`] must be producible on demand through the simulator's
//! deterministic fault hooks, classified correctly, retried (or not) per
//! the policy, and isolated — a faulty run must never take down the
//! battery runner, and an empty fault plan must leave the physics
//! bit-identical.

use std::time::Duration;

use izhi_bench::battery::{BatteryRow, BatteryRunner, BatterySpec};
use izhi_bench::supervise::{run_supervised, RetryPolicy, RunErrorKind, SuperviseConfig};
use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_sim::{FaultKind, FaultPlan};

/// A small, fast 80-20 workload to inject faults into.
fn tiny_workload() -> Box<dyn Workload> {
    scenario::find("net8020")
        .expect("net8020 is registered")
        .build_quick(
            &ScenarioParams::default()
                .with_n(60)
                .with_ticks(10)
                .with_seed(5),
        )
}

fn faulty_workload(kind: FaultKind, at_instret: u64) -> Box<dyn Workload> {
    let mut wl = tiny_workload();
    wl.cfg_mut().system.faults = FaultPlan::none().with(0, at_instret, kind);
    wl
}

fn no_retry() -> SuperviseConfig {
    SuperviseConfig {
        retry: RetryPolicy::no_retry(),
        ..Default::default()
    }
}

#[test]
fn a_clean_run_supervises_to_success_on_the_first_attempt() {
    let mut wl = tiny_workload();
    let sup = run_supervised(wl.as_mut(), &SuperviseConfig::default()).expect("clean run");
    assert_eq!(sup.attempts, 1);
    assert!(
        !sup.result.raster.spikes.is_empty(),
        "workload produced spikes"
    );
}

#[test]
fn an_injected_panic_is_caught_and_classified() {
    let mut wl = faulty_workload(FaultKind::HostPanic, 1_000);
    let err = run_supervised(wl.as_mut(), &no_retry()).unwrap_err();
    assert_eq!(err.kind, RunErrorKind::Panic);
    assert_eq!(err.attempts, 1, "panics are deterministic — no retry");
    assert!(
        err.message.contains("injected host panic"),
        "{}",
        err.message
    );
}

#[test]
fn an_injected_guest_trap_is_classified_with_its_sim_error() {
    use std::error::Error as _;
    let mut wl = faulty_workload(FaultKind::GuestTrap, 1_000);
    let err = run_supervised(wl.as_mut(), &no_retry()).unwrap_err();
    assert_eq!(err.kind, RunErrorKind::GuestTrap);
    assert_eq!(err.attempts, 1, "guest traps reproduce — no retry");
    let source = err.source().expect("trap chains to the SimError");
    assert!(source.to_string().contains("injected fault"), "{source}");
}

#[test]
fn an_exhausted_cycle_budget_is_classified() {
    let mut wl = tiny_workload();
    let err = run_supervised(
        wl.as_mut(),
        &SuperviseConfig {
            max_cycles: Some(10_000), // far below what the workload needs
            retry: RetryPolicy::no_retry(),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.kind, RunErrorKind::CycleBudget);
}

#[test]
fn a_stalled_run_times_out_on_the_wall_clock_and_is_retried() {
    // A 300 ms stall against a 40 ms wall budget: every attempt fails
    // with WallClockTimeout (the stall re-arms on each fresh System), and
    // the policy retries wall-clock failures up to max_attempts.
    let mut wl = faulty_workload(FaultKind::StallMs(300), 1_000);
    let err = run_supervised(
        wl.as_mut(),
        &SuperviseConfig {
            wall_limit: Some(Duration::from_millis(40)),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ..Default::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.kind, RunErrorKind::WallClockTimeout);
    assert_eq!(
        err.attempts, 2,
        "wall-clock failures are retried to the cap"
    );
}

#[test]
fn corrupted_output_fails_verification() {
    // CorruptSpike flips the neuron bits of one spike-log word: the run
    // itself completes, but the scenario's verification hook must reject
    // the out-of-range neuron in the damaged raster.
    let mut wl = faulty_workload(FaultKind::CorruptSpike(0x0000_3FFF), 1_000);
    let err = run_supervised(wl.as_mut(), &no_retry()).unwrap_err();
    assert_eq!(err.kind, RunErrorKind::VerifyFailed);
    assert_eq!(err.attempts, 1, "deterministic corruption — no retry");
}

/// Run a quick single-scenario battery with the given fault plan and
/// supervision; the runner must return rows (not an error) even when
/// every job dies.
fn battery_rows(faults: FaultPlan, supervise: SuperviseConfig) -> Vec<BatteryRow> {
    let sc = scenario::find("net8020").expect("net8020 is registered");
    let spec = BatterySpec {
        params: ScenarioParams::default().with_n(60).with_ticks(10),
        seeds: vec![5],
        faults,
        supervise,
        ..BatterySpec::quick(sc)
    };
    BatteryRunner { host_threads: 2 }
        .run(&[spec])
        .expect("the runner survives faulty jobs")
}

#[test]
fn a_panicking_job_becomes_a_failed_row_not_a_dead_runner() {
    let rows = battery_rows(
        FaultPlan::none().with(0, 1_000, FaultKind::HostPanic),
        SuperviseConfig {
            retry: RetryPolicy::no_retry(),
            ..Default::default()
        },
    );
    assert_eq!(rows.len(), 3, "every sched x timing combination got a row");
    for row in &rows {
        assert!(
            !row.verified,
            "{}: a poisoned run must not verify",
            row.key()
        );
        assert_eq!(row.error_kind, Some(RunErrorKind::Panic), "{}", row.key());
        assert!(
            row.error.is_some(),
            "{}: failure carries a message",
            row.key()
        );
    }
}

#[test]
fn a_trapping_job_is_isolated_per_row() {
    let rows = battery_rows(
        FaultPlan::none().with(0, 1_000, FaultKind::GuestTrap),
        SuperviseConfig {
            retry: RetryPolicy::no_retry(),
            ..Default::default()
        },
    );
    for row in &rows {
        assert_eq!(
            row.error_kind,
            Some(RunErrorKind::GuestTrap),
            "{}",
            row.key()
        );
        assert_eq!(row.attempts, 1, "{}", row.key());
    }
}

#[test]
fn an_empty_fault_plan_leaves_the_battery_bit_identical() {
    // The chaos hook must be free when unused: a battery run with an
    // explicitly empty plan (and the supervision defaults) must produce
    // exactly the hashes of a plain run, across every sched x timing row.
    let sc = scenario::find("net8020").expect("net8020 is registered");
    let quick = |faults: FaultPlan| {
        let spec = BatterySpec {
            params: ScenarioParams::default().with_n(60).with_ticks(20),
            seeds: vec![5, 6],
            faults,
            ..BatterySpec::quick(sc)
        };
        BatteryRunner { host_threads: 2 }
            .run(&[spec])
            .expect("battery run")
    };
    let plain = quick(FaultPlan::default());
    let empty = quick(FaultPlan { faults: Vec::new() });
    assert_eq!(plain.len(), empty.len());
    for (a, b) in plain.iter().zip(&empty) {
        assert_eq!(a.key(), b.key());
        assert!(a.verified && b.verified, "{}: both runs verify", a.key());
        assert_eq!(
            a.raster_hash,
            b.raster_hash,
            "{}: an empty fault plan changed the physics",
            a.key()
        );
        assert_eq!(a.sim_cycles, b.sim_cycles, "{}: cycle drift", a.key());
        assert_eq!(a.sim_instret, b.sim_instret, "{}: instret drift", a.key());
    }
}

#[test]
fn a_faulted_sharded_run_fails_classified_not_hung() {
    // The scale-out rendezvous drill: on a 16-guest-core sharded run,
    // trap one core mid-run on every sched x timing combination. The
    // other 15 cores are parked at (or heading for) the tick barrier —
    // the scheduler must tear the rendezvous down and surface the trap
    // as a classified failed row, never a hang. The wall-clock limit is
    // the tripwire: a hung barrier would exhaust it and flip the row's
    // kind to WallClockTimeout.
    let sc = scenario::find("net8020_sharded").expect("registered");
    let wl = sc.build_quick(&ScenarioParams::default());
    assert!(wl.cfg().n_cores >= 8, "the drill needs a scale-out shape");
    let spec = BatterySpec {
        seeds: vec![sc.battery_seeds[0]],
        faults: FaultPlan::none().with(3, 50_000, FaultKind::GuestTrap),
        supervise: SuperviseConfig {
            wall_limit: Some(Duration::from_secs(60)),
            retry: RetryPolicy::no_retry(),
            ..Default::default()
        },
        ..BatterySpec::quick(sc)
    };
    let rows = BatteryRunner { host_threads: 2 }
        .run(&[spec])
        .expect("the runner survives faulty scale-out jobs");
    assert_eq!(rows.len(), 3, "every sched x timing combination got a row");
    for row in &rows {
        assert!(
            !row.verified,
            "{}: a trapped shard must not verify",
            row.key()
        );
        assert_eq!(
            row.error_kind,
            Some(RunErrorKind::GuestTrap),
            "{}: expected a classified guest trap, got {:?} ({:?})",
            row.key(),
            row.error_kind,
            row.error
        );
        assert_eq!(row.attempts, 1, "{}: traps reproduce — no retry", row.key());
    }
}

#[test]
fn a_quick_battery_under_injected_faults_completes_with_structured_rows() {
    // The acceptance drill: a multi-row battery where every job is
    // poisoned still completes end to end — rows for every combination,
    // structured kinds, no mutex poisoning, no process abort.
    for (kind, expected) in [
        (FaultKind::HostPanic, RunErrorKind::Panic),
        (FaultKind::GuestTrap, RunErrorKind::GuestTrap),
    ] {
        // Trigger well inside the run: the relaxed assembly retires just
        // under 10k instructions on core 0 for this shape.
        let rows = battery_rows(
            FaultPlan::none().with(0, 5_000, kind),
            SuperviseConfig {
                retry: RetryPolicy::no_retry(),
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 3);
        assert!(
            rows.iter().all(|r| r.error_kind == Some(expected)),
            "{kind:?}: every row carries the structured kind"
        );
    }
}
