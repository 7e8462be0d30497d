//! The three simulation workloads: a paper-scale `net8020` run on the
//! exact clock, a relaxed-clock seed sweep of the same network through one
//! run template, and the 10240-neuron `net8020_sharded` scale-out.
//!
//! Each iteration takes the path `izhirisc scenario run` takes: build the
//! run template (cache cleared first, so every iteration pays it, as a
//! single CLI run does), instantiate it at each of the case's seeds, run,
//! hash and verify. Traced runs add a probe after the timed loop that
//! repeats the first seed through the cold path's public steps
//! (`Scenario::build`, `build_asm`, `Assembler::assemble`, `prepare_run`,
//! `System::from_snapshot`, `run_prepared_system`), because the template
//! makes those calls internally where no span can reach them. The probe
//! must reproduce the timed run bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use izhi_isa::Assembler;
use izhi_programs::engine::{build_asm, prepare_run, run_prepared_system};
use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::{template, WorkloadResult};
use izhi_sim::{counters, OpClass, PerfCounters, SchedMode, SpanState, System, TimingModel};

use crate::stats::{median, quartiles, tail_percentile};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome};

/// Consecutive seeds the relaxed sweep runs through one template.
const SWEEP_SEEDS: u32 = 8;

/// Iterations a run makes even when `--seconds` has already passed, so
/// set-up is always timed several times.
const MIN_ITERATIONS: usize = 3;

/// Job id of the probe's spans.
const PROBE_JOB: u64 = 1 << 40;

/// One simulation workload: what to build, on which clock, at which seeds.
pub struct SimCase {
    scenario: &'static str,
    /// Build parameters without the seed (`None` = scenario default).
    shape: ScenarioParams,
    sched: SchedMode,
    /// Seeds run per iteration; the template is built at the first.
    seeds: Vec<u32>,
}

const RELAXED: SchedMode = SchedMode::Relaxed {
    quantum: SchedMode::DEFAULT_QUANTUM,
    timing: TimingModel::Unit,
};

impl SimCase {
    /// The case behind a simulation workload name, with seeds drawn from
    /// the benchmark seed.
    pub fn new(workload: &str, seed: u64) -> Option<SimCase> {
        // The paper's dual-core 1000-neuron network over one second.
        let paper = ScenarioParams::default()
            .with_n(1000)
            .with_ticks(1000)
            .with_cores(2);
        let s = derive_seed(seed, 0);
        Some(match workload {
            "paper_exact" => SimCase {
                scenario: "net8020",
                shape: paper,
                sched: SchedMode::Exact,
                seeds: vec![s],
            },
            "paper_relaxed_sweep" => SimCase {
                scenario: "net8020",
                shape: paper,
                sched: RELAXED,
                seeds: (s..s + SWEEP_SEEDS).collect(),
            },
            // Scenario defaults: 10240 neurons, 16 cores, 200 ticks.
            "sharded_relaxed" => SimCase {
                scenario: "net8020_sharded",
                shape: ScenarioParams::default(),
                sched: RELAXED,
                seeds: vec![s],
            },
            _ => return None,
        })
    }

    fn params(&self, seed: u32) -> ScenarioParams {
        self.shape.with_seed(seed)
    }
}

/// What a seed's run must reproduce on every later run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    raster: u64,
    weights: Option<u64>,
    instret: u64,
    cycles: u64,
}

impl Fingerprint {
    fn of(res: &WorkloadResult) -> Fingerprint {
        Fingerprint {
            raster: res.raster_hash(),
            weights: res.weight_hash,
            instret: res.instret,
            cycles: res.cycles,
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Run `case` for at least `seconds` (and at least [`MIN_ITERATIONS`]
/// iterations), verifying every result.
pub fn run(case: &SimCase, seconds: f64, tr: &mut Tracer) -> Outcome {
    let sc = scenario::find(case.scenario).expect("registered scenario");
    let mut out = Outcome::default();
    let (mut walls, mut setups, mut runs, mut latencies) = (vec![], vec![], vec![], vec![]);
    let mut expected: Vec<Option<Fingerprint>> = vec![None; case.seeds.len()];
    let mut first: Vec<WorkloadResult> = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let per_iter = case.seeds.len() as u64;
    let start = Instant::now();
    let mut iter = 0u64;
    while (iter as usize) < MIN_ITERATIONS || secs(start) < seconds {
        template::clear_cache();
        let t0 = Instant::now();
        let tpl = tr.span("template.build", iter * per_iter, || {
            sc.template(&case.params(case.seeds[0]))
        });
        let mut clean = true;
        for (k, &seed) in case.seeds.iter().enumerate() {
            let job = iter * per_iter + k as u64;
            let tj = Instant::now();
            let name = if k == 0 {
                "template.instantiate"
            } else {
                "template.reseed"
            };
            let inst = tr.span(name, job, || tpl.instantiate(seed, case.sched));
            if k == 0 {
                setups.push(secs(t0));
            }
            out.attempted += 1;
            let tr0 = Instant::now();
            let res = tr.span("engine.run", job, || inst.run());
            let run_s = secs(tr0);
            let checked = tr.span("result.verify", job, || match res {
                Err(e) => Err(format!("seed {seed}: {e}")),
                Ok(res) => inst
                    .verify(&res)
                    .map(|()| (Fingerprint::of(&res), res))
                    .map_err(|e| format!("seed {seed}: verify failed: {e}")),
            });
            let (fp, res) = match checked {
                Ok(checked) => checked,
                Err(e) => {
                    out.fail(e);
                    clean = false;
                    continue;
                }
            };
            match expected[k] {
                None => expected[k] = Some(fp),
                Some(want) if want != fp => {
                    out.fail(format!("seed {seed}: rerun differs: {fp:x?} vs {want:x?}"));
                    clean = false;
                    continue;
                }
                Some(_) => {}
            }
            runs.push(run_s);
            latencies.push(secs(tj) * 1e3);
            if iter == 0 {
                first.push(res);
            }
        }
        // A failed run is never reported as a timing.
        if clean {
            walls.push(secs(t0));
        }
        let stats = template::cache_stats();
        hits += stats.hits;
        misses += stats.misses;
        iter += 1;
    }
    let loop_s = secs(start);
    template::clear_cache();

    let m = &mut out.metrics;
    let mut put = |k: &str, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(k.to_string(), v);
        }
    };
    put("wall_s", median(&walls));
    put("setup_s", median(&setups));
    put("run_s", median(&runs));
    put("peak_rss_mb", peak_rss_mb());
    put("jobs_per_s", Some(latencies.len() as f64 / loop_s));
    put("job_latency_p50_ms", median(&latencies));
    if let Some((p, v)) = tail_percentile(&latencies, 90) {
        put("job_latency_p90_ms", Some(v));
        out.notes.push(format!(
            "job latency tail: p{p} of {} jobs",
            latencies.len()
        ));
    }
    for (name, xs) in [("wall_s", &walls), ("run_s", &runs), ("setup_s", &setups)] {
        if let Some((q1, q3)) = quartiles(xs) {
            out.notes.push(format!(
                "{name}: {} samples, quartiles {q1:.4} .. {q3:.4}",
                xs.len()
            ));
        }
    }
    put("template.hits", Some(hits as f64));
    put("template.misses", Some(misses as f64));
    if first.len() == case.seeds.len() {
        let tick_ms: Vec<f64> = first.iter().map(WorkloadResult::time_per_tick_ms).collect();
        put(
            "guest_ms_per_tick",
            Some(tick_ms.iter().sum::<f64>() / tick_ms.len() as f64),
        );
        let instret: u64 = first.iter().map(|r| r.instret).sum();
        put("sim.instret", Some(instret as f64));
        put(
            "sim.cycles",
            Some(first.iter().map(|r| r.cycles).sum::<u64>() as f64),
        );
        core_metrics(&first, &mut out.metrics, &mut out.counts);
        for (k, r) in first.iter().enumerate() {
            out.counts.push((
                format!("seed {}", case.seeds[k]),
                format!(
                    "raster {:#018x} weights {} instret {} cycles {}",
                    r.raster_hash(),
                    r.weight_hash.map_or("-".into(), |h| format!("{h:#018x}")),
                    r.instret,
                    r.cycles
                ),
            ));
        }
    }
    out.metrics
        .insert("_instret_per_job".into(), mean_instret(&first));
    if tr.is_on() && !first.is_empty() {
        probe(case, sc, &first[0], tr, &mut out);
    }
    out
}

fn mean_instret(first: &[WorkloadResult]) -> f64 {
    first.iter().map(|r| r.instret as f64).sum::<f64>() / first.len().max(1) as f64
}

/// The modelled-core counters of one iteration's runs, summed over cores
/// and seeds and accounted per retired instruction.
fn core_metrics(
    results: &[WorkloadResult],
    m: &mut BTreeMap<String, f64>,
    counts: &mut Vec<(String, String)>,
) {
    let mut t = PerfCounters::default();
    let mut nm_ops = 0u64;
    for c in results.iter().flat_map(|r| &r.counters) {
        t.cycles += c.cycles;
        t.instret += c.instret;
        t.hazard_stalls += c.hazard_stalls;
        t.mem_stall_cycles += c.mem_stall_cycles;
        t.flush_cycles += c.flush_cycles;
        t.div_stall_cycles += c.div_stall_cycles;
        t.icache_hits += c.icache_hits;
        t.icache_misses += c.icache_misses;
        t.dcache_hits += c.dcache_hits;
        t.dcache_misses += c.dcache_misses;
        nm_ops += c.nm_total();
    }
    counts.push((
        "core counters".into(),
        format!(
            "cycles {} instret {} hazard {} mem {} flush {} div {} icache {}/{} dcache {}/{} nm {nm_ops}",
            t.cycles,
            t.instret,
            t.hazard_stalls,
            t.mem_stall_cycles,
            t.flush_cycles,
            t.div_stall_cycles,
            t.icache_misses,
            t.icache_hits + t.icache_misses,
            t.dcache_misses,
            t.dcache_hits + t.dcache_misses,
        ),
    ));
    let per_instr = |x: u64| x as f64 / t.instret.max(1) as f64;
    let rate = |miss: u64, hit: u64| miss as f64 / (miss + hit).max(1) as f64;
    for (k, v) in [
        ("core.ipc", t.instret as f64 / t.cycles.max(1) as f64),
        (
            "core.icache_miss_rate",
            rate(t.icache_misses, t.icache_hits),
        ),
        (
            "core.dcache_miss_rate",
            rate(t.dcache_misses, t.dcache_hits),
        ),
        ("core.hazard_stall_cycles", per_instr(t.hazard_stalls)),
        ("core.mem_stall_cycles", per_instr(t.mem_stall_cycles)),
        ("core.flush_cycles", per_instr(t.flush_cycles)),
        ("core.div_stall_cycles", per_instr(t.div_stall_cycles)),
        ("core.nm_ops", nm_ops as f64),
    ] {
        m.insert(k.to_string(), v);
    }
}

/// Repeat the first seed through the cold path's public steps under
/// spans, record what only the cold path exposes (kernel-span states,
/// kernel retirement share, the retire-class histogram), and check the
/// result is bit-identical to the timed run's.
fn probe(
    case: &SimCase,
    sc: &'static scenario::Scenario,
    timed: &WorkloadResult,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let job = PROBE_JOB;
    let mut wl = tr.span("scenario.build", job, || {
        sc.build(&case.params(case.seeds[0]))
    });
    wl.cfg_mut().system.sched = case.sched;
    let cfg = wl.cfg().clone();
    let asm = tr.span("engine.asm_gen", job, || build_asm(&cfg));
    let assembled = tr.span("isa.assemble", job, || {
        Assembler::new().relax(cfg.system.asm_relax).assemble(&asm)
    });
    if let Err(e) = assembled {
        out.fail(format!("probe: engine assembly failed: {e}"));
        return;
    }
    let prep = tr.span("engine.prepare", job, || prepare_run(&cfg, wl.image()));
    let spans = prep.code.kernel_spans();
    let count = |state: SpanState| spans.iter().filter(|s| s.state == state).count();
    let states = [
        ("ready", count(SpanState::Ready)),
        ("dirty", count(SpanState::Dirty)),
        ("rejected", count(SpanState::Rejected)),
    ];
    out.metrics
        .insert("sim.kernel_spans_ready".into(), states[0].1 as f64);
    out.counts.push((
        "kernel spans after prepare_run".into(),
        format!("{states:?}"),
    ));
    let mut system_cfg = cfg.system.clone();
    system_cfg.n_cores = cfg.n_cores;
    let mut sys = tr.span("system.materialise", job, || {
        System::from_snapshot(system_cfg, prep.mem, prep.code, prep.entry)
    });
    let base = counters::profile_snapshot();
    let res = tr.span("engine.run_cold", job, || {
        run_prepared_system(&mut sys, &cfg, wl.max_cycles())
    });
    let after = counters::profile_snapshot();
    let res = match tr.span("result.verify", job, || {
        res.map_err(|e| e.to_string())
            .and_then(|r| wl.verify(&r).map(|()| r))
    }) {
        Ok(res) => res,
        Err(e) => {
            out.fail(format!("probe: {e}"));
            return;
        }
    };
    if Fingerprint::of(&res) != Fingerprint::of(timed) {
        out.fail(format!(
            "probe: cold run {:x?} differs from the template run {:x?}",
            Fingerprint::of(&res),
            Fingerprint::of(timed)
        ));
    }
    let kernel: u64 = (0..sys.n_cores()).map(|i| sys.core(i).kernel_instret).sum();
    let share = kernel as f64 / res.instret.max(1) as f64;
    out.metrics.insert("sim.kernel_instret_share".into(), share);
    out.counts.push((
        "kernel instret share".into(),
        format!("{kernel}/{}", res.instret),
    ));
    if counters::profile_enabled() {
        let mut hist = Vec::new();
        for class in OpClass::ALL {
            let n = after[class as usize] - base[class as usize];
            out.metrics
                .insert(format!("sim.retired.{}", class.label()), n as f64);
            hist.push(format!("{} {n}", class.label()));
        }
        out.counts
            .push(("retired by class".into(), hist.join(", ")));
    }
}
