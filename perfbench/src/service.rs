//! The service workload: an in-process `izhirisc serve` (2 workers, the
//! default queue) driven by a closed loop of 2 client connections. Each
//! client checks `/health`, posts one job and polls it to `done` before it
//! takes the next job.
//!
//! Jobs come in bursts: every fixed scenario's quick shape on the exact
//! and the relaxed clock, all at the burst's seed. Set-up fills the
//! template cache, as a long-running server's would be. The first burst
//! is not timed and gives the deterministic counts; each later burst uses
//! a new seed, so every timed job re-seeds its cached template. The two
//! clocks of one scenario must give the same raster hash — the cross-mode
//! identity the scenario battery also asserts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use izhi_bench::serve::{http_request, ServeConfig, Server};
use izhi_programs::scenario::{self, ScenarioParams};
use izhi_programs::template;
use izhi_sim::{counters, OpClass, SystemConfig};

use crate::json::Json;
use crate::sim::peak_rss_mb;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome};

/// The scenarios a burst draws from: the registry as this benchmark was
/// written, fixed so that a later scenario does not change the workload.
pub const SCENARIOS: [&str; 11] = [
    "net8020",
    "net8020_sweep",
    "sudoku",
    "net8020_large",
    "net8020_points",
    "net8020_basefixed",
    "net8020_softfloat",
    "sudoku_batch",
    "net8020_sharded",
    "net8020_stdp",
    "net8020_stream",
];

const CLOCKS: [&str; 2] = ["exact", "relaxed"];
const CLIENTS: usize = 2;
/// Set-ups timed for `setup_s` (the median is reported).
const SETUPS: usize = 3;
/// Timed bursts a run makes even when `--seconds` has already passed.
const MIN_BURSTS: usize = 2;
const POLL: Duration = Duration::from_millis(2);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// What one completed job observed, client side and server side.
#[derive(Debug, Clone)]
struct JobRecord {
    scenario: usize,
    clock: usize,
    latency_ms: f64,
    run_ms: f64,
    /// Client round trips: the accepted submit, then every status poll.
    rtt_ms: Vec<f64>,
    health_ms: f64,
    template_hit: bool,
    /// Supervised attempts the server needed.
    attempts: u64,
    instret: u64,
    cycles: u64,
    raster: String,
}

/// Failures and back-pressure one client saw during a burst.
#[derive(Debug, Default)]
struct ClientTally {
    attempted: u64,
    /// `429` answers: failed operations, but not wrong outputs.
    rejected: u64,
    failures: Vec<String>,
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Json, f64), String> {
    let t = Instant::now();
    let (status, text) =
        http_request(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let json = Json::parse(&text).map_err(|e| format!("{method} {path}: {e}: {text}"))?;
    Ok((status, json, ms))
}

/// Submit one job, poll it to completion and return its record.
fn one_job(
    addr: &str,
    job: u64,
    scenario: usize,
    clock: usize,
    seed: u32,
    tr: &mut Tracer,
    tally: &mut ClientTally,
) -> Result<JobRecord, String> {
    let (status, _, health_ms) = tr.span("serve.health", job, || {
        request(addr, "GET", "/health", None)
    })?;
    if status != 200 {
        return Err(format!("health answered {status}"));
    }
    let body = format!(
        "{{\"scenario\": \"{}\", \"seed\": {seed}, \"sched\": \"{}\"}}",
        SCENARIOS[scenario], CLOCKS[clock]
    );
    let start = Instant::now();
    tr.enter("serve.job", job);
    let result = (|| {
        let mut rtt_ms = Vec::new();
        let id = loop {
            let (status, resp, ms) = tr.span("serve.submit", job, || {
                request(addr, "POST", "/jobs", Some(&body))
            })?;
            match status {
                202 => {
                    rtt_ms.push(ms);
                    break resp
                        .get("id")
                        .and_then(Json::as_f64)
                        .ok_or("202 without an id")? as u64;
                }
                429 => {
                    // Back-pressure: a failed operation, retried after the
                    // server's hint.
                    tally.attempted += 1;
                    tally.rejected += 1;
                    let wait = resp
                        .get("retry_after_ms")
                        .and_then(Json::as_f64)
                        .unwrap_or(100.0);
                    thread::sleep(Duration::from_millis(wait.clamp(1.0, 1000.0) as u64));
                }
                other => return Err(format!("{body}: submit answered {other}")),
            }
        };
        loop {
            if start.elapsed() > JOB_TIMEOUT {
                return Err(format!("{body}: timed out after {JOB_TIMEOUT:?}"));
            }
            thread::sleep(POLL);
            let (status, resp, ms) = tr.span("serve.status", job, || {
                request(addr, "GET", &format!("/jobs/{id}"), None)
            })?;
            rtt_ms.push(ms);
            if status != 200 {
                return Err(format!("{body}: status answered {status}"));
            }
            match resp.get("status").and_then(Json::as_str) {
                Some("done") => {
                    let num = |k: &str| {
                        resp.get(k)
                            .and_then(Json::as_f64)
                            .ok_or(format!("done without `{k}`"))
                    };
                    return Ok(JobRecord {
                        scenario,
                        clock,
                        latency_ms: start.elapsed().as_secs_f64() * 1e3,
                        run_ms: num("wall_s")? * 1e3,
                        rtt_ms,
                        health_ms,
                        template_hit: resp.get("template_hit") == Some(&Json::Bool(true)),
                        attempts: num("attempts")? as u64,
                        instret: num("sim_instret")? as u64,
                        cycles: num("sim_cycles")? as u64,
                        raster: resp
                            .get("raster_hash")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    });
                }
                Some("failed") => return Err(format!("{body}: job failed: {resp}")),
                _ => {}
            }
        }
    })();
    tr.exit();
    result
}

/// One burst: every (scenario, clock) job once at `seed`, shared by the
/// clients in a closed loop. Returns the records in job order (`None`
/// for a failed job), the burst's duration and its count of `429`s.
fn burst(
    addr: &str,
    seed: u32,
    first_job: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<Option<JobRecord>>, f64, u64) {
    let n = SCENARIOS.len() * CLOCKS.len();
    let next = AtomicUsize::new(0);
    let records = Mutex::new(vec![None; n]);
    let start = Instant::now();
    let tallies: Vec<(Tracer, ClientTally)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut ctr = tr.fork();
                let (next, records) = (&next, &records);
                s.spawn(move || {
                    let mut tally = ClientTally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            break;
                        }
                        let (scenario, clock) = (i / CLOCKS.len(), i % CLOCKS.len());
                        tally.attempted += 1;
                        match one_job(
                            addr,
                            first_job + i as u64,
                            scenario,
                            clock,
                            seed,
                            &mut ctr,
                            &mut tally,
                        ) {
                            Ok(rec) => {
                                records.lock().expect("no client panics holding the lock")[i] =
                                    Some(rec)
                            }
                            Err(e) => tally.failures.push(e),
                        }
                    }
                    (ctr, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let took = start.elapsed().as_secs_f64();
    let mut rejected = 0;
    for (ctr, tally) in tallies {
        tr.merge(ctr);
        out.attempted += tally.attempted;
        out.failed += tally.rejected;
        rejected += tally.rejected;
        for f in tally.failures {
            out.fail(f);
        }
    }
    let records = records.into_inner().expect("clients joined");
    // Both clocks of one scenario must agree on the raster.
    for pair in records.chunks(CLOCKS.len()) {
        if let [Some(a), Some(b)] = pair {
            if a.raster != b.raster {
                out.fail(format!(
                    "{} seed {seed}: exact raster {} != relaxed raster {}",
                    SCENARIOS[a.scenario], a.raster, b.raster
                ));
            }
        }
    }
    (records, took, rejected)
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    for name in SCENARIOS {
        if scenario::find(name).is_none() {
            out.fail(format!("scenario `{name}` is not registered"));
            return out;
        }
    }
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    // Set-up is the server start plus the template cache a server fills
    // before its jobs run at steady state: every mix scenario's quick
    // shape, the same cache entries the jobs look up. `Server::start`
    // alone is ~50 µs of thread spawning, too short to time steadily.
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUPS {
        template::clear_cache();
        let t = Instant::now();
        let handle = match Server::start(cfg.clone()) {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("server start: {e}"));
                return out;
            }
        };
        for name in SCENARIOS {
            let sc = scenario::find(name).expect("checked above");
            tr.span("template.build", 0, || {
                sc.template_quick(&ScenarioParams::default())
            });
        }
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            handle.shutdown_and_join();
        } else {
            server = Some(handle);
        }
    }
    let server = server.expect("SETUPS >= 1");
    let addr = server.addr().to_string();
    let base_seed = derive_seed(seed, 1);
    let per_burst = (SCENARIOS.len() * CLOCKS.len()) as u64;

    // Warm-up burst: untimed; gives the deterministic counts (the profile
    // histogram sums over its concurrent jobs, so the total is exact).
    let prof0 = counters::profile_snapshot();
    let (warm, _, _) = burst(&addr, base_seed, 0, tr, &mut out);
    let prof1 = counters::profile_snapshot();
    let clock_hz = SystemConfig::default().clock_hz;
    let mut tick_ms = Vec::new();
    let (mut instret, mut cycles) = (0u64, 0u64);
    let mut hashes = Vec::new();
    for rec in warm.iter().flatten() {
        let ticks = scenario::find(SCENARIOS[rec.scenario])
            .and_then(|s| s.quick.ticks)
            .expect("quick shapes fix ticks");
        tick_ms.push(rec.cycles as f64 / clock_hz * 1e3 / ticks as f64);
        instret += rec.instret;
        cycles += rec.cycles;
        hashes.push(format!(
            "{}/{} {}",
            SCENARIOS[rec.scenario], CLOCKS[rec.clock], rec.raster
        ));
    }
    out.counts
        .push((format!("burst seed {base_seed}"), hashes.join(", ")));
    out.counts
        .push(("burst instret/cycles".into(), format!("{instret}/{cycles}")));

    let stats0 = template::cache_stats();
    let (mut records, mut bursts, mut rejected) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    let mut round = 1u32;
    while bursts.len() < MIN_BURSTS || start.elapsed().as_secs_f64() < seconds {
        let (recs, took, rej) = burst(
            &addr,
            base_seed + round,
            round as u64 * per_burst,
            tr,
            &mut out,
        );
        rejected += rej;
        if recs.iter().all(Option::is_some) {
            bursts.push(took);
        }
        records.extend(recs.into_iter().flatten());
        round += 1;
    }
    let stats1 = template::cache_stats();
    server.shutdown_and_join();

    let col = |f: &dyn Fn(&JobRecord) -> f64| records.iter().map(f).collect::<Vec<f64>>();
    let latencies = col(&|r| r.latency_ms);
    let m = &mut out.metrics;
    let mut put = |k: String, v: Option<f64>| {
        if let Some(v) = v {
            m.insert(k, v);
        }
    };
    put("wall_s".into(), median(&bursts));
    put("setup_s".into(), median(&setups));
    put("run_s".into(), median(&col(&|r| r.run_ms / 1e3)));
    put("peak_rss_mb".into(), peak_rss_mb());
    put(
        "jobs_per_s".into(),
        Some(records.len() as f64 / bursts.iter().sum::<f64>()),
    );
    put("job_latency_p50_ms".into(), median(&latencies));
    let tail = tail_percentile(&latencies, 90);
    put("job_latency_p90_ms".into(), tail.map(|t| t.1));
    if !tick_ms.is_empty() {
        put(
            "guest_ms_per_tick".into(),
            Some(tick_ms.iter().sum::<f64>() / tick_ms.len() as f64),
        );
    }
    put("sim.instret".into(), Some(instret as f64));
    put("sim.cycles".into(), Some(cycles as f64));
    if counters::profile_enabled() {
        for class in OpClass::ALL {
            let n = prof1[class as usize] - prof0[class as usize];
            put(format!("sim.retired.{}", class.label()), Some(n as f64));
        }
    }
    put(
        "template.hits".into(),
        Some((stats1.hits - stats0.hits) as f64),
    );
    put(
        "template.misses".into(),
        Some((stats1.misses - stats0.misses) as f64),
    );
    put("serve.submit_ms".into(), median(&col(&|r| r.rtt_ms[0])));
    let polls: Vec<f64> = records
        .iter()
        .flat_map(|r| r.rtt_ms[1..].to_vec())
        .collect();
    put("serve.status_ms".into(), median(&polls));
    put("serve.health_ms".into(), median(&col(&|r| r.health_ms)));
    put("serve.job_run_ms".into(), median(&col(&|r| r.run_ms)));
    put(
        "serve.job_overhead_ms".into(),
        median(&col(&|r| r.latency_ms - r.run_ms)),
    );
    put("serve.rejected".into(), Some(rejected as f64));
    put(
        "serve.retries".into(),
        Some(records.iter().map(|r| r.attempts - 1).sum::<u64>() as f64),
    );
    put(
        "serve.template_hit_share".into(),
        Some(
            records.iter().filter(|r| r.template_hit).count() as f64 / records.len().max(1) as f64,
        ),
    );
    let mut by_scenario: BTreeMap<usize, Vec<&JobRecord>> = BTreeMap::new();
    for r in &records {
        by_scenario.entry(r.scenario).or_default().push(r);
    }
    for (sc, rs) in by_scenario {
        let name = SCENARIOS[sc];
        let rtts: Vec<f64> = rs.iter().flat_map(|r| r.rtt_ms.clone()).collect();
        let pick = |f: &dyn Fn(&JobRecord) -> f64| rs.iter().map(|r| f(r)).collect::<Vec<f64>>();
        put(format!("serve.{name}.rtt_ms"), median(&rtts));
        put(format!("serve.{name}.run_ms"), median(&pick(&|r| r.run_ms)));
        put(
            format!("serve.{name}.overhead_ms"),
            median(&pick(&|r| r.latency_ms - r.run_ms)),
        );
    }
    out.notes.push(format!(
        "{} timed jobs in {} bursts; latency tail p{}",
        records.len(),
        bursts.len(),
        tail.map_or(0, |t| t.0)
    ));
    out
}
