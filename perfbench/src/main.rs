//! End-to-end and per-layer benchmark of the IzhiRISC-V reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_exact --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root: the runner reads `BENCHMARK.json` there
//! and prints exactly the metrics it declares — the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1` — as the last line of
//! standard output. Human-readable lines (deterministic counts, notes,
//! every metric with its unit) come before it. See `perfbench/README.md`
//! for why each workload exists and which layer moves which metric.

mod json;
mod service;
mod sim;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use spec::BenchSpec;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "paper_exact",
    "paper_relaxed_sweep",
    "sharded_relaxed",
    "service_mix",
];

/// What one workload run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, or service jobs and their re-submits).
    pub attempted: u64,
    /// Failed operations: errors, failed verification, `429`s, timeouts.
    pub failed: u64,
    /// Wrong or missing outputs; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by declared name. Names starting with `_` are
    /// internal and never printed.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic counts, printed so two commits compare exactly.
    pub counts: Vec<(String, String)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problems.push(msg);
    }
}

/// A scenario seed drawn from the benchmark seed: the same `(seed, salt)`
/// always gives the same value, in `1..=50_000`.
pub fn derive_seed(seed: u64, salt: u64) -> u32 {
    // splitmix64
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % 50_000) as u32 + 1
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
        },
    })
}

/// Run the same workload and seed untraced in a child process, before
/// this process turns profiling on, and return its end-to-end metrics.
fn untraced_reference(args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced reference run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("untraced reference run failed: {}", out.status));
    }
    let last = Json::parse(text.lines().last().unwrap_or(""))?;
    let mut m = BTreeMap::new();
    if let Some(Json::Obj(fields)) = last.get("metrics") {
        for (k, v) in fields {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                m.insert(k.clone(), x);
            }
        }
    }
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match BenchSpec::load("BENCHMARK.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if !spec.workloads.iter().any(|(n, _)| *n == args.workload) {
        eprintln!("unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    }
    // The program receives only the generated scenario parameters: no
    // inherited `IZHI_*` knob may switch a layer off or on.
    for (k, _) in std::env::vars() {
        if k.starts_with("IZHI_") {
            std::env::remove_var(k);
        }
    }
    let mut reference = None;
    if args.trace {
        match untraced_reference(&args) {
            Ok(m) => reference = Some(m),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        // The retire-class histogram of the traced run.
        std::env::set_var("IZHI_PROFILE", "1");
    }

    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut out = match args.workload.as_str() {
        "service_mix" => service::run(args.seed, args.seconds, &mut tr),
        w => {
            let case = sim::SimCase::new(w, args.seed).expect("every declared workload is known");
            sim::run(&case, args.seconds, &mut tr)
        }
    };

    if let Some(reference) = reference {
        // A declared `<span>_ms` layer the workload did not measure
        // itself is the median self time of its spans.
        let self_ms = tr.self_ms_by_name();
        for m in &spec.per_layer {
            let span = m.name.strip_suffix("_ms").unwrap_or("");
            if let Some(xs) = self_ms.get(span) {
                out.metrics
                    .entry(m.name.clone())
                    .or_insert_with(|| stats::median(xs).unwrap_or(0.0));
            }
        }
        if let (Some(t), Some(u)) = (out.metrics.get("wall_s"), reference.get("wall_s")) {
            out.metrics
                .insert("trace.overhead_ms".into(), (t - u) * 1e3);
        }
        if let (Some(i), Some(r)) = (out.metrics.get("_instret_per_job"), reference.get("run_s")) {
            out.metrics.insert("sim.minstr_per_s".into(), i / r / 1e6);
        }
        out.metrics.insert("trace.spans".into(), tr.len() as f64);
        let path = format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        match tr.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => out.notes.push(format!("spans written to {path}")),
            Err(e) => out.problems.push(format!("writing {path}: {e}")),
        }
    }

    for (k, v) in &out.counts {
        println!("count  {k}: {v}");
    }
    for n in &out.notes {
        println!("note   {n}");
    }
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for k in out.metrics.keys() {
        let known = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .any(|m| m.name == *k);
        if !known && !k.starts_with('_') {
            out.problems
                .push(format!("metric `{k}` is not declared in BENCHMARK.json"));
        }
    }
    let mut fields = Vec::new();
    for m in declared {
        let value = match out.metrics.get(&m.name) {
            Some(v) => *v,
            // A layer the workload's path does not cross reads 0.
            None if args.trace => 0.0,
            None => {
                out.problems
                    .push(format!("end-to-end metric `{}` missing", m.name));
                continue;
            }
        };
        if !args.trace && value <= 0.0 {
            out.problems
                .push(format!("end-to-end metric `{}` is {value}", m.name));
        }
        println!("metric {:<32} {:>16.6} {}", m.name, value, m.unit);
        fields.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::from(m.unit.as_str())),
            ]),
        ));
    }
    for p in &out.problems {
        println!("FAIL   {p}");
    }
    let correct = out.problems.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
