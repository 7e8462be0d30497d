//! The CI perf-regression gate behind `perf_baseline --check`.
//!
//! The gate is a table, [`GATES`]: each row names a BENCH section, which
//! of its entries it judges ([`Pick`]) and the rule each judged entry of
//! the fresh run must meet ([`Rule`]). [`check`] runs one row against the
//! fresh measurement and the committed baseline, both parsed [`Json`]
//! documents in `perf_baseline`'s format. A section is an object of named
//! numbers or bools, or an array of objects, each named by its `key`
//! string and judged by its `verified` flag (the battery rows).
//!
//! The gate lives in the library so its failure modes are unit-testable,
//! above all the ones that must never pass silently: a gated entry
//! missing from the fresh run, a section missing from either document or
//! garbled in it, and a row that selects nothing (see [`GateFailure`]).

use crate::json::Json;

/// Absolute floor on the headline single-core speedup-vs-seed rows
/// (`*_1core`, not the `*_norelax` / `*_nosb` / `*_nokernel` diagnostic
/// rows). The `net8020` quick row lands at ~2.2-2.3x; the floor leaves
/// margin for runner noise, since the interleaved same-process ratio is
/// host-stable but not noise-free. (The original 2.8x target was not
/// reached: the exact-path interpreter is dispatch-bound, see the
/// README's interpreter-core notes.)
pub const SINGLE_CORE_FLOOR: f64 = 2.0;

/// Absolute floor on the relaxed single-core quick row
/// (`net8020_quick_1core_relaxed`: `SchedMode::Relaxed`, kernel offload
/// on — the configuration relaxed sweeps actually ship). The native
/// closed-form kernel tier lands it at ~3.5x+ on this host; the floor
/// sits below that with runner-noise margin. This is the 2.8x target the
/// exact path (see [`SINGLE_CORE_FLOOR`]) could not reach.
pub const RELAXED_SINGLE_CORE_FLOOR: f64 = 2.8;

/// Required wall-time multiple of every kernel-on relaxed row over its
/// kernel-off twin (`*_relaxed` vs `*_relaxed_nokernel`). Both rows'
/// speedups are measured against the same interleaved seed run, so the
/// ratio cancels the seed and is a pure same-host kernel-on/off ratio.
pub const KERNEL_SPEEDUP_FLOOR: f64 = 1.25;

/// Required fractional instret reduction (`1 - relaxed/unrelaxed`) from
/// the assembler relaxation + peephole pass on the gated workload
/// (`net8020_quick_1core`). The reduction is a deterministic property of
/// the emitted code — no host noise — so the floor can sit directly
/// under the measured 3.05%.
pub const INSTRET_REDUCTION_FLOOR: f64 = 0.03;

/// Allowed band for the estimated-vs-exact cycle ratio: deliberately
/// generous for now (the cost table is a first-order static collapse of a
/// dynamic model); tighten as the table is calibrated. The band is
/// absolute — centred on 1.0 — because the ratio is a *model-accuracy*
/// statement, not a host-speed measurement.
pub const ACCURACY_LO: f64 = 0.5;
/// Upper bound of the estimated-accuracy band (see [`ACCURACY_LO`]).
pub const ACCURACY_HI: f64 = 2.0;
/// Relative factor for scenarios whose *committed* ratio already sits
/// outside the absolute band: barrier-heavy scale-out shapes (e.g. a
/// 16-core sharded net), whose exact clock is dominated by simulated
/// barrier spin-wait that the relaxed scheduler deschedules. Their fresh
/// ratio is held within this factor of the committed value (both
/// directions) instead, which still catches drift.
pub const ACCURACY_REL: f64 = 2.0;

/// Required multiple of cold-build throughput the template cache must
/// deliver on the repeat-seed quick battery. A ratio of two arms timed
/// on the same host in the same process, so — unlike absolute jobs/s —
/// it is *not* a host-speed lottery and can be gated hard.
pub const THROUGHPUT_FLOOR: f64 = 2.0;

/// Which entries of a section a gate row judges.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// The baseline's entries whose name passes the filter; each must
    /// also be in the fresh run.
    Baseline(fn(&str) -> bool),
    /// The fresh run's entries whose name passes the filter.
    Fresh(fn(&str) -> bool),
    /// Exactly these entries, each of which must be in the fresh run.
    Named(&'static [&'static str]),
}

/// What each judged entry of the fresh run must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Nothing beyond being present: reported, not thresholded.
    Present,
    /// At least `min_ratio` × its baseline value (the `--min-ratio`
    /// argument of [`check`]).
    Relative,
    /// At least this absolute floor.
    Floor(f64),
    /// Greater than zero.
    Positive,
    /// At least this multiple of its `*_nokernel` twin in the fresh run.
    OnOffRatio(f64),
    /// Inside `lo..=hi`; or, where the baseline value itself lies outside
    /// the band, within `rel`× of the baseline value in both directions.
    BandOrRelative {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
        /// Relative factor for out-of-band baselines.
        rel: f64,
    },
    /// `true`.
    True,
}

/// One row of the gate table.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Top-level key of the section in both documents.
    pub section: &'static str,
    /// The entries the row judges.
    pub pick: Pick,
    /// What each of them must satisfy.
    pub rule: Rule,
}

/// Single-core speedup rows: the ones the relative gate holds (multi-core
/// rows depend on host parallel behaviour CI runners do not promise).
fn single_core(name: &str) -> bool {
    name.contains("_1core")
}

/// Headline single-core rows: not the `_norelax` / `_nosb` / `_nokernel`
/// diagnostic rows, which exist to price a tier rather than to clear a
/// floor.
fn headline_single_core(name: &str) -> bool {
    let diagnostic = ["_norelax", "_nosb", "_nokernel"];
    single_core(name) && !diagnostic.iter().any(|s| name.ends_with(s))
}

/// Kernel-on relaxed rows, each priced against its `_nokernel` twin.
fn kernel_on(name: &str) -> bool {
    name.ends_with("_relaxed")
}

const fn gate(section: &'static str, pick: Pick, rule: Rule) -> Gate {
    Gate {
        section,
        pick,
        rule,
    }
}

/// The CI perf gate. Every bound is a constant of this module, except
/// the relative one, which is `perf_baseline`'s `--min-ratio`. The
/// `instret_reduction` rows reproduce every workload of the baseline but
/// floor only the quick row (the paper shape's integration loops relax
/// less). The `service` rows ask for forward progress and the guarantee
/// booleans, never an absolute jobs/s, which would make the gate a
/// host-speed lottery.
#[rustfmt::skip]
pub const GATES: [Gate; 12] = [
    gate("speedup_vs_seed", Pick::Baseline(single_core), Rule::Relative),
    gate("speedup_vs_seed", Pick::Fresh(headline_single_core), Rule::Floor(SINGLE_CORE_FLOOR)),
    gate("speedup_vs_seed", Pick::Fresh(kernel_on), Rule::OnOffRatio(KERNEL_SPEEDUP_FLOOR)),
    gate("speedup_vs_seed", Pick::Named(&["net8020_quick_1core_relaxed"]), Rule::Floor(RELAXED_SINGLE_CORE_FLOOR)),
    gate("instret_reduction", Pick::Baseline(|_| true), Rule::Present),
    gate("instret_reduction", Pick::Named(&["net8020_quick_1core"]), Rule::Floor(INSTRET_REDUCTION_FLOOR)),
    gate("battery", Pick::Baseline(|_| true), Rule::True),
    gate("estimated_accuracy", Pick::Baseline(|_| true), Rule::BandOrRelative { lo: ACCURACY_LO, hi: ACCURACY_HI, rel: ACCURACY_REL }),
    gate("service", Pick::Named(&["completed", "throughput_jobs_per_s"]), Rule::Positive),
    gate("service", Pick::Named(&["health_ok", "backpressure_hinted", "failure_isolated"]), Rule::True),
    gate("battery_throughput", Pick::Named(&["runs", "cold_runs_per_s", "cached_runs_per_s"]), Rule::Positive),
    gate("battery_throughput", Pick::Named(&["speedup"]), Rule::Floor(THROUGHPUT_FLOOR)),
];

/// Why the gate failed. `name` is the judged entry, `fresh` its fresh
/// value.
#[derive(Debug, Clone, PartialEq)]
pub enum GateFailure {
    /// A section is missing from the baseline or the fresh run, is not an
    /// object or array, or holds an entry of the wrong type; `what` says
    /// which, and in which document.
    Malformed { section: String, what: String },
    /// The row selected no entries of this section: an empty gate must
    /// fail, not vacuously pass.
    NoGatedEntries(String),
    /// A gated entry does not exist in the fresh measurement (renamed or
    /// dropped row). Silently skipping it would disable its own gate.
    MissingEntry(String),
    /// The fresh value fell below `min_ratio` × the committed `baseline`.
    Regressed {
        name: String,
        fresh: f64,
        baseline: f64,
    },
    /// The fresh value fell below an absolute `floor`, which holds
    /// independently of the committed baseline.
    BelowFloor {
        name: String,
        fresh: f64,
        floor: f64,
    },
    /// A count or rate that must be positive was not (or was NaN).
    NotPositive { name: String, fresh: f64 },
    /// A kernel-on relaxed row failed to beat its kernel-off twin by the
    /// required `floor` multiple. Both speedups (`on`, `off`) are vs the
    /// same seed run, so their ratio is a pure kernel-on/off wall-time
    /// ratio — host-stable.
    KernelSpeedupBelowFloor {
        name: String,
        on: f64,
        off: f64,
        floor: f64,
    },
    /// A scenario's estimated-vs-exact cycle `ratio` left the inclusive
    /// band `[lo, hi]`.
    AccuracyOutOfBand {
        name: String,
        ratio: f64,
        lo: f64,
        hi: f64,
    },
    /// A flag that must hold is false in the fresh run: a battery row
    /// failed its verification hook, or a service guarantee broke.
    Unverified(String),
}

impl core::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GateFailure::Malformed { section, what } => write!(f, "{section}: {what}"),
            GateFailure::NoGatedEntries(section) => {
                write!(f, "{section}: the gate selects no entries")
            }
            GateFailure::MissingEntry(name) => {
                write!(f, "{name}: MISSING from fresh measurement")
            }
            GateFailure::Regressed {
                name,
                fresh,
                baseline,
            } => write!(
                f,
                "{name}: {fresh:.3} REGRESSED vs baseline {baseline:.3}"
            ),
            GateFailure::BelowFloor { name, fresh, floor } => {
                write!(f, "{name}: {fresh:.4} BELOW the absolute floor {floor}")
            }
            GateFailure::NotPositive { name, fresh } => {
                write!(f, "{name}: {fresh} is not positive")
            }
            GateFailure::KernelSpeedupBelowFloor {
                name,
                on,
                off,
                floor,
            } => write!(
                f,
                "{name}: kernel-on {on:.3}x vs kernel-off {off:.3}x — ratio {:.3} BELOW the {floor:.2}x kernel floor",
                on / off
            ),
            GateFailure::AccuracyOutOfBand {
                name,
                ratio,
                lo,
                hi,
            } => write!(
                f,
                "{name}: estimated/exact cycle ratio {ratio:.3} outside [{lo:.2}, {hi:.2}]"
            ),
            GateFailure::Unverified(name) => write!(f, "{name}: false in the fresh run"),
        }
    }
}

/// One judged entry (reporting data for the caller — the gate itself
/// never prints).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedEntry {
    /// Entry name.
    pub name: String,
    /// The judged fresh quantity (an on/off ratio for
    /// [`Rule::OnOffRatio`], 1 or 0 for a flag).
    pub fresh: f64,
    /// The baseline's value of the same entry, where it has a number and
    /// the rule judges the entry itself.
    pub baseline: Option<f64>,
}

/// Everything one gate row determined; presentation is the caller's job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Judged entries present in the fresh run (pass or fail).
    pub checked: Vec<CheckedEntry>,
    /// All failures; empty means the row passed.
    pub failures: Vec<GateFailure>,
}

impl GateReport {
    /// Whether the row passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

const BASELINE_SIDE: &str = "baseline";
const FRESH_SIDE: &str = "fresh run";

/// A named number or bool of a section.
type Entry<'a> = (&'a str, &'a Json);

/// The entries of section `name` of `doc` (`side` names the document in
/// failures).
fn section<'a>(doc: &'a Json, name: &str, side: &str) -> Result<Vec<Entry<'a>>, GateFailure> {
    let malformed = |what: String| GateFailure::Malformed {
        section: name.to_string(),
        what: format!("{what} in the {side}"),
    };
    let entries: Vec<Entry<'a>> = match doc.get(name) {
        None => return Err(malformed("section missing".into())),
        Some(Json::Obj(fields)) => fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        Some(Json::Arr(rows)) => {
            let entry = |row: &'a Json| Some((row.get("key")?.as_str()?, row.get("verified")?));
            let rows = rows.iter().map(entry).collect::<Option<_>>();
            rows.ok_or_else(|| malformed("a row without a string `key` or `verified`".into()))?
        }
        Some(_) => return Err(malformed("not an object or array".into())),
    };
    let bad = |(_, v): &&Entry<'_>| !matches!(v, Json::Num(_) | Json::Bool(_));
    if let Some((key, _)) = entries.iter().find(bad) {
        return Err(malformed(format!("`{key}` is not a number or bool")));
    }
    Ok(entries)
}

fn lookup<'a>(entries: &[Entry<'a>], name: &str) -> Option<&'a Json> {
    entries.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Check the sections `gates` read in the baseline alone, so a missing
/// or garbled baseline is reported before any measuring starts.
pub fn check_baseline(gates: &[Gate], baseline: &Json) -> Vec<GateFailure> {
    let mut failures = Vec::new();
    for gate in gates {
        if let Err(f) = section(baseline, gate.section, BASELINE_SIDE) {
            if !failures.contains(&f) {
                failures.push(f);
            }
        }
    }
    failures
}

/// Run one gate row: judge the fresh run's `gate.section` against the
/// baseline's. `min_ratio` is the bound of [`Rule::Relative`] rows.
pub fn check(gate: &Gate, fresh: &Json, baseline: &Json, min_ratio: f64) -> GateReport {
    let mut report = GateReport::default();
    let (base, new) = match (
        section(baseline, gate.section, BASELINE_SIDE),
        section(fresh, gate.section, FRESH_SIDE),
    ) {
        (Ok(base), Ok(new)) => (base, new),
        (base, new) => {
            report
                .failures
                .extend(base.err().into_iter().chain(new.err()));
            return report;
        }
    };
    let names: Vec<&str> = match gate.pick {
        Pick::Baseline(keep) => base.iter().map(|e| e.0).filter(|n| keep(n)).collect(),
        Pick::Fresh(keep) => new.iter().map(|e| e.0).filter(|n| keep(n)).collect(),
        Pick::Named(names) => names.to_vec(),
    };
    if names.is_empty() {
        report
            .failures
            .push(GateFailure::NoGatedEntries(gate.section.to_string()));
    }
    for name in names {
        let Some(value) = lookup(&new, name) else {
            report
                .failures
                .push(GateFailure::MissingEntry(name.to_string()));
            continue;
        };
        match judge(gate, name, value, lookup(&base, name), &new, min_ratio) {
            Ok((fresh, baseline, failure)) => {
                report.checked.push(CheckedEntry {
                    name: name.to_string(),
                    fresh,
                    baseline,
                });
                report.failures.extend(failure);
            }
            Err(failure) => report.failures.push(failure),
        }
    }
    report
}

/// Apply `gate.rule` to one fresh entry: the judged fresh quantity, the
/// baseline value shown next to it, and the failure if the rule does not
/// hold. `Err` when an entry has the wrong type for the rule, or a twin
/// the rule needs is missing.
fn judge(
    gate: &Gate,
    name: &str,
    value: &Json,
    base: Option<&Json>,
    fresh: &[Entry<'_>],
    min_ratio: f64,
) -> Result<(f64, Option<f64>, Option<GateFailure>), GateFailure> {
    let malformed = |what: String| GateFailure::Malformed {
        section: gate.section.to_string(),
        what,
    };
    let num = |v: &Json, entry: &str, side: &str| {
        v.as_f64()
            .ok_or_else(|| malformed(format!("`{entry}` in the {side} is not a number")))
    };
    let base_num = || match base {
        Some(b) => num(b, name, BASELINE_SIDE),
        None => Err(malformed(format!("`{name}` missing in the baseline"))),
    };
    let name_s = name.to_string();
    if gate.rule == Rule::True {
        let ok = value
            .as_bool()
            .ok_or_else(|| malformed(format!("`{name}` in the {FRESH_SIDE} is not a bool")))?;
        let failure = (!ok).then_some(GateFailure::Unverified(name_s));
        return Ok((f64::from(u8::from(ok)), None, failure));
    }
    let v = num(value, name, FRESH_SIDE)?;
    let info = base.and_then(Json::as_f64);
    Ok(match gate.rule {
        Rule::Present | Rule::True => (v, info, None),
        Rule::Relative => {
            let b = base_num()?;
            let failure = GateFailure::Regressed {
                name: name_s,
                fresh: v,
                baseline: b,
            };
            (v, Some(b), (v / b < min_ratio).then_some(failure))
        }
        Rule::Floor(floor) => {
            let failure = GateFailure::BelowFloor {
                name: name_s,
                fresh: v,
                floor,
            };
            (v, info, (v < floor || v.is_nan()).then_some(failure))
        }
        Rule::Positive => {
            let failure = GateFailure::NotPositive {
                name: name_s,
                fresh: v,
            };
            (v, info, (v <= 0.0 || v.is_nan()).then_some(failure))
        }
        Rule::OnOffRatio(floor) => {
            let twin = format!("{name}_nokernel");
            let off =
                lookup(fresh, &twin).ok_or_else(|| GateFailure::MissingEntry(twin.clone()))?;
            let off = num(off, &twin, FRESH_SIDE)?;
            let failure = GateFailure::KernelSpeedupBelowFloor {
                name: name_s,
                on: v,
                off,
                floor,
            };
            (v / off, None, (v / off < floor).then_some(failure))
        }
        Rule::BandOrRelative { lo, hi, rel } => {
            let b = base_num()?;
            // Committed-out-of-band scenarios are held relative to their
            // committed ratio instead (the absolute band could never pass
            // them); in-band baselines keep the absolute band.
            let rel_ok = !(lo..=hi).contains(&b) && b > 0.0 && (1.0 / rel..=rel).contains(&(v / b));
            let failure = GateFailure::AccuracyOutOfBand {
                name: name_s,
                ratio: v,
                lo,
                hi,
            };
            (
                v,
                Some(b),
                (!(lo..=hi).contains(&v) && !rel_ok).then_some(failure),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test document parses")
    }

    /// The gate row of `section` whose rule matches.
    fn row(section: &str, rule: fn(&Rule) -> bool) -> &'static Gate {
        GATES
            .iter()
            .find(|g| g.section == section && rule(&g.rule))
            .expect("gate row exists")
    }

    fn relative() -> &'static Gate {
        row("speedup_vs_seed", |r| *r == Rule::Relative)
    }

    fn headline_floor() -> &'static Gate {
        row("speedup_vs_seed", |r| *r == Rule::Floor(SINGLE_CORE_FLOOR))
    }

    /// Every row of one section, merged into one report.
    fn check_section(section: &str, fresh: &Json, baseline: &Json) -> GateReport {
        let mut all = GateReport::default();
        for g in GATES.iter().filter(|g| g.section == section) {
            let r = check(g, fresh, baseline, 0.85);
            all.checked.extend(r.checked);
            all.failures.extend(r.failures);
        }
        all
    }

    /// A document with one section of named numbers.
    fn numbers(section: &str, entries: &[(&str, f64)]) -> Json {
        let fields = entries.iter().map(|&(n, v)| (n, Json::Num(v)));
        Json::obj([(section, Json::obj(fields))])
    }

    fn fresh(entries: &[(&str, f64)]) -> Json {
        numbers("speedup_vs_seed", entries)
    }

    /// `doc` with `section.field` (or the whole section when `field` is
    /// `None`) replaced by `value`, or removed when `value` is `None`.
    fn edit(doc: &Json, section: &str, field: Option<&str>, value: Option<Json>) -> Json {
        let Json::Obj(sections) = doc else {
            panic!("not an object")
        };
        let mut out = Vec::new();
        for (k, v) in sections {
            match (k == section, field) {
                (false, _) => out.push((k.clone(), v.clone())),
                (true, None) => out.extend(value.clone().map(|v| (k.clone(), v))),
                (true, Some(f)) => out.push((k.clone(), edit(v, f, None, value.clone()))),
            }
        }
        Json::Obj(out)
    }

    const BASELINE: &str = r#"{
  "schema": "izhirisc-perf-baseline-v4",
  "workloads": [],
  "speedup_vs_seed": {
    "net8020_quick_1core": 2.000,
    "net8020_paper_1core_100ms": 1.900,
    "net8020_quick_2core": 2.790
  }
}"#;

    #[test]
    fn parses_speedup_entries() {
        let base = doc(BASELINE);
        let entries = section(&base, "speedup_vs_seed", BASELINE_SIDE).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], ("net8020_quick_1core", &Json::Num(2.0)));
    }

    #[test]
    fn passes_when_all_entries_hold() {
        let f = fresh(&[
            ("net8020_quick_1core", 1.95),
            ("net8020_paper_1core_100ms", 1.88),
            // 2-core entries are informational: absent or regressed is fine.
        ]);
        let report = check(relative(), &f, &doc(BASELINE), 0.85);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
        assert_eq!(report.checked[0].baseline, Some(2.0));
    }

    #[test]
    fn missing_baseline_key_errors_instead_of_passing() {
        // A fresh run that lost (e.g. renamed) a gated row must fail the
        // gate even though every entry it *does* have looks healthy.
        let f = fresh(&[("net8020_quick_1core", 2.5)]);
        let report = check(relative(), &f, &doc(BASELINE), 0.85);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "net8020_paper_1core_100ms".to_string()
            )]
        );
    }

    #[test]
    fn regression_below_min_ratio_errors() {
        let f = fresh(&[
            ("net8020_quick_1core", 1.0), // 0.5x of baseline
            ("net8020_paper_1core_100ms", 1.9),
        ]);
        let report = check(relative(), &f, &doc(BASELINE), 0.85);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::Regressed { name, .. }] if name == "net8020_quick_1core"
        ));
    }

    #[test]
    fn empty_or_garbled_baseline_errors() {
        let f = fresh(&[("net8020_quick_1core", 2.0)]);
        assert!(Json::parse("not json at all").is_err());
        // A baseline without the section fails, naming it.
        assert!(matches!(
            &check(relative(), &f, &doc("{}"), 0.85).failures[..],
            [GateFailure::Malformed { section, what }]
                if section == "speedup_vs_seed" && what.contains("missing in the baseline")
        ));
        // A baseline with only multi-core entries gates nothing — that is
        // an error too, not a vacuous pass.
        let multi_only = doc(r#"{"speedup_vs_seed": {"net8020_quick_2core": 2.79}}"#);
        assert_eq!(
            check(relative(), &f, &multi_only, 0.85).failures,
            vec![GateFailure::NoGatedEntries("speedup_vs_seed".to_string())]
        );
    }

    const BATTERY_BASELINE: &str = r#"{
  "battery": [
    {"key": "net8020:5:exact", "verified": true},
    {"key": "net8020:5:relaxed-est", "verified": true}
  ]
}"#;

    fn fresh_battery(entries: &[(&str, bool)]) -> Json {
        let rows = entries
            .iter()
            .map(|&(k, v)| Json::obj([("key", k.into()), ("verified", v.into())]));
        Json::obj([("battery", Json::Arr(rows.collect()))])
    }

    #[test]
    fn battery_gate_passes_when_keys_hold() {
        let f = fresh_battery(&[
            ("net8020:5:exact", true),
            ("net8020:5:relaxed-est", true),
            ("extra:1:exact", true), // extra fresh rows are fine
        ]);
        let report = check_section("battery", &f, &doc(BATTERY_BASELINE));
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
    }

    #[test]
    fn battery_gate_errors_on_missing_key() {
        let f = fresh_battery(&[("net8020:5:exact", true)]);
        let report = check_section("battery", &f, &doc(BATTERY_BASELINE));
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "net8020:5:relaxed-est".to_string()
            )]
        );
    }

    #[test]
    fn battery_gate_errors_on_unverified_row() {
        let f = fresh_battery(&[("net8020:5:exact", true), ("net8020:5:relaxed-est", false)]);
        let report = check_section("battery", &f, &doc(BATTERY_BASELINE));
        assert_eq!(
            report.failures,
            vec![GateFailure::Unverified("net8020:5:relaxed-est".to_string())]
        );
    }

    #[test]
    fn battery_gate_errors_on_batteryless_baseline() {
        let f = fresh_battery(&[("net8020:5:exact", true)]);
        assert!(matches!(
            &check_section("battery", &f, &doc(BASELINE)).failures[..],
            [GateFailure::Malformed { section, .. }] if section == "battery"
        ));
        assert_eq!(
            check_section("battery", &f, &doc(r#"{"battery": []}"#)).failures,
            vec![GateFailure::NoGatedEntries("battery".to_string())]
        );
        // A row without its key or flag is garbled, not skipped.
        let keyless = doc(r#"{"battery": [{"scenario": "net8020", "verified": true}]}"#);
        assert!(matches!(
            &check_section("battery", &f, &keyless).failures[..],
            [GateFailure::Malformed { section, what }]
                if section == "battery" && what.contains("`key`")
        ));
    }

    const ACCURACY_BASELINE: &str = r#"{
  "estimated_accuracy": {
    "net8020": 0.912,
    "sudoku": 1.104
  }
}"#;

    fn accuracy(entries: &[(&str, f64)], baseline: &str) -> GateReport {
        let f = numbers("estimated_accuracy", entries);
        check_section("estimated_accuracy", &f, &doc(baseline))
    }

    #[test]
    fn accuracy_gate_passes_inside_the_band() {
        let report = accuracy(
            &[("net8020", 1.2), ("sudoku", 0.8), ("extra", 9.0)],
            ACCURACY_BASELINE,
        );
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
    }

    #[test]
    fn accuracy_gate_errors_outside_the_band() {
        let report = accuracy(&[("net8020", 2.5), ("sudoku", 1.0)], ACCURACY_BASELINE);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::AccuracyOutOfBand { name, ratio, .. }]
                if name == "net8020" && (*ratio - 2.5).abs() < 1e-12
        ));
    }

    #[test]
    fn accuracy_gate_errors_on_missing_scenario() {
        let report = accuracy(&[("net8020", 1.0)], ACCURACY_BASELINE);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry("sudoku".to_string())]
        );
    }

    #[test]
    fn out_of_band_baselines_are_gated_relative_to_their_committed_ratio() {
        // A barrier-dominated scale-out scenario commits a ratio below
        // the absolute band: reproducing it (within the relative factor)
        // must pass, drifting past the factor must fail, and in-band
        // scenarios in the same baseline keep the absolute semantics.
        let baseline = r#"{
  "estimated_accuracy": {
    "net8020_sharded": 0.250,
    "net8020": 1.026
  }
}"#;
        assert!(accuracy(&[("net8020_sharded", 0.26), ("net8020", 1.0)], baseline).passed());
        let report = accuracy(&[("net8020_sharded", 0.06), ("net8020", 1.0)], baseline);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::AccuracyOutOfBand { name, .. }] if name == "net8020_sharded"
        ));
        // An in-band baseline never unlocks the relative escape hatch:
        // 2.05 is within 2x of the committed 1.026 but outside the band.
        let report = accuracy(&[("net8020_sharded", 0.25), ("net8020", 2.05)], baseline);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::AccuracyOutOfBand { name, .. }] if name == "net8020"
        ));
    }

    #[test]
    fn accuracy_gate_detects_the_section() {
        // Missing, garbled and empty sections all fail — none is skipped.
        let missing = accuracy(&[("a", 1.0)], BASELINE);
        assert!(matches!(
            &missing.failures[..],
            [GateFailure::Malformed { section, what }]
                if section == "estimated_accuracy" && what.contains("missing in the baseline")
        ));
        let garbled = accuracy(&[], r#"{"estimated_accuracy": "zap"}"#);
        assert!(matches!(
            &garbled.failures[..],
            [GateFailure::Malformed { what, .. }] if what.contains("not an object or array")
        ));
        assert_eq!(
            accuracy(&[("a", 1.0)], r#"{"estimated_accuracy": {}}"#).failures,
            vec![GateFailure::NoGatedEntries(
                "estimated_accuracy".to_string()
            )]
        );
    }

    const SERVICE_BASELINE: &str = r#"{
  "service": {"jobs": 40, "completed": 38, "throughput_jobs_per_s": 410.5, "health_ok": true}
}"#;

    fn healthy_service() -> Json {
        doc(
            r#"{"service": {"jobs": 40, "accepted": 24, "rejected": 16, "completed": 38,
            "failed": 2, "throughput_jobs_per_s": 350.0, "health_ok": true,
            "backpressure_hinted": true, "failure_isolated": true}}"#,
        )
    }

    #[test]
    fn service_gate_passes_when_guarantees_hold() {
        let report = check_section("service", &healthy_service(), &doc(SERVICE_BASELINE));
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 5);
        assert_eq!(
            report.checked[1],
            CheckedEntry {
                name: "throughput_jobs_per_s".to_string(),
                fresh: 350.0,
                baseline: Some(410.5),
            },
            "baseline throughput parsed for display"
        );
    }

    #[test]
    fn service_gate_errors_on_each_broken_guarantee() {
        for (field, value) in [
            ("completed", Json::Num(0.0)),
            ("throughput_jobs_per_s", Json::Num(0.0)),
            ("health_ok", Json::Bool(false)),
            ("backpressure_hinted", Json::Bool(false)),
            ("failure_isolated", Json::Bool(false)),
        ] {
            let f = edit(&healthy_service(), "service", Some(field), Some(value));
            let report = check_section("service", &f, &doc(SERVICE_BASELINE));
            assert!(
                matches!(
                    &report.failures[..],
                    [GateFailure::NotPositive { name, .. } | GateFailure::Unverified(name)]
                        if name == field
                ),
                "expected one failure naming `{field}`, got {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn service_gate_errors_when_fresh_run_has_no_burst() {
        // The baseline promises a service section; a fresh run without
        // one must fail rather than silently skipping its own gate.
        let report = check_section("service", &doc("{}"), &doc(SERVICE_BASELINE));
        assert_eq!(report.failures.len(), 2, "one per service row");
        assert!(report.failures.iter().all(|f| matches!(f,
            GateFailure::Malformed { section, what }
                if section == "service" && what.contains("missing in the fresh run"))));
    }

    #[test]
    fn service_section_missing_from_the_baseline_fails() {
        // Baselines used to skip this gate when they lacked the section;
        // now a baseline without it fails instead of disabling the gate.
        let report = check_section("service", &healthy_service(), &doc(BASELINE));
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| matches!(f,
            GateFailure::Malformed { section, what }
                if section == "service" && what.contains("missing in the baseline"))));
    }

    const THROUGHPUT_BASELINE: &str = r#"{
  "battery_throughput": {"runs": 24, "cold_runs_per_s": 10.0, "cached_runs_per_s": 55.0, "speedup": 5.500}
}"#;

    fn throughput(runs: f64, cold: f64, cached: f64) -> Json {
        numbers(
            "battery_throughput",
            &[
                ("runs", runs),
                ("cold_runs_per_s", cold),
                ("cached_runs_per_s", cached),
                ("speedup", cached / cold),
            ],
        )
    }

    #[test]
    fn throughput_gate_passes_above_the_floor() {
        let report = check_section(
            "battery_throughput",
            &throughput(24.0, 10.0, 30.0),
            &doc(THROUGHPUT_BASELINE),
        );
        assert!(report.passed(), "{:?}", report.failures);
        let speedup = report.checked.last().unwrap();
        assert!((speedup.fresh - 3.0).abs() < 1e-12, "speedup 3x");
        assert_eq!(
            speedup.baseline,
            Some(5.5),
            "baseline speedup parsed for display"
        );
    }

    #[test]
    fn throughput_gate_errors_below_the_floor() {
        // 1.5x < 2x floor.
        let report = check_section(
            "battery_throughput",
            &throughput(24.0, 10.0, 15.0),
            &doc(THROUGHPUT_BASELINE),
        );
        assert!(matches!(
            &report.failures[..],
            [GateFailure::BelowFloor { name, fresh, floor }]
                if name == "speedup" && (*fresh - 1.5).abs() < 1e-12 && *floor == 2.0
        ));
    }

    #[test]
    fn throughput_gate_errors_on_degenerate_arms() {
        for f in [
            throughput(0.0, 10.0, 30.0),
            throughput(24.0, 0.0, 30.0),
            throughput(24.0, 10.0, f64::NAN),
        ] {
            assert!(
                !check_section("battery_throughput", &f, &doc(THROUGHPUT_BASELINE)).passed(),
                "degenerate summary {f} must fail"
            );
        }
    }

    #[test]
    fn throughput_gate_errors_when_fresh_run_has_no_section() {
        // The baseline promises the section; a fresh run without one must
        // fail rather than silently skipping its own gate.
        let report = check_section("battery_throughput", &doc("{}"), &doc(THROUGHPUT_BASELINE));
        assert!(!report.failures.is_empty());
        assert!(report.failures.iter().all(|f| matches!(f,
            GateFailure::Malformed { section, what }
                if section == "battery_throughput" && what.contains("missing in the fresh run"))));
    }

    #[test]
    fn throughput_section_missing_from_the_baseline_fails() {
        let report = check_section(
            "battery_throughput",
            &throughput(24.0, 10.0, 30.0),
            &doc(BASELINE),
        );
        assert!(!report.passed(), "a sectionless baseline no longer skips");
        assert!(report.failures.iter().all(|f| matches!(f,
            GateFailure::Malformed { section, .. } if section == "battery_throughput")));
    }

    #[test]
    fn multi_core_entries_are_informational() {
        // The 2-core baseline entry exists but the fresh run reports it
        // far lower: must still pass (host-dependent row).
        let f = fresh(&[
            ("net8020_quick_1core", 2.0),
            ("net8020_paper_1core_100ms", 1.9),
            ("net8020_quick_2core", 0.1),
        ]);
        assert!(check(relative(), &f, &doc(BASELINE), 0.85).passed());
    }

    #[test]
    fn floor_gate_checks_only_headline_single_core_rows() {
        // Diagnostic (_norelax/_nosb/_nokernel) and multi-core rows are
        // exempt from the absolute floor even when they sit far below it;
        // the kernel-on relaxed row is headline and stays gated.
        let f = fresh(&[
            ("net8020_quick_1core", 2.2),
            ("net8020_quick_1core_norelax", 1.1),
            ("net8020_quick_1core_nosb", 0.9),
            ("net8020_quick_1core_relaxed", 3.5),
            ("net8020_quick_1core_relaxed_nokernel", 1.4),
            ("net8020_quick_2core", 1.2),
        ]);
        let report = check(headline_floor(), &f, &doc(BASELINE), 0.85);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
        assert_eq!(report.checked[0].name, "net8020_quick_1core");
        assert_eq!(report.checked[1].name, "net8020_quick_1core_relaxed");
    }

    /// The kernel-offload rows: on/off ratio and the relaxed quick floor.
    fn kernel_check(f: &Json) -> GateReport {
        let mut all = GateReport::default();
        for g in [
            row("speedup_vs_seed", |r| {
                *r == Rule::OnOffRatio(KERNEL_SPEEDUP_FLOOR)
            }),
            row("speedup_vs_seed", |r| {
                *r == Rule::Floor(RELAXED_SINGLE_CORE_FLOOR)
            }),
        ] {
            let r = check(g, f, &doc(BASELINE), 0.85);
            all.checked.extend(r.checked);
            all.failures.extend(r.failures);
        }
        all
    }

    #[test]
    fn kernel_gate_passes_when_both_floors_clear() {
        let f = fresh(&[
            ("net8020_quick_1core", 2.2),
            ("net8020_quick_1core_relaxed", 3.5),
            ("net8020_quick_1core_relaxed_nokernel", 1.4),
            ("net8020_paper_1core_100ms_relaxed", 6.0),
            ("net8020_paper_1core_100ms_relaxed_nokernel", 2.1),
        ]);
        let report = kernel_check(&f);
        assert!(report.passed(), "{:?}", report.failures);
        // One checked entry per on/off pair, carrying the on/off ratio,
        // then the relaxed quick row.
        assert_eq!(report.checked.len(), 3);
        assert!((report.checked[0].fresh - 2.5).abs() < 1e-9);
    }

    #[test]
    fn kernel_gate_errors_on_low_ratio_low_quick_row_or_missing_twin() {
        // On/off ratio below the kernel floor.
        let low_ratio = fresh(&[
            ("net8020_quick_1core_relaxed", 3.0),
            ("net8020_quick_1core_relaxed_nokernel", 2.9),
        ]);
        assert!(matches!(
            &kernel_check(&low_ratio).failures[..],
            [GateFailure::KernelSpeedupBelowFloor { name, on, off, floor }]
                if name == "net8020_quick_1core_relaxed"
                    && *on == 3.0 && *off == 2.9 && *floor == 1.25
        ));
        // Quick relaxed row below its absolute floor (ratio fine).
        let low_quick = fresh(&[
            ("net8020_quick_1core_relaxed", 2.0),
            ("net8020_quick_1core_relaxed_nokernel", 1.0),
        ]);
        assert!(matches!(
            &kernel_check(&low_quick).failures[..],
            [GateFailure::BelowFloor { name, fresh, floor }]
                if name == "net8020_quick_1core_relaxed" && *fresh == 2.0 && *floor == 2.8
        ));
        // A kernel-on row without its nokernel twin cannot silently skip
        // the ratio check.
        let no_twin = fresh(&[("net8020_quick_1core_relaxed", 3.5)]);
        assert!(kernel_check(&no_twin)
            .failures
            .iter()
            .any(|e| matches!(e, GateFailure::MissingEntry(n)
                if n == "net8020_quick_1core_relaxed_nokernel")));
        // No relaxed rows at all gates nothing — an error, not a pass.
        let none = fresh(&[("net8020_quick_1core", 2.2)]);
        assert!(kernel_check(&none)
            .failures
            .contains(&GateFailure::NoGatedEntries("speedup_vs_seed".to_string())));
        // The gated quick row itself must exist.
        let paper_only = fresh(&[
            ("net8020_paper_1core_100ms_relaxed", 6.0),
            ("net8020_paper_1core_100ms_relaxed_nokernel", 2.1),
        ]);
        assert!(kernel_check(&paper_only)
            .failures
            .iter()
            .any(|e| matches!(e, GateFailure::MissingEntry(n)
                if n == "net8020_quick_1core_relaxed")));
    }

    #[test]
    fn floor_gate_errors_below_the_floor_and_on_empty_gated_set() {
        let f = fresh(&[("net8020_quick_1core", 1.7)]);
        let report = check(headline_floor(), &f, &doc(BASELINE), 0.85);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::BelowFloor { name, fresh, floor }]
                if name == "net8020_quick_1core" && *fresh == 1.7 && *floor == 2.0
        ));
        // A fresh run with no headline single-core rows gates nothing —
        // an error, not a vacuous pass.
        let diag_only = fresh(&[("net8020_quick_1core_nosb", 2.5)]);
        assert_eq!(
            check(headline_floor(), &diag_only, &doc(BASELINE), 0.85).failures,
            vec![GateFailure::NoGatedEntries("speedup_vs_seed".to_string())]
        );
    }

    const INSTRET_BASELINE: &str = r#"{
  "instret_reduction": {
    "net8020_quick_1core": 0.0305,
    "net8020_paper_1core_100ms": 0.012
  }
}"#;

    fn instret(entries: &[(&str, f64)], baseline: &str) -> GateReport {
        let f = numbers("instret_reduction", entries);
        check_section("instret_reduction", &f, &doc(baseline))
    }

    #[test]
    fn instret_section_parses_and_is_detected() {
        let base = doc(INSTRET_BASELINE);
        let entries = section(&base, "instret_reduction", BASELINE_SIDE).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], ("net8020_quick_1core", &Json::Num(0.0305)));
        assert!(section(&doc(BASELINE), "instret_reduction", BASELINE_SIDE).is_err());
    }

    #[test]
    fn instret_gate_floors_the_quick_row_only() {
        // The paper shape relaxes less (its integration loops dominate);
        // it is presence-checked but not floored.
        let report = instret(
            &[
                ("net8020_quick_1core", 0.031),
                ("net8020_paper_1core_100ms", 0.001),
            ],
            INSTRET_BASELINE,
        );
        assert!(report.passed(), "{:?}", report.failures);
        // Two presence checks plus the floored quick row.
        assert_eq!(report.checked.len(), 3);

        let report = instret(
            &[
                ("net8020_quick_1core", 0.004),
                ("net8020_paper_1core_100ms", 0.012),
            ],
            INSTRET_BASELINE,
        );
        assert!(matches!(
            &report.failures[..],
            [GateFailure::BelowFloor { name, fresh, floor }]
                if name == "net8020_quick_1core" && *fresh == 0.004 && *floor == 0.03
        ));
    }

    #[test]
    fn instret_gate_errors_on_missing_row_or_sectionless_baseline() {
        let report = instret(&[("net8020_quick_1core", 0.031)], INSTRET_BASELINE);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "net8020_paper_1core_100ms".to_string()
            )]
        );
        let report = instret(&[("net8020_quick_1core", 0.031)], BASELINE);
        assert!(!report.failures.is_empty());
        assert!(report.failures.iter().all(|f| matches!(f,
            GateFailure::Malformed { section, .. } if section == "instret_reduction")));
    }

    /// The committed baseline, as CI's gate reads it.
    const COMMITTED: &str = include_str!("../../../BENCH_10.json");

    fn run_all(fresh: &Json, baseline: &Json) -> Vec<GateFailure> {
        GATES
            .iter()
            .flat_map(|g| check(g, fresh, baseline, 0.85).failures)
            .collect()
    }

    #[test]
    fn committed_baseline_pins_what_the_gate_extracts() {
        let bench = doc(COMMITTED);
        let checked = |section: &str, rule: fn(&Rule) -> bool| {
            let report = check(row(section, rule), &bench, &bench, 0.85);
            assert!(report.passed(), "{section}: {:?}", report.failures);
            report.checked.len()
        };
        assert_eq!(checked("speedup_vs_seed", |r| *r == Rule::Relative), 10);
        assert_eq!(checked("instret_reduction", |r| *r == Rule::Present), 2);
        assert_eq!(checked("battery", |_| true), 66);
        assert_eq!(checked("estimated_accuracy", |_| true), 11);
        assert_eq!(checked("service", |r| *r == Rule::Positive), 2);
        assert_eq!(checked("service", |r| *r == Rule::True), 3);
        assert_eq!(checked("battery_throughput", |r| *r == Rule::Positive), 3);
        assert_eq!(
            checked("battery_throughput", |r| *r
                == Rule::Floor(THROUGHPUT_FLOOR)),
            1
        );
        // The committed file passes every row against itself, and its
        // baseline sections are all present and well-formed.
        assert_eq!(run_all(&bench, &bench), Vec::new());
        assert!(check_baseline(&GATES, &bench).is_empty());
    }

    #[test]
    fn committed_baseline_fails_loudly_when_a_section_is_cut_or_garbled() {
        let bench = doc(COMMITTED);
        let mut sections: Vec<&str> = GATES.iter().map(|g| g.section).collect();
        sections.dedup();
        assert_eq!(sections.len(), 6);
        for cut in sections {
            let named = |failures: &[GateFailure]| {
                failures.iter().any(|f| {
                    matches!(f,
                    GateFailure::Malformed { section, what }
                        if section == cut && what.contains("section missing"))
                })
            };
            let cut_doc = edit(&bench, cut, None, None);
            assert!(named(&run_all(&bench, &cut_doc)), "baseline without {cut}");
            assert!(named(&run_all(&cut_doc, &bench)), "fresh run without {cut}");
            assert!(named(&check_baseline(&GATES, &cut_doc)), "{cut}");
        }

        // A garbled value names its entry instead of dropping the row.
        let garbled = doc(&COMMITTED.replace(
            "\"net8020_quick_1core\": 2.291",
            "\"net8020_quick_1core\": \"2.291x\"",
        ));
        let failures = run_all(&bench, &garbled);
        assert!(!failures.is_empty());
        assert!(failures.iter().all(|f| matches!(f,
            GateFailure::Malformed { section, what }
                if section == "speedup_vs_seed" && what.contains("`net8020_quick_1core`"))));

        // A nested object no longer truncates the section at its `}`.
        let nested = doc(&COMMITTED.replace(
            "\"speedup_vs_seed\": {",
            "\"speedup_vs_seed\": {\n    \"nested\": {\"net8020_quick_1core\": 9.9},",
        ));
        let failures = check_baseline(&GATES, &nested);
        assert!(matches!(
            &failures[..],
            [GateFailure::Malformed { section, what }]
                if section == "speedup_vs_seed" && what.contains("`nested`")
        ));
        assert!(!run_all(&bench, &nested).is_empty());
    }
}
