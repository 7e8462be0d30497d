//! `BENCHMARK.json`: the benchmark's own description. The runner reads it
//! at start-up and refuses to print a result whose metric names or units
//! drift from it.

use crate::json::Json;
use crate::stats::{valid_name, valid_unit};

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u32,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn strings(v: Option<&Json>, what: &str) -> Result<Vec<String>, String> {
    v.and_then(Json::as_arr)
        .ok_or(format!("`{what}` must be a list"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or(format!("`{what}` holds a non-string"))
        })
        .collect()
}

fn field<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(format!("{ctx}: `{key}` must be a string"))
}

fn metrics(v: Option<&Json>, what: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let items = v
        .and_then(Json::as_arr)
        .ok_or(format!("`{what}` must be a list"))?;
    let mut out: Vec<MetricSpec> = Vec::new();
    for m in items {
        let name = field(m, "name", what)?.to_string();
        let unit = field(m, "unit", &name)?.to_string();
        let better = field(m, "better", &name)?.to_string();
        let bound = m.get("bound").and_then(Json::as_f64);
        if !valid_name(&name) || out.iter().any(|o| o.name == name) {
            return Err(format!("{what}: bad or repeated metric name `{name}`"));
        }
        if !valid_unit(&unit) || !matches!(better.as_str(), "higher" | "lower") {
            return Err(format!("{name}: bad unit `{unit}` or `better` `{better}`"));
        }
        match bound {
            Some(b) if bounded && b > 0.0 && b <= 0.25 => {}
            None if !bounded => {}
            _ => return Err(format!("{name}: bound {bound:?} is not allowed here")),
        }
        out.push(MetricSpec {
            name,
            unit,
            better,
            bound,
        });
    }
    Ok(out)
}

impl BenchSpec {
    pub fn from_json(v: &Json) -> Result<BenchSpec, String> {
        let run_seconds =
            v.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("`run_seconds` must be a whole number in 1..=60")? as u32;
        let mut workloads: Vec<(String, String)> = Vec::new();
        for w in v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("`workloads` must be a list")?
        {
            let name = field(w, "name", "workload")?.to_string();
            let why = field(w, "why", &name)?.to_string();
            if !valid_name(&name) || workloads.iter().any(|(n, _)| *n == name) {
                return Err(format!("bad or repeated workload name `{name}`"));
            }
            workloads.push((name, why));
        }
        Ok(BenchSpec {
            command: strings(v.get("command"), "command")?,
            paths: strings(v.get("paths"), "paths")?,
            run_seconds,
            workloads,
            end_to_end: metrics(v.get("end_to_end"), "end_to_end", true)?,
            per_layer: metrics(v.get("per_layer"), "per_layer", false)?,
        })
    }

    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        let list = |xs: &[String]| Json::Arr(xs.iter().map(|s| Json::from(s.as_str())).collect());
        let metric = |m: &MetricSpec| {
            let mut f = vec![
                ("name".to_string(), Json::from(m.name.as_str())),
                ("unit".to_string(), Json::from(m.unit.as_str())),
                ("better".to_string(), Json::from(m.better.as_str())),
            ];
            if let Some(b) = m.bound {
                f.push(("bound".to_string(), Json::Num(b)));
            }
            Json::Obj(f)
        };
        Json::Obj(vec![
            ("command".into(), list(&self.command)),
            ("paths".into(), list(&self.paths)),
            ("run_seconds".into(), Json::Num(self.run_seconds as f64)),
            (
                "workloads".into(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|(n, w)| {
                            Json::Obj(vec![
                                ("name".into(), Json::from(n.as_str())),
                                ("why".into(), Json::from(w.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                Json::Arr(self.end_to_end.iter().map(metric).collect()),
            ),
            (
                "per_layer".into(),
                Json::Arr(self.per_layer.iter().map(metric).collect()),
            ),
        ])
    }

    /// Read and validate the file at `path`.
    pub fn load(path: &str) -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchSpec::from_json(&Json::parse(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed file, two directories up from this one.
    fn committed() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_round_trips() {
        let spec = BenchSpec::from_json(&Json::parse(&committed()).unwrap()).unwrap();
        let written = spec.to_json().to_string();
        let again = BenchSpec::from_json(&Json::parse(&written).unwrap()).unwrap();
        assert_eq!(again, spec);
        assert_eq!(
            Json::parse(&written).unwrap(),
            Json::parse(&committed()).unwrap()
        );
    }

    #[test]
    fn committed_file_declares_what_the_runner_emits() {
        let spec = BenchSpec::from_json(&Json::parse(&committed()).unwrap()).unwrap();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn rejects_bad_names_and_bounds() {
        let base = committed();
        let broken = base.replacen("\"wall_s\"", "\"wall s\"", 1);
        assert!(BenchSpec::from_json(&Json::parse(&broken).unwrap()).is_err());
        let loose = base.replacen("\"bound\": 0.", "\"bound\": 9.", 1);
        assert!(BenchSpec::from_json(&Json::parse(&loose).unwrap()).is_err());
    }
}
