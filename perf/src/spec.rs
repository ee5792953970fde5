//! The benchmark's declaration, read from `BENCHMARK.json`.
//!
//! The file is compiled in, so the program and the declaration cannot
//! drift apart: units, directions and bounds printed with each metric come
//! from here, a pass that measures a name the file does not declare (or
//! misses one it does) fails, and `compare`/`calibrate` gate on the file's
//! bounds.

use crate::json::Json;
use crate::stats::Statistic;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before a change is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

impl MetricDecl {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    /// Counts repeat exactly for one (commit, seed); everything else is a
    /// measurement with run-to-run spread.
    pub fn is_count(&self) -> bool {
        self.unit == "count"
    }

    /// How a run's samples of this metric become its value: the best
    /// quartile of a time or a rate, the mean of a size.
    pub fn statistic(&self) -> Statistic {
        match (self.unit.as_str(), self.higher_is_better) {
            ("MB", _) => Statistic::Mean,
            (_, true) => Statistic::UpperQuartile,
            (_, false) => Statistic::LowerQuartile,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json is malformed: {e}"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Json::parse(text)?;
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key).and_then(Json::as_str).map(str::to_owned).ok_or(format!("missing {key}"))
        };
        let list = |key: &str| root.get(key).and_then(Json::as_arr).ok_or(format!("missing {key}"));
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better must be higher|lower: {other}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics one pass must print: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    /// The limits the driver refuses a `BENCHMARK.json` over, checked here
    /// so a bad edit fails `cargo test` instead of a benchmark run.
    #[test]
    fn benchmark_json_meets_the_declared_limits() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let root = Json::parse(BENCHMARK_JSON).expect("parses");
        let keys: Vec<&str> =
            root.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let command = root.get("command").and_then(Json::as_arr).expect("command");
        assert!(command.len() <= 32);
        for arg in command {
            let arg = arg.as_str().expect("string argument");
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."), "{arg}");
        }
        assert_eq!(
            root.get("paths").and_then(Json::as_arr).expect("paths"),
            [Json::str("perf")].as_slice()
        );

        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names = BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(is_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is one short line");
            assert!(names.insert(name.clone()), "{name} is used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(is_name(&m.name), "{}", m.name);
            assert!(is_unit(&m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} needs a bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn malformed_declarations_are_reported_not_panicked_on() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse("[1, 2]").is_err());
        let bad_direction = r#"{"run_seconds": 1, "workloads": [], "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "faster", "bound": 0.1}]}"#;
        assert!(Spec::parse(bad_direction).is_err());
    }
}
