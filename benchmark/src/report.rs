//! What the benchmark prints and writes: the driver's result line, the
//! per-metric lines a full set is assembled from, `BENCHMARK.json`, and
//! the spread table of repeated sets.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::measure::{median, quartiles};
use crate::run::{Outcome, Reading};
use crate::spec::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A JSON string literal.
pub fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit measured. JSON has no NaN or infinity;
/// neither can come out of a run that completed anything.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "a metric must be a finite number");
    format!("{value}")
}

/// The driver's result line: exactly the metrics of the list the run's
/// trace mode reports. A metric the run did not produce is an error, not
/// a gap.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for def in wanted {
        let reading = outcome
            .readings
            .iter()
            .find(|r| r.name == def.name)
            .ok_or_else(|| format!("the run produced no {}", def.name))?;
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quoted(def.name),
            number(reading.value),
            quoted(def.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

/// One line per reading, in the form a full set parses back:
/// `metric <name> <value> <unit> n=<samples> [<clock>]`.
pub fn metric_line(reading: &Reading) -> String {
    let def = metric_def(reading.name).expect("every reading is a registered metric");
    format!(
        "metric {} {} {} n={} [{}]",
        reading.name,
        number(reading.value),
        def.unit,
        reading.samples,
        def.clock
    )
}

/// `BENCHMARK.json`, generated from the registry so the two cannot
/// disagree.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))
        .collect();
    let metric = |m: &MetricDef| {
        let mut fields = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better)
        );
        if let Some(bound) = m.bound {
            write!(fields, ", \"bound\": {bound}").expect("write to String");
        }
        fields + "}"
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// One workload's numbers as a full set collected them from a child run.
#[derive(Default, Clone)]
pub struct Collected {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, samples)
    pub metrics: BTreeMap<String, (f64, u64)>,
    pub notes: Vec<String>,
}

impl Collected {
    /// Folds one line of a child's output in; lines that are neither a
    /// metric, a note nor the verdict are ignored.
    pub fn absorb_line(&mut self, line: &str) {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let (name, value) = (words.next(), words.next().and_then(|v| v.parse().ok()));
                let samples = words.nth(1).and_then(|n| n.strip_prefix("n=")?.parse().ok());
                if let (Some(name), Some(value), Some(samples)) = (name, value, samples) {
                    self.metrics.insert(name.to_string(), (value, samples));
                }
            }
            Some("note") => self.notes.push(line["note".len()..].trim().to_string()),
            Some("verdict") => {
                let mut field = |key: &str| {
                    words.find_map(|w| w.strip_prefix(key)?.strip_prefix('=').map(str::to_string))
                };
                self.attempted = field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
                self.failed = field("failed").and_then(|v| v.parse().ok()).unwrap_or(0);
                self.correct = field("correct").is_some_and(|v| v == "true");
            }
            _ => {}
        }
    }

    pub fn verdict_line(outcome: &Outcome) -> String {
        format!(
            "verdict attempted={} failed={} correct={}",
            outcome.attempted, outcome.failed, outcome.correct
        )
    }

    pub fn to_json(&self, indent: &str) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, samples))| {
                let def = metric_def(name);
                format!(
                    "{indent}    {}: {{\"value\": {}, \"unit\": {}, \"clock\": {}, \"samples\": {samples}}}",
                    quoted(name),
                    number(*value),
                    quoted(def.map_or("", |d| d.unit)),
                    quoted(def.map_or("", |d| d.clock)),
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| quoted(n)).collect();
        format!(
            "{{\n{indent}  \"correct\": {}, \"attempted\": {}, \"failed\": {},\n{indent}  \
             \"notes\": [{}],\n{indent}  \"metrics\": {{\n{}\n{indent}  }}\n{indent}}}",
            self.correct,
            self.attempted,
            self.failed,
            notes.join(", "),
            metrics.join(",\n"),
        )
    }
}

/// Median, quartiles and spreads of one metric on one workload over
/// repeated sets.
pub struct Spread {
    pub values: Vec<f64>,
    pub median: f64,
    pub quartiles: Option<[f64; 3]>,
}

impl Spread {
    pub fn of(values: Vec<f64>) -> Option<Self> {
        let median = median(&values)?;
        Some(Spread { quartiles: quartiles(&values), median, values })
    }

    fn relative(&self, width: f64) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (width / self.median).abs()
        }
    }

    /// `(max - min) / median`.
    pub fn range(&self) -> f64 {
        let max = self.values.iter().copied().fold(f64::MIN, f64::max);
        let min = self.values.iter().copied().fold(f64::MAX, f64::min);
        self.relative(max - min)
    }

    /// `(Q3 - Q1) / median`, the spread the driver holds against the bound.
    pub fn iqr(&self) -> f64 {
        self.quartiles.map_or(0.0, |q| self.relative(q[2] - q[0]))
    }

    pub fn to_json(&self) -> String {
        let q = self.quartiles.unwrap_or([self.median; 3]);
        let values: Vec<String> = self.values.iter().map(|v| number(*v)).collect();
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_over_median\": {}, \
             \"range_over_median\": {}, \"values\": [{}]}}",
            number(self.median),
            number(q[0]),
            number(q[2]),
            number(self.iqr()),
            number(self.range()),
            values.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with benchmark/run.sh --describe");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn lines_survive_the_round_trip_to_a_full_set() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            readings: vec![Reading { name: "setup_s", value: 0.8127, samples: 3 }],
            notes: vec![],
        };
        let mut collected = Collected::default();
        collected.absorb_line(&metric_line(&outcome.readings[0]));
        collected.absorb_line("note  FLAG something \"quoted\"");
        collected.absorb_line(&Collected::verdict_line(&outcome));
        collected.absorb_line("{\"correct\": true}");
        assert_eq!(collected.metrics["setup_s"], (0.8127, 3));
        assert_eq!(collected.notes, ["FLAG something \"quoted\""]);
        assert!(collected.correct && collected.attempted == 12 && collected.failed == 0);
        assert!(collected.to_json("").contains("\\\"quoted\\\""));
    }

    #[test]
    fn result_line_holds_exactly_the_modes_metrics() {
        let readings =
            END_TO_END.iter().map(|m| Reading { name: m.name, value: 1.5, samples: 1 }).collect();
        let outcome = Outcome { correct: true, attempted: 0, failed: 0, readings, notes: vec![] };
        let line = result_line(&outcome, false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // The same readings cannot fill the per-layer list.
        assert!(result_line(&outcome, true).is_err());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let spread = Spread::of((1..=10).map(f64::from).collect()).unwrap();
        assert_eq!(spread.median, 5.5);
        assert!((spread.iqr() - 1.0).abs() < 1e-12);
        assert!((spread.range() - 9.0 / 5.5).abs() < 1e-12);
        assert!(Spread::of(vec![]).is_none());
    }
}
