//! The metric registry — every metric the benchmark can emit, with its
//! unit and direction — and the result objects a run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the contract test holds the two together.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::median;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (rates, hit rates).
    Higher,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: every untraced run of every workload emits all of
/// them. What an "operation" is depends on the workload, and `latency_us`
/// is the mean of the closed-loop workloads but the median of the
/// open-loop one (README.md).
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("throughput", "1/s"),
    lo("latency_us", "us"),
    lo("latency_tail_us", "us"),
];

/// Per-layer metrics: every traced run emits all of them, measured on the
/// workload's own traffic where that traffic passes through the layer and
/// by a short probe of the layer otherwise.
pub const PER_LAYER: &[Def] = &[
    // Paper pipeline (repro).
    lo("repro.sweep_ms", "ms"),
    lo("repro.doubles_ms", "ms"),
    lo("repro.render_ms", "ms"),
    lo("microbench.run_suite_ms", "ms"),
    lo("machine.measure_us", "us"),
    lo("machine.measure_calls", "count"),
    lo("machine.engine_us", "us"),
    lo("powermon.record_us", "us"),
    lo("fit.fit_platform_ms", "ms"),
    lo("fit.nm_evals", "count"),
    hi("par.sweep_speedup", "x"),
    // In-process serve engine.
    lo("serve.submit_us", "us"),
    lo("serve.queue_us_p50", "us"),
    lo("serve.queue_us_p99", "us"),
    lo("serve.window_us_p50", "us"),
    lo("serve.window_us_p99", "us"),
    lo("serve.kernel_us_p50", "us"),
    lo("serve.kernel_us_p99", "us"),
    lo("serve.handoff_us_p50", "us"),
    hi("serve.batch_occupancy", "req/batch"),
    hi("serve.plan_cache_hit_rate", "ratio"),
    lo("serve.shard_max_share", "ratio"),
    lo("serve.shed", "count"),
    lo("serve.retries", "count"),
    lo("serve.sweep_overhead_pct", "%"),
    lo("obs.telemetry_cost_pct", "%"),
    // Batch kernels at the sweep sizes.
    hi("core.grid_mpts", "Mpts/s"),
    hi("core.kernel_mpts", "Mpts/s"),
    hi("core.kernel_serial_mpts", "Mpts/s"),
    hi("par.kernel_speedup", "x"),
    // NDJSON protocol and the TCP front door.
    lo("protocol.parse_us.eval", "us"),
    lo("protocol.parse_us.sweep", "us"),
    lo("protocol.parse_us.crossover", "us"),
    lo("protocol.render_us.eval", "us"),
    lo("protocol.render_us.sweep", "us"),
    lo("protocol.render_us.crossover", "us"),
    lo("serve.serialize_us_p50", "us"),
    lo("tcp.residual_us_p50", "us"),
    lo("tcp.residual_us_p99", "us"),
    lo("gen.late_us_p99", "us"),
    lo("gen.late_us_max", "us"),
    // The harness itself.
    lo("trace_overhead_pct", "%"),
];

/// The registered definition of `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `true` for a well-formed metric name: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// `true` for a well-formed unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// One measured value and the per-trial values it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The reported value (a median over trials unless stated).
    pub value: f64,
    /// Per-trial (or per-repetition) values; empty for single readings.
    pub trials: Vec<f64>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Attempted operations refused, failed, or answered wrongly.
    pub failed: u64,
    /// Correctness failures, described (capped at a few per run).
    pub errors: Vec<String>,
    /// Run details for the provenance line (not part of the contract).
    pub detail: BTreeMap<String, Value>,
}

impl Outcome {
    /// Records a metric unless an earlier measurement already did; the
    /// workload's own traffic is measured first and wins.
    pub fn put(&mut self, name: &'static str, value: f64, trials: Vec<f64>) {
        assert!(def(name).is_some(), "unregistered metric `{name}`");
        self.metrics
            .entry(name)
            .or_insert(Measured { value, trials });
    }

    /// Records a metric read per window (`windows[i]` holds trial `i`'s):
    /// the median over every trial's windows, with each trial's own median
    /// window as its per-trial value.
    pub fn put_windowed(&mut self, name: &'static str, windows: &[Vec<f64>]) {
        let per_trial = windows.iter().map(|w| median(w)).collect();
        self.put(name, median(&windows.concat()), per_trial);
    }

    /// Records one correctness failure.
    pub fn error(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        } else if self.errors.len() == 8 {
            self.errors.push("(further errors suppressed)".to_string());
        }
    }

    /// Adds a detail entry.
    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.detail.insert(key.to_string(), value.into());
    }

    /// Folds a probe's counts and errors into this outcome (its metrics
    /// only where still missing).
    pub fn absorb(&mut self, other: Outcome) {
        for (name, m) in other.metrics {
            self.metrics.entry(name).or_insert(m);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.error(e);
        }
        for (k, v) in other.detail {
            self.detail.entry(k).or_insert(v);
        }
    }

    /// Passed every correctness check with no failed operation.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The contract's result object, holding exactly the metrics of
    /// `wanted`: `{"correct","attempted","failed","metrics"}`. `Err` names
    /// a wanted metric the run did not produce or a non-finite value.
    pub fn result_line(&self, wanted: &[Def]) -> Result<String, String> {
        let mut metrics = serde_json::Map::new();
        for d in wanted {
            let m = self
                .metrics
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` missing", d.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is {}", d.name, m.value));
            }
            let mut entry = serde_json::Map::new();
            entry.insert("value".to_string(), Value::from(m.value));
            entry.insert("unit".to_string(), Value::from(d.unit));
            metrics.insert(d.name.to_string(), Value::Object(entry));
        }
        let mut top = serde_json::Map::new();
        top.insert("correct".to_string(), Value::from(self.correct()));
        top.insert("attempted".to_string(), Value::from(self.attempted));
        top.insert("failed".to_string(), Value::from(self.failed));
        top.insert("metrics".to_string(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(top)).map_err(|e| e.to_string())
    }

    /// Every metric with its unit and per-trial values, for the detail line.
    pub fn metrics_detail(&self) -> Value {
        let mut out = serde_json::Map::new();
        for (name, m) in &self.metrics {
            let mut entry = serde_json::Map::new();
            entry.insert("value".to_string(), Value::from(m.value));
            entry.insert(
                "unit".to_string(),
                Value::from(def(name).map_or("", |d| d.unit)),
            );
            if !m.trials.is_empty() {
                entry.insert("trials".to_string(), Value::from(m.trials.clone()));
            }
            out.insert(name.to_string(), Value::Object(entry));
        }
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "name `{}`", d.name);
            assert!(valid_unit(d.unit), "unit `{}` of `{}`", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rule_rejects_malformed_names() {
        assert!(valid_name("protocol.parse_us.eval"));
        assert!(valid_name("9lives"));
        for bad in [
            "",
            ".lead",
            "has space",
            "semi;colon",
            "slash/name",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("Mpts/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.put("setup_s", 0.5, vec![0.4, 0.5, 0.6]);
        o.put("setup_s", 9.0, vec![]);
        let line = o.result_line(&END_TO_END[..1]).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        let obj = v.as_object().unwrap();
        let keys: Vec<&str> = obj.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(
            line.contains("\"setup_s\":{\"unit\":\"s\",\"value\":0.5}"),
            "{line}"
        );
        assert!(o.result_line(END_TO_END).unwrap_err().contains("missing"));
    }
}
