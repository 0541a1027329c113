//! Metrics, their printed forms, and `agree` — the run-to-run comparison
//! against the bounds in `BENCHMARK.json`.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Median (mean of the middle two for even counts; 0 for none).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of an ascending-sorted slice; 0 for none.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Ops issued in the timed phase.
    pub attempted: u64,
    /// Ops that errored, were refused or answered wrongly.
    pub failed: u64,
    /// Post-run checks (reopen, row counts) passed.
    pub checks_ok: bool,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Free-form context lines (sizes, op counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every answer was right and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_ok
    }

    fn gated(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// `workload metric value unit` lines, then the notes.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "{} failed_frac {} frac", self.workload, frac);
        for n in &self.notes {
            let _ = writeln!(out, "# {} {}", self.workload, n);
        }
        out
    }

    /// The driver's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (end-to-end when untraced, per-layer when traced).
    pub fn result_json(&self, traced: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(self.gated(traced))
        )
    }

    /// One line for `--out` files: the result plus what produced it.
    pub fn record_json(&self, traced: bool, seed: u64, machine: &str) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"machine\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            u8::from(traced),
            machine.replace(['"', '\\'], "'"),
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(self.gated(traced))
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Per workload, per metric: the values found in a file of `--out` records
/// (one JSON object per line).
pub fn load_records(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = rec
            .get("metrics")
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics.members() {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Compares two record files against the end-to-end bounds of `benchmark`
/// (the text of `BENCHMARK.json`). Returns the report and whether every
/// workload × metric of `b` is within its bound of `a`.
pub fn agree(benchmark: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let spec = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (a, b) = (load_records(a)?, load_records(b)?);
    let mut report = String::new();
    let mut ok = true;
    let _ = writeln!(
        report,
        "{:<14} {:<28} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (workload, metrics) in &a {
        for gate in spec.get("end_to_end").map(Json::items).unwrap_or_default() {
            let name = gate.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = gate.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_better = gate.get("better").and_then(Json::as_str) == Some("lower");
            let side = |set: Option<&BTreeMap<String, Vec<f64>>>| {
                set.and_then(|m| m.get(name)).map(|v| median(v.clone()))
            };
            let (Some(va), Some(vb)) = (side(Some(metrics)), side(b.get(workload))) else {
                let _ = writeln!(report, "{workload:<14} {name:<28} missing on one side");
                ok = false;
                continue;
            };
            // Positive = b is worse than a, as a share of a.
            let worse = if lower_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let within = worse <= bound;
            ok &= within;
            let _ = writeln!(
                report,
                "{workload:<14} {name:<28} {va:>12.4} {vb:>12.4} {:>7.2}% {:>5.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "BEYOND BOUND" }
            );
        }
    }
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(quantile(&(1..=100).collect::<Vec<_>>(), 0.99), 99.0);
    }

    #[test]
    fn agree_flags_only_regressions_beyond_the_bound() {
        let spec = r#"{"end_to_end": [
            {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let rec = |lat: f64, rate: f64| {
            format!("{{\"workload\": \"w\", \"metrics\": {{\"lat\": {{\"value\": {lat}, \"unit\": \"us\"}}, \"rate\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}\n")
        };
        let base = rec(100.0, 50.0);
        assert!(agree(spec, &base, &rec(105.0, 48.0)).unwrap().1);
        assert!(
            agree(spec, &base, &rec(50.0, 500.0)).unwrap().1,
            "better is never beyond"
        );
        assert!(!agree(spec, &base, &rec(115.0, 50.0)).unwrap().1);
        assert!(!agree(spec, &base, &rec(100.0, 40.0)).unwrap().1);
    }
}
