//! The benchmark checked against its own contract, at a 2 k-row scale.

use payg_perf::json::Json;
use payg_perf::report::Outcome;
use payg_perf::run::{run, RunConfig, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn go(workload: Workload, trace: bool, tag: &str, corrupt_expected: bool) -> Outcome {
    let data_root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::smoke(),
        data_root,
        corrupt_expected,
    };
    run(&cfg).expect("the run completes")
}

fn values(o: &Outcome) -> BTreeMap<String, f64> {
    o.end_to_end
        .iter()
        .chain(&o.per_layer)
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    spec.get(key)
        .expect("key present")
        .items()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_printed_once_per_workload_and_the_layers_separate() {
    let workloads: Vec<String> = declared("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, Workload::GATED.map(|w| w.name().to_string()));
    for w in Workload::ALL {
        let tag = format!("names-{}", w.name());
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = go(w, trace, &tag, false);
            assert!(
                o.correct() && o.attempted > 0,
                "{}: {} of {} ops failed",
                w.name(),
                o.failed,
                o.attempted
            );
            let printed: Vec<(String, String)> = if trace { &o.per_layer } else { &o.end_to_end }
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                printed,
                declared(key),
                "{} {key}: printed metrics differ from BENCHMARK.json",
                w.name()
            );
            for (name, unit) in &printed {
                let ok = |s: &str, extra: &str| {
                    !s.is_empty()
                        && s.chars()
                            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
                };
                assert!(
                    ok(name, "_.-") && name.len() <= 64 && ok(unit, "_/%.-") && unit.len() <= 16,
                    "{name} [{unit}]"
                );
            }
            let text = o.text();
            for (name, _) in &printed {
                let lines = text
                    .lines()
                    .filter(|l| l.starts_with(&format!("{} {name} ", w.name())))
                    .count();
                assert_eq!(lines, 1, "{} {name} printed {lines} times", w.name());
            }
            let v = values(&o);
            if !trace {
                assert!(
                    v.values().all(|x| x.is_finite() && *x > 0.0),
                    "{}: an end-to-end metric is 0: {v:?}",
                    w.name()
                );
                continue;
            }
            assert!(v.values().all(|x| x.is_finite()), "{}: {v:?}", w.name());
            // Workload separation: the warm workloads never reach the store,
            // the cold one lives in it.
            match w {
                Workload::PointWarm | Workload::ScanWarm => {
                    assert_eq!(v["store.read_calls_per_op"], 0.0, "{}", w.name());
                    assert!(
                        v["pool.hit_rate"] >= 0.999,
                        "{}: hit rate {}",
                        w.name(),
                        v["pool.hit_rate"]
                    );
                    assert!(v["twin.op_p50_us"] > 0.0);
                }
                Workload::ColdPressure => {
                    assert!(v["pool.hit_rate"] < 0.9, "hit rate {}", v["pool.hit_rate"]);
                    assert!(v["store.read_calls_per_op"] > 1.0 && v["store.busy_frac"] > 0.0);
                    assert!(v["resman.proactive_evictions"] > 0.0);
                }
                Workload::IngestMerge => {
                    assert!(v["table.merge_ms"] > 0.0 && v["table.insert_ns_per_row"] > 0.0)
                }
            }
            if w == Workload::ScanWarm {
                assert!(v["core.scan_ns_per_row"] > 0.0 && v["attrib.encoding_frac"] > 0.0);
            }
        }
    }
}

#[test]
fn single_client_counters_repeat_exactly_across_same_seed_runs() {
    let (a, b) = (
        values(&go(Workload::PointWarm, true, "repeat-a", false)),
        values(&go(Workload::PointWarm, true, "repeat-b", false)),
    );
    for name in [
        "pool.pins_per_op",
        "store.pages_read_per_op",
        "table.rows_materialized_per_op",
        "pool.hit_rate",
    ] {
        assert_eq!(a[name], b[name], "{name}");
    }
    assert!(a["pool.pins_per_op"] > 0.0);
}

#[test]
fn a_corrupted_expected_answer_is_counted_as_a_failure() {
    for w in [Workload::PointWarm, Workload::IngestMerge] {
        let o = go(w, false, &format!("corrupt-{}", w.name()), true);
        assert!(o.failed > 0 && !o.correct(), "{}", w.name());
        assert!(o
            .text()
            .lines()
            .any(|l| l.contains("failed_frac") && !l.contains("failed_frac 0 ")));
        assert!(o.result_json(false).starts_with("{\"correct\": false"));
    }
}
