//! Small runs of every workload: each reports every metric BENCHMARK.json
//! names, with its unit, passes every output check, and repeats its exact
//! counts on a repeated seed.

use mcs_harness::json::{self, JsonValue};
use perfbench::{run, Config, Outcome, Workload};

/// Inputs small enough for a debug build.
fn pool(w: Workload) -> usize {
    match w {
        Workload::AdmitChurn | Workload::AdmitSaturated => 4,
        Workload::PaperSweep => 8,
        Workload::SimSoak => 2,
    }
}

fn small_run(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let config = Config { workload, seed, seconds: 0.01, trace, pool: Some(pool(workload)) };
    run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// `(name, unit)` of every metric in one BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let entries = doc.get(section).and_then(JsonValue::as_arr).expect("section is an array");
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome.reported().iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

#[test]
fn every_workload_reports_every_declared_metric_without_errors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("readable")).expect("parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for w in Workload::ALL {
        for trace in [false, true] {
            let outcome = small_run(w, 7, trace);
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(reported(&outcome), declared(section), "{} trace {trace}", w.name());
            assert!(outcome.correct(), "{} trace {trace}: {} failed", w.name(), outcome.failed);
            let error_ratio =
                outcome.named.iter().find(|m| m.name == "error_ratio").expect("error_ratio");
            assert_eq!(error_ratio.value, 0.0);

            let text = outcome.render();
            for m in
                outcome.reported().iter().chain(if trace { &[][..] } else { &outcome.named[..] })
            {
                let line = format!("metric {} {} {}", m.name, m.value, m.unit);
                assert!(text.lines().any(|l| l == line), "{}: missing {line:?}", w.name());
            }
            let last =
                json::parse(text.lines().last().expect("output")).expect("last line is JSON");
            assert_eq!(last.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(last.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(last.get("attempted").and_then(JsonValue::as_u64).is_some_and(|n| n >= 1));
            for (name, unit) in declared(section) {
                let m = last.get("metrics").and_then(|ms| ms.get(&name)).expect(&name);
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some_and(f64::is_finite));
            }
        }
    }
}

#[test]
fn the_named_figures_of_each_workload_are_printed() {
    let expect: [(Workload, &[&str]); 4] = [
        (
            Workload::AdmitChurn,
            &["admit_ops_per_s", "admit_p50_us", "admit_p99_us", "depart_p99_us", "reject_ratio"],
        ),
        (Workload::AdmitSaturated, &["admit_ops_per_s", "admit_p99_us", "reject_ratio"]),
        (Workload::PaperSweep, &["sweep_trials_per_s"]),
        (Workload::SimSoak, &["sim_jobs_per_s"]),
    ];
    for (w, names) in expect {
        let outcome = small_run(w, 3, false);
        for name in names.iter().chain(&["error_ratio"]) {
            assert!(outcome.named.iter().any(|m| m.name == *name), "{}: no {name}", w.name());
        }
    }
}

#[test]
fn counts_repeat_on_a_seed_and_change_with_it() {
    for w in Workload::ALL {
        let a = small_run(w, 11, false).counts;
        let b = small_run(w, 11, false).counts;
        let c = small_run(w, 12, false).counts;
        assert!(!a.is_empty(), "{}", w.name());
        assert_eq!(a, b, "{}: same seed, different counts", w.name());
        assert_ne!(a, c, "{}: different seeds, same counts", w.name());
    }
}
