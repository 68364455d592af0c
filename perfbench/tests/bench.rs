//! The benchmark's own checks: generators repeat for a seed, the result
//! model rejects a perturbed result, and every workload runs to its end
//! at tiny sizes with no failed operation, printing exactly the metrics
//! that BENCHMARK.json declares for the run, each once.

use std::time::Duration;

use exodus_db::Value;
use exodus_perfbench::report::WorkDir;
use exodus_perfbench::{oltp, replica, scan, Args, Size, Workload};

#[test]
fn generators_repeat_for_a_seed() {
    assert_eq!(
        scan::University::generate(&scan::TINY, 7),
        scan::University::generate(&scan::TINY, 7)
    );
    assert_ne!(
        scan::University::generate(&scan::TINY, 7),
        scan::University::generate(&scan::TINY, 8)
    );

    let statements = |seed| {
        let mut keys = oltp::Keys::new(1, 50, 8, seed);
        let live = keys.live.clone();
        let steps: Vec<String> = (0..40)
            .map(|i| format!("{:?}", keys.plan(oltp::ROUND[i % oltp::ROUND.len()])))
            .collect();
        (live, steps)
    };
    assert_eq!(statements(7), statements(7));
    assert_ne!(statements(7), statements(8));

    let entries = |seed| {
        let mut j = replica::Journal::new(seed, 10);
        let drawn: Vec<String> = (0..20).map(|_| j.draw().1).collect();
        (j.entries, drawn)
    };
    assert_eq!(entries(7), entries(7));
    assert_ne!(entries(7), entries(8));
}

/// Every way of spoiling a result set that the model must notice.
fn perturbations(rows: &[Vec<Value>]) -> Vec<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    if let Some(first) = rows.first() {
        out.push(rows[1..].to_vec());
        let mut dup = rows.to_vec();
        dup.push(first.clone());
        out.push(dup);
        for col in 0..first.len() {
            let changed = match &first[col] {
                Value::Int(i) => Value::Int(i + 1),
                Value::Float(f) => Value::Float(f * (1.0 + 1e-6) + 1.0),
                Value::Str(s) => Value::Str(format!("{s}x")),
                other => panic!("unexpected cell {other:?}"),
            };
            let mut spoiled = rows.to_vec();
            spoiled[0][col] = changed;
            out.push(spoiled);
        }
    }
    out
}

#[test]
fn model_rejects_perturbed_results() {
    let uni = scan::University::generate(&scan::TINY, 3);
    let work = WorkDir::new("model_test").expect("work directory");
    let loaded = uni
        .load(&scan::TINY, 2, work.path())
        .expect("tiny university loads");
    let mut session = loaded.db.session();
    for decl in scan::RANGES {
        session.run(decl).expect("range declares");
    }
    for (label, stmt, expected) in uni.rotation() {
        let rows = session.query(stmt).expect("rotation statement runs").rows;
        assert!(!rows.is_empty(), "{label} returned nothing at tiny size");
        expected
            .check(&rows)
            .unwrap_or_else(|e| panic!("{label}: engine disagrees with model: {e}"));
        for spoiled in perturbations(&rows) {
            assert!(
                expected.check(&spoiled).is_err(),
                "{label}: model accepted a perturbed result"
            );
        }
    }
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside this package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn run_clean(workload: Workload) {
    for trace in [false, true] {
        let args = Args {
            workload,
            seed: 5,
            seconds: Duration::from_millis(300),
            trace,
            size: Size::Tiny,
        };
        let report = exodus_perfbench::run(&args).expect("workload sets up");
        assert!(report.tally.attempted > 0, "{workload:?} attempted nothing");
        assert_eq!(
            report.tally.failed, 0,
            "{workload:?} trace={trace} failed operations"
        );
        assert!(report.correct());
        let mut names = declared(if trace { "per_layer" } else { "end_to_end" });
        let mut printed: Vec<String> = report.metrics.iter().map(|m| m.0.clone()).collect();
        names.sort();
        printed.sort();
        assert_eq!(
            printed, names,
            "{workload:?} trace={trace} must print every declared metric once"
        );
        for (name, value, _) in &report.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            // An end-to-end metric that reads 0 would show nothing.
            assert!(trace || *value > 0.0, "{name} = {value}");
        }
        let json = report.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn scan_analytics_runs_clean() {
    run_clean(Workload::ScanAnalytics);
}

#[test]
fn oltp_wire_runs_clean() {
    run_clean(Workload::OltpWire);
}

#[test]
fn replica_follow_runs_clean() {
    run_clean(Workload::ReplicaFollow);
}
