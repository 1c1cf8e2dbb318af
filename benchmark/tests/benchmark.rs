//! The benchmark's own tests, on `datasets::tiny()` so they run in
//! seconds. Run both builds:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! cargo test --release --manifest-path benchmark/Cargo.toml --features trace
//! ```

use cscv_benchmark::layers::{self, Untraced, PER_LAYER};
use cscv_benchmark::report::Metric;
use cscv_benchmark::workload::{self, Run, Spec, END_TO_END};
use cscv_repro::ct::datasets;
use cscv_repro::sparse::ThreadPool;
use cscv_repro::trace::json::Json;
use std::sync::Mutex;

/// Runs share the process-wide trace counters and span buffers, so they
/// go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bandwidth buffer for tests: small, the numbers only need to exist.
const TEST_MEMBW_BYTES: usize = 8 << 20;

fn tiny(spec: Spec) -> Spec {
    Spec {
        dataset: datasets::tiny(),
        ..spec
    }
}

/// One short measuring run on the tiny dataset, plus its metrics: the
/// end-to-end ones untraced, the per-layer ones traced.
fn run_tiny(spec: Spec, seed: u64) -> (Run, Vec<Metric>) {
    let pool = ThreadPool::new(2);
    let mut run = workload::run(&tiny(spec), seed, 0.2, &pool);
    let metrics = if cscv_repro::trace::ENABLED {
        let untraced = Untraced {
            headline: 1.0,
            attempted: 0,
            failed: 0,
        };
        layers::per_layer(&mut run, &pool, TEST_MEMBW_BYTES, untraced)
    } else {
        workload::end_to_end(&run)
    };
    (run, metrics)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list in BENCHMARK.json.
fn declared(json: &Json, list: &str) -> Vec<(String, String)> {
    json.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_runs_passes_its_checks_and_reports_positive_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for spec in workload::workloads() {
        let (run, metrics) = run_tiny(spec, 1);
        assert!(run.tally.attempted > 0, "{}", spec.name);
        assert_eq!(run.tally.failed, 0, "{}", spec.name);
        for m in metrics.iter().filter(|m| m.name != "trace.overhead_pct") {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                spec.name,
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn emitted_names_equal_benchmark_json() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let names: Vec<&str> = workload::workloads().iter().map(|w| w.name).collect();
    assert_eq!(workloads, names);

    let expected: Vec<(String, String)> = if cscv_repro::trace::ENABLED {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.into(), u.into()))
            .collect()
    };
    let list = if cscv_repro::trace::ENABLED {
        "per_layer"
    } else {
        "end_to_end"
    };
    assert_eq!(declared(&json, list), expected);
    for (entry, &(name, _, higher)) in json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .zip(&END_TO_END)
    {
        let better = entry.get("better").and_then(Json::as_str);
        assert_eq!(
            better,
            Some(if higher { "higher" } else { "lower" }),
            "{name}"
        );
    }
    for spec in workload::workloads() {
        let (_, metrics) = run_tiny(spec, 1);
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into()))
            .collect();
        assert_eq!(emitted, expected, "{}", spec.name);
    }
}

#[cfg(feature = "trace")]
#[test]
fn exact_counts_repeat_across_seeds() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let exact = [
        "core.r_nnze",
        "core.matrix_bytes",
        "core.bytes_loaded",
        "core.fma_lanes",
        "core.mask_expands",
        "core.vxg_groups",
        "recon.op_calls",
    ];
    for spec in workload::workloads() {
        let counts = |seed| {
            let (_, metrics) = run_tiny(spec, seed);
            exact.map(|name| {
                metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect("exact count reported")
                    .value
                    .to_bits()
            })
        };
        assert_eq!(counts(11), counts(12), "{}", spec.name);
    }
}

#[cfg(feature = "trace")]
#[test]
fn operator_spans_and_self_time_account_for_each_solve() {
    use cscv_repro::trace::{counters, span};
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for spec in workload::workloads() {
        // Drops buffered spans as well as the counters.
        counters::reset();
        let (run, _) = run_tiny(spec, 5);
        let thread = std::thread::current().name().map(str::to_string);
        let events: Vec<span::Event> = span::events()
            .into_iter()
            .filter(|(t, e)| Some(t) == thread.as_ref() && e.is_span)
            .map(|(_, e)| e)
            .collect();
        let solves: Vec<&span::Event> = events.iter().filter(|e| e.name == "recon.solve").collect();
        let walls = run.rec.samples("recon.solve");
        assert_eq!(solves.len(), walls.len(), "{}", spec.name);
        for ((solve, wall), op_secs) in solves.iter().zip(walls).zip(&run.solve_op_secs) {
            let end = solve.t_ns + solve.dur_ns;
            let ops: Vec<&span::Event> = events
                .iter()
                .filter(|e| e.name == "recon.op" && e.t_ns >= solve.t_ns && e.t_ns < end)
                .collect();
            assert_eq!(ops.len() as u64, run.solve_op_calls, "{}", spec.name);
            assert!(
                ops.iter().all(|e| e.t_ns + e.dur_ns <= end),
                "{}",
                spec.name
            );
            let op_span_secs = ops.iter().map(|e| e.dur_ns).sum::<u64>() as f64 * 1e-9;
            let self_secs = wall - op_secs;
            assert!(self_secs > 0.0, "{}", spec.name);
            // Operator spans plus the self time measured around the same
            // calls make up the enclosing solve span.
            let solve_secs = solve.dur_ns as f64 * 1e-9;
            let gap = (op_span_secs + self_secs - solve_secs).abs();
            assert!(
                gap <= 0.05 * solve_secs,
                "{}: ops {op_span_secs} + self {self_secs} vs solve {solve_secs}",
                spec.name
            );
        }
    }
}
