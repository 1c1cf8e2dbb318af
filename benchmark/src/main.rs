//! `cscv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a machine block and, as its last line, the result object.
//! `--trace 0` needs the default build and reports the end-to-end
//! metrics; `--trace 1` needs the `trace` build plus
//! `--untraced-json <result line of the untraced run>` and reports the
//! per-layer metrics. `run.py` builds both and drives them.

use cscv_benchmark::layers::{self, Untraced};
use cscv_benchmark::machine;
use cscv_benchmark::report::RunResult;
use cscv_benchmark::workload::{self, Spec};
use cscv_repro::sparse::ThreadPool;
use cscv_repro::trace::json::Json;
use std::process::ExitCode;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    /// Given exactly for `--trace 1`.
    untraced: Option<Untraced>,
}

fn parse_untraced(line: &str, headline: &str) -> Result<Untraced, String> {
    let json = Json::parse(line).map_err(|e| format!("--untraced-json: {e}"))?;
    let num = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_f64)
            .ok_or(format!("--untraced-json: no numeric {what}"))
    };
    Ok(Untraced {
        headline: num(
            json.get("metrics")
                .and_then(|m| m.get(headline))
                .and_then(|m| m.get("value")),
            headline,
        )?,
        attempted: num(json.get("attempted"), "attempted")? as u64,
        failed: num(json.get("failed"), "failed")? as u64,
    })
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut untraced) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--untraced-json" => untraced = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    let trace = trace.unwrap_or(false);
    if trace != cscv_repro::trace::ENABLED {
        return Err(format!(
            "--trace {} needs the build {} the `trace` feature",
            u8::from(trace),
            if trace { "with" } else { "without" }
        ));
    }
    let untraced = match (trace, untraced) {
        (true, Some(line)) => Some(parse_untraced(&line, spec.headline)?),
        (true, None) => return Err("--trace 1 needs --untraced-json".into()),
        (false, _) => None,
    };
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        untraced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cscv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = ThreadPool::new(ThreadPool::max_parallelism());
    let mut run = workload::run(&args.spec, args.seed, args.seconds, &pool);
    let (metrics, bandwidth) = if let Some(untraced) = args.untraced {
        let metrics = layers::per_layer(&mut run, &pool, machine::membw_buffer_bytes(), untraced);
        let get = |name| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        let bandwidth = (get("machine.read_gbs"), get("machine.triad_gbs"));
        (metrics, Some(bandwidth))
    } else {
        (workload::end_to_end(&run), None)
    };
    println!("{}", machine::block(&run.prep.model, bandwidth).to_string());
    let result = RunResult {
        correct: run.tally.failed == 0,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        metrics,
    };
    println!("{}", result.to_json().to_string());
    ExitCode::SUCCESS
}
