//! The result line and the statistics behind it.

use cscv_repro::trace::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Wall-clock and CPU-time samples keyed by layer name. Every timed
/// call is also a `cscv_trace` span of the same name, so a traced run's
/// trace holds exactly the intervals the wall-clock samples measure.
#[derive(Debug, Default)]
pub struct Recorder {
    wall: BTreeMap<&'static str, Vec<f64>>,
    cpu: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// Run `f` inside a span named `name` and record its durations.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, took) = timed(name, f);
        self.wall.entry(name).or_default().push(took.wall);
        self.cpu.entry(name).or_default().push(took.cpu);
        r
    }

    /// Every wall-clock duration recorded under `name`, in call order.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.wall.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median wall-clock duration recorded under `name`, seconds.
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    /// Median CPU time of the calls recorded under `name`, seconds.
    pub fn cpu_median(&self, name: &str) -> f64 {
        median(self.cpu.get(name).map_or(&[], Vec::as_slice))
    }
}

/// Durations of one timed call, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub wall: f64,
    /// CPU time of the whole process, every pool thread included.
    pub cpu: f64,
}

/// Run `f` inside a span named `name`; return its result and durations.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Took) {
    let _span = cscv_repro::trace::span::enter(name);
    let (c0, t0) = (process_cpu_secs(), Instant::now());
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_secs() - c0;
    (r, Took { wall, cpu })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process, seconds.
///
/// Time a thread waits for a processor is not counted: neither waiting
/// in the run queue nor, under a hypervisor that reports steal time,
/// time the virtual CPU was not running. On a shared host this reading
/// is far steadier than wall-clock time.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn cpu_time_counts_work_and_not_sleep() {
        let (_, busy) = timed("test.busy", || {
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < 0.05 {
                std::hint::black_box(0);
            }
        });
        let (_, idle) = timed("test.idle", || {
            std::thread::sleep(std::time::Duration::from_millis(50))
        });
        assert!(busy.cpu > 0.02, "{busy:?}");
        assert!(idle.wall >= 0.05 && idle.cpu < 0.02, "{idle:?}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.125,
            }],
        };
        assert_eq!(
            r.to_json().to_string(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.125,"unit":"s"}}}"#
        );
    }
}
