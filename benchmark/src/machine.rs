//! The machine block printed with every result, and the process's
//! peak memory.

use crate::workload::Model;
use cscv_repro::sparse::ThreadPool;
use cscv_repro::trace::json::Json;

/// Smallest bandwidth buffer when the last-level cache size is unknown.
const MIN_MEMBW_BYTES: usize = 256 << 20;

/// Size in bytes of the largest-level CPU cache, from sysfs.
pub fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).ok();
    dir.filter_map(|entry| {
        let path = entry.ok()?.path();
        let level: u32 = read(path.join("level"))?.trim().parse().ok()?;
        let size = read(path.join("size"))?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        Some((level, digits.parse::<usize>().ok()? * scale))
    })
    .max()
    .map(|(_, bytes)| bytes)
}

/// Buffer for the bandwidth meter: four times the last-level cache, so
/// the sweep reads from DRAM and not from cache.
pub fn membw_buffer_bytes() -> usize {
    llc_bytes().map_or(MIN_MEMBW_BYTES, |llc| (4 * llc).max(MIN_MEMBW_BYTES))
}

/// Peak resident set size of this process in bytes (`VmHWM`), 0 when
/// the kernel does not report it.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib << 10)
        })
        .unwrap_or(0)
}

/// `{"machine": …}`: SIMD level, hardware threads, compiler, last-level
/// cache, the workload's `M_Rit` working sets and, when measured, the
/// bandwidth ceilings with their buffer size.
pub fn block(model: &Model, read_triad_gbs: Option<(f64, f64)>) -> Json {
    let mut fields = vec![
        (
            "simd",
            Json::from(cscv_repro::simd::cpu_features().summary()),
        ),
        ("hw_threads", ThreadPool::max_parallelism().into()),
        ("rustc", env!("BENCH_RUSTC_VERSION").into()),
        ("llc_bytes", llc_bytes().map_or(Json::Null, Json::from)),
        (
            "m_rit_bytes",
            Json::obj(
                model
                    .working_set
                    .iter()
                    .map(|&(name, bytes)| (name, Json::from(bytes)))
                    .collect(),
            ),
        ),
    ];
    if let Some((read, triad)) = read_triad_gbs {
        fields.push(("read_gbs", read.into()));
        fields.push(("triad_gbs", triad.into()));
        fields.push(("membw_buffer_bytes", membw_buffer_bytes().into()));
    }
    Json::obj(vec![("machine", Json::obj(fields))])
}
