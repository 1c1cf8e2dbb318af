//! The traced pass: per-layer metrics measured from outside each layer.
//!
//! Every number here comes from a span the benchmark opens around a
//! call into a layer's public function (`report::Recorder`), from
//! deltas of the library's own `cscv_trace` counters around one call,
//! or from the solver's operator wrapped in [`TimedOperator`], which
//! splits a solve into time inside operator calls and solver self time.

use crate::report::Recorder;
use crate::report::{median, Metric};
use crate::workload::{
    end_to_end, perturbed, spmv_ok, Prepared, Run, Tally, END_TO_END, F, SPMM_K,
};
use cscv_repro::harness::{membw, roofline};
use cscv_repro::recon::LinearOperator;
use cscv_repro::sparse::ThreadPool;
use cscv_repro::trace::counters::{self, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Timed repetitions of each layer call in the sweep.
const LAYER_REPS: usize = 5;

/// The per-layer metrics: name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("ct.assemble_s", "s"),
    ("ct.project_s", "s"),
    ("sparse.to_csr_s", "s"),
    ("sparse.csr_spmv_ms", "ms"),
    ("sparse.pool_speedup", "x"),
    ("core.build_s", "s"),
    ("core.r_nnze", "ratio"),
    ("core.matrix_bytes", "B"),
    ("core.spmv_ms", "ms"),
    ("core.spmv_t_ms", "ms"),
    ("core.spmm_ms", "ms"),
    ("core.spmm_t_ms", "ms"),
    ("core.spmm_gain", "x"),
    ("core.spmm_gain_model", "x"),
    ("core.frac_of_roof", "ratio"),
    ("core.bytes_loaded", "B-computed"),
    ("core.fma_lanes", "count-computed"),
    ("core.mask_expands", "count-computed"),
    ("core.vxg_groups", "count-computed"),
    ("recon.self_s", "s"),
    ("recon.op_share", "ratio"),
    ("recon.op_calls", "count"),
    ("machine.read_gbs", "GB/s"),
    ("machine.triad_gbs", "GB/s"),
    ("trace.overhead_pct", "%"),
];

/// A `LinearOperator` that times every application under a
/// `recon.op` span and sums the time and the calls, so a solve's self
/// time is its wall time minus the time inside the operator.
pub struct TimedOperator<'a> {
    inner: &'a dyn LinearOperator<F>,
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

/// Time inside operator calls and number of calls so far.
#[derive(Debug, Clone, Copy)]
pub struct Busy {
    pub secs: f64,
    pub calls: u64,
}

impl<'a> TimedOperator<'a> {
    pub fn new(inner: &'a dyn LinearOperator<F>) -> Self {
        TimedOperator {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    pub fn busy(&self) -> Busy {
        Busy {
            secs: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    fn time(&self, f: impl FnOnce()) {
        let _span = cscv_repro::trace::span::enter("recon.op");
        let t0 = Instant::now();
        f();
        // Statistics only: they publish no other data.
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl LinearOperator<F> for TimedOperator<'_> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }
    fn apply(&self, x: &[F], y: &mut [F], pool: &ThreadPool) {
        self.time(|| self.inner.apply(x, y, pool));
    }
    fn apply_transpose(&self, y: &[F], x: &mut [F], pool: &ThreadPool) {
        self.time(|| self.inner.apply_transpose(y, x, pool));
    }
    fn apply_multi(&self, x: &[F], k: usize, y: &mut [F], pool: &ThreadPool) {
        self.time(|| self.inner.apply_multi(x, k, y, pool));
    }
    fn apply_transpose_multi(&self, y: &[F], k: usize, x: &mut [F], pool: &ThreadPool) {
        self.time(|| self.inner.apply_transpose_multi(y, k, x, pool));
    }
    fn abs_row_sums(&self, pool: &ThreadPool) -> Vec<F> {
        self.inner.abs_row_sums(pool)
    }
    fn abs_col_sums(&self, pool: &ThreadPool) -> Vec<F> {
        self.inner.abs_col_sums(pool)
    }
}

/// What the untraced run of the same workload and seed measured.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Value of the workload's headline end-to-end metric.
    pub headline: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Transposed serial CSR reference of each column of `ys`.
fn transpose_refs(prep: &Prepared, ys: &[F]) -> Vec<F> {
    let (m, n) = (prep.csr.n_rows(), prep.csr.n_cols());
    let mut out = vec![0.0; ys.len() / m * n];
    for (y, x) in ys.chunks_exact(m).zip(out.chunks_exact_mut(n)) {
        prep.csr.spmv_transpose_serial(y, x);
    }
    out
}

/// Time `LAYER_REPS` calls of `f` under `name`, poisoning `out` before
/// each call and checking it against `want` after.
fn sweep(
    rec: &mut Recorder,
    tally: &mut Tally,
    name: &'static str,
    out: &mut [F],
    want: &[F],
    f: impl Fn(&mut [F]),
) {
    for _ in 0..LAYER_REPS {
        out.fill(F::NAN);
        rec.time(name, || f(out));
        tally.check(spmv_ok(out, want));
    }
}

/// Run the layer sweep after a measuring run and return the per-layer
/// metrics in `PER_LAYER` order, with the bandwidth ceilings measured
/// over a `membw_bytes` buffer. The tracing overhead is taken against
/// `untraced`, whose operations join the tally.
pub fn per_layer(
    run: &mut Run,
    pool: &ThreadPool,
    membw_bytes: usize,
    untraced: Untraced,
) -> Vec<Metric> {
    let (prep, rec, tally) = (&run.prep, &mut run.rec, &mut run.tally);
    let (m, n) = (prep.csr.n_rows(), prep.csr.n_cols());
    let (op, x, y_ref) = (&prep.op, &prep.x, &run.y_ref);

    let serial = ThreadPool::new(1);
    let mut y = vec![0.0; m];
    sweep(rec, tally, "core.spmv_1t", &mut y, y_ref, |y| {
        op.apply(x, y, &serial)
    });

    let b = &prep.sinos[..m];
    let xt_ref = transpose_refs(prep, b);
    let mut xt = vec![0.0; n];
    sweep(rec, tally, "core.spmv_t", &mut xt, &xt_ref, |xt| {
        op.apply_transpose(b, xt, pool)
    });

    let xs: Vec<F> = (1..=SPMM_K as u64)
        .flat_map(|i| perturbed(&prep.phantom, run.seed ^ (i << 32)))
        .collect();
    let mut ys_ref = vec![0.0; SPMM_K * m];
    for (xi, yi) in xs.chunks_exact(n).zip(ys_ref.chunks_exact_mut(m)) {
        prep.csr.spmv_serial(xi, yi);
    }
    let mut ys = vec![0.0; SPMM_K * m];
    sweep(rec, tally, "core.spmm", &mut ys, &ys_ref, |ys| {
        op.apply_multi(&xs, SPMM_K, ys, pool)
    });
    let xts_ref = transpose_refs(prep, &ys_ref);
    let mut xts = vec![0.0; SPMM_K * n];
    sweep(rec, tally, "core.spmm_t", &mut xts, &xts_ref, |xts| {
        op.apply_transpose_multi(&ys_ref, SPMM_K, xts, pool)
    });

    let before = counters::totals();
    op.apply(x, &mut y, pool);
    let calls = counters::totals().since(&before);
    tally.check(spmv_ok(&y, y_ref));

    let bw = rec.time("machine.membw", || membw::measure(pool, membw_bytes, 10));

    let spmv = run.rec.median("core.spmv");
    let spmm = run.rec.median("core.spmm");
    let solves = run.rec.samples("recon.solve");
    let self_s: Vec<f64> = solves
        .iter()
        .zip(&run.solve_op_secs)
        .map(|(w, o)| w - o)
        .collect();
    let share: Vec<f64> = solves
        .iter()
        .zip(&run.solve_op_secs)
        .map(|(w, o)| o / w)
        .collect();
    let builds: Vec<f64> = run
        .rec
        .samples("core.build_m")
        .iter()
        .zip(run.rec.samples("core.build_z"))
        .map(|(a, b)| a + b)
        .collect();
    let model = &run.prep.model;
    let roof = roofline::classify(
        2.0 * model.nnz as f64,
        model.working_set[0].1 as f64,
        spmv,
        bw.read_gbs(),
    );
    run.tally.attempted += untraced.attempted;
    run.tally.failed += untraced.failed;

    let values = [
        run.rec.median("ct.assemble"),
        run.rec.median("ct.project"),
        run.rec.median("sparse.to_csr"),
        1e3 * run.rec.median("sparse.csr_spmv"),
        run.rec.median("core.spmv_1t") / spmv,
        median(&builds),
        model.r_nnze,
        model.matrix_bytes as f64,
        1e3 * spmv,
        1e3 * run.rec.median("core.spmv_t"),
        1e3 * spmm,
        1e3 * run.rec.median("core.spmm_t"),
        SPMM_K as f64 * spmv / spmm,
        model.spmm_gain_model,
        roof.frac_of_roof,
        calls.get(Counter::BytesLoaded) as f64,
        calls.get(Counter::FmaLanes) as f64,
        calls.get(Counter::MaskExpands) as f64,
        calls.get(Counter::VxgGroups) as f64,
        median(&self_s),
        median(&share),
        run.solve_op_calls as f64,
        bw.read_gbs(),
        bw.triad_gbs(),
        overhead_pct(run, untraced.headline),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// How much slower the traced run's headline metric is than the
/// untraced run's `untraced` value, in percent.
fn overhead_pct(run: &Run, untraced: f64) -> f64 {
    let headline = run.spec.headline;
    let traced = end_to_end(run)
        .into_iter()
        .find(|m| m.name == headline)
        .expect("the headline is an end-to-end metric")
        .value;
    let higher_is_better = END_TO_END
        .iter()
        .any(|&(name, _, higher)| name == headline && higher);
    let slowdown = if higher_is_better {
        untraced / traced
    } else {
        traced / untraced
    };
    100.0 * (slowdown - 1.0)
}
