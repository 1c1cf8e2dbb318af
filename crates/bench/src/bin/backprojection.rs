//! E-X2: back-projection `x = Aᵀy` — the paper's **future work**,
//! implemented and measured.
//!
//! The conclusion of the paper promises "we will implement CSCV on
//! x = Aᵀy in CT backward projection". This driver benchmarks exactly
//! that: the CSCV transpose kernels (same block structure, gather +
//! lane-dot + per-column horizontal sum), single-RHS and batched at
//! `k = 4`, against the standard options — a tuned CSR executor built on
//! an explicitly transposed matrix, and the gather-form CSC transpose.
//!
//! The executor rows are timed by the harness (`measure_spmv` /
//! `measure_spmm`), so with `CSCV_MANIFEST_DIR` set they land in the
//! manifest the perf-smoke gate reads, keyed `backprojection/CSCV-M-T/…`.
//!
//! Run: `cargo run --release -p cscv-bench --bin backprojection --
//! [--dataset NAME] [--threads 1,4] [--iters N]`

use cscv_bench::{banner, emit, BenchArgs};
use cscv_core::{build, CscvExec, CscvParams, Variant};
use cscv_harness::suite::prepare;
use cscv_harness::table::{f, Table};
use cscv_harness::timing::{measure_spmm, measure_spmv};
use cscv_simd::MaskExpand;
use cscv_sparse::formats::CsrExec;
use cscv_sparse::{Scalar, SpmvExecutor, ThreadPool};
use std::time::Instant;

/// Batch width of the batched transpose rows.
const K: usize = 4;

/// A CSCV executor's transpose `x = Aᵀy` seen as an executor of its
/// own (`spmv` is `spmv_transpose`, `spmv_multi` is
/// `spmv_transpose_multi`), so the harness can time and record it.
struct Transposed<'a, T: Scalar>(&'a CscvExec<T>);

impl<T: Scalar + MaskExpand> SpmvExecutor<T> for Transposed<'_, T> {
    fn name(&self) -> String {
        format!("{}-T", self.0.name())
    }
    fn n_rows(&self) -> usize {
        self.0.n_cols()
    }
    fn n_cols(&self) -> usize {
        self.0.n_rows()
    }
    fn nnz_orig(&self) -> usize {
        self.0.nnz_orig()
    }
    fn nnz_stored(&self) -> usize {
        self.0.nnz_stored()
    }
    fn matrix_bytes(&self) -> usize {
        self.0.matrix_bytes()
    }
    fn spmv(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        self.0.spmv_transpose(y, x, pool);
    }
    fn spmv_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        self.0.spmv_transpose_multi(y, k, x, pool);
    }
}

/// Min time of a closure over `iters` runs after `warmup`.
fn measure(mut run: impl FnMut(), warmup: usize, iters: usize) -> f64 {
    for _ in 0..warmup {
        run();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let _trace = cscv_bench::trace_report();
    let args = BenchArgs::parse();
    banner();
    let mut table = Table::new(vec![
        "dataset",
        "implementation",
        "threads",
        "k",
        "GFLOP/s",
        "min time (ms)",
    ]);
    for ds in &args.datasets {
        let prep = prepare::<f32>(ds);
        let (nr, nc) = (prep.csr.n_rows(), prep.csr.n_cols());
        let flops = 2.0 * prep.csr.nnz() as f64;
        // K distinct right-hand sides; RHS 0 is the single-RHS input.
        let ys: Vec<f32> = (0..K * nr)
            .map(|i| (((i % nr) + 31 * (i / nr)) % 17) as f32 * 0.25)
            .collect();
        let y = &ys[..nr];
        let mut x = vec![0.0f32; nc];
        let mut xs = vec![0.0f32; K * nc];
        // Reference for correctness, one serial transpose per RHS.
        let mut xs_ref = vec![0.0f32; K * nc];
        for (yk, xk) in ys.chunks(nr).zip(xs_ref.chunks_mut(nc)) {
            prep.csc.spmv_transpose_serial(yk, xk);
        }

        let cscv_z = CscvExec::new(build(
            &prep.csc,
            prep.layout,
            prep.img,
            CscvParams::default_z(),
            Variant::Z,
        ));
        let cscv_m = CscvExec::new(build(
            &prep.csc,
            prep.layout,
            prep.img,
            CscvParams::default_m(),
            Variant::M,
        ));
        let at_csr = CsrExec::new(prep.csr.transpose());

        for &threads in &args.threads {
            let pool = ThreadPool::new(threads);
            let mut record = |name: &str, k: usize, secs: f64| {
                table.add_row(vec![
                    ds.name.to_string(),
                    name.to_string(),
                    threads.to_string(),
                    k.to_string(),
                    f(k as f64 * flops / secs / 1e9, 2),
                    f(secs * 1e3, 3),
                ]);
            };
            for exec in [&cscv_z, &cscv_m] {
                let t = Transposed(exec);
                // Correctness gate per thread count, single and batched.
                t.spmv(y, &mut x, &pool);
                let err = cscv_sparse::dense::max_rel_err(&x, &xs_ref[..nc]);
                assert!(err < 1e-3, "{} err {err}", t.name());
                t.spmv_multi(&ys, K, &mut xs, &pool);
                let err = cscv_sparse::dense::max_rel_err(&xs, &xs_ref);
                assert!(err < 1e-3, "{} k={K} err {err}", t.name());

                let m = measure_spmv(&t, y, &mut x, &pool, args.warmup, args.iters);
                record(&t.name(), 1, m.secs_min);
                let m = measure_spmm(&t, &ys, K, &mut xs, &pool, args.warmup, args.iters);
                record(&t.name(), K, m.secs_min);
            }
            let m = measure_spmv(&at_csr, y, &mut x, &pool, args.warmup, args.iters);
            record("CSR(At) MKL-analog", 1, m.secs_min);
            let secs = measure(
                || prep.csc.spmv_transpose_serial(y, &mut x),
                args.warmup,
                args.iters,
            );
            record("CSC gather (serial)", 1, secs);
        }
    }
    emit(
        "Future-work experiment: back-projection x = Aᵀy",
        &table,
        &args.csv,
    );
}
