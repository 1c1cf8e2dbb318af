//! Quickstart: build a CT system matrix, convert it to CSCV, run SpMV,
//! and compare against the CSR baseline.
//!
//! Run: `cargo run --release --example quickstart`

use cscv_repro::prelude::*;

fn main() {
    // Traced builds report at exit (NDJSON to CSCV_TRACE_OUT if set).
    let _trace = cscv_repro::trace::report_guard();
    // 1. A CT acquisition: 128×128 image, 184 detector bins, 60 views.
    let ds = cscv_repro::ct::datasets::default_suite()[0];
    let geom = ds.geometry();
    println!(
        "dataset {}: image {}², {} bins × {} views",
        ds.name, ds.img, ds.n_bins, ds.n_views
    );

    // 2. Assemble the system matrix column-by-column (each column is one
    //    pixel's projection trajectory).
    let a: Csc<f32> = SystemMatrix::assemble_csc(&geom);
    println!(
        "system matrix: {} x {}, {} nonzeros",
        a.n_rows(),
        a.n_cols(),
        a.nnz()
    );

    // 3. Convert to CSCV (both variants) with the paper's parameters.
    let layout = SinoLayout {
        n_views: ds.n_views,
        n_bins: ds.n_bins,
    };
    let img = ImageShape {
        nx: ds.img,
        ny: ds.img,
    };
    let z = CscvExec::new(build(&a, layout, img, CscvParams::default_z(), Variant::Z));
    let m = CscvExec::new(build(&a, layout, img, CscvParams::default_m(), Variant::M));
    println!(
        "CSCV-Z: R_nnzE {:.3}; CSCV-M expand path: {}; kernel tier: {}",
        z.matrix().stats.r_nnze(),
        m.expand_path(),
        m.tier()
    );

    // 4. Forward-project the Shepp-Logan phantom with each executor.
    let x: Vec<f32> = Phantom::shepp_logan()
        .rasterize(&geom.grid)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let pool = ThreadPool::new(ThreadPool::max_parallelism());
    let csr = a.to_csr();
    let baseline = cscv_repro::sparse::formats::CsrExec::new(csr);

    let mut y_ref = vec![0.0f32; a.n_rows()];
    baseline.spmv(&x, &mut y_ref, &pool);
    for exec in [&z as &dyn SpmvExecutor<f32>, &m] {
        let mut y = vec![0.0f32; a.n_rows()];
        exec.spmv(&x, &mut y, &pool);
        let err = cscv_repro::sparse::dense::max_rel_err(&y, &y_ref);
        println!(
            "{:<8} matches CSR baseline, max rel err {err:.2e}",
            exec.name()
        );
        assert!(err < 1e-3);
    }

    // 5. Time a few iterations.
    let iters = 25;
    for exec in [
        &baseline as &dyn SpmvExecutor<f32>,
        &z as &dyn SpmvExecutor<f32>,
        &m,
    ] {
        let mut y = vec![0.0f32; a.n_rows()];
        let meas = cscv_repro::harness::timing::measure_spmv(exec, &x, &mut y, &pool, 3, iters);
        println!(
            "{:<18} {:>7.2} GFLOP/s  ({:.3} ms/iter)",
            meas.name,
            meas.gflops,
            meas.secs_min * 1e3
        );
    }
}
