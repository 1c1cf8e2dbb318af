//! The workloads: set-up from a phantom, the forward SpMV stream, the
//! SIRT solves, and the checks every output must pass.
//!
//! Every workload runs the same pipeline; they differ in the input
//! properties the layers depend on: matrix size (ct256 does not fit the
//! private caches, recon128 is a third of it), batch width (one slice
//! or eight sharing one matrix stream), and how the measuring time is
//! split between the bare forward stream and whole solves.

use crate::layers::TimedOperator;
use crate::report::{median, timed, Metric, Recorder};
use cscv_repro::core::layout::ImageShape;
use cscv_repro::core::{build, CscvExec, CscvParams, SinoLayout, Variant};
use cscv_repro::ct::system::SystemMatrix;
use cscv_repro::ct::{datasets, CtDataset, Phantom, Sinogram};
use cscv_repro::harness::modeled_batch_speedup;
use cscv_repro::recon::metrics::rel_l2;
use cscv_repro::recon::{sirt, sirt_batch, CscvOperator, LinearOperator};
use cscv_repro::simd::rng::XorShift64;
use cscv_repro::sparse::formats::CsrExec;
use cscv_repro::sparse::{Csr, SpmvExecutor, ThreadPool};
use std::time::Instant;

/// Working precision: the paper's headline runs are single precision.
pub type F = f32;

/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUP_REPS: usize = 3;
/// Fewest stream rounds (one call per kernel each) a run measures.
const MIN_STREAM_ROUNDS: usize = 5;
/// Fewest solves a run measures.
const MIN_SOLVES: usize = 3;
/// Batch width of the SpMM layer metrics.
pub(crate) const SPMM_K: usize = 8;

/// Peak line integral, in attenuation units, that the sinogram is scaled
/// to before photon noise is added. The noise model expects
/// attenuation-scale integrals (`I = I0·e^{-p}`); on the phantom's raw
/// pixel-length scale every ray would be dark and the noise would
/// swamp the data.
const ATTENUATION_PEAK: f64 = 2.5;
/// Unattenuated photons per ray.
const PHOTONS: f64 = 1e5;
/// Amplitude of the uniform perturbation added to the phantom to make
/// the stream's input vector.
const PERTURBATION: f64 = 0.05;
/// SpMV outputs must match the serial CSR reference to this share of
/// the reference's largest entry.
const SPMV_TOL: f64 = 1e-4;
/// A batched slice must match the single-slice `sirt` of the same
/// sinogram to this relative L2 distance.
const SLICE_TOL: f64 = 1e-3;

/// The end-to-end metrics: name, unit, and whether higher is better.
///
/// Every time in them is CPU time of the whole process (`cpu-s`; the
/// result schema fixes `setup_s`'s unit as `s`), medians over the run. On a
/// quiet machine the set-up's CPU time equals its wall time, and a
/// kernel's is about the pool's thread count times its wall time. On a
/// shared host, CPU time leaves out the time the pool waited for a
/// processor, which is most of the run-to-run spread of wall time.
pub const END_TO_END: [(&str, &str, bool); 7] = [
    ("setup_s", "s", false),
    ("peak_rss_mb", "MiB", false),
    ("recon_s", "cpu-s", false),
    ("cscv_m_gflops", "GFLOP/cpu-s", true),
    ("cscv_z_gflops", "GFLOP/cpu-s", true),
    ("csr_gflops", "GFLOP/cpu-s", true),
    ("slices_per_s", "1/cpu-s", true),
];

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: CtDataset,
    /// Slices reconstructed together: 1 runs `sirt`, more run
    /// `sirt_batch` over that many differently noised sinograms.
    pub slices: usize,
    /// SIRT iterations per solve.
    pub iters: usize,
    /// Share of the measuring time spent on the forward SpMV stream;
    /// the rest runs solves.
    pub stream_share: f64,
    /// The end-to-end metric the workload exists for; the traced run
    /// reports its tracing overhead on this one.
    pub headline: &'static str,
    /// Largest accepted rel-L2 distance of a solved slice to the phantom.
    pub rel_l2_max: f64,
    /// Largest accepted final/first residual ratio of a solve.
    pub resid_ratio_max: f64,
}

/// The benchmark's workloads.
pub fn workloads() -> [Spec; 3] {
    [
        Spec {
            name: "sirt-recon128",
            dataset: datasets::recon_dataset(),
            slices: 1,
            iters: 20,
            stream_share: 0.25,
            headline: "recon_s",
            rel_l2_max: 0.35,
            resid_ratio_max: 0.1,
        },
        Spec {
            name: "spmv-ct256",
            dataset: datasets::default_suite()[2],
            slices: 1,
            iters: 3,
            stream_share: 0.75,
            headline: "cscv_m_gflops",
            rel_l2_max: 0.65,
            resid_ratio_max: 0.25,
        },
        Spec {
            name: "batch-sirt-k8",
            dataset: datasets::recon_dataset(),
            slices: 8,
            iters: 4,
            stream_share: 0.25,
            headline: "slices_per_s",
            rel_l2_max: 0.5,
            resid_ratio_max: 0.25,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Structural numbers of a workload's executors, fixed at set-up.
#[derive(Debug, Clone)]
pub struct Model {
    pub nnz: usize,
    /// CSCV-M zero-padding rate `R_nnzE`.
    pub r_nnze: f64,
    /// CSCV-M matrix stream bytes `M(A)`.
    pub matrix_bytes: usize,
    /// `M_Rit` of one forward SpMV per executor.
    pub working_set: [(&'static str, usize); 3],
    /// `harness::timing::modeled_batch_speedup` of CSCV-M at `SPMM_K`.
    pub spmm_gain_model: f64,
}

/// A workload's operators and inputs, ready to run.
pub struct Prepared {
    pub phantom: Vec<F>,
    pub csr: Csr<F>,
    /// CSCV-M serving both `y = Ax` and `x = Aᵀy`.
    pub op: CscvOperator<F>,
    pub z: CscvExec<F>,
    pub csr_exec: CsrExec<F>,
    pub model: Model,
    /// Noisy sinograms, one per slice, packed slice after slice.
    pub sinos: Vec<F>,
    /// Input of the forward stream: the phantom plus a seeded perturbation.
    pub x: Vec<F>,
}

/// Operations attempted and how many gave a wrong answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A finished measuring run, kept whole for the traced layer sweep.
pub struct Run {
    pub spec: Spec,
    pub seed: u64,
    pub rec: Recorder,
    pub prep: Prepared,
    pub tally: Tally,
    /// CPU time of each set-up.
    pub setup_secs: Vec<f64>,
    /// Serial CSR reference of `A·x` for the stream input.
    pub y_ref: Vec<F>,
    /// Seconds spent inside operator calls, per measured solve.
    pub solve_op_secs: Vec<f64>,
    /// Operator calls per solve.
    pub solve_op_calls: u64,
}

/// Seed of one slice's noise.
fn slice_seed(seed: u64, slice: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ slice as u64
}

/// Scale clean line integrals into attenuation units, add photon
/// noise, and scale back.
fn noisy(clean: &[f64], ds: &CtDataset, seed: u64) -> Vec<F> {
    let peak = clean.iter().fold(0.0f64, |m, &v| m.max(v));
    let scale = ATTENUATION_PEAK / peak;
    let mut sino = Sinogram::from_vec(
        ds.n_views,
        ds.n_bins,
        clean.iter().map(|&v| v * scale).collect(),
    );
    sino.add_poisson_noise(PHOTONS, seed);
    sino.as_slice().iter().map(|&v| (v / scale) as F).collect()
}

/// `base` plus a uniform perturbation drawn from `seed`.
pub fn perturbed(base: &[F], seed: u64) -> Vec<F> {
    let mut rng = XorShift64::new(seed);
    base.iter()
        .map(|&v| v + rng.range_f64(-PERTURBATION, PERTURBATION) as F)
        .collect()
}

/// Phantom to ready operators. Each step is timed under its layer name.
pub fn setup(spec: &Spec, seed: u64, rec: &mut Recorder) -> Prepared {
    let ds = spec.dataset;
    let geom = ds.geometry();
    let layout = SinoLayout {
        n_views: ds.n_views,
        n_bins: ds.n_bins,
    };
    let img = ImageShape {
        nx: ds.img,
        ny: ds.img,
    };
    let phantom: Vec<F> = Phantom::shepp_logan()
        .rasterize(&geom.grid)
        .into_iter()
        .map(|v| v as F)
        .collect();
    let csc = rec.time("ct.assemble", || SystemMatrix::assemble_csc::<F>(&geom));
    let clean = rec.time("ct.project", || {
        Phantom::shepp_logan().analytic_sinogram(&geom)
    });
    let sinos = (0..spec.slices)
        .flat_map(|s| noisy(&clean, &ds, slice_seed(seed, s)))
        .collect();
    let csr = rec.time("sparse.to_csr", || csc.to_csr());
    let m = rec.time("core.build_m", || {
        CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::default_m(),
            Variant::M,
        ))
    });
    let z = rec.time("core.build_z", || {
        CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::default_z(),
            Variant::Z,
        ))
    });
    drop(csc);
    let csr_exec = CsrExec::new(csr.clone());
    let model = Model {
        nnz: csr.nnz(),
        r_nnze: m.r_nnze(),
        matrix_bytes: m.matrix_bytes(),
        working_set: [
            ("CSCV-M", m.memory_requirement()),
            ("CSCV-Z", z.memory_requirement()),
            ("CSR", csr_exec.memory_requirement()),
        ],
        spmm_gain_model: modeled_batch_speedup(&m, SPMM_K),
    };
    let op = rec.time("recon.operator", || CscvOperator::new(m, &csr));
    Prepared {
        x: perturbed(&phantom, seed),
        phantom,
        csr,
        op,
        z,
        csr_exec,
        model,
        sinos,
    }
}

/// Whether an SpMV output matches its reference (NaN never matches).
pub fn spmv_ok(y: &[F], y_ref: &[F]) -> bool {
    let scale = y_ref.iter().fold(0.0f64, |m, &v| m.max(f64::from(v.abs())));
    y.len() == y_ref.len()
        && y.iter()
            .zip(y_ref)
            .all(|(&a, &b)| f64::from((a - b).abs()) <= SPMV_TOL * scale)
}

/// Images and residual histories of one solve, slice after slice.
pub struct Solved {
    pub x: Vec<F>,
    pub histories: Vec<Vec<f64>>,
}

/// One SIRT solve of `slices` sinograms from a zero image.
pub fn solve(
    op: &dyn LinearOperator<F>,
    sinos: &[F],
    slices: usize,
    iters: usize,
    pool: &ThreadPool,
) -> Solved {
    if slices == 1 {
        let r = sirt(op, sinos, iters, 1.0, pool);
        Solved {
            x: r.x,
            histories: vec![r.residual_history],
        }
    } else {
        let r = sirt_batch(op, sinos, slices, iters, 1.0, 0.0, pool);
        Solved {
            x: r.x,
            histories: r.residual_histories,
        }
    }
}

/// A solve passes when, for every slice, the residual fell by the
/// workload's ratio, the image is within the workload's rel-L2 bound of
/// the phantom, and it matches the single-slice reference `refs[slice]`.
pub fn solve_ok(out: &Solved, refs: &[Vec<F>], phantom: &[F], spec: &Spec) -> bool {
    let n = phantom.len();
    out.histories.len() == spec.slices
        && out.x.len() == spec.slices * n
        && out.histories.iter().enumerate().all(|(s, h)| {
            let x = &out.x[s * n..(s + 1) * n];
            h.len() == spec.iters
                && h[spec.iters - 1] <= spec.resid_ratio_max * h[0]
                && rel_l2(x, phantom) <= spec.rel_l2_max
                && rel_l2(x, &refs[s]) <= SLICE_TOL
        })
}

/// One forward call per kernel, each timed under its layer name and
/// checked against the serial reference.
fn stream_round(
    prep: &Prepared,
    y_ref: &[F],
    y: &mut [F],
    rec: &mut Recorder,
    tally: &mut Tally,
    pool: &ThreadPool,
) {
    let x = &prep.x;
    y.fill(F::NAN);
    rec.time("core.spmv", || prep.op.apply(x, y, pool));
    tally.check(spmv_ok(y, y_ref));
    y.fill(F::NAN);
    rec.time("core.spmv_z", || prep.z.spmv(x, y, pool));
    tally.check(spmv_ok(y, y_ref));
    y.fill(F::NAN);
    rec.time("sparse.csr_spmv", || prep.csr_exec.spmv(x, y, pool));
    tally.check(spmv_ok(y, y_ref));
}

/// Set up `SETUP_REPS` times, then measure for `seconds`, alternating
/// forward stream rounds (the workload's share of the time) with solves.
pub fn run(spec: &Spec, seed: u64, seconds: f64, pool: &ThreadPool) -> Run {
    let mut rec = Recorder::default();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        // Free the previous operators first so peak memory is one set-up.
        drop(prep.take());
        let (p, took) = timed("setup", || setup(spec, seed, &mut rec));
        setup_secs.push(took.cpu);
        prep = Some(p);
    }
    let prep = prep.expect("SETUP_REPS is positive");
    let (m, slices) = (prep.csr.n_rows(), spec.slices);
    let mut tally = Tally::default();

    let mut y_ref = vec![0.0; m];
    prep.csr.spmv_serial(&prep.x, &mut y_ref);
    // Single-slice references; computing them also warms the solver.
    let refs: Vec<Vec<F>> = prep
        .sinos
        .chunks_exact(m)
        .map(|b| sirt(&prep.op, b, spec.iters, 1.0, pool).x)
        .collect();

    let mut y = vec![0.0; m];
    stream_round(
        &prep,
        &y_ref,
        &mut y,
        &mut Recorder::default(),
        &mut tally,
        pool,
    );
    let op = TimedOperator::new(&prep.op);
    let mut solve_op_secs = Vec::new();
    let mut solve_op_calls = 0;
    let (mut rounds, mut stream_secs, mut solve_secs) = (0, 0.0, 0.0);
    let t0 = Instant::now();
    loop {
        let more_rounds = rounds < MIN_STREAM_ROUNDS;
        let more_solves = solve_op_secs.len() < MIN_SOLVES;
        let in_time = t0.elapsed().as_secs_f64() < seconds;
        if !(in_time || more_rounds || more_solves) {
            break;
        }
        // Interleave the two so both sample the whole measuring window,
        // keeping the stream at its share of the time spent.
        let stream_next = if in_time {
            stream_secs <= spec.stream_share * (stream_secs + solve_secs)
        } else {
            more_rounds
        };
        let t = Instant::now();
        if stream_next {
            stream_round(&prep, &y_ref, &mut y, &mut rec, &mut tally, pool);
            rounds += 1;
            stream_secs += t.elapsed().as_secs_f64();
        } else {
            let before = op.busy();
            let out = rec.time("recon.solve", || {
                solve(&op, &prep.sinos, slices, spec.iters, pool)
            });
            let after = op.busy();
            solve_op_secs.push(after.secs - before.secs);
            solve_op_calls = after.calls - before.calls;
            tally.check(solve_ok(&out, &refs, &prep.phantom, spec));
            solve_secs += t.elapsed().as_secs_f64();
        }
    }

    Run {
        spec: *spec,
        seed,
        rec,
        prep,
        tally,
        setup_secs,
        y_ref,
        solve_op_secs,
        solve_op_calls,
    }
}

/// The end-to-end metrics of a run, in `END_TO_END` order.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let flops = 2.0 * run.prep.model.nnz as f64;
    let gflops = |layer: &str| flops / run.rec.cpu_median(layer) / 1e9;
    let recon_s = run.rec.cpu_median("recon.solve");
    let values = [
        median(&run.setup_secs),
        crate::machine::peak_rss_bytes() as f64 / (1u64 << 20) as f64,
        recon_s,
        gflops("core.spmv"),
        gflops("core.spmv_z"),
        gflops("sparse.csr_spmv"),
        run.spec.slices as f64 / recon_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect()
}
