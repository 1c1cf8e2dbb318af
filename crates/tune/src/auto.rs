//! Drop-in tuned entry points.
//!
//! Two tiers, by how much work the caller is willing to spend:
//!
//! * [`AutoExec::auto`] — *consult only*: fingerprint the matrix, take
//!   the cached winner (exact hash match, else the nearest fingerprint
//!   within the distance threshold), and fall back to the static
//!   heuristic on a miss. Never benchmarks; cost is one `O(nnz)`
//!   fingerprint pass.
//! * [`tuned_executor`] — *consult or search*: same lookup, but a miss
//!   triggers the sampled grid search from [`crate::tuner`] and the
//!   winner is persisted for next time.
//!
//! Both degrade to the heuristic on any failure (unreadable cache,
//! cached config that no longer builds), so they are safe to use as the
//! default construction path: the worst case is exactly what the caller
//! would have gotten without tuning.

use crate::cache::TuneCache;
use crate::fingerprint::Fingerprint;
use crate::space::{Op, TunedConfig};
use crate::tuner::{tune, CandidateBench, TuneOptions, WallClockBench};
use cscv_core::layout::ImageShape;
use cscv_core::{CscvExec, ExecConfig, SinoLayout, Variant};
use cscv_simd::{MaskExpand, Scalar};
use cscv_sparse::{Csc, SpmvExecutor, ThreadPool};

/// A tuned executor: a [`CscvExec`] built from an autotuner-selected
/// configuration, plus the batching advice that came with it.
///
/// Implements [`SpmvExecutor`] by delegation; the one behavioral
/// difference is [`spmv_multi`](SpmvExecutor::spmv_multi), which drives
/// the batch in `k_tile`-wide slices as selected by the search instead
/// of handing the whole batch to the kernel at once.
pub struct TunedExec<T: Scalar> {
    exec: CscvExec<T>,
    config: TunedConfig,
}

impl<T: Scalar + MaskExpand> TunedExec<T> {
    /// The configuration the tuner selected (including the recommended
    /// pool width, which the caller owns — `spmv` uses whatever pool it
    /// is handed).
    pub fn config(&self) -> TunedConfig {
        self.config
    }

    /// The wrapped executor, for paths the trait does not cover.
    pub fn inner(&self) -> &CscvExec<T> {
        &self.exec
    }

    /// Transpose product `x = Aᵀ y` (delegated; not part of the trait).
    pub fn spmv_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        self.exec.spmv_transpose(y, x, pool)
    }

    /// NUMA-place the wrapped executor's buffers for `pool` (see
    /// `CscvExec::numa_place`).
    pub fn numa_place(&mut self, pool: &ThreadPool) -> bool {
        self.exec.numa_place(pool)
    }
}

impl<T: Scalar + MaskExpand> SpmvExecutor<T> for TunedExec<T> {
    fn name(&self) -> String {
        format!("tuned({})", self.exec.name())
    }
    fn n_rows(&self) -> usize {
        self.exec.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.exec.n_cols()
    }
    fn nnz_orig(&self) -> usize {
        self.exec.nnz_orig()
    }
    fn nnz_stored(&self) -> usize {
        self.exec.nnz_stored()
    }
    fn matrix_bytes(&self) -> usize {
        self.exec.matrix_bytes()
    }
    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        self.exec.spmv(x, y, pool)
    }
    fn spmv_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(x.len(), k * self.n_cols());
        assert_eq!(y.len(), k * self.n_rows());
        let (nc, nr) = (self.n_cols(), self.n_rows());
        let tile = self.config.k_tile.clamp(1, k);
        let mut done = 0;
        while done < k {
            let kk = tile.min(k - done);
            self.exec.spmv_multi(
                &x[done * nc..(done + kk) * nc],
                kk,
                &mut y[done * nr..(done + kk) * nr],
                pool,
            );
            done += kk;
        }
    }
}

/// The configuration [`AutoExec::auto`] / [`tuned_executor`] fall back
/// to when there is no usable cached or searched answer.
fn heuristic_config(op: Op) -> TunedConfig {
    TunedConfig::heuristic(op, ThreadPool::max_parallelism())
}

/// Build an executor from `cfg`, degrading to the heuristic — which
/// always builds for any matrix the workspace accepts — if the tuned
/// parameters are invalid for this matrix (e.g. a cached config from a
/// *near* fingerprint, or one whose `S_VxG` has no compiled kernel).
fn build_or_heuristic<T: Scalar + MaskExpand>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    cfg: TunedConfig,
    op: Op,
) -> (CscvExec<T>, TunedConfig) {
    match CscvExec::from_csc(csc, layout, img, cfg.exec_config()) {
        Ok(exec) => (exec, cfg),
        Err(_) => {
            let h = heuristic_config(op);
            let exec = CscvExec::from_csc(csc, layout, img, ExecConfig::heuristic(Variant::Z))
                .expect("heuristic CSCV config must build");
            (exec, h)
        }
    }
}

/// Consult-only tuned construction for `CscvExec` (and anything else
/// that wants to opt in): cached winner if the cache knows this
/// fingerprint (exactly or nearly), static heuristic otherwise. Never
/// runs a benchmark.
pub trait AutoExec<T: Scalar + MaskExpand>: Sized {
    fn auto(
        csc: &Csc<T>,
        layout: SinoLayout,
        img: ImageShape,
        op: Op,
        cache: &mut TuneCache,
    ) -> Self;
}

impl<T: Scalar + MaskExpand> AutoExec<T> for CscvExec<T> {
    fn auto(
        csc: &Csc<T>,
        layout: SinoLayout,
        img: ImageShape,
        op: Op,
        cache: &mut TuneCache,
    ) -> Self {
        let fp = Fingerprint::compute(csc, layout);
        let cfg = cache
            .lookup(&fp, op, T::NAME, crate::cache::NEAR_THRESHOLD)
            .0
            .map(|e| e.config)
            .unwrap_or_else(|| heuristic_config(op));
        build_or_heuristic(csc, layout, img, cfg, op).0
    }
}

/// Tuned construction with search: cache hit → build immediately;
/// miss → run the sampled grid search (persisting the winner through
/// `cache`) and build the selected config. Any failure degrades to the
/// static heuristic.
pub fn tuned_executor<T: Scalar + MaskExpand>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    opts: &TuneOptions,
    cache: &mut TuneCache,
) -> TunedExec<T> {
    tuned_executor_with(csc, layout, img, opts, cache, &mut WallClockBench)
}

/// [`tuned_executor`] with an injected benchmark (tests substitute the
/// deterministic [`crate::ModelBench`]).
pub fn tuned_executor_with<T: Scalar + MaskExpand>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    opts: &TuneOptions,
    cache: &mut TuneCache,
    bench: &mut dyn CandidateBench<T>,
) -> TunedExec<T> {
    let cfg = match tune(csc, layout, img, opts, cache, bench) {
        Ok(report) => report.chosen,
        Err(_) => heuristic_config(opts.op),
    };
    let (exec, config) = build_or_heuristic(csc, layout, img, cfg, opts.op);
    TunedExec { exec, config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::ModelBench;
    use cscv_harness::gen::{generate, CaseDesc};
    use cscv_sparse::dense::assert_vec_close;

    const CASE: &str = "kind=ct-banded views=16 bins=16 nx=8 ny=8 imgb=4 vvec=8 vxg=4 seed=7";

    fn case() -> (Csc<f64>, SinoLayout, ImageShape) {
        let d = CaseDesc::parse(CASE).unwrap();
        let layout = SinoLayout {
            n_views: d.n_views,
            n_bins: d.n_bins,
        };
        let img = ImageShape { nx: d.nx, ny: d.ny };
        (generate(&d).to_csc(), layout, img)
    }

    fn opts() -> TuneOptions {
        TuneOptions {
            reps: 2,
            warmup: 0,
            max_threads: 2,
            ..TuneOptions::default()
        }
    }

    #[test]
    fn auto_with_empty_cache_is_the_heuristic() {
        let (csc, layout, img) = case();
        let mut cache = TuneCache::in_memory();
        let exec = CscvExec::auto(&csc, layout, img, Op::Spmv, &mut cache);
        assert_eq!(exec.config(), ExecConfig::heuristic(Variant::Z));
        // Consult-only: the miss must not have populated the cache.
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn auto_applies_a_cached_winner() {
        let (csc, layout, img) = case();
        let mut cache = TuneCache::in_memory();
        let report = tune(&csc, layout, img, &opts(), &mut cache, &mut ModelBench).unwrap();
        let exec = CscvExec::auto(&csc, layout, img, Op::Spmv, &mut cache);
        assert_eq!(exec.config(), report.chosen.exec_config());
    }

    #[test]
    fn tuned_executor_matches_reference_spmv_and_spmm() {
        let (csc, layout, img) = case();
        let pool = ThreadPool::new(2);
        let mut cache = TuneCache::in_memory();
        let mut o = opts();
        o.op = Op::Spmm { k: 5 };
        let tuned = tuned_executor_with(&csc, layout, img, &o, &mut cache, &mut ModelBench);
        let reference =
            CscvExec::from_csc(&csc, layout, img, ExecConfig::heuristic(Variant::Z)).unwrap();

        let x: Vec<f64> = (0..csc.n_cols()).map(|i| 0.25 + (i % 7) as f64).collect();
        let mut y_t = vec![0.0; csc.n_rows()];
        let mut y_r = vec![0.0; csc.n_rows()];
        tuned.spmv(&x, &mut y_t, &pool);
        reference.spmv(&x, &mut y_r, &pool);
        assert_vec_close(&y_t, &y_r, 1e-12);

        let k = 5;
        let xs: Vec<f64> = (0..k * csc.n_cols())
            .map(|i| (i % 11) as f64 - 3.0)
            .collect();
        let mut ys_t = vec![0.0; k * csc.n_rows()];
        let mut ys_r = vec![0.0; k * csc.n_rows()];
        tuned.spmv_multi(&xs, k, &mut ys_t, &pool);
        reference.spmv_multi(&xs, k, &mut ys_r, &pool);
        assert_vec_close(&ys_t, &ys_r, 1e-12);
        assert!(tuned.name().starts_with("tuned("));
    }

    #[test]
    fn invalid_cached_config_degrades_to_heuristic() {
        let (csc, layout, img) = case();
        // A cached config whose S_VxG has no compiled kernel — far above
        // the view count, or an odd value such as 3 — cannot build; the
        // entry point must degrade, not fail.
        for s_vxg in [layout.n_views * 4, 3] {
            let bad = TunedConfig {
                s_vxg,
                ..TunedConfig::heuristic(Op::Spmv, 2)
            };
            let (exec, cfg) = build_or_heuristic(&csc, layout, img, bad, Op::Spmv);
            assert_eq!(exec.config(), ExecConfig::heuristic(Variant::Z));
            assert_eq!(cfg, heuristic_config(Op::Spmv));
        }
    }
}
