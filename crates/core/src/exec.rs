//! CSCV SpMV executors (the `SpmvExecutor` face of the format).
//!
//! Two thread-level strategies are provided:
//!
//! * [`ParallelStrategy::ViewGroups`] *(default)* — threads own whole
//!   view groups; their global row ranges are disjoint, so scatters go
//!   straight into `y` with no reduction. Balanced by per-group nnz
//!   (near-perfect thanks to paper property P3).
//! * [`ParallelStrategy::LocalCopies`] — the paper's own scheme: blocks
//!   are distributed freely, each thread accumulates into a private copy
//!   of `y`, and copies are reduced in parallel afterwards. Kept for
//!   fidelity and as the fallback when there are fewer view groups than
//!   threads.

use crate::builder::{try_build, BuildError};
use crate::format::{Block, CscvMatrix, Variant};
use crate::kernels::{
    gather, gather_multi, run_block_m, run_block_m_multi, run_block_m_t, run_block_m_t_multi,
    run_block_z, run_block_z_multi, run_block_z_t, run_block_z_t_multi, scatter_add,
};
use crate::layout::{ImageShape, SinoLayout};
use crate::params::{CscvParams, VXG_SIZES};
use cscv_simd::expand::{select_path, ExpandPath};
use cscv_simd::{Isa, MaskExpand, Scalar, Tier};
use cscv_sparse::numa::NumaTopology;
use cscv_sparse::shared::{reduce_buffers_into, Scratch, SharedSliceMut};
use cscv_sparse::{partition, Csc, SpmvExecutor, ThreadPool};

/// Call `$self.$method::<W, HW, S>$args` for the matrix's kernel shape:
/// lane width `W = S_VVec`, hardware expand `HW`, and `S = S_VxG`. The
/// one place a runtime shape becomes const generics.
macro_rules! dispatch_shape {
    ($self:ident.$method:ident $args:tt) => {
        dispatch_shape!(@arms $self, $method, $args;
            (4, false) (4, true) (8, false) (8, true) (16, false) (16, true))
    };
    (@arms $self:ident, $method:ident, $args:tt; $(($w:literal, $hw:literal))*) => {
        match (
            $self.m.params.s_vvec,
            $self.path == ExpandPath::Hardware,
            $self.m.params.s_vxg,
        ) {
            $(
                ($w, $hw, 1) => $self.$method::<$w, $hw, 1> $args,
                ($w, $hw, 2) => $self.$method::<$w, $hw, 2> $args,
                ($w, $hw, 4) => $self.$method::<$w, $hw, 4> $args,
                ($w, $hw, 8) => $self.$method::<$w, $hw, 8> $args,
                ($w, $hw, 16) => $self.$method::<$w, $hw, 16> $args,
            )*
            _ => unreachable!("shape validated by CscvExec::with_strategy"),
        }
    };
}

/// Register budget of one batched forward pass, in accumulator lanes:
/// its tile is `K·W` lanes. Past it the tile spills (measured: a W = 16,
/// K = 8 tile ran at a fifth of the K = 4 rate, f32 and f64).
const FORWARD_TILE_LANES: usize = 64;
/// Register budget of one batched transpose pass: its tile is `S·K·W`
/// lanes, one `K×W` accumulator per VxG member column.
const TRANSPOSE_TILE_LANES: usize = 128;

/// The register-budget rule of both directions: a batched pass of `k`
/// right-hand sides whose tile holds `lanes_per_rhs` lanes per RHS runs
/// if `k = 1` (the single-RHS kernels) or its tile fits `budget`.
const fn fits(k: usize, lanes_per_rhs: usize, budget: usize) -> bool {
    k == 1 || k * lanes_per_rhs <= budget
}

/// The batch chunk widths [`fits`] allows, widest first, out of the
/// compiled `K ∈ {8, 4, 2, 1}`.
fn batch_widths(lanes_per_rhs: usize, budget: usize) -> &'static [usize] {
    const WIDTHS: [usize; 4] = [8, 4, 2, 1];
    let skip = WIDTHS
        .iter()
        .take_while(|&&k| !fits(k, lanes_per_rhs, budget))
        .count();
    &WIDTHS[skip..]
}

/// Tally one block-kernel pass into the trace counters (traced builds
/// only — the `ENABLED` guard makes this whole body dead code
/// otherwise). `k` is the register-tile batch width of the pass: FMA
/// lanes, useful flops and padding lanes scale with `k`, while the
/// matrix stream and (for CSCV-M) the mask expansions are paid once per
/// pass — exactly the amortization the batched path exists to collect.
///
/// Runs inside the pool task, so per-thread counter shards attribute
/// kernel work to the thread that did it.
#[inline(always)]
fn trace_block_pass<T: Scalar>(m: &CscvMatrix<T>, blk: &Block<T>, k: u64) {
    if cscv_trace::ENABLED {
        use cscv_trace::counters::{add, Counter};
        let (issued, expands, blocks_counter) = match m.variant {
            Variant::Z => (blk.vals.len() as u64, 0u64, Counter::BlocksZ),
            Variant::M => {
                let lane_blocks = (blk.masks.len() / m.mask_bytes()) as u64;
                (
                    lane_blocks * m.params.s_vvec as u64,
                    lane_blocks,
                    Counter::BlocksM,
                )
            }
        };
        add(Counter::FmaLanes, issued * k);
        add(Counter::UsefulFlops, 2 * blk.nnz as u64 * k);
        add(Counter::PaddingLanes, (blk.lane_slots - blk.nnz) as u64 * k);
        add(Counter::MaskExpands, expands);
        add(Counter::VxgGroups, blk.n_vxgs() as u64);
        add(Counter::BytesLoaded, blk.matrix_bytes() as u64);
        add(blocks_counter, 1);
    }
}

/// Thread-level parallelization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelStrategy {
    /// Row-disjoint view-group ownership (no reduction).
    #[default]
    ViewGroups,
    /// Paper's scheme: private `y` copies + parallel reduction.
    LocalCopies,
}

/// A complete executor configuration: everything that varies between two
/// `CscvExec` instances built over the same CSC matrix. This is the unit
/// the static heuristic produces and the autotuner searches over —
/// `cscv-tune` persists it verbatim in the tuning cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    pub variant: Variant,
    pub params: CscvParams,
    pub strategy: ParallelStrategy,
}

impl ExecConfig {
    /// The static heuristic for a variant: the paper's recommended
    /// parameter defaults plus the default (ViewGroups) strategy. The
    /// autotuner always includes this point in its grid, so a tuned
    /// selection can never lose to it within a search.
    pub fn heuristic(variant: Variant) -> Self {
        let params = match variant {
            Variant::Z => CscvParams::default_z(),
            Variant::M => CscvParams::default_m(),
        };
        ExecConfig {
            variant,
            params,
            strategy: ParallelStrategy::default(),
        }
    }
}

/// Prepared CSCV SpMV executor (Z or M per the matrix's variant).
pub struct CscvExec<T: Scalar> {
    m: CscvMatrix<T>,
    strategy: ParallelStrategy,
    path: ExpandPath,
    /// Dispatch tier of every block kernel call, detected once here.
    isa: Isa,
    /// Per-block nnz prefix (LocalCopies balancing).
    block_prefix: Vec<usize>,
    /// Blocks grouped by image tile (transpose partitioning: one tile's
    /// blocks touch a fixed column set, so tiles are the row-disjoint
    /// axis of `x = Aᵀy`). Parallel order: tiles sorted by nnz prefix.
    tile_blocks: Vec<Vec<u32>>,
    tile_prefix: Vec<usize>,
    ytil_scratch: Scratch<T>,
    y_scratch: Scratch<T>,
}

impl<T: Scalar + MaskExpand> CscvExec<T> {
    pub fn new(m: CscvMatrix<T>) -> Self {
        Self::with_strategy(m, ParallelStrategy::default())
    }

    pub fn with_strategy(m: CscvMatrix<T>, strategy: ParallelStrategy) -> Self {
        // The unsafe kernels below assume the full invariant catalog
        // (CSCV-PERM, CSCV-VXG-BOUNDS, …); re-check at executor
        // construction when `check-invariants` is on, since matrices may
        // arrive hand-assembled rather than from the builder.
        crate::invariants::assert_valid(&m, "CscvExec::with_strategy");
        assert!(
            VXG_SIZES.contains(&m.params.s_vxg),
            "S_VxG = {} has no compiled kernel (supported: {VXG_SIZES:?})",
            m.params.s_vxg
        );
        let path = match m.params.s_vvec {
            4 => select_path::<T, 4>(),
            8 => select_path::<T, 8>(),
            16 => select_path::<T, 16>(),
            _ => unreachable!("validated by CscvParams"),
        };
        let mut block_prefix = Vec::with_capacity(m.blocks.len() + 1);
        block_prefix.push(0usize);
        let mut acc = 0;
        for b in &m.blocks {
            acc += b.nnz.max(1);
            block_prefix.push(acc);
        }
        // Group blocks by tile for the transpose kernels.
        let n_tiles = m
            .blocks
            .iter()
            .map(|b| b.tile as usize + 1)
            .max()
            .unwrap_or(0);
        let mut tile_blocks: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
        for (bi, b) in m.blocks.iter().enumerate() {
            // AUDIT(panic-ok): CSCV-U32-FIT — the builder caps the block count below u32::MAX; the expect documents that invariant at the narrowing site.
            let bi = u32::try_from(bi).expect("block index fits u32 (CSCV-U32-FIT)");
            tile_blocks[b.tile as usize].push(bi);
        }
        let mut tile_prefix = Vec::with_capacity(n_tiles + 1);
        tile_prefix.push(0usize);
        let mut acc = 0usize;
        for blocks in &tile_blocks {
            acc += blocks
                .iter()
                .map(|&bi| m.blocks[bi as usize].nnz)
                .sum::<usize>()
                .max(1);
            tile_prefix.push(acc);
        }
        CscvExec {
            m,
            strategy,
            path,
            isa: Isa::detect(),
            block_prefix,
            tile_blocks,
            tile_prefix,
            ytil_scratch: Scratch::new(),
            y_scratch: Scratch::new(),
        }
    }

    /// Build the CSCV matrix described by `cfg` and wrap it in an
    /// executor — the one-call construction path used by the autotuner
    /// and the `auto` entry points in `cscv-tune`.
    pub fn from_csc(
        csc: &Csc<T>,
        layout: SinoLayout,
        img: ImageShape,
        cfg: ExecConfig,
    ) -> Result<Self, BuildError> {
        let m = try_build(csc, layout, img, cfg.params, cfg.variant)?;
        Ok(Self::with_strategy(m, cfg.strategy))
    }

    /// The configuration this executor was built with.
    pub fn config(&self) -> ExecConfig {
        ExecConfig {
            variant: self.m.variant,
            params: self.m.params,
            strategy: self.strategy,
        }
    }

    /// The underlying format object (stats, params).
    pub fn matrix(&self) -> &CscvMatrix<T> {
        &self.m
    }

    /// NUMA-aware placement with auto-detected topology: re-place the
    /// matrix's value/index buffers partition-aligned with `pool` (first
    /// touch by the owning thread) and pre-place the per-slot `ỹ` / `y`
    /// scratch buffers on their threads' nodes. Returns whether any
    /// placement ran — `false` (and zero work) on uniform topologies or
    /// 1-slot pools. Results are byte-identical either way; only page
    /// locality changes.
    pub fn numa_place(&mut self, pool: &ThreadPool) -> bool {
        self.numa_place_with(pool, &NumaTopology::detect())
    }

    /// NUMA-aware placement against an explicit topology (tests inject
    /// synthetic multi-node layouts here).
    pub fn numa_place_with(&mut self, pool: &ThreadPool, topo: &NumaTopology) -> bool {
        if topo.is_uniform() || pool.n_threads() <= 1 {
            return false;
        }
        let _span = cscv_trace::span::enter("numa.place");
        crate::placement::localize_matrix(&mut self.m, pool, topo);
        self.ytil_scratch.warm(pool, topo, self.m.max_ytil);
        self.y_scratch.warm(pool, topo, self.m.n_rows);
        true
    }

    /// Which mask-expansion path CSCV-M kernels use on this machine
    /// (always reported; meaningless for Z).
    pub fn expand_path(&self) -> ExpandPath {
        self.path
    }

    /// Force the expansion path (ablation studies: measure the
    /// `soft-vexpand` cost on hardware that has `vexpand`).
    ///
    /// # Panics
    /// If `Hardware` is requested but unavailable for this lane width.
    pub fn force_expand_path(&mut self, path: ExpandPath) {
        if path == ExpandPath::Hardware {
            let available = match self.m.params.s_vvec {
                4 => select_path::<T, 4>(),
                8 => select_path::<T, 8>(),
                16 => select_path::<T, 16>(),
                _ => unreachable!(),
            };
            assert_eq!(
                available,
                ExpandPath::Hardware,
                "hardware expand unavailable for W={}",
                self.m.params.s_vvec
            );
        }
        self.path = path;
    }

    /// The SIMD code-generation tier the block kernels run under
    /// (detected at construction; see [`cscv_simd::isa`]).
    pub fn tier(&self) -> Tier {
        self.isa.tier()
    }

    pub fn strategy(&self) -> ParallelStrategy {
        self.strategy
    }

    #[inline(always)]
    fn run_one_block<const W: usize, const HW: bool, const S: usize>(
        &self,
        bi: usize,
        x: &[T],
        ytil: &mut [T],
    ) {
        let blk = &self.m.blocks[bi];
        trace_block_pass(&self.m, blk, 1);
        match self.m.variant {
            Variant::Z => run_block_z::<T, W, S>(self.isa, blk, x, ytil),
            Variant::M => run_block_m::<T, W, HW, S>(self.isa, blk, x, ytil),
        }
    }

    /// Record one top-level kernel dispatch plus the call's vector
    /// traffic (`M(x)`/`M(y)` terms of the paper's `M_Rit` model; the
    /// `M(A)` term is tallied per executed block by
    /// [`trace_block_pass`]). No-op in untraced builds.
    #[inline(always)]
    fn trace_dispatch(&self, loaded_elems: usize, stored_elems: usize) {
        if cscv_trace::ENABLED {
            use cscv_trace::counters::{add, Counter};
            add(
                match self.m.variant {
                    Variant::Z => Counter::DispatchZ,
                    Variant::M => Counter::DispatchM,
                },
                1,
            );
            add(Counter::BytesLoaded, (loaded_elems * T::BYTES) as u64);
            add(Counter::BytesStored, (stored_elems * T::BYTES) as u64);
        }
    }

    /// Transpose product `x = Aᵀ y` — the paper's stated future work
    /// ("we will implement CSCV on x = Aᵀy in CT backward projection"),
    /// here realized on the same block structure: gather `ỹ` through the
    /// block map, run the transposed VxG kernels, and accumulate per
    /// column. Threads own whole image *tiles* (the column-disjoint
    /// axis), so no reduction is needed.
    pub fn spmv_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        assert_eq!(y.len(), self.m.n_rows);
        assert_eq!(x.len(), self.m.n_cols);
        self.trace_dispatch(self.m.n_rows, self.m.n_cols);
        dispatch_shape!(self.spmv_transpose_impl(y, x, pool))
    }

    fn spmv_transpose_impl<const W: usize, const HW: bool, const S: usize>(
        &self,
        y: &[T],
        x: &mut [T],
        pool: &ThreadPool,
    ) {
        let n = pool.n_threads();
        let tile_ranges = partition::split_by_prefix(&self.tile_prefix, n);
        let mut ytil_bufs = self.ytil_scratch.take(n, self.m.max_ytil);
        let out = SharedSliceMut::new(x);
        let bufs = SharedSliceMut::new(&mut ytil_bufs[..]);
        let zero_ranges = partition::even_chunks(out.len(), n);
        pool.run(|tid| {
            // SAFETY: disjoint zero ranges (separate dispatch = barrier).
            // AUDIT(index-ok): zero_ranges has one entry per pool thread
            // and tid < n_threads by the dispatch contract.
            unsafe { out.slice_mut(zero_ranges[tid].clone()) }.fill(T::ZERO);
        });
        // The dispatch above fully completed (ack barrier), so the write
        // dispatch below may repartition `out` by tile instead of chunk.
        out.claims_barrier();
        pool.run(|tid| {
            // SAFETY: slot `tid` only.
            let ytil = &mut unsafe { bufs.slice_mut(tid..tid + 1) }[0];
            // SAFETY: threads own whole tiles, and tiles have pairwise
            // disjoint column sets, so sink targets never overlap.
            let mut sink = |c: usize, v: T| unsafe { *out.get_raw(c) += v };
            for ti in tile_ranges[tid].clone() {
                for &bi in &self.tile_blocks[ti] {
                    let blk = &self.m.blocks[bi as usize];
                    trace_block_pass(&self.m, blk, 1);
                    gather(self.isa, blk, y, ytil);
                    match self.m.variant {
                        Variant::Z => run_block_z_t::<T, W, S>(self.isa, blk, ytil, &mut sink),
                        Variant::M => run_block_m_t::<T, W, HW, S>(self.isa, blk, ytil, &mut sink),
                    }
                }
            }
        });
    }

    /// Batched transpose product `X = Aᵀ Y` over `k` column-major
    /// right-hand sides (`y[i·n_rows..]` → `x[i·n_cols..]`): the matrix
    /// stream — and for CSCV-M every mask expansion — is traversed once
    /// per register-tile chunk instead of once per RHS.
    pub fn spmv_transpose_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(y.len(), k * self.m.n_rows);
        assert_eq!(x.len(), k * self.m.n_cols);
        self.trace_dispatch(k * self.m.n_rows, k * self.m.n_cols);
        dispatch_shape!(self.spmv_transpose_multi_impl(y, k, x, pool))
    }

    fn spmv_multi_impl<const W: usize, const HW: bool, const S: usize>(
        &self,
        x: &[T],
        k: usize,
        y: &mut [T],
        pool: &ThreadPool,
    ) {
        let (n_cols, n_rows) = (self.m.n_cols, self.m.n_rows);
        let mut done = 0usize;
        for chunk in partition::batch_chunks(k, batch_widths(W, FORWARD_TILE_LANES)) {
            let xs = &x[done * n_cols..(done + chunk) * n_cols];
            let ys = &mut y[done * n_rows..(done + chunk) * n_rows];
            // The `const` guards repeat the rule at compile time, so
            // tile widths it rules out are never instantiated.
            match chunk {
                8 if const { fits(8, W, FORWARD_TILE_LANES) } => {
                    self.spmm_chunk::<W, HW, S, 8>(xs, ys, pool)
                }
                4 if const { fits(4, W, FORWARD_TILE_LANES) } => {
                    self.spmm_chunk::<W, HW, S, 4>(xs, ys, pool)
                }
                2 if const { fits(2, W, FORWARD_TILE_LANES) } => {
                    self.spmm_chunk::<W, HW, S, 2>(xs, ys, pool)
                }
                1 => self.spmv_impl::<W, HW, S>(xs, ys, pool),
                _ => unreachable!("batch_widths and the guards share `fits`"),
            }
            done += chunk;
        }
    }

    /// One compiled-width chunk of the batched forward product. Threads
    /// own whole view groups (row-disjoint, as in the single-RHS
    /// ViewGroups strategy); each thread's ỹ scratch holds the `K`
    /// interleaved segments.
    fn spmm_chunk<const W: usize, const HW: bool, const S: usize, const K: usize>(
        &self,
        x: &[T],
        y: &mut [T],
        pool: &ThreadPool,
    ) {
        let n = pool.n_threads();
        let (n_cols, n_rows) = (self.m.n_cols, self.m.n_rows);
        let weights: Vec<usize> = self.m.groups.iter().map(|g| g.nnz.max(1)).collect();
        let ranges = partition::split_by_weights(&weights, n);
        let mut ytil_bufs = self.ytil_scratch.take(n, self.m.max_ytil * K);
        let out = SharedSliceMut::new(y);
        let bufs = SharedSliceMut::new(&mut ytil_bufs[..]);
        pool.run(|tid| {
            // SAFETY: slot `tid` only.
            let ytil = &mut unsafe { bufs.slice_mut(tid..tid + 1) }[0];
            for gi in ranges[tid].clone() {
                let info = &self.m.groups[gi];
                let rr = info.row_range.clone();
                for kk in 0..K {
                    // SAFETY: group row ranges are pairwise disjoint, so
                    // each per-RHS copy of them is too.
                    unsafe { out.slice_mut(kk * n_rows + rr.start..kk * n_rows + rr.end) }
                        .fill(T::ZERO);
                }
                for bi in info.block_range.clone() {
                    let blk = &self.m.blocks[bi];
                    trace_block_pass(&self.m, blk, K as u64);
                    match self.m.variant {
                        Variant::Z => {
                            run_block_z_multi::<T, W, S, K>(self.isa, blk, x, n_cols, ytil)
                        }
                        Variant::M => {
                            run_block_m_multi::<T, W, HW, S, K>(self.isa, blk, x, n_cols, ytil)
                        }
                    }
                    // Scatter the K interleaved segments straight into
                    // the K column-major copies of this group's rows.
                    for (slot, &row) in blk.map.iter().enumerate() {
                        if row >= 0 {
                            let base = (slot / W) * W * K + slot % W;
                            for kk in 0..K {
                                // SAFETY: rows of this group belong to
                                // this thread alone (see fill above).
                                unsafe {
                                    // AUDIT(index-ok): ytil holds max_ytil·K slots (CSCV-STATS) and slot < map.len() (CSCV-VXG-BOUNDS).
                                    *out.get_raw(kk * n_rows + row as usize) += ytil[base + kk * W];
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    fn spmv_transpose_multi_impl<const W: usize, const HW: bool, const S: usize>(
        &self,
        y: &[T],
        k: usize,
        x: &mut [T],
        pool: &ThreadPool,
    ) {
        let (n_cols, n_rows) = (self.m.n_cols, self.m.n_rows);
        let mut done = 0usize;
        for chunk in partition::batch_chunks(k, batch_widths(S * W, TRANSPOSE_TILE_LANES)) {
            let ys = &y[done * n_rows..(done + chunk) * n_rows];
            let xs = &mut x[done * n_cols..(done + chunk) * n_cols];
            match chunk {
                8 if const { fits(8, S * W, TRANSPOSE_TILE_LANES) } => {
                    self.spmm_t_chunk::<W, HW, S, 8>(ys, xs, pool)
                }
                4 if const { fits(4, S * W, TRANSPOSE_TILE_LANES) } => {
                    self.spmm_t_chunk::<W, HW, S, 4>(ys, xs, pool)
                }
                2 if const { fits(2, S * W, TRANSPOSE_TILE_LANES) } => {
                    self.spmm_t_chunk::<W, HW, S, 2>(ys, xs, pool)
                }
                1 => self.spmv_transpose_impl::<W, HW, S>(ys, xs, pool),
                _ => unreachable!("batch_widths and the guards share `fits`"),
            }
            done += chunk;
        }
    }

    /// One compiled-width chunk of the batched transpose. Threads own
    /// whole image tiles (column-disjoint); the sink lands each member
    /// column's `K` partial sums in the `K` column-major `x` copies.
    fn spmm_t_chunk<const W: usize, const HW: bool, const S: usize, const K: usize>(
        &self,
        y: &[T],
        x: &mut [T],
        pool: &ThreadPool,
    ) {
        let n = pool.n_threads();
        let (n_cols, n_rows) = (self.m.n_cols, self.m.n_rows);
        let tile_ranges = partition::split_by_prefix(&self.tile_prefix, n);
        let mut ytil_bufs = self.ytil_scratch.take(n, self.m.max_ytil * K);
        let out = SharedSliceMut::new(x);
        let bufs = SharedSliceMut::new(&mut ytil_bufs[..]);
        let zero_ranges = partition::even_chunks(out.len(), n);
        pool.run(|tid| {
            // SAFETY: disjoint zero ranges (separate dispatch = barrier).
            // AUDIT(index-ok): zero_ranges has one entry per pool thread
            // and tid < n_threads by the dispatch contract.
            unsafe { out.slice_mut(zero_ranges[tid].clone()) }.fill(T::ZERO);
        });
        // The dispatch above fully completed (ack barrier), so the write
        // dispatch below may repartition `out` by tile instead of chunk.
        out.claims_barrier();
        pool.run(|tid| {
            // SAFETY: slot `tid` only.
            let ytil = &mut unsafe { bufs.slice_mut(tid..tid + 1) }[0];
            let mut sink = |c: usize, sums: &[T; K]| {
                for (kk, &v) in sums.iter().enumerate() {
                    // SAFETY: threads own whole tiles with pairwise
                    // disjoint column sets — per RHS copy too.
                    unsafe { *out.get_raw(kk * n_cols + c) += v };
                }
            };
            for ti in tile_ranges[tid].clone() {
                for &bi in &self.tile_blocks[ti] {
                    let blk = &self.m.blocks[bi as usize];
                    trace_block_pass(&self.m, blk, K as u64);
                    gather_multi::<T, W, K>(self.isa, blk, y, n_rows, ytil);
                    match self.m.variant {
                        Variant::Z => {
                            run_block_z_t_multi::<T, W, S, K>(self.isa, blk, ytil, &mut sink)
                        }
                        Variant::M => {
                            run_block_m_t_multi::<T, W, HW, S, K>(self.isa, blk, ytil, &mut sink)
                        }
                    }
                }
            }
        });
    }

    fn spmv_impl<const W: usize, const HW: bool, const S: usize>(
        &self,
        x: &[T],
        y: &mut [T],
        pool: &ThreadPool,
    ) {
        let n = pool.n_threads();
        match self.strategy {
            ParallelStrategy::ViewGroups => {
                let weights: Vec<usize> = self.m.groups.iter().map(|g| g.nnz.max(1)).collect();
                let ranges = partition::split_by_weights(&weights, n);
                let mut ytil_bufs = self.ytil_scratch.take(n, self.m.max_ytil);
                let out = SharedSliceMut::new(y);
                let bufs = SharedSliceMut::new(&mut ytil_bufs[..]);
                pool.run(|tid| {
                    // SAFETY: slot `tid` only.
                    let ytil = &mut unsafe { bufs.slice_mut(tid..tid + 1) }[0];
                    for gi in ranges[tid].clone() {
                        // AUDIT(index-ok): gi ranges over 0..groups.len()
                        // (split_by_prefix partitions the group prefix).
                        let info = &self.m.groups[gi];
                        // SAFETY: group row ranges are pairwise disjoint.
                        let dst = unsafe { out.slice_mut(info.row_range.clone()) };
                        dst.fill(T::ZERO);
                        for bi in info.block_range.clone() {
                            self.run_one_block::<W, HW, S>(bi, x, ytil);
                            let start = info.row_range.start;
                            scatter_add(self.isa, &self.m.blocks[bi], ytil, dst, start);
                        }
                    }
                });
            }
            ParallelStrategy::LocalCopies => {
                if n == 1 {
                    let mut ytil_bufs = self.ytil_scratch.take(1, self.m.max_ytil);
                    y.fill(T::ZERO);
                    for bi in 0..self.m.blocks.len() {
                        self.run_one_block::<W, HW, S>(bi, x, &mut ytil_bufs[0]);
                        scatter_add(self.isa, &self.m.blocks[bi], &ytil_bufs[0], y, 0);
                    }
                    return;
                }
                let ranges = partition::split_by_prefix(&self.block_prefix, n);
                let mut ytil_bufs = self.ytil_scratch.take(n, self.m.max_ytil);
                let mut y_bufs = self.y_scratch.take(n, y.len());
                {
                    let ytils = SharedSliceMut::new(&mut ytil_bufs[..]);
                    let ys = SharedSliceMut::new(&mut y_bufs[..]);
                    pool.run(|tid| {
                        // SAFETY: slot `tid` only.
                        let ytil = &mut unsafe { ytils.slice_mut(tid..tid + 1) }[0];
                        // SAFETY: slot `tid` only.
                        let y_local = &mut unsafe { ys.slice_mut(tid..tid + 1) }[0];
                        for bi in ranges[tid].clone() {
                            self.run_one_block::<W, HW, S>(bi, x, ytil);
                            scatter_add(self.isa, &self.m.blocks[bi], ytil, y_local, 0);
                        }
                    });
                }
                reduce_buffers_into(pool, &y_bufs[..n], y);
            }
        }
    }
}

impl<T: Scalar + MaskExpand> SpmvExecutor<T> for CscvExec<T> {
    fn name(&self) -> String {
        self.m.variant.to_string()
    }
    fn n_rows(&self) -> usize {
        self.m.n_rows
    }
    fn n_cols(&self) -> usize {
        self.m.n_cols
    }
    fn nnz_orig(&self) -> usize {
        self.m.stats.nnz_orig
    }
    fn nnz_stored(&self) -> usize {
        // Format-level padding rate: lane slots (identical for Z and M —
        // the paper's R_nnzE is a property of the layout, not storage).
        self.m.stats.lane_slots
    }
    fn matrix_bytes(&self) -> usize {
        self.m.matrix_bytes()
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.m.n_cols);
        assert_eq!(y.len(), self.m.n_rows);
        self.trace_dispatch(self.m.n_cols, self.m.n_rows);
        dispatch_shape!(self.spmv_impl(x, y, pool))
    }

    /// True batched SpMM: one matrix-stream pass per register-tile chunk
    /// (k split into the chunk widths the register budget allows),
    /// view-group partitioned. See the module docs — the batch dimension
    /// rides in the accumulator tile, so matrix (and CSCV-M
    /// mask-expansion) traffic is paid once per chunk rather than once
    /// per RHS.
    fn spmv_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(x.len(), k * self.m.n_cols);
        assert_eq!(y.len(), k * self.m.n_rows);
        self.trace_dispatch(k * self.m.n_cols, k * self.m.n_rows);
        dispatch_shape!(self.spmv_multi_impl(x, k, y, pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::layout::{ImageShape, SinoLayout};
    use crate::params::CscvParams;
    use cscv_sparse::dense::assert_vec_close;
    use cscv_sparse::{Coo, Csc};

    fn ct_like(
        n_views: usize,
        n_bins: usize,
        nx: usize,
        ny: usize,
    ) -> (Csc<f64>, SinoLayout, ImageShape) {
        let layout = SinoLayout { n_views, n_bins };
        let img = ImageShape { nx, ny };
        let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
        for col in 0..img.n_pixels() {
            let (ix, iy) = img.pixel_of_col(col);
            for v in 0..n_views {
                // Sinusoid-ish trajectory.
                let phase = (v as f64 * 0.4 + ix as f64 * 0.3 - iy as f64 * 0.2).sin();
                let base = ((phase + 1.2) * (n_bins as f64 - 4.0) / 2.4) as usize;
                coo.push(layout.row_index(v, base), col, 1.0 + (col % 7) as f64 * 0.1);
                coo.push(layout.row_index(v, base + 1), col, 0.7);
                if (v + col) % 3 == 0 {
                    coo.push(layout.row_index(v, base + 2), col, 0.2);
                }
            }
        }
        (coo.to_csc(), layout, img)
    }

    fn check_all(variant: Variant, strategy: ParallelStrategy) {
        let (csc, layout, img) = ct_like(13, 24, 8, 6);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut y_ref = vec![0.0; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        for params in [
            CscvParams::new(4, 4, 2),
            CscvParams::new(8, 8, 4),
            CscvParams::new(3, 16, 1),
        ] {
            let m = build(&csc, layout, img, params, variant);
            m.validate();
            let exec = CscvExec::with_strategy(m, strategy);
            for threads in [1, 2, 4, 7] {
                let pool = ThreadPool::new(threads);
                let mut y = vec![f64::NAN; csc.n_rows()];
                exec.spmv(&x, &mut y, &pool);
                assert_vec_close(&y, &y_ref, 1e-11);
            }
        }
    }

    #[test]
    fn z_view_groups_matches_reference() {
        check_all(Variant::Z, ParallelStrategy::ViewGroups);
    }

    #[test]
    fn z_local_copies_matches_reference() {
        check_all(Variant::Z, ParallelStrategy::LocalCopies);
    }

    #[test]
    fn m_view_groups_matches_reference() {
        check_all(Variant::M, ParallelStrategy::ViewGroups);
    }

    #[test]
    fn m_local_copies_matches_reference() {
        check_all(Variant::M, ParallelStrategy::LocalCopies);
    }

    #[test]
    fn strategies_agree_exactly() {
        let (csc, layout, img) = ct_like(8, 20, 6, 6);
        let params = CscvParams::new(4, 8, 2);
        let m = build(&csc, layout, img, params, Variant::Z);
        let e1 = CscvExec::with_strategy(m.clone(), ParallelStrategy::ViewGroups);
        let e2 = CscvExec::with_strategy(m, ParallelStrategy::LocalCopies);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| i as f64).collect();
        let pool = ThreadPool::new(3);
        let mut y1 = vec![0.0; csc.n_rows()];
        let mut y2 = vec![0.0; csc.n_rows()];
        e1.spmv(&x, &mut y1, &pool);
        e2.spmv(&x, &mut y2, &pool);
        assert_vec_close(&y1, &y2, 1e-12);
    }

    #[test]
    fn transpose_matches_csc_transpose_reference() {
        let (csc, layout, img) = ct_like(13, 24, 8, 6);
        let y: Vec<f64> = (0..csc.n_rows()).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut x_ref = vec![0.0; csc.n_cols()];
        csc.spmv_transpose_serial(&y, &mut x_ref);
        for variant in [Variant::Z, Variant::M] {
            for params in [
                CscvParams::new(4, 4, 2),
                CscvParams::new(8, 8, 4),
                CscvParams::new(3, 16, 1),
            ] {
                let exec = CscvExec::new(build(&csc, layout, img, params, variant));
                for threads in [1, 2, 5] {
                    let pool = ThreadPool::new(threads);
                    let mut x = vec![f64::NAN; csc.n_cols()];
                    exec.spmv_transpose(&y, &mut x, &pool);
                    assert_vec_close(&x, &x_ref, 1e-11);
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every compiled kernel shape — `S_VxG ∈ VXG_SIZES` × `W ∈ {4, 8,
    /// 16}` × Z/M — forward and transpose, single-RHS and batched at
    /// `k ∈ {1, 2, 4, 8}`: close to the serial CSC reference, and the
    /// same bits on 1, 2 and 5 threads and batched or not (the
    /// accumulation order of an output never depends on either).
    #[test]
    fn every_shape_matches_reference_with_equal_bits_across_threads() {
        let (csc, layout, img) = ct_like(13, 24, 8, 6);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        let x: Vec<f64> = (0..8 * nc).map(|i| (i as f64 * 0.29).sin()).collect();
        let y: Vec<f64> = (0..8 * nr).map(|i| (i as f64 * 0.17).cos()).collect();
        let (mut fwd_ref, mut bwd_ref) = (vec![0.0; 8 * nr], vec![0.0; 8 * nc]);
        for kk in 0..8 {
            csc.spmv_serial(
                &x[kk * nc..(kk + 1) * nc],
                &mut fwd_ref[kk * nr..(kk + 1) * nr],
            );
            csc.spmv_transpose_serial(
                &y[kk * nr..(kk + 1) * nr],
                &mut bwd_ref[kk * nc..(kk + 1) * nc],
            );
        }
        let pools: Vec<ThreadPool> = [1, 2, 5].into_iter().map(ThreadPool::new).collect();
        for s_vxg in VXG_SIZES {
            for w in [4, 8, 16] {
                for variant in [Variant::Z, Variant::M] {
                    let params = CscvParams::new(4, w, s_vxg);
                    let exec = CscvExec::new(build(&csc, layout, img, params, variant));
                    let tag = format!("{variant} {params}");
                    let (mut fwd, mut bwd) = (vec![f64::NAN; 8 * nr], vec![f64::NAN; 8 * nc]);
                    for kk in 0..8 {
                        let (xs, ys) = (&x[kk * nc..(kk + 1) * nc], &y[kk * nr..(kk + 1) * nr]);
                        exec.spmv(xs, &mut fwd[kk * nr..(kk + 1) * nr], &pools[0]);
                        exec.spmv_transpose(ys, &mut bwd[kk * nc..(kk + 1) * nc], &pools[0]);
                    }
                    assert_vec_close(&fwd, &fwd_ref, 1e-11);
                    assert_vec_close(&bwd, &bwd_ref, 1e-11);
                    for pool in &pools {
                        for k in [1usize, 2, 4, 8] {
                            let mut ym = vec![f64::NAN; k * nr];
                            exec.spmv_multi(&x[..k * nc], k, &mut ym, pool);
                            assert_eq!(bits(&ym), bits(&fwd[..k * nr]), "{tag} fwd k={k}");
                            let mut xm = vec![f64::NAN; k * nc];
                            exec.spmv_transpose_multi(&y[..k * nr], k, &mut xm, pool);
                            assert_eq!(bits(&xm), bits(&bwd[..k * nc]), "{tag} bwd k={k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_widths_follow_the_register_budget() {
        // Forward tiles: K·W ≤ 64 lanes.
        assert_eq!(batch_widths(4, FORWARD_TILE_LANES), [8, 4, 2, 1]);
        assert_eq!(batch_widths(8, FORWARD_TILE_LANES), [8, 4, 2, 1]);
        assert_eq!(batch_widths(16, FORWARD_TILE_LANES), [4, 2, 1]);
        // Transpose tiles: S·K·W ≤ 128 lanes, which keeps the default
        // CSCV-M (S = 4, W = 8) and CSCV-Z (S = 2, W = 16) at K = 4.
        assert_eq!(batch_widths(4 * 8, TRANSPOSE_TILE_LANES), [4, 2, 1]);
        assert_eq!(batch_widths(2 * 16, TRANSPOSE_TILE_LANES), [4, 2, 1]);
        assert_eq!(batch_widths(4, TRANSPOSE_TILE_LANES), [8, 4, 2, 1]);
        assert_eq!(batch_widths(16 * 8, TRANSPOSE_TILE_LANES), [1]);
        assert_eq!(batch_widths(16 * 16, TRANSPOSE_TILE_LANES), [1]);
    }

    #[test]
    #[should_panic]
    fn executor_rejects_a_matrix_without_compiled_vxg() {
        let (csc, layout, img) = ct_like(8, 20, 4, 4);
        let mut m = build(&csc, layout, img, CscvParams::new(4, 8, 2), Variant::Z);
        m.params.s_vxg = 3;
        let _ = CscvExec::new(m);
    }

    #[test]
    fn forward_transpose_adjoint_identity() {
        let (csc, layout, img) = ct_like(10, 20, 5, 5);
        let exec = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::M,
        ));
        let pool = ThreadPool::new(2);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i % 9) as f64 - 4.0).collect();
        let y: Vec<f64> = (0..csc.n_rows()).map(|i| (i % 5) as f64 * 0.3).collect();
        let mut ax = vec![0.0; csc.n_rows()];
        exec.spmv(&x, &mut ax, &pool);
        let mut aty = vec![0.0; csc.n_cols()];
        exec.spmv_transpose(&y, &mut aty, &pool);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-12);
    }

    #[test]
    fn spmv_multi_matches_k_independent_spmvs() {
        let (csc, layout, img) = ct_like(13, 24, 8, 6);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        for variant in [Variant::Z, Variant::M] {
            for params in [CscvParams::new(4, 4, 2), CscvParams::new(8, 8, 4)] {
                let exec = CscvExec::new(build(&csc, layout, img, params, variant));
                // Odd k exercises the {8,4,2,1} chunk decomposition.
                for k in [1usize, 3, 5, 8, 11] {
                    let x: Vec<f64> = (0..k * nc).map(|i| (i as f64 * 0.13).sin()).collect();
                    for threads in [1, 3] {
                        let pool = ThreadPool::new(threads);
                        let mut y_multi = vec![f64::NAN; k * nr];
                        exec.spmv_multi(&x, k, &mut y_multi, &pool);
                        for kk in 0..k {
                            let mut y_one = vec![f64::NAN; nr];
                            exec.spmv(&x[kk * nc..(kk + 1) * nc], &mut y_one, &pool);
                            assert_vec_close(&y_multi[kk * nr..(kk + 1) * nr], &y_one, 1e-12);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spmv_transpose_multi_matches_k_independent_transposes() {
        let (csc, layout, img) = ct_like(13, 24, 8, 6);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        for variant in [Variant::Z, Variant::M] {
            let exec = CscvExec::new(build(&csc, layout, img, CscvParams::new(4, 8, 2), variant));
            for k in [1usize, 3, 4, 7] {
                let y: Vec<f64> = (0..k * nr).map(|i| (i as f64 * 0.07).cos()).collect();
                for threads in [1, 4] {
                    let pool = ThreadPool::new(threads);
                    let mut x_multi = vec![f64::NAN; k * nc];
                    exec.spmv_transpose_multi(&y, k, &mut x_multi, &pool);
                    for kk in 0..k {
                        let mut x_one = vec![f64::NAN; nc];
                        exec.spmv_transpose(&y[kk * nr..(kk + 1) * nr], &mut x_one, &pool);
                        assert_vec_close(&x_multi[kk * nc..(kk + 1) * nc], &x_one, 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn batched_adjoint_identity_per_column() {
        // ⟨A·X, Y⟩ = ⟨X, Aᵀ·Y⟩ must hold column by column of the batch.
        let (csc, layout, img) = ct_like(10, 20, 5, 5);
        let (nc, nr) = (csc.n_cols(), csc.n_rows());
        let exec = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::M,
        ));
        let pool = ThreadPool::new(2);
        let k = 5;
        let x: Vec<f64> = (0..k * nc).map(|i| (i % 9) as f64 - 4.0).collect();
        let y: Vec<f64> = (0..k * nr).map(|i| (i % 5) as f64 * 0.3).collect();
        let mut ax = vec![0.0; k * nr];
        exec.spmv_multi(&x, k, &mut ax, &pool);
        let mut aty = vec![0.0; k * nc];
        exec.spmv_transpose_multi(&y, k, &mut aty, &pool);
        for kk in 0..k {
            let lhs: f64 = ax[kk * nr..(kk + 1) * nr]
                .iter()
                .zip(&y[kk * nr..(kk + 1) * nr])
                .map(|(a, b)| a * b)
                .sum();
            let rhs: f64 = x[kk * nc..(kk + 1) * nc]
                .iter()
                .zip(&aty[kk * nc..(kk + 1) * nc])
                .map(|(a, b)| a * b)
                .sum();
            assert!(
                (lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-12,
                "batch column {kk}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn metadata_and_names() {
        let (csc, layout, img) = ct_like(8, 20, 4, 4);
        let nnz = csc.nnz();
        let z = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::Z,
        ));
        let m = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(4, 8, 2),
            Variant::M,
        ));
        assert_eq!(z.name(), "CSCV-Z");
        assert_eq!(m.name(), "CSCV-M");
        assert_eq!(m.tier(), Isa::detect().tier());
        if m.expand_path() == ExpandPath::Hardware {
            assert_eq!(m.tier(), Tier::Avx512, "vexpand runs only under AVX-512");
        }
        assert_eq!(z.nnz_orig(), nnz);
        assert_eq!(z.nnz_stored(), m.nnz_stored(), "R_nnzE is format-level");
        assert!(z.r_nnze() > 0.0);
        // M stores fewer value bytes than Z (padding removed).
        assert!(m.matrix_bytes() < z.matrix_bytes());
    }

    #[test]
    fn f32_also_exact_within_tolerance() {
        let layout = SinoLayout {
            n_views: 8,
            n_bins: 16,
        };
        let img = ImageShape { nx: 4, ny: 4 };
        let mut coo: Coo<f32> = Coo::new(layout.n_rows(), 16);
        for col in 0..16 {
            for v in 0..8 {
                coo.push(
                    layout.row_index(v, (v + col) % 15),
                    col,
                    0.25 + col as f32 * 0.01,
                );
            }
        }
        let csc = coo.to_csc();
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        let mut y_ref = vec![0.0f32; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        for variant in [Variant::Z, Variant::M] {
            let exec = CscvExec::new(build(&csc, layout, img, CscvParams::new(2, 8, 2), variant));
            let pool = ThreadPool::new(2);
            let mut y = vec![f32::NAN; csc.n_rows()];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-5);
        }
    }
}
