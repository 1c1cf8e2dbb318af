//! The fully vectorized CSCV SpMV block kernels (paper Alg. 3).
//!
//! Per block: zero the reordered accumulator `ỹ`, stream the VxGs — for
//! every curve offset, load `W` accumulator lanes once, apply `S_VxG`
//! FMA lane blocks, store once — then scatter-add `ỹ` into `y` through
//! the block's map. No gathers or scatters appear inside the loops; the
//! lane bodies are plain `[T; W]` arithmetic the compiler vectorizes.
//!
//! CSCV-M differs only in decompressing each lane block first (hardware
//! `vexpand` or `soft-vexpand`, chosen once per matrix).
//!
//! Each public kernel is an [`isa_dispatch!`] wrapper: it takes the
//! executor's detected [`Isa`](cscv_simd::Isa) and runs the
//! `#[inline(always)]` `*_body` function beside it inside that tier's
//! `#[target_feature]` shim, where the lane FMAs become packed `vfmadd`
//! and `vexpand` inlines. Every tier returns bit-identical results
//! (`tier_equality` tests).

use crate::format::Block;
use cscv_simd::expand::expand_soft;
use cscv_simd::isa_dispatch;
use cscv_simd::lanes::{fma_lanes, fma_tile, hsum, load_lanes, load_tile, store_lanes, store_tile};
use cscv_simd::{MaskExpand, Scalar};

/// Upper bound on `S_VxG` (x-value gather buffer size).
pub const MAX_VXG: usize = 32;

/// Borrow a `W`-lane block from the value stream without a bounds check
/// in the hot loop (checked in debug builds).
#[inline(always)]
fn lane_block<T: Scalar, const W: usize>(vals: &[T], p: usize) -> &[T; W] {
    debug_assert!(p + W <= vals.len());
    // SAFETY: builder guarantees the stream is whole lane blocks; the
    // debug assert validates in tests.
    unsafe { &*(vals.as_ptr().add(p) as *const [T; W]) }
}

isa_dispatch! {
    /// CSCV-Z block kernel: `ỹ += x ⊗ block` with padding zeros kept.
    /// `ytil` must hold at least `blk.ytil_len()` elements; it is zeroed here.
    pub fn run_block_z<T: Scalar, const W: usize>(
        blk: &Block<T>,
        s_vxg: usize,
        x: &[T],
        ytil: &mut [T],
    ) => run_block_z_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_z_body<T: Scalar, const W: usize>(
    blk: &Block<T>,
    s_vxg: usize,
    x: &[T],
    ytil: &mut [T],
) {
    let ytil = &mut ytil[..blk.ytil_len()];
    ytil.fill(T::ZERO);
    let vals = blk.vals.as_slice();
    let mut xs = [T::ZERO; MAX_VXG];
    for i in 0..blk.n_vxgs() {
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        for (s, &c) in cols.iter().enumerate() {
            xs[s] = x[c as usize];
        }
        let mut p = blk.val_ptr[i] as usize;
        for ci in 0..count {
            let at = q + ci * W;
            let mut acc: [T; W] = load_lanes(ytil, at);
            for &xv in &xs[..s_vxg] {
                fma_lanes(&mut acc, xv, lane_block::<T, W>(vals, p));
                p += W;
            }
            store_lanes(ytil, at, acc);
        }
    }
}

/// Read one occupancy mask (1 byte for `W ≤ 8`, 2 bytes LE for `W = 16`).
#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
fn read_mask<const W: usize>(masks: &[u8], mi: usize) -> u32 {
    if W > 8 {
        // Two-byte masks straddle the stream tail when the last lane
        // block's mask is read: `mi + 1` must still be in bounds. The
        // builder sizes the stream as n_lane_blocks · ceil(W/8) bytes,
        // so this only fires on a corrupted or truncated stream.
        debug_assert!(
            mi + 1 < masks.len(),
            "mask stream truncated: 2-byte mask at byte {mi} needs {} bytes, stream has {}",
            mi + 2,
            masks.len()
        );
        masks[mi] as u32 | ((masks[mi + 1] as u32) << 8)
    } else {
        debug_assert!(
            mi < masks.len(),
            "mask stream truncated: mask at byte {mi}, stream has {}",
            masks.len()
        );
        masks[mi] as u32
    }
}

isa_dispatch! {
    /// CSCV-M block kernel: padding zeros removed; each lane block is
    /// re-inflated by mask expansion before the FMA. `HW` selects the
    /// hardware `vexpand` path (caller verified availability).
    pub fn run_block_m<T: Scalar + MaskExpand, const W: usize, const HW: bool>(
        blk: &Block<T>,
        s_vxg: usize,
        x: &[T],
        ytil: &mut [T],
    ) => run_block_m_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_m_body<T: Scalar + MaskExpand, const W: usize, const HW: bool>(
    blk: &Block<T>,
    s_vxg: usize,
    x: &[T],
    ytil: &mut [T],
) {
    let mask_bytes = W.div_ceil(8);
    let ytil = &mut ytil[..blk.ytil_len()];
    ytil.fill(T::ZERO);
    let vals = blk.vals.as_slice();
    let masks = blk.masks.as_slice();
    let mut xs = [T::ZERO; MAX_VXG];
    let mut p = 0usize;
    let mut mi = 0usize;
    for i in 0..blk.n_vxgs() {
        debug_assert_eq!(p, blk.val_ptr[i] as usize);
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        for (s, &c) in cols.iter().enumerate() {
            xs[s] = x[c as usize];
        }
        for ci in 0..count {
            let at = q + ci * W;
            let mut acc: [T; W] = load_lanes(ytil, at);
            for &xv in &xs[..s_vxg] {
                let mask = read_mask::<W>(masks, mi);
                mi += mask_bytes;
                let lanes: [T; W] = if HW {
                    debug_assert!(vals.len() >= p + mask.count_ones() as usize);
                    // SAFETY: caller verified hardware availability; the
                    // stream holds popcount(mask) values at p by build.
                    unsafe { T::expand_hw::<W>(mask, vals.as_ptr().add(p)) }
                } else {
                    expand_soft::<T, W>(mask, &vals[p..])
                };
                p += mask.count_ones() as usize;
                fma_lanes(&mut acc, xv, &lanes);
            }
            store_lanes(ytil, at, acc);
        }
    }
    debug_assert_eq!(p, vals.len());
}

isa_dispatch! {
    /// Scatter-add a computed `ỹ` into an output slice whose index 0
    /// corresponds to global row `row_offset` (paper Alg. 3 line 11, the
    /// inverse mapping `ι_k⁻¹`).
    pub fn scatter_add<T: Scalar>(
        blk: &Block<T>,
        ytil: &[T],
        dst: &mut [T],
        row_offset: usize,
    ) => scatter_add_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn scatter_add_body<T: Scalar>(
    blk: &Block<T>,
    ytil: &[T],
    dst: &mut [T],
    row_offset: usize,
) {
    for (slot, &row) in blk.map.iter().enumerate() {
        if row >= 0 {
            let at = row as usize - row_offset;
            dst[at] += ytil[slot];
        }
    }
}

isa_dispatch! {
    /// Gather the block's `ỹ` view of a global `y` (forward mapping `ι_k`;
    /// invalid slots read as zero). The transpose kernels' prologue.
    pub fn gather<T: Scalar>(blk: &Block<T>, y: &[T], ytil: &mut [T]) => gather_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn gather_body<T: Scalar>(blk: &Block<T>, y: &[T], ytil: &mut [T]) {
    let ytil = &mut ytil[..blk.ytil_len()];
    for (slot, &row) in blk.map.iter().enumerate() {
        ytil[slot] = if row >= 0 { y[row as usize] } else { T::ZERO };
    }
}

isa_dispatch! {
    /// Transpose CSCV-Z block kernel: `x[cols] += blockᵀ · ỹ` (the paper's
    /// future-work `x = Aᵀy` back-projection, here implemented). `ytil` must
    /// already hold the gathered `ỹ` (see [`gather`]); per member column the
    /// kernel accumulates a `W`-lane dot product, horizontally summed once.
    pub fn run_block_z_t<T: Scalar, const W: usize>(
        blk: &Block<T>,
        s_vxg: usize,
        ytil: &[T],
        sink: &mut impl FnMut(usize, T),
    ) => run_block_z_t_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_z_t_body<T: Scalar, const W: usize>(
    blk: &Block<T>,
    s_vxg: usize,
    ytil: &[T],
    sink: &mut impl FnMut(usize, T),
) {
    let vals = blk.vals.as_slice();
    for i in 0..blk.n_vxgs() {
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        let mut accs = [[T::ZERO; W]; MAX_VXG];
        let mut p = blk.val_ptr[i] as usize;
        for ci in 0..count {
            let yt: [T; W] = load_lanes(ytil, q + ci * W);
            for acc in accs.iter_mut().take(s_vxg) {
                let v = lane_block::<T, W>(vals, p);
                for l in 0..W {
                    acc[l] = v[l].mul_add(yt[l], acc[l]);
                }
                p += W;
            }
        }
        for (s, &c) in cols.iter().enumerate() {
            // Padded members repeat a real column with all-zero values,
            // so the unconditional add is safe.
            sink(c as usize, cscv_simd::lanes::hsum(&accs[s]));
        }
    }
}

isa_dispatch! {
    /// Transpose CSCV-M block kernel (mask-expanded values).
    pub fn run_block_m_t<T: Scalar + MaskExpand, const W: usize, const HW: bool>(
        blk: &Block<T>,
        s_vxg: usize,
        ytil: &[T],
        sink: &mut impl FnMut(usize, T),
    ) => run_block_m_t_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_m_t_body<T: Scalar + MaskExpand, const W: usize, const HW: bool>(
    blk: &Block<T>,
    s_vxg: usize,
    ytil: &[T],
    sink: &mut impl FnMut(usize, T),
) {
    let mask_bytes = W.div_ceil(8);
    let vals = blk.vals.as_slice();
    let masks = blk.masks.as_slice();
    let mut p = 0usize;
    let mut mi = 0usize;
    for i in 0..blk.n_vxgs() {
        debug_assert_eq!(p, blk.val_ptr[i] as usize);
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        let mut accs = [[T::ZERO; W]; MAX_VXG];
        for ci in 0..count {
            let yt: [T; W] = load_lanes(ytil, q + ci * W);
            for acc in accs.iter_mut().take(s_vxg) {
                let mask = read_mask::<W>(masks, mi);
                mi += mask_bytes;
                let lanes: [T; W] = if HW {
                    debug_assert!(vals.len() >= p + mask.count_ones() as usize);
                    // SAFETY: caller verified hardware availability; the
                    // stream holds popcount(mask) values at p by build.
                    unsafe { T::expand_hw::<W>(mask, vals.as_ptr().add(p)) }
                } else {
                    expand_soft::<T, W>(mask, &vals[p..])
                };
                p += mask.count_ones() as usize;
                for l in 0..W {
                    acc[l] = lanes[l].mul_add(yt[l], acc[l]);
                }
            }
        }
        for (s, &c) in cols.iter().enumerate() {
            sink(c as usize, cscv_simd::lanes::hsum(&accs[s]));
        }
    }
    debug_assert_eq!(p, vals.len());
}

// ---------------------------------------------------------------------
// Batched multi-RHS (SpMM) kernels.
//
// The batch dimension `K` is a const generic so each RHS gets its own
// register accumulator block; the matrix value stream (and, for CSCV-M,
// each mask expansion) is read ONCE per lane block and reused `K` times.
// The multi-RHS ỹ is interleaved by lane block: the single-RHS slot
// position `at` becomes base `at·K`, with RHS `k`'s `W` lanes at
// `at·K + k·W`, so the K accumulator tiles of one curve offset are
// contiguous in memory.
//
// RHS vectors are packed column-major: RHS `k` occupies
// `x[k·n_cols .. (k+1)·n_cols]` and `y[k·n_rows .. (k+1)·n_rows]`.
// ---------------------------------------------------------------------

/// Gather the `K` `x`-scalars of one member column into a tile row.
#[inline(always)]
fn gather_xs<T: Scalar, const K: usize>(x: &[T], n_cols: usize, c: usize) -> [T; K] {
    std::array::from_fn(|k| x[k * n_cols + c])
}

isa_dispatch! {
    /// Batched CSCV-Z block kernel: `ỹ_k += x_k ⊗ block` for `K` right-hand
    /// sides in one pass over the value stream. `x` holds `K` column-major
    /// RHS vectors of length `n_cols`; `ytil` must hold at least
    /// `K · blk.ytil_len()` elements (interleaved layout) and is zeroed here.
    pub fn run_block_z_multi<T: Scalar, const W: usize, const K: usize>(
        blk: &Block<T>,
        s_vxg: usize,
        x: &[T],
        n_cols: usize,
        ytil: &mut [T],
    ) => run_block_z_multi_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_z_multi_body<T: Scalar, const W: usize, const K: usize>(
    blk: &Block<T>,
    s_vxg: usize,
    x: &[T],
    n_cols: usize,
    ytil: &mut [T],
) {
    let ytil = &mut ytil[..blk.ytil_len() * K];
    ytil.fill(T::ZERO);
    let vals = blk.vals.as_slice();
    let mut xs = [[T::ZERO; K]; MAX_VXG];
    for i in 0..blk.n_vxgs() {
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        for (s, &c) in cols.iter().enumerate() {
            xs[s] = gather_xs::<T, K>(x, n_cols, c as usize);
        }
        let mut p = blk.val_ptr[i] as usize;
        for ci in 0..count {
            let at = (q + ci * W) * K;
            let mut accs: [[T; W]; K] = load_tile(ytil, at);
            for xk in &xs[..s_vxg] {
                fma_tile(&mut accs, xk, lane_block::<T, W>(vals, p));
                p += W;
            }
            store_tile(ytil, at, &accs);
        }
    }
}

isa_dispatch! {
    /// Batched CSCV-M block kernel: each lane block is mask-expanded ONCE
    /// and folded into all `K` accumulators — the decompression cost is
    /// amortized across the batch exactly like the value-stream traffic.
    pub fn run_block_m_multi<
        T: Scalar + MaskExpand,
        const W: usize,
        const HW: bool,
        const K: usize,
    >(
        blk: &Block<T>,
        s_vxg: usize,
        x: &[T],
        n_cols: usize,
        ytil: &mut [T],
    ) => run_block_m_multi_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_m_multi_body<
    T: Scalar + MaskExpand,
    const W: usize,
    const HW: bool,
    const K: usize,
>(
    blk: &Block<T>,
    s_vxg: usize,
    x: &[T],
    n_cols: usize,
    ytil: &mut [T],
) {
    let mask_bytes = W.div_ceil(8);
    let ytil = &mut ytil[..blk.ytil_len() * K];
    ytil.fill(T::ZERO);
    let vals = blk.vals.as_slice();
    let masks = blk.masks.as_slice();
    let mut xs = [[T::ZERO; K]; MAX_VXG];
    let mut p = 0usize;
    let mut mi = 0usize;
    for i in 0..blk.n_vxgs() {
        debug_assert_eq!(p, blk.val_ptr[i] as usize);
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        for (s, &c) in cols.iter().enumerate() {
            xs[s] = gather_xs::<T, K>(x, n_cols, c as usize);
        }
        for ci in 0..count {
            let at = (q + ci * W) * K;
            let mut accs: [[T; W]; K] = load_tile(ytil, at);
            for xk in &xs[..s_vxg] {
                let mask = read_mask::<W>(masks, mi);
                mi += mask_bytes;
                let lanes: [T; W] = if HW {
                    debug_assert!(vals.len() >= p + mask.count_ones() as usize);
                    // SAFETY: caller verified hardware availability; the
                    // stream holds popcount(mask) values at p by build.
                    unsafe { T::expand_hw::<W>(mask, vals.as_ptr().add(p)) }
                } else {
                    expand_soft::<T, W>(mask, &vals[p..])
                };
                p += mask.count_ones() as usize;
                fma_tile(&mut accs, xk, &lanes);
            }
            store_tile(ytil, at, &accs);
        }
    }
    debug_assert_eq!(p, vals.len());
}

isa_dispatch! {
    /// Scatter-add a batched interleaved `ỹ` into `K` output segments.
    /// `dst` holds `K` column-major segments of `seg_len` rows each (RHS `k`
    /// at `dst[k·seg_len ..]`); segment index 0 is global row `row_offset`.
    pub fn scatter_add_multi<T: Scalar, const W: usize, const K: usize>(
        blk: &Block<T>,
        ytil: &[T],
        dst: &mut [T],
        seg_len: usize,
        row_offset: usize,
    ) => scatter_add_multi_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn scatter_add_multi_body<T: Scalar, const W: usize, const K: usize>(
    blk: &Block<T>,
    ytil: &[T],
    dst: &mut [T],
    seg_len: usize,
    row_offset: usize,
) {
    for (slot, &row) in blk.map.iter().enumerate() {
        if row >= 0 {
            let at = row as usize - row_offset;
            let base = (slot / W) * W * K + slot % W;
            for k in 0..K {
                dst[k * seg_len + at] += ytil[base + k * W];
            }
        }
    }
}

isa_dispatch! {
    /// Gather the block's batched `ỹ` view of `K` column-major `y` segments
    /// of `n_rows` each (invalid slots read as zero). Prologue of the
    /// batched transpose kernels.
    pub fn gather_multi<T: Scalar, const W: usize, const K: usize>(
        blk: &Block<T>,
        y: &[T],
        n_rows: usize,
        ytil: &mut [T],
    ) => gather_multi_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn gather_multi_body<T: Scalar, const W: usize, const K: usize>(
    blk: &Block<T>,
    y: &[T],
    n_rows: usize,
    ytil: &mut [T],
) {
    let ytil = &mut ytil[..blk.ytil_len() * K];
    for (slot, &row) in blk.map.iter().enumerate() {
        let base = (slot / W) * W * K + slot % W;
        for k in 0..K {
            ytil[base + k * W] = if row >= 0 {
                y[k * n_rows + row as usize]
            } else {
                T::ZERO
            };
        }
    }
}

isa_dispatch! {
    /// Batched transpose CSCV-Z kernel: `x_k[cols] += blockᵀ · ỹ_k` for all
    /// `K` right-hand sides in one value-stream pass. `ytil` must hold the
    /// interleaved gathered batch (see [`gather_multi`]); per member column
    /// the sink receives the `K` horizontal sums at once.
    pub fn run_block_z_t_multi<T: Scalar, const W: usize, const K: usize>(
        blk: &Block<T>,
        s_vxg: usize,
        ytil: &[T],
        sink: &mut impl FnMut(usize, &[T; K]),
    ) => run_block_z_t_multi_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_z_t_multi_body<T: Scalar, const W: usize, const K: usize>(
    blk: &Block<T>,
    s_vxg: usize,
    ytil: &[T],
    sink: &mut impl FnMut(usize, &[T; K]),
) {
    let vals = blk.vals.as_slice();
    for i in 0..blk.n_vxgs() {
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        let mut accs = [[[T::ZERO; W]; K]; MAX_VXG];
        let mut p = blk.val_ptr[i] as usize;
        for ci in 0..count {
            let yt: [[T; W]; K] = load_tile(ytil, (q + ci * W) * K);
            for acc in accs.iter_mut().take(s_vxg) {
                let v = lane_block::<T, W>(vals, p);
                for k in 0..K {
                    for l in 0..W {
                        acc[k][l] = v[l].mul_add(yt[k][l], acc[k][l]);
                    }
                }
                p += W;
            }
        }
        for (s, &c) in cols.iter().enumerate() {
            // Padded members repeat a real column with all-zero values,
            // so the unconditional add is safe.
            let sums: [T; K] = std::array::from_fn(|k| hsum(&accs[s][k]));
            sink(c as usize, &sums);
        }
    }
}

isa_dispatch! {
    /// Batched transpose CSCV-M kernel (each mask expansion shared by all
    /// `K` right-hand sides).
    pub fn run_block_m_t_multi<
        T: Scalar + MaskExpand,
        const W: usize,
        const HW: bool,
        const K: usize,
    >(
        blk: &Block<T>,
        s_vxg: usize,
        ytil: &[T],
        sink: &mut impl FnMut(usize, &[T; K]),
    ) => run_block_m_t_multi_body;
}

#[inline(always)]
// AUDIT(panic-ok): checked indexing is the bounds guard here — block tables are validated at construction (CSCV-BOUNDS), so a panic is a builder bug, never input-dependent.
pub(crate) fn run_block_m_t_multi_body<
    T: Scalar + MaskExpand,
    const W: usize,
    const HW: bool,
    const K: usize,
>(
    blk: &Block<T>,
    s_vxg: usize,
    ytil: &[T],
    sink: &mut impl FnMut(usize, &[T; K]),
) {
    let mask_bytes = W.div_ceil(8);
    let vals = blk.vals.as_slice();
    let masks = blk.masks.as_slice();
    let mut p = 0usize;
    let mut mi = 0usize;
    for i in 0..blk.n_vxgs() {
        debug_assert_eq!(p, blk.val_ptr[i] as usize);
        let q = blk.vxg_q[i] as usize;
        let count = blk.vxg_count[i] as usize;
        let cols = &blk.cols[i * s_vxg..(i + 1) * s_vxg];
        let mut accs = [[[T::ZERO; W]; K]; MAX_VXG];
        for ci in 0..count {
            let yt: [[T; W]; K] = load_tile(ytil, (q + ci * W) * K);
            for acc in accs.iter_mut().take(s_vxg) {
                let mask = read_mask::<W>(masks, mi);
                mi += mask_bytes;
                let lanes: [T; W] = if HW {
                    debug_assert!(vals.len() >= p + mask.count_ones() as usize);
                    // SAFETY: caller verified hardware availability; the
                    // stream holds popcount(mask) values at p by build.
                    unsafe { T::expand_hw::<W>(mask, vals.as_ptr().add(p)) }
                } else {
                    expand_soft::<T, W>(mask, &vals[p..])
                };
                p += mask.count_ones() as usize;
                for k in 0..K {
                    for l in 0..W {
                        acc[k][l] = lanes[l].mul_add(yt[k][l], acc[k][l]);
                    }
                }
            }
        }
        for (s, &c) in cols.iter().enumerate() {
            let sums: [T; K] = std::array::from_fn(|k| hsum(&accs[s][k]));
            sink(c as usize, &sums);
        }
    }
    debug_assert_eq!(p, vals.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_simd::Isa;

    fn isa() -> Isa {
        Isa::detect()
    }

    /// Hand-built miniature block: W = 4, S_VxG = 2, one VxG covering two
    /// offsets, columns 3 and 5.
    fn tiny_block_z() -> Block<f64> {
        // ỹ has 2 offsets × 4 lanes = 8 slots mapping to rows 0..8.
        Block {
            group: 0,
            tile: 0,
            map: (0..8).collect(),
            vxg_q: vec![0],
            vxg_count: vec![2],
            cols: vec![3, 5],
            val_ptr: vec![0, 16],
            // offset 0: col3 lanes [1,2,3,4], col5 lanes [5,6,7,8]
            // offset 1: col3 lanes [0,0,1,0], col5 lanes [2,0,0,0]
            vals: vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, //
                0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0,
            ],
            masks: vec![],
            nnz: 10,
            lane_slots: 16,
        }
    }

    #[test]
    fn z_kernel_computes_expected() {
        let blk = tiny_block_z();
        let mut x = vec![0.0f64; 8];
        x[3] = 2.0;
        x[5] = 10.0;
        let mut ytil = vec![f64::NAN; 8];
        run_block_z::<f64, 4>(isa(), &blk, 2, &x, &mut ytil);
        // offset 0: 2*[1,2,3,4] + 10*[5,6,7,8] = [52,64,76,88]
        assert_eq!(&ytil[..4], &[52.0, 64.0, 76.0, 88.0]);
        // offset 1: 2*[0,0,1,0] + 10*[2,0,0,0] = [20,0,2,0]
        assert_eq!(&ytil[4..], &[20.0, 0.0, 2.0, 0.0]);
    }

    fn tiny_block_m() -> Block<f64> {
        // Same matrix as tiny_block_z with padding stripped.
        Block {
            group: 0,
            tile: 0,
            map: (0..8).collect(),
            vxg_q: vec![0],
            vxg_count: vec![2],
            cols: vec![3, 5],
            val_ptr: vec![0, 10],
            vals: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1.0, 2.0],
            // masks: full, full, 0b0100, 0b0001
            masks: vec![0b1111, 0b1111, 0b0100, 0b0001],
            nnz: 10,
            lane_slots: 16,
        }
    }

    #[test]
    fn m_kernel_matches_z_kernel() {
        let z = tiny_block_z();
        let m = tiny_block_m();
        let mut x = vec![0.0f64; 8];
        x[3] = -1.5;
        x[5] = 0.25;
        let mut yz = vec![0.0; 8];
        let mut ym = vec![0.0; 8];
        run_block_z::<f64, 4>(isa(), &z, 2, &x, &mut yz);
        run_block_m::<f64, 4, false>(isa(), &m, 2, &x, &mut ym);
        assert_eq!(yz, ym);
        if <f64 as MaskExpand>::hw_available::<4>() {
            let mut yh = vec![0.0; 8];
            run_block_m::<f64, 4, true>(isa(), &m, 2, &x, &mut yh);
            assert_eq!(yz, yh);
        }
    }

    #[test]
    fn scatter_respects_map_and_offset() {
        let mut blk = tiny_block_z();
        blk.map = vec![4, -1, 5, -1, 6, -1, 7, -1];
        let ytil: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let mut dst = vec![10.0; 4]; // rows 4..8
        scatter_add(isa(), &blk, &ytil, &mut dst, 4);
        assert_eq!(dst, vec![11.0, 13.0, 15.0, 17.0]);
    }

    #[test]
    fn transpose_kernels_match_explicit_transpose() {
        // Forward: y = B x over the tiny block; transpose must satisfy
        // <Bx, y> = <x, Bᵀy> and the explicit element-wise transpose.
        let z = tiny_block_z();
        let m = tiny_block_m();
        let y: Vec<f64> = (1..=8).map(|i| i as f64 * 0.5).collect();
        // Gather is identity here (map = 0..8).
        let mut ytil = vec![0.0; 8];
        gather(isa(), &z, &y, &mut ytil);
        assert_eq!(ytil, y);

        // Explicit transpose from the dense image of the block:
        // offset 0 rows 0..4, offset 1 rows 4..8; col 3 then col 5.
        let dense_cols: [(usize, [f64; 8]); 2] = [
            (3, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 1.0, 0.0]),
            (5, [5.0, 6.0, 7.0, 8.0, 2.0, 0.0, 0.0, 0.0]),
        ];
        let mut x_ref = vec![0.0; 8];
        for (c, col) in dense_cols {
            x_ref[c] = col.iter().zip(&y).map(|(a, b)| a * b).sum();
        }

        let mut xz = vec![0.0; 8];
        run_block_z_t::<f64, 4>(isa(), &z, 2, &ytil, &mut |c, v| xz[c] += v);
        assert_eq!(xz, x_ref);
        let mut xm = vec![0.0; 8];
        run_block_m_t::<f64, 4, false>(isa(), &m, 2, &ytil, &mut |c, v| xm[c] += v);
        assert_eq!(xm, x_ref);
        if <f64 as MaskExpand>::hw_available::<4>() {
            let mut xh = vec![0.0; 8];
            run_block_m_t::<f64, 4, true>(isa(), &m, 2, &ytil, &mut |c, v| xh[c] += v);
            assert_eq!(xh, x_ref);
        }
    }

    #[test]
    fn gather_zeroes_invalid_slots() {
        let mut blk = tiny_block_z();
        blk.map = vec![2, -1, 0, -1, 1, -1, 3, -1];
        let y = vec![10.0, 20.0, 30.0, 40.0];
        let mut ytil = vec![f64::NAN; 8];
        gather(isa(), &blk, &y, &mut ytil);
        assert_eq!(ytil, vec![30.0, 0.0, 10.0, 0.0, 20.0, 0.0, 40.0, 0.0]);
    }

    #[test]
    fn mask_reading_two_bytes() {
        let masks = [0xAB, 0x02, 0xFF];
        assert_eq!(read_mask::<16>(&masks, 0), 0x02AB);
        assert_eq!(read_mask::<8>(&masks, 0), 0xAB);
        assert_eq!(read_mask::<4>(&masks, 1), 0x02);
    }

    #[test]
    fn mask_reading_w16_at_stream_tail() {
        // A W=16 stream of exactly two masks: reading the LAST mask
        // touches bytes 2 and 3 — the final bytes of the stream. This
        // is the boundary the read_mask debug assert guards.
        let masks = [0x01, 0x80, 0xFE, 0x7F];
        assert_eq!(read_mask::<16>(&masks, 2), 0x7FFE);
        // Full kernel pass whose final lane block mask ends the stream:
        // W=16, one VxG with one member column and one curve offset.
        let blk = Block::<f64> {
            group: 0,
            tile: 0,
            map: (0..16).collect(),
            vxg_q: vec![0],
            vxg_count: vec![1],
            cols: vec![0],
            val_ptr: vec![0],
            vals: vec![3.0, 7.0],    // lanes 0 and 15 occupied
            masks: vec![0x01, 0x80], // 0x8001 LE — exactly 2 bytes
            nnz: 2,
            lane_slots: 16,
        };
        let x = vec![2.0f64];
        let mut ytil = vec![f64::NAN; 16];
        run_block_m::<f64, 16, false>(isa(), &blk, 1, &x, &mut ytil);
        assert_eq!(ytil[0], 6.0);
        assert_eq!(ytil[15], 14.0);
        assert_eq!(&ytil[1..15], &[0.0; 14]);
    }

    /// The batched kernels against K independent single-RHS runs on the
    /// tiny hand-built blocks, all layouts crossed (Z/M, soft/hw).
    #[test]
    fn multi_kernels_match_k_independent_singles() {
        const K: usize = 3;
        let z = tiny_block_z();
        let m = tiny_block_m();
        let n_cols = 8;
        // K column-major RHS vectors with distinct values.
        let x: Vec<f64> = (0..K * n_cols).map(|i| (i as f64 * 0.7).sin()).collect();

        let mut ytil_multi = vec![f64::NAN; 8 * K];
        run_block_z_multi::<f64, 4, K>(isa(), &z, 2, &x, n_cols, &mut ytil_multi);
        let mut ytil_m_multi = vec![f64::NAN; 8 * K];
        run_block_m_multi::<f64, 4, false, K>(isa(), &m, 2, &x, n_cols, &mut ytil_m_multi);

        for k in 0..K {
            let mut ytil_one = vec![0.0; 8];
            run_block_z::<f64, 4>(
                isa(),
                &z,
                2,
                &x[k * n_cols..(k + 1) * n_cols],
                &mut ytil_one,
            );
            // De-interleave: slot s of RHS k lives at (s/4)*4*K + k*4 + s%4.
            for (s, &one) in ytil_one.iter().enumerate() {
                let at = (s / 4) * 4 * K + k * 4 + s % 4;
                assert_eq!(ytil_multi[at], one, "Z rhs {k} slot {s}");
                assert_eq!(ytil_m_multi[at], one, "M rhs {k} slot {s}");
            }
        }
    }

    #[test]
    fn scatter_and_gather_multi_roundtrip() {
        const K: usize = 2;
        let mut blk = tiny_block_z();
        blk.map = vec![4, -1, 5, -1, 6, -1, 7, -1];
        // Interleaved ỹ: lane block 0 → slots 0..4, lane block 1 → 4..8.
        let mut ytil = vec![0.0f64; 8 * K];
        for s in 0..8 {
            for k in 0..K {
                ytil[(s / 4) * 4 * K + k * 4 + s % 4] = (s * 10 + k) as f64;
            }
        }
        // Scatter into K segments of rows 4..8 (seg_len 4, offset 4).
        let mut dst = vec![100.0f64; 4 * K];
        scatter_add_multi::<f64, 4, K>(isa(), &blk, &ytil, &mut dst, 4, 4);
        assert_eq!(
            dst,
            vec![
                100.0, 120.0, 140.0, 160.0, // rhs 0: slots 0,2,4,6
                101.0, 121.0, 141.0, 161.0, // rhs 1
            ]
        );

        // Gather back from a K-segment y (n_rows = 8).
        let mut y = vec![0.0f64; 8 * K];
        y[4..8].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        y[12..16].copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        let mut gt = vec![f64::NAN; 8 * K];
        gather_multi::<f64, 4, K>(isa(), &blk, &y, 8, &mut gt);
        for s in 0..8 {
            for k in 0..K {
                let at = (s / 4) * 4 * K + k * 4 + s % 4;
                let expect = if s % 2 == 0 {
                    (k * 4 + s / 2 + 1) as f64
                } else {
                    0.0
                };
                assert_eq!(gt[at], expect, "slot {s} rhs {k}");
            }
        }
    }

    #[test]
    fn transpose_multi_matches_k_independent_singles() {
        const K: usize = 3;
        let z = tiny_block_z();
        let m = tiny_block_m();
        let n_rows = 8;
        let y: Vec<f64> = (0..K * n_rows).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let mut ytil = vec![0.0; 8 * K];
        gather_multi::<f64, 4, K>(isa(), &z, &y, n_rows, &mut ytil);

        let mut xz = [0.0; 8 * K];
        run_block_z_t_multi::<f64, 4, K>(isa(), &z, 2, &ytil, &mut |c, sums| {
            for k in 0..K {
                xz[k * 8 + c] += sums[k];
            }
        });
        let mut xm = [0.0; 8 * K];
        run_block_m_t_multi::<f64, 4, false, K>(isa(), &m, 2, &ytil, &mut |c, sums| {
            for k in 0..K {
                xm[k * 8 + c] += sums[k];
            }
        });

        for k in 0..K {
            let mut ytil_one = vec![0.0; 8];
            gather(isa(), &z, &y[k * n_rows..(k + 1) * n_rows], &mut ytil_one);
            let mut x_one = vec![0.0; 8];
            run_block_z_t::<f64, 4>(isa(), &z, 2, &ytil_one, &mut |c, v| x_one[c] += v);
            assert_eq!(&xz[k * 8..(k + 1) * 8], x_one.as_slice(), "Z rhs {k}");
            assert_eq!(&xm[k * 8..(k + 1) * 8], x_one.as_slice(), "M rhs {k}");
        }
    }
}
