//! The CSCV format builder (paper Fig. 7: "matrix format conversion").
//!
//! For every (tile × view group) block:
//!
//! 1. slice each tile column's nonzeros for the group's views;
//! 2. derive the IOBLR reference curve from the tile-center column (data
//!    driven; falls back to the first non-empty column);
//! 3. re-address nonzeros as (curve offset, local view) and densify each
//!    column over its offset span — the CSCVEs;
//! 4. sort columns by first offset, group `S_VxG` of them into VxGs
//!    (columns padded to the group's common offset range — the "red"
//!    extra padding of Fig. 6a), then sort VxGs by offset count (Fig. 6b);
//! 5. emit the value stream (full lanes for CSCV-Z; mask-compressed for
//!    CSCV-M) and the block's ỹ scatter map.

use crate::format::{Block, CscvMatrix, CscvStats, GroupInfo, Variant};
use crate::ioblr::{min_bin_per_view, RefCurve};
use crate::layout::{tiles, view_groups, ImageShape, SinoLayout, Tile};
use crate::params::CscvParams;
use cscv_sparse::{Csc, Scalar};
use std::ops::Range;

/// Source of IOBLR reference curves.
///
/// The default is **data-driven** (read the min-bin curve off the
/// reference column), which needs no geometry knowledge. Generators
/// that know their geometry analytically (e.g. `cscv-ct`'s parallel- or
/// fan-beam operators) can provide exact curves instead — useful when
/// the reference column is sparse or the matrix is subsampled.
pub trait CurveProvider {
    /// Reference curve for `ref_col` over the (global) view range, or
    /// `None` when this provider cannot produce one (the builder then
    /// falls back to a data-driven curve from another column).
    fn curve(&self, ref_col: usize, views: &Range<usize>) -> Option<RefCurve>;
}

/// The default data-driven provider: min-bin curve of the column itself.
pub struct DataDrivenCurves<'a, T> {
    pub csc: &'a Csc<T>,
    pub layout: SinoLayout,
}

impl<T: Scalar> CurveProvider for DataDrivenCurves<'_, T> {
    fn curve(&self, ref_col: usize, views: &Range<usize>) -> Option<RefCurve> {
        RefCurve::from_min_bins(&min_bin_per_view(self.csc, &self.layout, ref_col, views))
    }
}

/// Why a CSCV build was rejected before any block work started.
///
/// The compressed index types dictate hard dimension ceilings: the ỹ
/// scatter map stores rows as `i32` (−1 is the padding sentinel, so
/// only `i32::MAX` rows are addressable — invariant `CSCV-U32-FIT`),
/// and VxG member columns are `u32`. [`try_build`] checks these up
/// front instead of letting an `as` cast wrap silently mid-conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `layout.n_rows() > i32::MAX`: rows no longer fit the i32 scatter
    /// map (invariant `CSCV-U32-FIT`).
    RowsExceedIndexRange { n_rows: usize },
    /// `img.n_pixels() > u32::MAX`: columns no longer fit the u32 VxG
    /// member ids (invariant `CSCV-U32-FIT`).
    ColsExceedIndexRange { n_cols: usize },
    /// The CSC's shape disagrees with `layout`/`img`.
    ShapeMismatch {
        what: &'static str,
        got: usize,
        expected: usize,
    },
    /// `params.s_vxg` is not one of the compiled kernel shapes
    /// ([`VXG_SIZES`](crate::params::VXG_SIZES)).
    UnsupportedVxg { s_vxg: usize },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RowsExceedIndexRange { n_rows } => write!(
                f,
                "{n_rows} rows exceed the i32 scatter-map range ({})",
                i32::MAX
            ),
            BuildError::ColsExceedIndexRange { n_cols } => write!(
                f,
                "{n_cols} columns exceed the u32 column-id range ({})",
                u32::MAX
            ),
            BuildError::ShapeMismatch {
                what,
                got,
                expected,
            } => write!(f, "shape mismatch: {what} is {got}, expected {expected}"),
            BuildError::UnsupportedVxg { s_vxg } => write!(
                f,
                "S_VxG = {s_vxg} has no compiled kernel (supported: {:?})",
                crate::params::VXG_SIZES
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Build a CSCV matrix from a CSC matrix with sinogram row structure,
/// using data-driven reference curves.
///
/// # Panics
/// If the CSC shape disagrees with `layout`/`img`, a dimension exceeds
/// the compressed index range, or `s_vxg` is not in
/// [`VXG_SIZES`](crate::params::VXG_SIZES). Use [`try_build`] for a
/// typed error instead.
pub fn build<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
) -> CscvMatrix<T> {
    try_build(csc, layout, img, params, variant).unwrap_or_else(|e| panic!("CSCV build: {e}"))
}

/// Build with an explicit [`CurveProvider`].
///
/// # Panics
/// Same conditions as [`build`]; see [`try_build_with_curves`].
pub fn build_with_curves<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
) -> CscvMatrix<T> {
    try_build_with_curves(csc, layout, img, params, variant, curves)
        .unwrap_or_else(|e| panic!("CSCV build: {e}"))
}

/// Fallible [`build`]: returns a [`BuildError`] instead of panicking on
/// rejected inputs (oversized dimensions, shape mismatch, unsupported
/// S_VxG).
pub fn try_build<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
) -> Result<CscvMatrix<T>, BuildError> {
    try_build_with_curves(
        csc,
        layout,
        img,
        params,
        variant,
        &DataDrivenCurves { csc, layout },
    )
}

/// Fallible [`build_with_curves`].
pub fn try_build_with_curves<T: Scalar>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
) -> Result<CscvMatrix<T>, BuildError> {
    // Index-range ceilings first (they are properties of layout/img
    // alone): every downstream `usize → u32/i32` index conversion in
    // this module relies on them (invariant CSCV-U32-FIT).
    if layout.n_rows() > i32::MAX as usize {
        return Err(BuildError::RowsExceedIndexRange {
            n_rows: layout.n_rows(),
        });
    }
    if img.n_pixels() > u32::MAX as usize {
        return Err(BuildError::ColsExceedIndexRange {
            n_cols: img.n_pixels(),
        });
    }
    if csc.n_rows() != layout.n_rows() {
        return Err(BuildError::ShapeMismatch {
            what: "CSC row count vs layout",
            got: csc.n_rows(),
            expected: layout.n_rows(),
        });
    }
    if csc.n_cols() != img.n_pixels() {
        return Err(BuildError::ShapeMismatch {
            what: "CSC column count vs image shape",
            got: csc.n_cols(),
            expected: img.n_pixels(),
        });
    }
    if !crate::params::VXG_SIZES.contains(&params.s_vxg) {
        return Err(BuildError::UnsupportedVxg {
            s_vxg: params.s_vxg,
        });
    }

    let tile_list = tiles(&img, params.s_imgb);
    let vgroups = view_groups(layout.n_views, params.s_vvec);

    let mut stats = CscvStats {
        nnz_orig: csc.nnz(),
        ..CscvStats::default()
    };
    let mut blocks = Vec::new();
    let mut groups = Vec::with_capacity(vgroups.len());
    let mut max_ytil = 0usize;

    for (gi, views) in vgroups.iter().enumerate() {
        let block_start = blocks.len();
        let mut group_nnz = 0usize;
        // Group count <= n_views <= n_rows <= i32::MAX and tile count <=
        // n_pixels <= u32::MAX — both ceilings established above, so
        // these conversions cannot truncate.
        // AUDIT(panic-ok): ceiling established above — group count <= i32::MAX.
        let group_id = u32::try_from(gi).expect("group index fits u32");
        for (ti, tile) in tile_list.iter().enumerate() {
            // AUDIT(panic-ok): ceiling established above — tile count <= u32::MAX.
            let tile_id = u32::try_from(ti).expect("tile index fits u32");
            if let Some(block) = build_block(
                csc, &layout, &img, tile, views, group_id, tile_id, params, variant, curves,
                &mut stats,
            ) {
                group_nnz += block.nnz;
                max_ytil = max_ytil.max(block.ytil_len());
                blocks.push(block);
            }
        }
        groups.push(GroupInfo {
            block_range: block_start..blocks.len(),
            row_range: views.start * layout.n_bins..views.end * layout.n_bins,
            nnz: group_nnz,
        });
    }
    stats.n_blocks = blocks.len();

    let matrix = CscvMatrix {
        n_rows: csc.n_rows(),
        n_cols: csc.n_cols(),
        layout,
        params,
        variant,
        blocks,
        groups,
        stats,
        max_ytil,
    };
    // Catalog postcondition (no-op unless `check-invariants` is on).
    crate::invariants::assert_valid(&matrix, "builder::try_build_with_curves");
    Ok(matrix)
}

/// Per-column working data inside one block.
struct ColData<T> {
    col: u32,
    /// Offset span `[c0, c1]` relative to the reference curve.
    c0: i64,
    c1: i64,
    /// Densified values: `(c − c0)·W + v` (lanes beyond the group's local
    /// view count stay zero).
    grid: Vec<T>,
}

/// Slice one column's nonzeros for a view range as `(local view, bin, val)`.
fn col_block_entries<T: Scalar>(
    csc: &Csc<T>,
    layout: &SinoLayout,
    col: usize,
    views: &Range<usize>,
) -> Vec<(u32, u32, T)> {
    let (rows, vals) = csc.col(col);
    let lo = rows.partition_point(|&r| (r as usize) < views.start * layout.n_bins);
    let hi = rows.partition_point(|&r| (r as usize) < views.end * layout.n_bins);
    rows[lo..hi]
        .iter()
        .zip(&vals[lo..hi])
        .map(|(&r, &v)| {
            let (view, bin) = layout.ray_of_row(r as usize);
            // Local view < S_VVec <= 16 and bin < n_bins <= n_rows, both
            // within the u32 ceilings try_build_with_curves established.
            (
                u32::try_from(view - views.start).expect("local view fits u32"),
                u32::try_from(bin).expect("bin fits u32"),
                v,
            )
        })
        .collect()
}

/// Per-column raw entries of one block: `(global col, [(view, bin, val)])`.
type RawColumns<T> = Vec<(u32, Vec<(u32, u32, T)>)>;

#[allow(clippy::too_many_arguments)]
fn build_block<T: Scalar>(
    csc: &Csc<T>,
    layout: &SinoLayout,
    img: &ImageShape,
    tile: &Tile,
    views: &Range<usize>,
    group: u32,
    tile_idx: u32,
    params: CscvParams,
    variant: Variant,
    curves: &dyn CurveProvider,
    stats: &mut CscvStats,
) -> Option<Block<T>> {
    let w = params.s_vvec;
    let g = params.s_vxg;
    let cols = tile.cols(img);

    // 1. Extract per-column entries.
    let mut raw: RawColumns<T> = Vec::with_capacity(cols.len());
    let mut block_nnz = 0usize;
    for &col in &cols {
        let entries = col_block_entries(csc, layout, col, views);
        block_nnz += entries.len();
        // col < n_pixels <= u32::MAX (checked in try_build_with_curves).
        // AUDIT(panic-ok): ceiling established in try_build_with_curves — col < n_pixels <= u32::MAX.
        raw.push((u32::try_from(col).expect("column fits u32"), entries));
    }
    if block_nnz == 0 {
        return None;
    }

    // 2. Reference curve: tile center via the provider, falling back to
    //    a data-driven curve of the first non-empty column of the tile.
    let (cx, cy) = tile.center();
    let ref_col = img.col_index(cx, cy);
    let curve = curves.curve(ref_col, views).unwrap_or_else(|| {
        let fallback = raw
            .iter()
            .find(|(_, e)| !e.is_empty())
            .map(|(c, _)| *c as usize)
            .expect("block has nonzeros");
        RefCurve::from_min_bins(&min_bin_per_view(csc, layout, fallback, views))
            .expect("fallback column is non-empty")
    });
    assert_eq!(curve.len(), views.len(), "curve must cover the view group");

    // 3. Densify each column over its offset span.
    let mut cdata: Vec<ColData<T>> = Vec::with_capacity(raw.len());
    for (col, entries) in &raw {
        if entries.is_empty() {
            continue;
        }
        let mut c0 = i64::MAX;
        let mut c1 = i64::MIN;
        for &(v, b, _) in entries {
            let c = curve.offset(v as usize, b);
            c0 = c0.min(c);
            c1 = c1.max(c);
        }
        let span = (c1 - c0 + 1) as usize;
        let mut grid = vec![T::ZERO; span * w];
        for &(v, b, val) in entries {
            let c = curve.offset(v as usize, b);
            grid[(c - c0) as usize * w + v as usize] = val;
        }
        stats.ioblr_padding += span * w - entries.len();
        stats.n_cscve += span;
        cdata.push(ColData {
            col: *col,
            c0,
            c1,
            grid,
        });
    }

    // 4. Block offset range and column ordering by first offset.
    let c_min = cdata.iter().map(|c| c.c0).min().unwrap();
    let c_max = cdata.iter().map(|c| c.c1).max().unwrap();
    let n_off = (c_max - c_min + 1) as usize;
    cdata.sort_by_key(|c| (c.c0, c.col));

    // VxG descriptors over sorted columns.
    struct VxgDesc {
        members: Range<usize>,
        c_start: i64,
        count: usize,
    }
    let n_vxg = cdata.len().div_ceil(g);
    let mut descs = Vec::with_capacity(n_vxg);
    for vi in 0..n_vxg {
        let members = vi * g..((vi + 1) * g).min(cdata.len());
        let c_start = cdata[members.clone()].iter().map(|c| c.c0).min().unwrap();
        let c_end = cdata[members.clone()].iter().map(|c| c.c1).max().unwrap();
        let count = (c_end - c_start + 1) as usize;
        let member_slots: usize = cdata[members.clone()]
            .iter()
            .map(|c| (c.c1 - c.c0 + 1) as usize * w)
            .sum();
        stats.vxg_padding += count * g * w - member_slots;
        stats.lane_slots += count * g * w;
        stats.n_vxg += 1;
        descs.push(VxgDesc {
            members,
            c_start,
            count,
        });
    }
    // Order VxGs by offset count (paper Fig. 6b), then start for
    // determinism.
    descs.sort_by_key(|d| (d.count, d.c_start));

    // 5. Emit value stream, masks and per-VxG metadata.
    let mask_bytes = w.div_ceil(8);
    let mut vxg_q = Vec::with_capacity(descs.len());
    let mut vxg_count = Vec::with_capacity(descs.len());
    let mut out_cols = Vec::with_capacity(descs.len() * g);
    let mut val_ptr = Vec::with_capacity(descs.len() + 1);
    let mut vals = Vec::new();
    let mut masks = Vec::new();
    val_ptr.push(0u32);
    let mut lane = vec![T::ZERO; w];
    let mut block_lane_slots = 0usize;
    for d in &descs {
        // Slot index <= map.len() = n_off·W; a block whose ỹ outgrows
        // u32 is unusable anyway (val_ptr is u32 too), so fail loudly
        // rather than wrap (invariant CSCV-U32-FIT).
        let q = (d.c_start - c_min) as usize * w;
        vxg_q.push(u32::try_from(q).expect("VxG start slot fits u32"));
        vxg_count.push(u16::try_from(d.count).expect("offset count fits u16"));
        let members = &cdata[d.members.clone()];
        for s in 0..g {
            out_cols.push(members.get(s).map(|c| c.col).unwrap_or(members[0].col));
        }
        for ci in 0..d.count {
            let c_abs = d.c_start + ci as i64;
            for s in 0..g {
                lane.fill(T::ZERO);
                if let Some(m) = members.get(s) {
                    if c_abs >= m.c0 && c_abs <= m.c1 {
                        let at = (c_abs - m.c0) as usize * w;
                        lane.copy_from_slice(&m.grid[at..at + w]);
                    }
                }
                block_lane_slots += w;
                match variant {
                    Variant::Z => vals.extend_from_slice(&lane),
                    Variant::M => {
                        let mut mask = 0u32;
                        for (l, &v) in lane.iter().enumerate() {
                            if v != T::ZERO {
                                mask |= 1u32 << l;
                                vals.push(v);
                            }
                        }
                        masks.push((mask & 0xFF) as u8);
                        if mask_bytes == 2 {
                            masks.push((mask >> 8) as u8);
                        }
                    }
                }
            }
        }
        val_ptr.push(u32::try_from(vals.len()).expect("block value stream fits u32"));
    }

    // 6. ỹ scatter map.
    let wl = views.len();
    let mut map = vec![-1i32; n_off * w];
    for off in 0..n_off {
        let c_abs = c_min + off as i64;
        for v in 0..wl {
            let bin = curve.bin(v) + c_abs;
            if bin >= 0 && (bin as usize) < layout.n_bins {
                let row = layout.row_index(views.start + v, bin as usize);
                map[off * w + v] = i32::try_from(row).expect("row fits i32");
            }
        }
    }

    Some(Block {
        group,
        tile: tile_idx,
        map,
        vxg_q,
        vxg_count,
        cols: out_cols,
        val_ptr,
        vals,
        masks,
        nnz: block_nnz,
        lane_slots: block_lane_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Variant;
    use cscv_sparse::Coo;

    /// A small synthetic "integral operator": column (pixel) j projects
    /// to bins around `ref(v) + j mod 3` — perfectly CT-like structure.
    fn synthetic(
        n_views: usize,
        n_bins: usize,
        nx: usize,
        ny: usize,
    ) -> (Csc<f64>, SinoLayout, ImageShape) {
        let layout = SinoLayout { n_views, n_bins };
        let img = ImageShape { nx, ny };
        let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
        for col in 0..img.n_pixels() {
            for v in 0..n_views {
                // A slanted trajectory plus per-column offset.
                let base = (v + col) % (n_bins - 1);
                coo.push(layout.row_index(v, base), col, 1.0 + col as f64 * 0.01);
                coo.push(layout.row_index(v, base + 1), col, 0.5);
            }
        }
        (coo.to_csc(), layout, img)
    }

    #[test]
    fn build_z_validates_and_covers_nnz() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(2, 4, 2), Variant::Z);
        m.validate();
        assert_eq!(m.stats.nnz_orig, csc.nnz());
        assert_eq!(
            m.stats.lane_slots,
            m.stats.nnz_orig + m.stats.ioblr_padding + m.stats.vxg_padding
        );
        assert_eq!(m.nnz_stored_vals(), m.stats.lane_slots);
        assert!(m.stats.r_nnze() >= 0.0);
        assert_eq!(m.groups.len(), 2);
    }

    #[test]
    fn build_m_stores_exactly_nnz_values() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(2, 4, 2), Variant::M);
        m.validate();
        assert_eq!(m.nnz_stored_vals(), csc.nnz());
        // Same padding stats as Z (format-level, not storage-level).
        let z = build(&csc, layout, img, CscvParams::new(2, 4, 2), Variant::Z);
        assert_eq!(m.stats, z.stats);
    }

    #[test]
    fn spmv_z_equals_csc_reference() {
        let (csc, layout, img) = synthetic(9, 14, 6, 5);
        for params in [
            CscvParams::new(2, 4, 1),
            CscvParams::new(3, 4, 2),
            CscvParams::new(6, 8, 4),
            CscvParams::new(16, 16, 4),
        ] {
            let m = build(&csc, layout, img, params, Variant::Z);
            m.validate();
            spmv_single_thread_check(&csc, &m, params);
        }
    }

    #[test]
    fn spmv_m_equals_csc_reference() {
        let (csc, layout, img) = synthetic(10, 14, 5, 4);
        for params in [CscvParams::new(2, 4, 2), CscvParams::new(5, 8, 4)] {
            let m = build(&csc, layout, img, params, Variant::M);
            m.validate();
            spmv_single_thread_check(&csc, &m, params);
        }
    }

    /// Single-thread SpMV: block by block in order, each `ỹ` scattered
    /// straight into `y` (the one-thread `LocalCopies` path).
    fn spmv_single_thread_check(csc: &Csc<f64>, m: &CscvMatrix<f64>, params: CscvParams) {
        use crate::exec::{CscvExec, ParallelStrategy};
        use cscv_sparse::{SpmvExecutor, ThreadPool};
        assert_eq!(m.params, params);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y_ref = vec![0.0; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        let mut y = vec![0.0; csc.n_rows()];
        let exec = CscvExec::with_strategy(m.clone(), ParallelStrategy::LocalCopies);
        exec.spmv(&x, &mut y, &ThreadPool::new(1));
        cscv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn partial_last_view_group() {
        // 10 views with W=4 leaves a 2-view group; lanes 2..4 must be
        // padding with -1 map entries, and SpMV must stay exact.
        let (csc, layout, img) = synthetic(10, 12, 4, 4);
        let params = CscvParams::new(4, 4, 2);
        let m = build(&csc, layout, img, params, Variant::Z);
        m.validate();
        let last_group = m.groups.last().unwrap();
        assert_eq!(last_group.row_range.len(), 2 * 12);
        spmv_single_thread_check(&csc, &m, params);
    }

    #[test]
    fn empty_columns_are_skipped() {
        let layout = SinoLayout {
            n_views: 4,
            n_bins: 8,
        };
        let img = ImageShape { nx: 4, ny: 2 };
        let mut coo: Coo<f64> = Coo::new(32, 8);
        // Only two pixels project.
        for v in 0..4 {
            coo.push(layout.row_index(v, v), 1, 2.0);
            coo.push(layout.row_index(v, v + 2), 6, 1.0);
        }
        let csc = coo.to_csc();
        let params = CscvParams::new(2, 4, 2);
        let m = build(&csc, layout, img, params, Variant::Z);
        m.validate();
        assert_eq!(m.stats.nnz_orig, 8);
        spmv_single_thread_check(&csc, &m, params);
    }

    #[test]
    fn perfectly_parallel_trajectories_have_zero_ioblr_padding() {
        // All columns exactly parallel to the reference: offset span 1.
        let layout = SinoLayout {
            n_views: 4,
            n_bins: 16,
        };
        let img = ImageShape { nx: 4, ny: 1 };
        let mut coo: Coo<f64> = Coo::new(64, 4);
        for col in 0..4 {
            for v in 0..4 {
                coo.push(layout.row_index(v, 2 * v + col), col, 1.0);
            }
        }
        let csc = coo.to_csc();
        let m = build(&csc, layout, img, CscvParams::new(4, 4, 4), Variant::Z);
        assert_eq!(m.stats.ioblr_padding, 0);
        // Columns share no VxG alignment padding either (offsets 0..3
        // with span 1 each → common range forces padding).
        assert_eq!(m.stats.n_cscve, 4);
        m.validate();
    }

    #[test]
    fn vxg_one_is_no_alignment_padding() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(4, 4, 1), Variant::Z);
        assert_eq!(m.stats.vxg_padding, 0, "S_VxG=1 never aligns columns");
        m.validate();
    }

    #[test]
    fn try_build_rejects_rows_beyond_i32() {
        // An empty CSC is allocation-cheap even at absurd row counts;
        // the builder must reject it before doing any block work.
        let n_rows = i32::MAX as usize + 1;
        let csc: Csc<f64> = Csc::from_parts(n_rows, 1, vec![0, 0], vec![], vec![]);
        let layout = SinoLayout {
            n_views: n_rows,
            n_bins: 1,
        };
        let img = ImageShape { nx: 1, ny: 1 };
        let err = try_build(&csc, layout, img, CscvParams::new(4, 4, 2), Variant::Z).unwrap_err();
        assert_eq!(err, BuildError::RowsExceedIndexRange { n_rows });
        assert!(err.to_string().contains("i32"));
    }

    #[test]
    fn try_build_rejects_cols_beyond_u32() {
        // Dimension-range checks run before shape checks, so a tiny CSC
        // suffices to exercise the column ceiling.
        let n_cols = u32::MAX as usize + 1;
        let csc: Csc<f64> = Csc::from_parts(4, 1, vec![0, 0], vec![], vec![]);
        let layout = SinoLayout {
            n_views: 4,
            n_bins: 1,
        };
        let img = ImageShape { nx: n_cols, ny: 1 };
        let err = try_build(&csc, layout, img, CscvParams::new(4, 4, 2), Variant::Z).unwrap_err();
        assert_eq!(err, BuildError::ColsExceedIndexRange { n_cols });
    }

    #[test]
    fn try_build_rejects_shape_mismatch_and_vxg_bound() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let bad_layout = SinoLayout {
            n_views: layout.n_views + 1,
            n_bins: layout.n_bins,
        };
        let err = try_build(&csc, bad_layout, img, CscvParams::new(4, 4, 2), Variant::Z);
        assert!(matches!(err, Err(BuildError::ShapeMismatch { .. })));
        for s_vxg in [3, 32, 64] {
            let err = try_build(&csc, layout, img, CscvParams::new(4, 4, s_vxg), Variant::Z);
            assert_eq!(err.unwrap_err(), BuildError::UnsupportedVxg { s_vxg });
        }
    }

    #[test]
    fn try_build_accepts_every_compiled_vxg() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        for s_vxg in crate::params::VXG_SIZES {
            for variant in [Variant::Z, Variant::M] {
                let m = try_build(&csc, layout, img, CscvParams::new(4, 4, s_vxg), variant);
                m.unwrap().validate();
            }
        }
        let err = BuildError::UnsupportedVxg { s_vxg: 3 }.to_string();
        assert!(
            err.contains("S_VxG = 3") && err.contains("[1, 2, 4, 8, 16]"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "CSCV build")]
    fn build_panics_on_rejected_input() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let _ = build(&csc, layout, img, CscvParams::new(4, 4, 64), Variant::Z);
    }

    #[test]
    fn try_build_matches_build_on_valid_input() {
        let (csc, layout, img) = synthetic(8, 12, 4, 4);
        let p = CscvParams::new(2, 4, 2);
        let a = build(&csc, layout, img, p, Variant::M);
        let b = try_build(&csc, layout, img, p, Variant::M).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.blocks.len(), b.blocks.len());
    }

    #[test]
    fn group_nnz_sums_to_total() {
        let (csc, layout, img) = synthetic(12, 14, 4, 4);
        let m = build(&csc, layout, img, CscvParams::new(4, 4, 2), Variant::Z);
        let total: usize = m.groups.iter().map(|g| g.nnz).sum();
        assert_eq!(total, csc.nnz());
    }
}
