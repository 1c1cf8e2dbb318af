//! CSCV build parameters (paper §V-D).
//!
//! Three knobs control the format:
//!
//! * `s_vvec` — CSCVE lane count = views per block; must match a SIMD
//!   register width (4/8/16);
//! * `s_imgb` — image tile side; larger tiles amortize `x`/`ỹ` traffic
//!   but raise the zero-padding rate (trajectories decorrelate with
//!   distance from the reference pixel);
//! * `s_vxg` — CSCVEs per vectorized execution group; deepens the inner
//!   loop for pipelining and shrinks index data. It is a const generic
//!   of every block kernel, so only the compiled [`VXG_SIZES`]
//!   `{1, 2, 4, 8, 16}` build (the Fig. 8/9 sweep grid); `try_build`
//!   rejects any other value with a typed error.
//!
//! The batched executors choose their tile width `K` by one register
//! budget: the widest compiled `K ∈ {8, 4, 2}` whose accumulator tile
//! fits — `K·W ≤ 64` lanes forward, `S_VxG·K·W ≤ 128` lanes for the
//! transpose, which keeps one `K×W` tile per VxG member — else single-RHS
//! passes.
//!
//! A key claim of the paper is that selection is *not* matrix-specific:
//! one combination per (variant, precision, machine class) works across
//! the whole CT family. `CscvParams::default_z/default_m` encode the
//! paper's Table III choices.

/// The `S_VxG` values the block kernels are compiled for.
pub const VXG_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// CSCV build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CscvParams {
    /// Image tile side `S_ImgB`.
    pub s_imgb: usize,
    /// CSCVE lane count `S_VVec` (4, 8 or 16).
    pub s_vvec: usize,
    /// CSCVEs per VxG `S_VxG` (one of [`VXG_SIZES`] to build).
    pub s_vxg: usize,
}

impl CscvParams {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `s_vvec ∉ {4, 8, 16}`, `s_imgb == 0` or `s_vxg == 0`.
    pub fn new(s_imgb: usize, s_vvec: usize, s_vxg: usize) -> Self {
        assert!(
            matches!(s_vvec, 4 | 8 | 16),
            "S_VVec must be 4, 8 or 16 (got {s_vvec})"
        );
        assert!(s_imgb >= 1, "S_ImgB must be positive");
        assert!(s_vxg >= 1, "S_VxG must be positive");
        CscvParams {
            s_imgb,
            s_vvec,
            s_vxg,
        }
    }

    /// Paper Table III (SKL) choice for CSCV-Z: `S_ImgB=16, S_VVec=16,
    /// S_VxG=2`.
    pub fn default_z() -> Self {
        CscvParams::new(16, 16, 2)
    }

    /// Paper Table III (SKL, single precision) choice for CSCV-M:
    /// `S_ImgB=32, S_VVec=8, S_VxG=4`.
    pub fn default_m() -> Self {
        CscvParams::new(32, 8, 4)
    }

    /// The sweep grid of the paper's Fig. 8/9 parameter study.
    pub fn sweep_grid() -> Vec<CscvParams> {
        let mut out = Vec::new();
        for &s_vvec in &[4usize, 8, 16] {
            for &s_imgb in &[8usize, 16, 32, 64] {
                for s_vxg in VXG_SIZES {
                    out.push(CscvParams::new(s_imgb, s_vvec, s_vxg));
                }
            }
        }
        out
    }
}

impl std::fmt::Display for CscvParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ImgB={},VVec={},VxG={}",
            self.s_imgb, self.s_vvec, self.s_vxg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let z = CscvParams::default_z();
        assert_eq!((z.s_imgb, z.s_vvec, z.s_vxg), (16, 16, 2));
        let m = CscvParams::default_m();
        assert_eq!((m.s_imgb, m.s_vvec, m.s_vxg), (32, 8, 4));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_vvec() {
        CscvParams::new(16, 5, 1);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_vxg() {
        CscvParams::new(16, 8, 0);
    }

    #[test]
    fn sweep_grid_size() {
        assert_eq!(CscvParams::sweep_grid().len(), 3 * 4 * 5);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(CscvParams::new(8, 4, 1).to_string(), "ImgB=8,VVec=4,VxG=1");
    }
}
