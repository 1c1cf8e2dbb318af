//! Every dispatched block kernel against its portable body, bit for bit.
//!
//! The [`isa_dispatch!`](cscv_simd::isa_dispatch) shims compile the same
//! `*_body` functions with `vfmadd` instead of `fmaf` calls. Both round
//! once, so on randomized CT-like matrices every tier this machine runs
//! must reproduce the body's output `to_bits` — for CSCV-Z and CSCV-M
//! (soft and hardware expand), forward and transpose, single-RHS and
//! `K ∈ {1, 2, 4, 8}`, `W ∈ {4, 8, 16}`, f32 and f64.
#![cfg(test)]

use crate::builder::build;
use crate::format::{Block, CscvMatrix, Variant};
use crate::kernels::*;
use crate::layout::{ImageShape, SinoLayout};
use crate::params::CscvParams;
use cscv_simd::rng::XorShift64;
use cscv_simd::{Isa, MaskExpand, Scalar};
use cscv_sparse::{Coo, Csc};

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn random_vec<T: Scalar>(rng: &mut XorShift64, len: usize) -> Vec<T> {
    (0..len)
        .map(|_| T::from_f64(rng.range_f64(-3.0, 3.0)))
        .collect()
}

/// A random line-integral-shaped matrix: every pixel hits one to three
/// consecutive bins per view along a randomly phased sinusoid, with
/// nonzero values.
fn random_ct<T: Scalar>(rng: &mut XorShift64) -> (Csc<T>, SinoLayout, ImageShape) {
    let layout = SinoLayout {
        n_views: 4 + rng.next_usize(29),
        n_bins: 8 + rng.next_usize(25),
    };
    let img = ImageShape {
        nx: 2 + rng.next_usize(9),
        ny: 2 + rng.next_usize(9),
    };
    let (amp, phase) = (rng.range_f64(0.3, 0.5), rng.range_f64(0.0, 6.3));
    let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
    for col in 0..img.n_pixels() {
        let (ix, iy) = img.pixel_of_col(col);
        for v in 0..layout.n_views {
            let t = (v as f64 * 0.37 + phase + ix as f64 * 0.3 - iy as f64 * 0.2).sin();
            let span = layout.n_bins as f64 - 4.0;
            let base = ((0.5 + amp * t) * span) as usize;
            for b in 0..1 + rng.next_usize(3) {
                let val = rng.range_f64(0.1, 2.0);
                coo.push(layout.row_index(v, base + b), col, T::from_f64(val));
            }
        }
    }
    (coo.to_csc(), layout, img)
}

/// The batched kernels at one `K`, dispatched vs. portable body.
fn check_multi<T: Scalar + MaskExpand, const W: usize, const HW: bool, const K: usize>(
    m: &CscvMatrix<T>,
    blk: &Block<T>,
    x: &[T],
    y: &[T],
) {
    let (isa, s) = (Isa::detect(), m.params.s_vxg);
    let len = blk.ytil_len() * K;
    let (mut got, mut want) = (vec![T::ZERO; len], vec![T::ZERO; len]);
    match m.variant {
        Variant::Z => {
            run_block_z_multi::<T, W, K>(isa, blk, s, x, m.n_cols, &mut got);
            run_block_z_multi_body::<T, W, K>(blk, s, x, m.n_cols, &mut want);
        }
        Variant::M => {
            run_block_m_multi::<T, W, HW, K>(isa, blk, s, x, m.n_cols, &mut got);
            run_block_m_multi_body::<T, W, HW, K>(blk, s, x, m.n_cols, &mut want);
        }
    }
    assert_eq!(bits(&got), bits(&want), "forward K={K}");

    let (mut dst_got, mut dst_want) = (y.to_vec(), y.to_vec());
    scatter_add_multi::<T, W, K>(isa, blk, &got, &mut dst_got, m.n_rows, 0);
    scatter_add_multi_body::<T, W, K>(blk, &want, &mut dst_want, m.n_rows, 0);
    assert_eq!(bits(&dst_got), bits(&dst_want), "scatter K={K}");

    gather_multi::<T, W, K>(isa, blk, y, m.n_rows, &mut got);
    gather_multi_body::<T, W, K>(blk, y, m.n_rows, &mut want);
    assert_eq!(bits(&got), bits(&want), "gather K={K}");

    let (mut sums_got, mut sums_want) = (Vec::new(), Vec::new());
    let mut sink_got = |c: usize, v: &[T; K]| sums_got.push((c, bits(v)));
    let mut sink_want = |c: usize, v: &[T; K]| sums_want.push((c, bits(v)));
    match m.variant {
        Variant::Z => {
            run_block_z_t_multi::<T, W, K>(isa, blk, s, &want, &mut sink_got);
            run_block_z_t_multi_body::<T, W, K>(blk, s, &want, &mut sink_want);
        }
        Variant::M => {
            run_block_m_t_multi::<T, W, HW, K>(isa, blk, s, &want, &mut sink_got);
            run_block_m_t_multi_body::<T, W, HW, K>(blk, s, &want, &mut sink_want);
        }
    }
    assert_eq!(sums_got, sums_want, "transpose K={K}");
}

/// Single-RHS kernels plus every batch width on each block of `m`.
fn check_blocks<T: Scalar + MaskExpand, const W: usize, const HW: bool>(
    m: &CscvMatrix<T>,
    rng: &mut XorShift64,
) {
    let (isa, s) = (Isa::detect(), m.params.s_vxg);
    let x: Vec<T> = random_vec(rng, 8 * m.n_cols);
    let y: Vec<T> = random_vec(rng, 8 * m.n_rows);
    for blk in &m.blocks {
        let len = blk.ytil_len();
        let (mut got, mut want) = (vec![T::ZERO; len], vec![T::ZERO; len]);
        match m.variant {
            Variant::Z => {
                run_block_z::<T, W>(isa, blk, s, &x, &mut got);
                run_block_z_body::<T, W>(blk, s, &x, &mut want);
            }
            Variant::M => {
                run_block_m::<T, W, HW>(isa, blk, s, &x, &mut got);
                run_block_m_body::<T, W, HW>(blk, s, &x, &mut want);
            }
        }
        assert_eq!(bits(&got), bits(&want), "forward");

        let (mut dst_got, mut dst_want) = (y[..m.n_rows].to_vec(), y[..m.n_rows].to_vec());
        scatter_add(isa, blk, &got, &mut dst_got, 0);
        scatter_add_body(blk, &want, &mut dst_want, 0);
        assert_eq!(bits(&dst_got), bits(&dst_want), "scatter");

        gather(isa, blk, &y, &mut got);
        gather_body(blk, &y, &mut want);
        assert_eq!(bits(&got), bits(&want), "gather");

        let (mut sums_got, mut sums_want) = (Vec::new(), Vec::new());
        let mut sink_got = |c: usize, v: T| sums_got.push((c, v.to_f64().to_bits()));
        let mut sink_want = |c: usize, v: T| sums_want.push((c, v.to_f64().to_bits()));
        match m.variant {
            Variant::Z => {
                run_block_z_t::<T, W>(isa, blk, s, &want, &mut sink_got);
                run_block_z_t_body::<T, W>(blk, s, &want, &mut sink_want);
            }
            Variant::M => {
                run_block_m_t::<T, W, HW>(isa, blk, s, &want, &mut sink_got);
                run_block_m_t_body::<T, W, HW>(blk, s, &want, &mut sink_want);
            }
        }
        assert_eq!(sums_got, sums_want, "transpose");

        check_multi::<T, W, HW, 1>(m, blk, &x, &y);
        check_multi::<T, W, HW, 2>(m, blk, &x, &y);
        check_multi::<T, W, HW, 4>(m, blk, &x, &y);
        check_multi::<T, W, HW, 8>(m, blk, &x, &y);
    }
}

/// Randomized matrices at lane width `W`: CSCV-Z, CSCV-M with
/// `soft-vexpand`, and CSCV-M with hardware `vexpand` where it exists.
fn check_width<T: Scalar + MaskExpand, const W: usize>(seed: u64) {
    let mut rng = XorShift64::new(seed);
    for _ in 0..3 {
        let (csc, layout, img) = random_ct::<T>(&mut rng);
        let params = CscvParams::new(1 + rng.next_usize(4), W, 1 + rng.next_usize(4));
        let z = build(&csc, layout, img, params, Variant::Z);
        check_blocks::<T, W, false>(&z, &mut rng);
        let m = build(&csc, layout, img, params, Variant::M);
        check_blocks::<T, W, false>(&m, &mut rng);
        if T::hw_available::<W>() {
            check_blocks::<T, W, true>(&m, &mut rng);
        }
    }
}

#[test]
fn f32_kernels_bit_identical_across_tiers() {
    check_width::<f32, 4>(0x51);
    check_width::<f32, 8>(0x52);
    check_width::<f32, 16>(0x53);
}

#[test]
fn f64_kernels_bit_identical_across_tiers() {
    check_width::<f64, 4>(0x61);
    check_width::<f64, 8>(0x62);
    check_width::<f64, 16>(0x63);
}
