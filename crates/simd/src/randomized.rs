//! Randomized tests for the SIMD layer (separate module so the main
//! modules stay lean; compiled only under test). Driven by the in-tree
//! [`crate::rng`] generator — the workspace carries no proptest/rand
//! dependency — with fixed seeds and a few hundred cases per property.
#![cfg(test)]

use crate::expand::{compress_into, expand_soft, expand_with, select_path, ExpandPath};
use crate::isa::Isa;
use crate::lanes::*;
use crate::rng::XorShift64;
use crate::{MaskExpand, Scalar};

#[test]
fn hsum_matches_sum_f64() {
    let mut rng = XorShift64::new(1001);
    for _ in 0..300 {
        let arr: [f64; 8] = std::array::from_fn(|_| rng.range_f64(-1e6, 1e6));
        let naive: f64 = arr.iter().sum();
        assert!((hsum(&arr) - naive).abs() <= 1e-6 * naive.abs().max(1.0));
    }
}

#[test]
fn dot_is_bilinear() {
    let mut rng = XorShift64::new(1002);
    for _ in 0..300 {
        let len = 1 + rng.next_usize(39);
        let x: Vec<f64> = (0..len).map(|_| rng.range_f64(-100.0, 100.0)).collect();
        let alpha = rng.range_f64(-10.0, 10.0);
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let scaled: Vec<f64> = x.iter().map(|v| v * alpha).collect();
        let d1 = dot(&scaled, &y);
        let d2 = alpha * dot(&x, &y);
        assert!((d1 - d2).abs() <= 1e-7 * d2.abs().max(1.0));
    }
}

#[test]
fn axpy_matches_scalar_loop() {
    let mut rng = XorShift64::new(1003);
    for _ in 0..300 {
        let len = rng.next_usize(64);
        let x: Vec<f32> = (0..len)
            .map(|_| rng.range_f64(-50.0, 50.0) as f32)
            .collect();
        let a = rng.range_f64(-4.0, 4.0) as f32;
        let mut y: Vec<f32> = x.iter().map(|v| v + 1.0).collect();
        let mut y_ref = y.clone();
        axpy(a, &x, &mut y);
        for (yr, xv) in y_ref.iter_mut().zip(&x) {
            *yr = a.mul_add(*xv, *yr);
        }
        assert_eq!(y, y_ref);
    }
}

#[test]
fn expand_compress_inverse_f64x8() {
    let mut rng = XorShift64::new(1004);
    for _ in 0..300 {
        // Mix exact zeros (about half the lanes) with nonzero values.
        let block: [f64; 8] = std::array::from_fn(|_| {
            if rng.next_usize(2) == 0 {
                0.0
            } else {
                rng.range_f64(-5.0, 5.0)
            }
        });
        let mut packed = Vec::new();
        let mask = compress_into(&block, &mut packed);
        let back: [f64; 8] = expand_soft(mask, &packed);
        // Inverse wherever lanes were nonzero; zeros stay zero (a -0.0
        // lane compresses as nonzero and round-trips exactly too).
        assert_eq!(back, block);
    }
}

#[test]
fn hw_and_soft_expand_agree_random_masks() {
    let mut rng = XorShift64::new(1005);
    for _ in 0..300 {
        let mask = (rng.next_u64() & 0xFFFF) as u32;
        let vals: Vec<f32> = (0..16).map(|_| rng.range_f64(-9.0, 9.0) as f32).collect();
        if <f32 as MaskExpand>::hw_available::<16>() {
            let need = mask.count_ones() as usize;
            let soft: [f32; 16] = expand_soft(mask, &vals[..need]);
            let hard: [f32; 16] = expand_with(ExpandPath::Hardware, mask, &vals[..need]);
            assert_eq!(soft, hard);
        } else {
            assert_eq!(select_path::<f32, 16>(), ExpandPath::Software);
        }
    }
}

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// The dispatched solver vector ops reproduce their portable bodies bit
/// for bit, tails included (`fmaf` and `vfmadd` both round once).
fn solver_ops_agree<T: Scalar>(seed: u64) {
    let isa = Isa::detect();
    let mut rng = XorShift64::new(seed);
    for len in 0..70 {
        let mut vec = || -> Vec<T> {
            (0..len)
                .map(|_| T::from_f64(rng.range_f64(-50.0, 50.0)))
                .collect()
        };
        let (x, y) = (vec(), vec());
        let alpha = T::from_f64(1.0 / 3.0);

        let (mut got, mut want) = (y.clone(), y.clone());
        axpy_on(isa, alpha, &x, &mut got);
        axpy_body(alpha, &x, &mut want);
        assert_eq!(bits(&got), bits(&want), "axpy len {len}");

        let (d_got, d_want) = (dot_on(isa, &x, &y), dot_body(&x, &y));
        assert_eq!(bits(&[d_got]), bits(&[d_want]), "dot len {len}");

        let (mut got, mut want) = (y.clone(), y.clone());
        add_assign_slice_on(isa, &mut got, &x);
        add_assign_slice_body(&mut want, &x);
        assert_eq!(bits(&got), bits(&want), "add_assign_slice len {len}");

        let (mut got, mut want) = (x.clone(), x);
        scale_on(isa, &mut got, alpha);
        scale_body(&mut want, alpha);
        assert_eq!(bits(&got), bits(&want), "scale len {len}");
    }
}

#[test]
fn solver_ops_bit_identical_across_tiers() {
    solver_ops_agree::<f32>(1010);
    solver_ops_agree::<f64>(1011);
}
