//! Runtime ISA dispatch for the floating-point kernels.
//!
//! A default build targets baseline x86-64, where [`Scalar::mul_add`]
//! lowers to an out-of-line `fmaf`/`fma` library call per lane and the
//! auto-vectorizer cannot fuse anything. [`isa_dispatch!`] fixes that
//! without per-ISA kernel copies: around one `#[inline(always)]` kernel
//! body it emits a `#[target_feature]` shim per [`Tier`], so inside the
//! shim the same body compiles to packed `vfmadd` and the `vexpand`
//! wrappers inline. The tier is chosen once, from the cached
//! [`cpu_features`] snapshot, and carried by an [`Isa`] value that only
//! detection can make.
//!
//! Every tier produces bit-identical results: `fmaf` and `vfmadd` both
//! round once, and LLVM does not reassociate floating-point code.
//!
//! [`Scalar::mul_add`]: crate::Scalar::mul_add
//! [`isa_dispatch!`]: crate::isa_dispatch

use crate::detect::{cpu_features, CpuFeatures};

/// A code-generation tier, numbered from narrowest to widest (the
/// number is what the `expand.select_path` trace event reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Baseline x86-64 (or any other architecture): no shim.
    Portable = 0,
    /// `avx2` + `fma`.
    Avx2Fma = 1,
    /// `avx512f` + `avx512vl` on top of [`Tier::Avx2Fma`]; the only tier
    /// that runs the hardware `vexpand` path.
    Avx512 = 2,
}

impl Tier {
    /// The widest tier `f` supports.
    fn of(f: &CpuFeatures) -> Tier {
        if f.avx2 && f.fma && f.avx512f && f.avx512vl {
            Tier::Avx512
        } else if f.avx2 && f.fma {
            Tier::Avx2Fma
        } else {
            Tier::Portable
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Portable => "portable",
            Tier::Avx2Fma => "avx2+fma",
            Tier::Avx512 => "avx512",
        })
    }
}

/// The tier the running CPU supports. Only [`Isa::detect`] makes one, so
/// holding an `Isa` proves its tier's features exist — the fact every
/// shim [`isa_dispatch!`](crate::isa_dispatch) emits relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    tier: Tier,
}

impl Isa {
    /// The widest tier of this machine (cached feature detection).
    pub fn detect() -> Isa {
        Isa {
            tier: Tier::of(cpu_features()),
        }
    }

    pub fn tier(self) -> Tier {
        self.tier
    }
}

/// Declare runtime-dispatched wrappers around `#[inline(always)]` kernel
/// bodies.
///
/// ```ignore
/// isa_dispatch! {
///     /// Docs of the dispatched kernel.
///     pub fn run<T: Scalar, const W: usize>(x: &[T], y: &mut [T]) => run_body;
/// }
/// ```
///
/// emits `pub fn run<T: Scalar, const W: usize>(isa: Isa, x: &[T], y: &mut
/// [T])`, which calls `run_body::<T, W>(x, y)` inside the `#[target_feature]`
/// shim of `isa`'s tier. Signatures take exactly one type parameter with
/// single-identifier bounds, then any const parameters.
#[macro_export]
macro_rules! isa_dispatch {
    ($(
        $(#[$meta:meta])*
        $vis:vis fn $name:ident<$T:ident: $B:ident $(+ $bound:ident)* $(, const $C:ident: $CT:ty)* $(,)?>(
            $($arg:ident: $argty:ty),* $(,)?
        ) $(-> $ret:ty)? => $body:ident;
    )+) => {$(
        $(#[$meta])*
        #[inline]
        $vis fn $name<$T: $B $(+ $bound)* $(, const $C: $CT)*>(
            isa: $crate::isa::Isa,
            $($arg: $argty),*
        ) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                /// # Safety
                /// The CPU must support `avx512f`, `avx512vl`, `avx2` and
                /// `fma` (tier Avx512).
                #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
                unsafe fn avx512<$T: $B $(+ $bound)* $(, const $C: $CT)*>(
                    $($arg: $argty),*
                ) $(-> $ret)? {
                    $body::<$T $(, $C)*>($($arg),*)
                }
                /// # Safety
                /// The CPU must support `avx2` and `fma` (tier Avx2Fma).
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2_fma<$T: $B $(+ $bound)* $(, const $C: $CT)*>(
                    $($arg: $argty),*
                ) $(-> $ret)? {
                    $body::<$T $(, $C)*>($($arg),*)
                }
                match isa.tier() {
                    $crate::isa::Tier::Avx512 => {
                        // SAFETY: only `Isa::detect` makes an `Isa`, and it
                        // picks Avx512 only when avx512f, avx512vl, avx2
                        // and fma are all present.
                        return unsafe { avx512::<$T $(, $C)*>($($arg),*) };
                    }
                    $crate::isa::Tier::Avx2Fma => {
                        // SAFETY: as above; Avx2Fma requires avx2 and fma.
                        return unsafe { avx2_fma::<$T $(, $C)*>($($arg),*) };
                    }
                    $crate::isa::Tier::Portable => {}
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            $body::<$T $(, $C)*>($($arg),*)
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(avx2: bool, fma: bool, avx512f: bool, avx512vl: bool) -> CpuFeatures {
        CpuFeatures {
            avx2,
            fma,
            avx512f,
            avx512vl,
            avx512bw: false,
        }
    }

    #[test]
    fn tier_is_the_widest_complete_feature_set() {
        assert_eq!(Tier::of(&features(true, true, true, true)), Tier::Avx512);
        // AVX-512F without VL (Xeon Phi) cannot run the ymm/xmm expands.
        assert_eq!(Tier::of(&features(true, true, true, false)), Tier::Avx2Fma);
        assert_eq!(Tier::of(&features(true, true, false, false)), Tier::Avx2Fma);
        assert_eq!(
            Tier::of(&features(true, false, false, false)),
            Tier::Portable
        );
        assert_eq!(
            Tier::of(&features(false, false, false, false)),
            Tier::Portable
        );
    }

    #[test]
    fn detection_matches_features() {
        assert_eq!(Isa::detect().tier(), Tier::of(cpu_features()));
        assert_eq!(Isa::detect(), Isa::detect());
    }

    #[test]
    fn tier_codes_and_names() {
        assert_eq!(Tier::Avx512 as u8, 2);
        assert_eq!(Tier::Avx2Fma.to_string(), "avx2+fma");
    }
}
