//! The crate's own `tanh`: fdlibm's `s_tanh.c` over `s_expm1.c`, written
//! once as a branch-free lane function, so that a plain loop over a slice
//! auto-vectorises, and bit-identical to the libm call it replaced.
//!
//! "The libm call" is glibc's `tanh` on an x86-64 with FMA: `s_tanh.c`
//! calling the FMA `ifunc` variant of `s_expm1.c`, in which the compiler
//! fused eleven multiply-adds. Those fusions are spelled out below as
//! [`f64::mul_add`], which is exactly rounded everywhere (one instruction
//! where the CPU has FMA, the library `fma` where it does not), so the
//! result is a property of this source and not of the host: the same bits
//! on every CPU and architecture, only slower without FMA (DESIGN.md §8b).
//!
//! Every branch of the C is a select here. All paths are computed for every
//! lane and the conditions pick among finished values, which is what lets
//! [`Kernel::TANH`]'s wide instantiation run four lanes to an instruction.

// The constants are spelled digit for digit as fdlibm spells them, `invln2`
// (the nearest double to `LOG2_E`) included.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

use crate::matrix::Kernel;

const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
const INVLN2: f64 = 1.442_695_040_888_963_387_00e+00;
const Q1: f64 = -3.333_333_333_333_313_164_28e-02;
const Q2: f64 = 1.587_301_587_254_814_601_65e-03;
const Q3: f64 = -7.936_507_578_674_879_424_73e-05;
const Q4: f64 = 4.008_217_827_329_362_395_52e-06;
const Q5: f64 = -2.010_992_181_836_243_713_26e-07;

/// `2⁵² + 2⁵¹`: adding it to an integer-valued `t`, `|t| < 2⁵¹`, adds `t` to
/// its bit pattern. Reading `k` off that needs no float-to-int conversion,
/// which AVX2 does not have for 64-bit lanes.
const INT_IN_MANTISSA: f64 = 6_755_399_441_055_744.0;

/// The high 32 bits of `x`'s pattern, sign bit cleared: fdlibm's `ix`/`hx`.
/// (All integers here stay 64 bits wide, the width of the lanes.)
#[inline(always)]
fn high_word_abs(x: f64) -> u64 {
    (x.to_bits() & 0x7fff_ffff_ffff_ffff) >> 32
}

/// `y · 2ᵏ` by adding `k` to the exponent field, as fdlibm does.
#[inline(always)]
fn add_to_exponent(y: f64, k: i64) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((k as u64) << 52))
}

/// `expm1(arg)` for the arguments `tanh` has: `arg` is `2|x|` in `[2, 44)`
/// or `−2|x|` in `(−2, −2⁻⁵⁴]`, so `k` stays in `−3..=63`, is never `1`
/// (`|arg| < 1.5·ln2` only happens below zero), and none of `expm1`'s own
/// range filters applies.
#[inline(always)]
fn expm1(arg: f64) -> f64 {
    // Argument reduction: arg = k·ln2 + xr, |xr| ≤ 0.5·ln2, c the rounding
    // error of xr. `t` is `k` as a float.
    let hx = high_word_abs(arg);
    let rounded = (INVLN2 * arg + 0.5f64.copysign(arg)).trunc();
    let near = if hx < 0x3ff0_a2b2 { -1.0 } else { rounded };
    let t = if hx <= 0x3fd6_2e42 { 0.0 } else { near };
    let k = (t + INT_IN_MANTISSA).to_bits() as i64 - INT_IN_MANTISSA.to_bits() as i64;
    let hi = (-t).mul_add(LN2_HI, arg);
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    // The rational approximation on the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let h2 = hxs * hxs;
    let h4 = h2 * h2;
    let r1 = h4.mul_add(
        hxs.mul_add(Q5, Q4),
        h2.mul_add(hxs.mul_add(Q3, Q2), hxs.mul_add(Q1, 1.0)),
    );
    let tt = (-r1).mul_add(hfx, 3.0);
    let e0 = hxs * ((r1 - tt) / (-xr).mul_add(tt, 6.0));

    // Reconstruction, one value per path of the C.
    let k_zero = xr - e0.mul_add(xr, -hxs);
    let e = (e0 - c).mul_add(xr, -c) - hxs;
    let k_minus_one = 0.5f64.mul_add(xr - e, -0.5);
    let excess = e - xr;
    let far = add_to_exponent(1.0 - excess, k) - 1.0;
    // 1 − 2⁻ᵏ, for 2 ≤ k < 20; the shift count is masked for the lanes
    // that are not.
    let one_minus_2k = f64::from_bits((0x3ff0_0000 - (0x20_0000u64 >> (k & 63))) << 32);
    let below_20 = add_to_exponent(one_minus_2k - excess, k);
    let two_to_minus_k = f64::from_bits(((0x3ff - k) as u64) << 52);
    let from_20 = add_to_exponent((xr - (e + two_to_minus_k)) + 1.0, k);

    let by_size = if k < 20 { below_20 } else { from_20 };
    let beyond = if k <= -2 || k > 56 { far } else { by_size };
    let nonzero = if k == -1 { k_minus_one } else { beyond };
    if k == 0 {
        k_zero
    } else {
        nonzero
    }
}

/// `tanh(x)`, one lane.
#[inline(always)]
pub(crate) fn lane(x: f64) -> f64 {
    let ix = high_word_abs(x);
    // |x| ≥ 22, ±∞ or NaN; and |x| ≥ 1.
    let saturated = ix >= 0x4036_0000;
    let big = ix >= 0x3ff0_0000;
    // A lane whose result a later select discards still runs `expm1`; it is
    // fed 1.0, so every lane's `k` is in range and no lane can panic.
    let ax = if saturated { 1.0 } else { x.abs() };
    // `2|x|` or `−2|x|`, the sign put on as a bit: written as a select of
    // the two products, LLVM ran `expm1` twice, once for each.
    let em1 = expm1(f64::from_bits((2.0 * ax).to_bits() | u64::from(!big) << 63));
    let z = if big {
        1.0 - 2.0 / (em1 + 2.0)
    } else {
        -em1 / (em1 + 2.0)
    };
    let magnitude = if saturated { 1.0 } else { z };
    let signed = magnitude.copysign(x);
    let finite = if ix < 0x3c80_0000 {
        x * (1.0 + x) // |x| < 2⁻⁵⁵, ±0 included
    } else {
        signed
    };
    if x.is_nan() {
        x + x
    } else {
        finite
    }
}

/// `x ← tanh(x)` over a slice, in the widest instantiation this CPU has.
#[inline]
pub(crate) fn in_place(xs: &mut [f64]) {
    Kernel::TANH.run(xs);
}

/// The loop both instantiations of [`Kernel::TANH`] compile.
#[inline(always)]
pub(crate) fn slice_body(xs: &mut [f64]) {
    for x in xs {
        *x = lane(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    /// `(input bits, output bits)` of `f64::tanh` where this port was
    /// written (glibc 2.36, x86-64 with FMA), at least two arguments on
    /// every path of the C and one behind each fusion that matters.
    /// Host-independent: it holds wherever `mul_add`
    /// is exactly rounded, which is everywhere.
    const GOLDEN: [(u64, u64); 72] = [
        // one argument per fusion whose removal moves the result (the other
        // six moved none of 4 · 10⁷ arguments in ±4): `1 + hxs·Q1`,
        // `3 − r1·hfx`, `6 − x·t`, `x·e − hxs`, `x·(e − c) − c`
        (0x3fcaef7df8a8f6e0, 0x3fca8b7af79b026f),
        (0xbfea9db1106d4ec0, 0xbfe5ce254cb33455),
        (0x3fe19f601da3b580, 0x3fe00896b02b68b7),
        (0xbfbf560c3de96280, 0xbfbf2e387b078855),
        (0xbfdf3ed834698c50, 0xbfdcfa9888356d95),
        // anchors: 0.3, 1.5, 8, and the fusion sentinel
        (0x3fd3333333333333, 0x3fd2a4dda7d914fa),
        (0x3ff8000000000000, 0x3fecf6f9786df577),
        (0x4020000000000000, 0x3fefffff872a91f8),
        (0x3fc002f9b37861d1, 0x3fbfdb74ffae7d3e),
        // k = 0
        (0x3fb999999999999a, 0x3fb983d7795f413a),
        (0xbfa999999999999a, 0xbfa99424e535f6f9),
        (0x3fc5c28f5c28f5c3, 0x3fc58d8296a405bc),
        (0x3ee4f8b588e368f1, 0x3ee4f8b588e06854),
        (0xbe29c511dc3a41df, 0xbe29c511dc3a41df),
        (0x3fc0000000000000, 0x3fbfd5992bc4b834),
        // k = -1
        (0x3fd0000000000000, 0x3fcf597ea69a1c86),
        (0xbfd999999999999a, 0xbfd8511573c242d6),
        (0x3fe0000000000000, 0x3fdd9353d7568af3),
        (0x3fc62eb1c432ca58, 0x3fc5f6851a72a671),
        (0xbfe0a2339c0ebee0, 0xbfde901b933053ad),
        // k = -2
        (0x3fe3333333333333, 0x3fe12f8292d2ccfc),
        (0xbfe8000000000000, 0xbfe45323e552f228),
        (0x3feb333333333333, 0x3fe61d3db88649b0),
        (0x3fe0a3d70a3d70a4, 0x3fde92a312640003),
        // k = -3
        (0x3feccccccccccccd, 0x3fe6ebe982d6605d),
        (0xbfee666666666666, 0xbfe7ac4d816b6c0c),
        (0x3fefae147ae147ae, 0x3fe83c4fe9b770e0),
        (0x3fefffffffffffff, 0x3fe85efab514f394),
        // 3 <= k < 20
        (0x3ff0000000000000, 0x3fe85efab514f394),
        (0xbff0000000000000, 0xbfe85efab514f394),
        (0x4000000000000000, 0x3feed9505e1bc3d4),
        (0x4008000000000000, 0x3fefd77d111a0b00),
        (0xc014000000000000, 0xbfefff419668df11),
        (0x401a000000000000, 0x3feffff684fec9b9),
        // k = 19 | 20
        (0x401acccccccccccd, 0x3feffff9a520fd1f),
        (0x401b333333333333, 0x3feffffacc07bb5a),
        (0xc01b000000000000, 0xbfeffffa3ff22708),
        (0xc01b0a3d70a3d70a, 0xbfeffffa5d1830b0),
        // 20 <= k <= 56
        (0x4024000000000000, 0x3feffffffdc96f35),
        (0xc02e000000000000, 0xbfeffffffffff96a),
        (0x4033000000000000, 0x3fefffffffffffff),
        (0xc01e000000000000, 0xbfeffffeb78a3c73),
        // k = 56 | 57
        (0x4033800000000000, 0x3ff0000000000000),
        (0x403399999999999a, 0x3ff0000000000000),
        (0xc033947ae147ae14, 0xbff0000000000000),
        (0xc033970a3d70a3d7, 0xbff0000000000000),
        // k > 56
        (0x4034000000000000, 0x3ff0000000000000),
        (0xc035000000000000, 0xbff0000000000000),
        (0x4035e66666666666, 0x3ff0000000000000),
        (0xc035ffffffffffff, 0xbff0000000000000),
        // |x| >= 22
        (0x4036000000000000, 0x3ff0000000000000),
        (0xc036000000000000, 0xbff0000000000000),
        (0x4059000000000000, 0x3ff0000000000000),
        (0xfe37e43c8800759c, 0xbff0000000000000),
        (0x7fefffffffffffff, 0x3ff0000000000000),
        // |x| < 2^-55, and just above
        (0x3c670ef54646d497, 0x3c670ef54646d497),
        (0xbc770ef54646d497, 0xbc770ef54646d497),
        (0x3c70000000000000, 0x3c70000000000000),
        (0x3c80000000000000, 0x3c80000000000000),
        (0xbc814b37f4b51f71, 0xbc814b37f4b51f71),
        (0x01a56e1fc2f8f359, 0x01a56e1fc2f8f359),
        // subnormal
        (0x0000000000000001, 0x0000000000000001),
        (0x8000000000000001, 0x8000000000000001),
        (0x000012688b70e62b, 0x000012688b70e62b),
        (0x800fd1d7d505cd02, 0x800fd1d7d505cd02),
        // zeros, infinities, NaNs
        (0x0000000000000000, 0x0000000000000000),
        (0x8000000000000000, 0x8000000000000000),
        (0x7ff0000000000000, 0x3ff0000000000000),
        (0xfff0000000000000, 0xbff0000000000000),
        (0x7ff8000000000000, 0x7ff8000000000000),
        (0xfff8000000000000, 0xfff8000000000000),
        (0x7ff8000000000abc, 0x7ff8000000000abc),
    ];

    #[test]
    fn golden_table() {
        for (input, want) in GOLDEN {
            let got = lane(f64::from_bits(input)).to_bits();
            assert_eq!(
                got, want,
                "tanh({input:#018x}): {got:#018x}, want {want:#018x}"
            );
        }
    }

    /// `len` arguments: random bit patterns (every exponent, NaNs and
    /// infinities included) or uniform in ±25 (every path that is not a
    /// saturated one).
    fn arguments(len: usize, any_bits: bool, seed: u64) -> Vec<f64> {
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let draw = |_| {
            if any_bits {
                f64::from_bits(rng.next_u64())
            } else {
                rng.next_f64() * 50.0 - 25.0
            }
        };
        (0..len).map(draw).collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        /// One function, however it is reached: the dispatched slice entry
        /// (the AVX2+FMA instantiation wherever the CPU has it, whole
        /// vectors and remainder), the baseline instantiation called
        /// directly, which is how that one stays covered on an FMA host,
        /// and the scalar `Activation::apply`.
        #[test]
        fn slice_kernels_and_scalar_apply_agree_bitwise(
            len in 0usize..71,
            any_bits in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let xs = arguments(len, any_bits, seed);
            let scalar: Vec<f64> = xs.iter().map(|&x| Activation::Tanh.apply(x)).collect();
            let mut dispatched = xs.clone();
            Activation::Tanh.apply_in_place(&mut dispatched);
            let mut baseline = xs;
            Kernel::TANH.run_baseline(&mut baseline);
            proptest::prop_assert_eq!(bits(&dispatched), bits(&scalar));
            proptest::prop_assert_eq!(bits(&baseline), bits(&scalar));
        }

        /// Provenance: the port equals the libm call it replaced, bit for
        /// bit, on the hosts where that call was what every pinned digest
        /// was produced under — glibc's `tanh` picks its FMA `expm1` only
        /// where the CPU has FMA, so the reference exists only there and
        /// the test passes vacuously elsewhere. If a future glibc changes
        /// its `tanh`, this is the test to delete; `golden_table` stays.
        #[test]
        fn own_tanh_equals_the_libm_it_replaced(
            len in 1usize..71,
            any_bits in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("fma") {
                let xs = arguments(len, any_bits, seed);
                let libm: Vec<f64> = xs.iter().map(|x| x.tanh()).collect();
                let mut own = xs;
                in_place(&mut own);
                proptest::prop_assert_eq!(bits(&own), bits(&libm));
            }
        }
    }
}
