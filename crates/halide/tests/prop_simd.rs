//! Cross-target differential matrix for the fused SIMD execution tier.
//!
//! The compiled executor has three tiers (fused SIMD lane kernels in four
//! lane families — `[i32; W]`, `[i64; W/2]`, `[f32; W]`, `[f64; W/2]` —
//! per-op typed lane dispatch, per-element fallback — see `exec`'s module
//! docs). This suite pins the lowered backend to a matrix of [`Target`]s via
//! [`CompileOptions::target`] — no global state, so cases can run in
//! parallel — and asserts the outputs are bit-identical to the interpreter
//! oracle:
//!
//! * across every [`ScalarType`] as both input and output element type
//!   (`UInt64` outputs ride the `[i64; W/2]` family, `Float32` outputs the
//!   `[f32; W]` family, `Float64` outputs the `[f64; W/2]` family);
//! * across tiers: the pinned-scalar tier and the fused lane kernels;
//! * on odd/prime extents, so interior chunks always leave sub-width tails
//!   (executed as masked or overlapping fused chunks) and border peels;
//! * under tiles and on row lengths that reach every chunk width the engine
//!   picks from a row, in 3-D nests whose rows are shorter than one chunk,
//!   and on flattened buffers whose taps move with the row;
//! * on border-clamping stencils (negative and past-the-end tap offsets);
//! * on the u32 wrap-around idioms lifted binaries use (`4294967295 * x`
//!   negative taps, `255 ^ x` inversion, logical shifts of wrapped sums);
//! * for the f32 family: on NaN, ±Inf, subnormal and rounding-sensitive
//!   inputs, with rounding-disciplined expressions (every op under a
//!   `cast<float>`, the shape lifted single-precision SSE code takes);
//! * for the f64 family: the same special values with *unrounded*
//!   expressions — f64 lanes are the reference representation, so exactness
//!   comes free.
//!
//! The `HELIUM_FORCE_SCALAR=1` / `HELIUM_FORCE_SIMD=1`
//! environment variables apply the same pinning process-wide (read once by
//! [`Target::from_env`]); CI runs the whole test suite under each as
//! separate matrix legs, plus float- and 64-bit-filtered legs that
//! concentrate on the newer lane families.

use helium_halide::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Element types a buffer can carry.
const TYPES: [ScalarType; 7] = [
    ScalarType::UInt8,
    ScalarType::UInt16,
    ScalarType::UInt32,
    ScalarType::UInt64,
    ScalarType::Int32,
    ScalarType::Float32,
    ScalarType::Float64,
];

/// Odd and prime extents: interiors never divide evenly into 8/16/32-lane
/// chunks, so every case exercises the pre/post peels and the sub-width tail.
const EXTENTS: [usize; 6] = [5, 7, 11, 13, 23, 31];

/// Row extents for the tiling properties, reaching every chunk width the
/// engine picks from a row: 67 and 131 run 64-lane chunks (32 on the 64-bit
/// lanes) with an overlapping tail, 13 narrower ones, and 5 a masked chunk.
const TILE_EXTENTS: [usize; 4] = [5, 13, 67, 131];

/// Tiles for the tiling properties: 64×64 tiles give full-width rows, 7×5
/// rows take an overlapping tail on the 64-bit lanes and a masked chunk on
/// the 32-bit ones.
const TILES: [(usize, usize); 6] = [(4, 4), (8, 8), (16, 4), (5, 3), (64, 64), (7, 5)];

/// Float values that stress the `[f32; W]` family's invariant: NaN
/// propagation, infinities, a value that becomes subnormal after the f32
/// narrowing, the signed zero pair, and f32-rounding-sensitive fractions.
const FLOAT_SPECIALS: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e-40,
    -0.0,
    0.1,
    1.0 / 3.0,
    16_777_217.0, // 2^24 + 1: rounds under f32
];

fn image(ty: ScalarType, w: usize, h: usize, seed: u64) -> Buffer {
    grid(ty, &[w, h], seed)
}

/// A seed-filled buffer of any rank (see [`image`]).
fn grid(ty: ScalarType, extents: &[usize], seed: u64) -> Buffer {
    let mut b = Buffer::new(ty, extents);
    let mut s = seed | 1;
    for (i, c) in b.coords().collect::<Vec<_>>().into_iter().enumerate() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (s >> 29) as i64;
        let value = if ty.is_float() {
            // Sprinkle NaN/Inf/subnormal/rounding-sensitive values among
            // ordinary data so every float case exercises them.
            if i % 7 == 4 {
                Value::Float(FLOAT_SPECIALS[(s >> 33) as usize % FLOAT_SPECIALS.len()])
            } else {
                Value::Float((v % 4096) as f64 / 8.0 - 128.0)
            }
        } else {
            Value::Int(v)
        };
        // Buffer::set casts to the element type, so every type sees its full
        // value range.
        b.set(&c, value);
    }
    b
}

/// A stencil tap on `in` with the given offsets, widened like lifted code.
fn tap(dx: i64, dy: i64) -> Expr {
    Expr::cast(
        ScalarType::UInt32,
        Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        ),
    )
}

/// Stencil value expressions shaped like the lifted Fig. 7 filters plus the
/// shapes that stress the 32-bit lane invariant: u32 wrap-around negative
/// taps, xor-inversion, clamps, selects, ramps and shifted sums.
fn value_strategy() -> impl Strategy<Value = Expr> {
    let off = -3i64..4;
    let leaf = prop_oneof![
        (off.clone(), off.clone()).prop_map(|(dx, dy)| tap(dx, dy)),
        // u32 wrap-around "negative" tap, as lifted sharpen encodes -x.
        (off.clone(), off.clone()).prop_map(|(dx, dy)| Expr::cast(
            ScalarType::UInt32,
            Expr::mul(Expr::int(4294967295), tap(dx, dy))
        )),
        (-300i64..301).prop_map(Expr::int),
        Just(Expr::var("x_0")),
        Just(Expr::var("x_1")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), -9i64..10).prop_map(|(a, c)| Expr::mul(a, Expr::int(c))),
            // Inversion idiom: 255 ^ x.
            inner
                .clone()
                .prop_map(|a| Expr::bin(BinOp::Xor, Expr::int(255), a)),
            (inner.clone(), 0i64..6).prop_map(|(a, s)| Expr::bin(
                BinOp::Shr,
                Expr::cast(ScalarType::UInt32, a),
                Expr::uint(s)
            )),
            (inner.clone(), 0i64..5).prop_map(|(a, s)| Expr::bin(BinOp::Shl, a, Expr::int(s))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Min, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Max, a, b)),
            (inner.clone(), inner.clone(), inner.clone(), -200i64..201)
                .prop_map(|(c, t, f, k)| Expr::select(Expr::cmp(CmpOp::Lt, c, Expr::int(k)), t, f)),
            inner
                .clone()
                .prop_map(|a| Expr::cast(ScalarType::UInt16, a)),
        ]
    })
}

/// A raw tap on `in` (no widening cast), for float-typed inputs whose loads
/// are bit-exact as-is.
fn ftap(dx: i64, dy: i64) -> Expr {
    Expr::Image(
        "in".into(),
        vec![
            Expr::add(Expr::var("x_0"), Expr::int(dx)),
            Expr::add(Expr::var("x_1"), Expr::int(dy)),
        ],
    )
}

/// Rounding-disciplined float stencils for the `[f32; W]` lane family:
/// every arithmetic op sits under a `cast<float>` — the shape regenerated
/// single-precision SSE code has, since each instruction rounds at f32 —
/// plus the exact-without-rounding ops (min/max, compares, selects) and
/// f32-exact constants.
fn f32_value_strategy() -> impl Strategy<Value = Expr> {
    let f32c = |e: Expr| Expr::cast(ScalarType::Float32, e);
    let off = -2i64..3;
    // All exactly representable in f32; includes the weights miniGMG's
    // smooth uses and the signed-zero/negative cases.
    let consts = [0.5f64, (1.0f32 / 12.0) as f64, 3.25, -2.5, 1.0, -0.0, 255.0];
    let leaf = prop_oneof![
        (off.clone(), off.clone()).prop_map(|(dx, dy)| ftap(dx, dy)),
        prop::sample::select(consts.to_vec())
            .prop_map(|v| Expr::ConstFloat(v, ScalarType::Float32)),
        Just(Expr::var("x_0")),
    ];
    leaf.prop_recursive(3, 20, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(move |(a, b)| f32c(Expr::add(a, b))),
            (inner.clone(), inner.clone()).prop_map(move |(a, b)| f32c(Expr::bin(
                BinOp::Sub,
                a,
                b
            ))),
            (inner.clone(), inner.clone()).prop_map(move |(a, b)| f32c(Expr::mul(a, b))),
            (inner.clone(), inner.clone()).prop_map(move |(a, b)| f32c(Expr::bin(
                BinOp::Div,
                a,
                b
            ))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Min, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Max, a, b)),
            inner
                .clone()
                .prop_map(move |a| f32c(Expr::Call(ExternCall::Sqrt, vec![a]))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::select(
                Expr::cmp(CmpOp::Lt, c, Expr::ConstFloat(0.0, ScalarType::Float32)),
                t,
                f
            )),
        ]
    })
}

/// The pinned-target matrix every differential case runs under: the scalar
/// tier and the fused lane kernels.
fn target_matrix() -> [(&'static str, Target); 2] {
    [
        ("scalar", Target::detect().with_tier(Tier::Scalar)),
        ("simd", Target::detect().with_tier(Tier::Simd)),
    ]
}

/// Unrounded float stencils for the `[f64; W/2]` lane family: f64 lanes are
/// the reference representation, so no rounding discipline is needed — raw
/// adds, multiplies, divides, square roots, compares and selects over
/// Float64 taps and constants are exact by construction.
fn f64_value_strategy() -> impl Strategy<Value = Expr> {
    let off = -2i64..3;
    let consts = [
        0.5f64,
        1.0 / 12.0,
        3.25,
        -2.5,
        1.0,
        -0.0,
        255.0,
        0.1,
        1.0 / 3.0,
    ];
    let leaf = prop_oneof![
        (off.clone(), off.clone()).prop_map(|(dx, dy)| ftap(dx, dy)),
        prop::sample::select(consts.to_vec())
            .prop_map(|v| Expr::ConstFloat(v, ScalarType::Float64)),
        Just(Expr::var("x_0")),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Div, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Min, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Max, a, b)),
            inner
                .clone()
                .prop_map(|a| Expr::Call(ExternCall::Sqrt, vec![a])),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::select(
                Expr::cmp(CmpOp::Lt, c, Expr::ConstFloat(0.0, ScalarType::Float64)),
                t,
                f
            )),
        ]
    })
}

/// Compare the interpreter oracle with the lowered backend pinned to every
/// target in the matrix, for the given schedule.
fn assert_tiers_match_oracle(
    p: &Pipeline,
    schedule: &Schedule,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
) -> Result<(), TestCaseError> {
    let oracle = Realizer::new(schedule.clone())
        .with_backend(ExecBackend::Interpret)
        .realize(p, extents, inputs)
        .expect("interpreter realize");
    for (name, target) in target_matrix() {
        let compiled = p
            .compile(
                schedule,
                &CompileOptions {
                    backend: ExecBackend::Lowered,
                    target: Some(target),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let out = compiled.run(inputs, extents).expect("lowered run");
        prop_assert_eq!(
            &out,
            &oracle,
            "{} target diverged from the interpreter under [{}] over {:?}",
            name,
            schedule,
            extents
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property of the fused SIMD tier: random border-clamping
    /// stencils over every input/output element type, on prime extents, are
    /// bit-identical to the interpreter in both forced modes, vectorized or
    /// not.
    #[test]
    fn fused_and_scalar_tiers_match_interpreter(
        in_ty in prop::sample::select(TYPES.to_vec()),
        out_ty in prop::sample::select(TYPES.to_vec()),
        value in value_strategy(),
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            out_ty,
            Expr::cast(out_ty, value),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", in_ty, 2)]);
        let input = image(in_ty, w + 2, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_parallel(parallel)
            .with_vectorize(vectorize);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// Tiling adds symbolic tail extents to the vectorized loop; the interior
    /// derivation must stay exact under them.
    #[test]
    fn fused_tier_is_exact_under_tiling(
        value in value_strategy(),
        tile in prop::sample::select(TILES.to_vec()),
        wi in 0usize..TILE_EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (TILE_EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(ScalarType::UInt8, value),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);
        let input = image(ScalarType::UInt8, w + 3, h + 3, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_tile(Some(tile))
            .with_vectorize(true);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// The `[f32; W]` lane family's acceptance property: random
    /// rounding-disciplined float stencils over Float32 (and integer-widened)
    /// inputs seeded with NaN/±Inf/subnormal/rounding-sensitive values are
    /// bit-identical to the interpreter in both forced modes, on prime
    /// extents, vectorized or not and under parallelism.
    #[test]
    fn f32_family_matches_interpreter(
        in_ty in prop::sample::select(vec![
            ScalarType::Float32,
            ScalarType::UInt8,
            ScalarType::UInt16,
        ]),
        value in f32_value_strategy(),
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::Float32,
            value,
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", in_ty, 2)]);
        let input = image(in_ty, w + 2, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_parallel(parallel)
            .with_vectorize(vectorize);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// The `[f32; W]` family under tiling: symbolic tail extents drive the
    /// masked/overlapping tail chunks, which must stay bit-exact.
    #[test]
    fn f32_family_is_exact_under_tiling(
        value in f32_value_strategy(),
        tile in prop::sample::select(TILES.to_vec()),
        wi in 0usize..TILE_EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (TILE_EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure("out", &["x_0", "x_1"], ScalarType::Float32, value);
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::Float32, 2)]);
        let input = image(ScalarType::Float32, w + 3, h + 3, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_tile(Some(tile))
            .with_vectorize(true);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// The `[i64; W/2]` family under tiling: 64-bit outputs over tile tails
    /// and rows that reach every chunk width of the half-width lanes.
    #[test]
    fn i64_family_is_exact_under_tiling(
        value in value_strategy(),
        tile in prop::sample::select(TILES.to_vec()),
        wi in 0usize..TILE_EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (TILE_EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt64,
            Expr::cast(ScalarType::UInt64, value),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt32, 2)]);
        let input = image(ScalarType::UInt32, w + 3, h + 3, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_tile(Some(tile))
            .with_vectorize(true);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// The `[f64; W/2]` family under tiling, on the same tiles and rows.
    #[test]
    fn f64_family_is_exact_under_tiling(
        value in f64_value_strategy(),
        tile in prop::sample::select(TILES.to_vec()),
        wi in 0usize..TILE_EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (TILE_EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure("out", &["x_0", "x_1"], ScalarType::Float64, value);
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::Float64, 2)]);
        let input = image(ScalarType::Float64, w + 3, h + 3, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_tile(Some(tile))
            .with_vectorize(true);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// Rows shorter than one chunk in a 3-D nest — the lifted f64 smooth's
    /// rows are 12 lanes — on every lane family: a row runs one chunk and an
    /// overlapping tail, or a single masked chunk, tiled or not.
    #[test]
    fn short_rows_of_a_3d_nest_are_exact(
        out_ty in prop::sample::select(vec![
            ScalarType::UInt8,
            ScalarType::UInt64,
            ScalarType::Float32,
            ScalarType::Float64,
        ]),
        taps in prop::collection::vec((-1i64..2, -1i64..2, -1i64..2, 1i64..5), 1..6),
        extents in prop::sample::select(vec![[12usize, 10, 5], [3, 4, 2], [7, 9, 3]]),
        tile in prop::sample::select(vec![None, Some((4usize, 4usize)), Some((64, 64))]),
        seed in any::<u64>(),
    ) {
        // A weighted sum of taps on the 3-D grid, in the output's type (f32
        // rounding at every op, like lifted single-precision code).
        let in_ty = if out_ty.is_float() { out_ty } else { ScalarType::UInt16 };
        let typed = |e: Expr| Expr::cast(out_ty, e);
        let value = taps.iter().fold(None, |acc, &(dx, dy, dz, weight)| {
            let at = |v: &str, d: i64| Expr::add(Expr::var(v), Expr::int(d));
            let tap = Expr::Image("in".into(), vec![at("x_0", dx), at("x_1", dy), at("x_2", dz)]);
            let term = if out_ty.is_float() {
                typed(Expr::mul(tap, Expr::ConstFloat(weight as f64, out_ty)))
            } else {
                Expr::mul(Expr::cast(ScalarType::UInt32, tap), Expr::int(weight))
            };
            Some(match acc {
                Some(a) => typed(Expr::add(a, term)),
                None => typed(term),
            })
        });
        let out = Func::pure("out", &["x_0", "x_1", "x_2"], out_ty, value.expect("one tap"));
        let p = Pipeline::new(out, vec![ImageParam::new("in", in_ty, 3)]);
        let input = grid(in_ty, &[extents[0] + 2, extents[1] + 2, extents[2] + 2], seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive().with_tile(tile).with_vectorize(true);
        assert_tiers_match_oracle(&p, &schedule, &extents, &inputs)?;
    }

    /// Taps on a flattened buffer, as lifted code addresses its arrays
    /// (`in(x + stride·y + d)`): the lane index moves with the row, so rows
    /// share one interior only while every lane loads in range, and border
    /// rows, where offsets fall off either end, clamp per element.
    #[test]
    fn flattened_taps_moving_with_the_row_are_exact(
        out_ty in prop::sample::select(vec![ScalarType::UInt8, ScalarType::Float64]),
        offsets in prop::collection::vec(-20i64..21, 1..5),
        wi in 0usize..TILE_EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        tile in prop::sample::select(vec![None, Some((16usize, 4usize)), Some((64, 64))]),
        seed in any::<u64>(),
    ) {
        let (w, h) = (TILE_EXTENTS[wi], EXTENTS[hi]);
        let stride = w as i64 + 2;
        let in_ty = if out_ty.is_float() { out_ty } else { ScalarType::UInt16 };
        let value = offsets.iter().fold(None, |acc: Option<Expr>, &d| {
            let at = Expr::add(
                Expr::add(Expr::var("x_0"), Expr::mul(Expr::var("x_1"), Expr::int(stride))),
                Expr::int(d),
            );
            let tap = Expr::cast(out_ty, Expr::Image("in".into(), vec![at]));
            Some(match acc {
                Some(a) => Expr::cast(out_ty, Expr::add(a, tap)),
                None => tap,
            })
        });
        let out = Func::pure("out", &["x_0", "x_1"], out_ty, value.expect("one tap"));
        let p = Pipeline::new(out, vec![ImageParam::new("in", in_ty, 1)]);
        let input = grid(in_ty, &[(stride * (h as i64 + 1)) as usize], seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive().with_tile(tile).with_vectorize(true);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// The `[i64; W/2]` lane family's acceptance property: the integer
    /// strategy (wrap-around taps, shifted sums, clamps, selects) with
    /// 64-bit outputs — where the i32 wrap proofs are vacuous — stays
    /// bit-identical to the interpreter across extents, vectorized or not.
    #[test]
    fn i64_family_matches_interpreter(
        in_ty in prop::sample::select(vec![
            ScalarType::UInt8,
            ScalarType::UInt32,
            ScalarType::UInt64,
            ScalarType::Int32,
        ]),
        value in value_strategy(),
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt64,
            Expr::cast(ScalarType::UInt64, value),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", in_ty, 2)]);
        let input = image(in_ty, w + 2, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_parallel(parallel)
            .with_vectorize(vectorize);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// The `[f64; W/2]` lane family's acceptance property: random unrounded
    /// double-precision stencils over Float64 (and integer-widened) inputs
    /// seeded with NaN/±Inf/signed-zero values are bit-identical to the
    /// interpreter across the whole target matrix, on prime extents,
    /// vectorized or not and under parallelism.
    #[test]
    fn f64_family_matches_interpreter(
        in_ty in prop::sample::select(vec![
            ScalarType::Float64,
            ScalarType::UInt8,
            ScalarType::UInt16,
        ]),
        value in f64_value_strategy(),
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let out = Func::pure("out", &["x_0", "x_1"], ScalarType::Float64, value);
        let p = Pipeline::new(out, vec![ImageParam::new("in", in_ty, 2)]);
        let input = image(in_ty, w + 2, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive()
            .with_parallel(parallel)
            .with_vectorize(vectorize);
        assert_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }
}

/// The exact lifted filter idioms (invert's xor, blur's shifted sum,
/// sharpen's u32 wrap-around negative taps) must run on the fused tier —
/// this is the speedup the benchmarks claim — and agree with the oracle.
#[test]
fn lifted_filter_idioms_run_fused_and_agree() {
    let u32c = |e: Expr| Expr::cast(ScalarType::UInt32, e);
    let neg = |e: Expr| u32c(Expr::mul(Expr::int(4294967295), e));
    let shapes: Vec<(&str, Expr)> = vec![
        (
            "invert",
            Expr::cast(
                ScalarType::UInt8,
                u32c(Expr::bin(BinOp::Xor, Expr::int(255), tap(0, 0))),
            ),
        ),
        (
            "blur",
            Expr::cast(
                ScalarType::UInt8,
                u32c(Expr::bin(
                    BinOp::Shr,
                    u32c(Expr::add(
                        u32c(Expr::add(
                            u32c(Expr::add(
                                Expr::int(4),
                                u32c(Expr::mul(Expr::int(4), tap(1, 1))),
                            )),
                            tap(0, 1),
                        )),
                        tap(2, 1),
                    )),
                    Expr::uint(3),
                )),
            ),
        ),
        (
            "sharpen",
            Expr::cast(
                ScalarType::UInt8,
                u32c(Expr::bin(
                    BinOp::Shr,
                    u32c(Expr::add(
                        u32c(Expr::add(
                            u32c(Expr::add(
                                Expr::int(2),
                                u32c(Expr::mul(Expr::int(8), tap(1, 1))),
                            )),
                            neg(tap(0, 1)),
                        )),
                        neg(tap(2, 1)),
                    )),
                    Expr::uint(2),
                )),
            ),
        ),
    ];
    for (name, value) in shapes {
        let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value);
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);
        let input = image(ScalarType::UInt8, 37, 19, 0xF00D);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::stencil_default();

        let counters = CounterSnapshot::take();
        let compiled = p
            .compile(
                &schedule,
                &CompileOptions {
                    backend: ExecBackend::Lowered,
                    target: Some(Target::detect().with_tier(Tier::Simd)),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let fused = compiled.run(&inputs, &[37, 19]).expect("fused run");
        assert!(
            counters.delta().fused_rows > 0,
            "{name}: the fused tier must actually execute"
        );

        let oracle = Realizer::new(schedule)
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[37, 19], &inputs)
            .expect("oracle");
        assert_eq!(fused, oracle, "{name}: fused tier diverged from oracle");
    }
}

/// The miniGMG-smooth idiom — a rounding-disciplined Float32 weighted
/// stencil — must run on the `[f32; W]` lane family (this is the speedup the
/// float benchmark column claims) and agree with the oracle bit-for-bit on
/// inputs including NaN/Inf/subnormals.
#[test]
fn f32_smooth_idiom_runs_fused_and_agrees() {
    let f32c = |e: Expr| Expr::cast(ScalarType::Float32, e);
    let wn = Expr::ConstFloat((1.0f32 / 12.0) as f64, ScalarType::Float32);
    let wc = Expr::ConstFloat(0.5, ScalarType::Float32);
    // nsum rounds after every add, exactly like the regenerated SSE code.
    let nsum = f32c(Expr::add(
        f32c(Expr::add(
            f32c(Expr::add(ftap(-1, 0), ftap(1, 0))),
            ftap(0, -1),
        )),
        ftap(0, 1),
    ));
    let value = f32c(Expr::add(
        f32c(Expr::mul(nsum, wn)),
        f32c(Expr::mul(ftap(0, 0), wc)),
    ));
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::Float32, value);
    let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::Float32, 2)]);
    let input = image(ScalarType::Float32, 39, 21, 0x5EED);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let schedule = Schedule::stencil_default();

    let compiled = p
        .compile(
            &schedule,
            &CompileOptions {
                backend: ExecBackend::Lowered,
                target: Some(Target::detect().with_tier(Tier::Simd)),
                ..CompileOptions::default()
            },
        )
        .expect("compile");
    let counters = CounterSnapshot::take();
    let fused = compiled.run(&inputs, &[37, 19]).expect("fused run");
    assert!(
        counters.delta().fused_rows > 0,
        "the f32 fused tier must actually execute"
    );
    let counts = compiled
        .fused_store_counts(&inputs, &[37, 19])
        .expect("counts");
    assert_eq!(counts.lanes_f32, 1, "smooth must fuse on f32 lanes");
    assert!(counts.total() > 0);

    let oracle = Realizer::new(schedule)
        .with_backend(ExecBackend::Interpret)
        .realize(&p, &[37, 19], &inputs)
        .expect("oracle");
    assert_eq!(fused, oracle, "f32 smooth diverged from oracle");
}

/// The histogram-binning idiom — 64-bit weighted accumulation over narrow
/// taps — must run on the `[i64; W/2]` lane family and agree with the
/// oracle.
#[test]
fn i64_histogram_idiom_runs_fused_and_agrees() {
    let u64c = |e: Expr| Expr::cast(ScalarType::UInt64, e);
    // Bin-weighted sum exceeding 32 bits: tap * (2^32 + 1) + (tap' << 33).
    let value = u64c(Expr::add(
        Expr::mul(tap(0, 0), Expr::int(0x1_0000_0001)),
        Expr::bin(BinOp::Shl, u64c(tap(1, 1)), Expr::int(33)),
    ));
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt64, value);
    let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);
    let input = image(ScalarType::UInt8, 39, 21, 0xB16B);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let schedule = Schedule::stencil_default();

    let compiled = p
        .compile(
            &schedule,
            &CompileOptions {
                backend: ExecBackend::Lowered,
                target: Some(Target::detect().with_tier(Tier::Simd)),
                ..CompileOptions::default()
            },
        )
        .expect("compile");
    let counters = CounterSnapshot::take();
    let fused = compiled.run(&inputs, &[37, 19]).expect("fused run");
    // 37 does not divide any chunk width: the sub-width interior tail must
    // have run as a fused (masked or overlapping) chunk, not a scalar peel.
    assert!(
        counters.delta().fused_tails > 0,
        "sub-width tails must stay on tier 1"
    );
    let counts = compiled
        .fused_store_counts(&inputs, &[37, 19])
        .expect("counts");
    assert_eq!(
        counts.lanes_i64, 1,
        "histogram binning must fuse on i64 lanes"
    );

    let oracle = Realizer::new(schedule)
        .with_backend(ExecBackend::Interpret)
        .realize(&p, &[37, 19], &inputs)
        .expect("oracle");
    assert_eq!(fused, oracle, "i64 histogram diverged from oracle");
}
