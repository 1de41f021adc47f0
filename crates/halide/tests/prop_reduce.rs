//! Differential property suite for lowered update (reduction) definitions.
//!
//! The compiled engine now executes update definitions — guarded
//! `ReduceStore` nests with a privatized-vs-sequential accumulation strategy
//! and a fused integer tree-reduce for loop-invariant accumulators — while
//! `run_update`, the reduction interpreter, remains as the differential
//! oracle. This suite pins the compiled init+update nests bit-identical to
//! that oracle:
//!
//! * across every [`ScalarType`] as the accumulator element type (float
//!   accumulators stay on the sequential per-op path — float addition is not
//!   associative — and must still match bit-for-bit);
//! * on prime extents and prime reduction-domain bounds, so fused
//!   accumulation chunks always leave remainders for the per-element peel;
//! * on RDoms overlapping pure dims, including self-referencing accumulators
//!   like `f(x) = f(x) + r` (the privatized strategy: rdom loops hoisted,
//!   pure lanes vectorized) and order-sensitive scans reading `f(r - 1)`
//!   (the sequential strategy);
//! * on data-dependent histogram LHS indices, whose destinations clamp
//!   exactly like `Buffer::set`;
//! * under both execution tiers, pinned per compile via
//!   [`CompileOptions::target`].

use helium_halide::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Element types an accumulator can carry.
const TYPES: [ScalarType; 7] = [
    ScalarType::UInt8,
    ScalarType::UInt16,
    ScalarType::UInt32,
    ScalarType::UInt64,
    ScalarType::Int32,
    ScalarType::Float32,
    ScalarType::Float64,
];

/// Prime extents: fused reduce chunks (16/32 lanes) never divide evenly, so
/// every case exercises the per-element peel around the chunked interior.
const EXTENTS: [usize; 5] = [5, 11, 17, 37, 61];

fn image(w: usize, h: usize, seed: u64) -> Buffer {
    let mut b = Buffer::new(ScalarType::UInt8, &[w, h]);
    let mut s = seed | 1;
    for c in b.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b.set(&c, Value::Int(((s >> 33) % 256) as i64));
    }
    b
}

/// Compare the interpreter oracle (whose updates run through `run_update`)
/// with the lowered backend pinned to the per-op tier and the fused tier.
fn assert_update_tiers_match_oracle(
    p: &Pipeline,
    schedule: &Schedule,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
) -> Result<(), TestCaseError> {
    let oracle = Realizer::new(schedule.clone())
        .with_backend(ExecBackend::Interpret)
        .realize(p, extents, inputs)
        .expect("interpreter realize");
    // Explicit pins cover both tiers in any environment.
    for mode in [Target::detect().with_tier(Tier::Scalar), Target::detect()] {
        let compiled = p
            .compile(
                schedule,
                &CompileOptions {
                    backend: ExecBackend::Lowered,
                    target: Some(mode),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let out = compiled.run(inputs, extents).expect("lowered run");
        prop_assert_eq!(
            &out,
            &oracle,
            "{:?} tier diverged from run_update under [{}] over {:?}",
            mode,
            schedule,
            extents
        );
    }
    Ok(())
}

/// A stencil tap over the reduction variables, widened like lifted code.
fn rtap(dx: i64, dy: i64) -> Expr {
    Expr::cast(
        ScalarType::UInt32,
        Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::RVar("r_0.x".into()), Expr::int(dx)),
                Expr::add(Expr::RVar("r_0.y".into()), Expr::int(dy)),
            ],
        ),
    )
}

/// Added-term expressions `g` for accumulators `F[c] = F[c] + g`: rdom taps,
/// squares, shifted sums, rdom-variable ramps — the shapes residual norms
/// and weighted histogram bins take.
fn accum_term_strategy() -> impl Strategy<Value = Expr> {
    let off = 0i64..3;
    let leaf = prop_oneof![
        (off.clone(), off.clone()).prop_map(|(dx, dy)| rtap(dx, dy)),
        Just(Expr::RVar("r_0.x".into())),
        Just(Expr::RVar("r_0.y".into())),
        (1i64..300).prop_map(Expr::int),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            (inner.clone(), 0i64..5).prop_map(|(a, s)| Expr::bin(
                BinOp::Shr,
                Expr::cast(ScalarType::UInt32, a),
                Expr::uint(s)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Min, a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Loop-invariant accumulators (`norm[0] = norm[0] + g(r)`) across every
    /// accumulator type and prime rdom bounds: the integer ones ride the
    /// fused tree-reduce on the default tier, floats stay per-op — all must be
    /// bit-identical to `run_update`.
    #[test]
    fn invariant_accumulators_match_oracle(
        ty in prop::sample::select(TYPES.to_vec()),
        g in accum_term_strategy(),
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..3,
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let img = ImageParam::new("in", ScalarType::UInt8, 2);
        let update = UpdateDef {
            lhs: vec![Expr::int(1)],
            value: Expr::cast(
                ty,
                Expr::add(Expr::FuncRef("norm".into(), vec![Expr::int(1)]), g),
            ),
            rdom: RDom::with_constant_bounds("r_0", &[(0, w as i64), (0, h as i64)]),
        };
        let norm = Func::pure("norm", &["x_0"], ty, Expr::int(0)).with_update(update);
        let p = Pipeline::new(norm, vec![img]);
        let input = image(w + 2, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        assert_update_tiers_match_oracle(&p, &Schedule::stencil_default(), &[3], &inputs)?;
    }

    /// Histogram-style updates with data-dependent LHS indices (including
    /// out-of-range bins, which clamp like `Buffer::set`) match the oracle
    /// for every accumulator type.
    #[test]
    fn histogram_updates_match_oracle(
        ty in prop::sample::select(TYPES.to_vec()),
        bins in prop::sample::select(vec![7usize, 61, 256]),
        scale in 1i64..4,
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..3,
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let img = ImageParam::new("in", ScalarType::UInt8, 2);
        let rdom = RDom::over_image("r_0", &img);
        // Scaled bins overflow small `bins` extents: the clamped guarded
        // store and `Buffer::set` must agree on where they land.
        let lhs = Expr::mul(
            Expr::Image(
                "in".into(),
                vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
            ),
            Expr::int(scale),
        );
        let update = UpdateDef {
            lhs: vec![lhs.clone()],
            value: Expr::cast(
                ty,
                Expr::add(Expr::FuncRef("hist".into(), vec![lhs]), Expr::int(1)),
            ),
            rdom,
        };
        let hist = Func::pure("hist", &["x_0"], ty, Expr::int(0)).with_update(update);
        let p = Pipeline::new(hist, vec![img]);
        let input = image(w, h, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive().with_parallel(parallel);
        assert_update_tiers_match_oracle(&p, &schedule, &[bins], &inputs)?;
    }

    /// RDoms overlapping pure dims: the self-referencing accumulator
    /// `f(x, y) = f(x, y) + in(x + r.x, y)` takes the privatized strategy
    /// (vectorized pure lanes under hoisted rdom loops) and must match the
    /// oracle's pure-outer/rdom-inner order bit-for-bit, every type,
    /// serial or parallel.
    #[test]
    fn privatized_pure_dim_accumulators_match_oracle(
        ty in prop::sample::select(TYPES.to_vec()),
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..3,
        r_extent in 1i64..6,
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let img = ImageParam::new("in", ScalarType::UInt8, 2);
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let update = UpdateDef {
            lhs: vec![x.clone(), y.clone()],
            value: Expr::cast(
                ty,
                Expr::add(
                    Expr::FuncRef("f".into(), vec![x.clone(), y.clone()]),
                    Expr::add(
                        Expr::Image(
                            "in".into(),
                            vec![Expr::add(x.clone(), Expr::RVar("r_0.x".into())), y.clone()],
                        ),
                        Expr::RVar("r_0.x".into()),
                    ),
                ),
            ),
            rdom: RDom::with_constant_bounds("r_0", &[(0, r_extent)]),
        };
        let f = Func::pure(
            "f",
            &["x_0", "x_1"],
            ty,
            Expr::cast(ty, Expr::add(x, Expr::mul(y, Expr::int(3)))),
        )
        .with_update(update);
        let p = Pipeline::new(f, vec![img]);
        let input = image(w + 8, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let schedule = Schedule::naive().with_parallel(parallel);
        assert_update_tiers_match_oracle(&p, &schedule, &[w, h], &inputs)?;
    }

    /// Order-sensitive scans (`f(r) = f(r - 1) + in(r)`) take the sequential
    /// strategy; the compiled per-element order must replicate the oracle's
    /// exactly — any reordering would change every prefix.
    #[test]
    fn sequential_scans_match_oracle(
        ty in prop::sample::select(TYPES.to_vec()),
        wi in 0usize..EXTENTS.len(),
        seed in any::<u64>(),
    ) {
        let w = EXTENTS[wi];
        let img = ImageParam::new("in", ScalarType::UInt8, 2);
        let r = Expr::RVar("r_0.x".into());
        let update = UpdateDef {
            lhs: vec![r.clone()],
            value: Expr::cast(
                ty,
                Expr::add(
                    Expr::FuncRef("f".into(), vec![Expr::add(r.clone(), Expr::int(-1))]),
                    Expr::cast(
                        ScalarType::UInt32,
                        Expr::Image("in".into(), vec![r, Expr::int(0)]),
                    ),
                ),
            ),
            rdom: RDom::with_constant_bounds("r_0", &[(0, w as i64)]),
        };
        let f = Func::pure("f", &["x_0"], ty, Expr::int(0)).with_update(update);
        let p = Pipeline::new(f, vec![img]);
        let input = image(w, 3, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        assert_update_tiers_match_oracle(&p, &Schedule::stencil_default(), &[w], &inputs)?;
    }

    /// Multiple update definitions apply in declaration order: a histogram
    /// pass followed by a scan over the bins (the lifted equalize shape).
    #[test]
    fn chained_updates_apply_in_order(
        ty in prop::sample::select(vec![
            ScalarType::UInt32,
            ScalarType::UInt64,
            ScalarType::Int32,
        ]),
        wi in 0usize..EXTENTS.len(),
        seed in any::<u64>(),
    ) {
        let w = EXTENTS[wi];
        let img = ImageParam::new("h", ScalarType::UInt8, 2);
        let binning = {
            let lhs = Expr::Image(
                "h".into(),
                vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
            );
            UpdateDef {
                lhs: vec![lhs.clone()],
                value: Expr::cast(
                    ty,
                    Expr::add(Expr::FuncRef("cdf".into(), vec![lhs]), Expr::int(1)),
                ),
                rdom: RDom::over_image("r_0", &img),
            }
        };
        let prefix = {
            let r = Expr::RVar("r_1.x".into());
            UpdateDef {
                lhs: vec![r.clone()],
                value: Expr::cast(
                    ty,
                    Expr::add(
                        Expr::FuncRef("cdf".into(), vec![Expr::add(r.clone(), Expr::int(-1))]),
                        Expr::FuncRef("cdf".into(), vec![r]),
                    ),
                ),
                rdom: RDom::with_constant_bounds("r_1", &[(1, 255)]),
            }
        };
        let cdf = Func::pure("cdf", &["x_0"], ty, Expr::int(0))
            .with_update(binning)
            .with_update(prefix);
        let p = Pipeline::new(cdf, vec![img]);
        let input = image(w, 5, seed);
        let inputs = RealizeInputs::new().with_image("h", &input);
        assert_update_tiers_match_oracle(&p, &Schedule::stencil_default(), &[256], &inputs)?;
    }
}

/// Non-vacuity guard for the differential legs: the reductions above must
/// actually execute through the compiled engine (`interpreted == 0`) and,
/// under the fused tier, advance the tree-reduce chunk counter.
#[test]
fn reduction_suite_is_not_vacuous() {
    let img = ImageParam::new("in", ScalarType::UInt8, 2);
    let g = Expr::cast(
        ScalarType::UInt64,
        Expr::Image(
            "in".into(),
            vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
        ),
    );
    let update = UpdateDef {
        lhs: vec![Expr::int(0)],
        value: Expr::add(
            Expr::FuncRef("norm".into(), vec![Expr::int(0)]),
            Expr::mul(g.clone(), g),
        ),
        rdom: RDom::over_image("r_0", &img),
    };
    let norm = Func::pure("norm", &["x_0"], ScalarType::UInt64, Expr::int(0)).with_update(update);
    let p = Pipeline::new(norm, vec![img]);
    let input = image(131, 7, 0xACC);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let counters = CounterSnapshot::take();
    let compiled = p
        .compile(
            &Schedule::stencil_default(),
            &CompileOptions {
                target: Some(Target::detect()),
                ..CompileOptions::default()
            },
        )
        .expect("compile");
    let out = compiled.run(&inputs, &[1]).expect("run");
    assert_eq!(
        compiled.update_counts(&inputs, &[1]).expect("counts"),
        UpdateCounts {
            compiled: 1,
            interpreted: 0
        },
        "the suite must exercise compiled reductions, not the interpreter"
    );
    assert!(
        counters.delta().reduce_chunks > 0,
        "the fused tree-reduce must have executed"
    );
    let oracle = Realizer::new(Schedule::stencil_default())
        .with_backend(ExecBackend::Interpret)
        .realize(&p, &[1], &inputs)
        .expect("oracle");
    assert_eq!(out, oracle);
}
