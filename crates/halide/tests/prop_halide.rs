//! Property-based tests for the miniature Halide substrate: buffers, typed
//! expression evaluation, bounds inference, and — most importantly — the
//! guarantee that re-scheduling a pipeline (tiling, parallelizing,
//! vectorizing, fusing) never changes the values it computes. That invariant
//! is what lets the lifted kernels be autotuned safely.

use helium_halide::bounds::{expr_interval, Interval};
use helium_halide::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Buffers
// ---------------------------------------------------------------------------

proptest! {
    /// Values written to a buffer are read back unchanged at the same index,
    /// for every supported element type.
    #[test]
    fn buffer_set_get_roundtrip(
        w in 1usize..24,
        h in 1usize..16,
        xs in prop::collection::vec((0usize..24, 0usize..16, any::<u8>()), 1..20),
    ) {
        let mut b8 = Buffer::new(ScalarType::UInt8, &[w, h]);
        let mut b32 = Buffer::new(ScalarType::Int32, &[w, h]);
        let mut bf = Buffer::new(ScalarType::Float64, &[w, h]);
        for &(x, y, v) in &xs {
            let (x, y) = (x % w, y % h);
            b8.set(&[x as i64, y as i64], Value::Int(v as i64));
            b32.set(&[x as i64, y as i64], Value::Int(v as i64 * 3 - 100));
            bf.set(&[x as i64, y as i64], Value::Float(v as f64 / 7.0));
        }
        for &(x, y, v) in xs.iter().rev() {
            let (x, y) = (x % w, y % h);
            // Later writes win; only check coordinates whose last write is this entry.
            let last = xs.iter().rposition(|&(a, b2, _)| (a % w, b2 % h) == (x, y)).unwrap();
            let (_, _, lv) = xs[last];
            let _ = v;
            prop_assert_eq!(b8.get(&[x as i64, y as i64]), Value::Int(lv as i64));
            prop_assert_eq!(b32.get(&[x as i64, y as i64]), Value::Int(lv as i64 * 3 - 100));
            prop_assert_eq!(bf.get(&[x as i64, y as i64]), Value::Float(lv as f64 / 7.0));
        }
    }

    /// Buffer geometry: length is the product of the extents, strides are
    /// row-major (innermost first), and `coords()` enumerates exactly `len`
    /// distinct coordinates, each in range.
    #[test]
    fn buffer_geometry_is_consistent(extents in prop::collection::vec(1usize..8, 1..4)) {
        let b = Buffer::new(ScalarType::UInt8, &extents);
        let expected_len: usize = extents.iter().product();
        prop_assert_eq!(b.len(), expected_len);
        prop_assert_eq!(b.dims(), extents.len());
        prop_assert_eq!(b.bytes().len(), expected_len * ScalarType::UInt8.bytes());
        let coords: Vec<Vec<i64>> = b.coords().collect();
        prop_assert_eq!(coords.len(), expected_len);
        let unique: std::collections::BTreeSet<Vec<i64>> = coords.iter().cloned().collect();
        prop_assert_eq!(unique.len(), expected_len, "coordinates must be distinct");
        for c in &coords {
            for (d, &i) in c.iter().enumerate() {
                prop_assert!(i >= 0 && (i as usize) < extents[d]);
            }
        }
    }

    /// `fill_from_u8` followed by element reads sees exactly the source bytes
    /// in linear (row-major) order.
    #[test]
    fn buffer_fill_from_u8_matches_linear_order(w in 1usize..16, h in 1usize..12) {
        let mut b = Buffer::new(ScalarType::UInt8, &[w, h]);
        let src: Vec<u8> = (0..w * h).map(|i| (i * 7 % 251) as u8).collect();
        b.fill_from_u8(&src);
        for (i, &v) in src.iter().enumerate() {
            prop_assert_eq!(b.get_linear(i), Value::Int(v as i64));
        }
        prop_assert_eq!(b.as_u8_slice(), &src[..]);
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation and structure
// ---------------------------------------------------------------------------

proptest! {
    /// Integer binary-operator evaluation agrees with the corresponding Rust
    /// operators for the arithmetic subset.
    #[test]
    fn eval_binop_matches_rust(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        use helium_halide::expr::eval_binop;
        prop_assert_eq!(eval_binop(BinOp::Add, Value::Int(a), Value::Int(b)).as_i64(), a + b);
        prop_assert_eq!(eval_binop(BinOp::Sub, Value::Int(a), Value::Int(b)).as_i64(), a - b);
        prop_assert_eq!(eval_binop(BinOp::Mul, Value::Int(a), Value::Int(b)).as_i64(), a * b);
        prop_assert_eq!(eval_binop(BinOp::Min, Value::Int(a), Value::Int(b)).as_i64(), a.min(b));
        prop_assert_eq!(eval_binop(BinOp::Max, Value::Int(a), Value::Int(b)).as_i64(), a.max(b));
    }

    /// Commutative operators really are commutative under evaluation, and the
    /// `is_commutative` classification matches.
    #[test]
    fn commutative_ops_commute(a in -1000i64..1000, b in -1000i64..1000) {
        use helium_halide::expr::eval_binop;
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max, BinOp::And, BinOp::Or, BinOp::Xor] {
            let (aa, bb) = (a.unsigned_abs() as i64, b.unsigned_abs() as i64);
            prop_assert_eq!(
                eval_binop(op, Value::Int(aa), Value::Int(bb)).as_i64(),
                eval_binop(op, Value::Int(bb), Value::Int(aa)).as_i64(),
                "{:?} must commute", op
            );
        }
        prop_assert!(BinOp::Add.is_commutative());
        prop_assert!(BinOp::Mul.is_commutative());
        prop_assert!(!BinOp::Sub.is_commutative());
    }

    /// Comparison evaluation agrees with Rust comparisons and always yields a
    /// boolean (0/1) value.
    #[test]
    fn eval_cmp_matches_rust(a in -1000i64..1000, b in -1000i64..1000) {
        use helium_halide::expr::eval_cmp;
        let cases = [
            (CmpOp::Lt, a < b),
            (CmpOp::Le, a <= b),
            (CmpOp::Gt, a > b),
            (CmpOp::Ge, a >= b),
            (CmpOp::Eq, a == b),
            (CmpOp::Ne, a != b),
        ];
        for (op, expect) in cases {
            let v = eval_cmp(op, Value::Int(a), Value::Int(b));
            prop_assert_eq!(v.is_true(), expect, "{:?}", op);
            prop_assert!(v.as_i64() == 0 || v.as_i64() == 1);
        }
    }

    /// Casting through the narrow unsigned types truncates exactly like the
    /// corresponding Rust `as` conversions.
    #[test]
    fn value_casts_truncate_like_rust(v in any::<i64>()) {
        prop_assert_eq!(Value::Int(v).cast(ScalarType::UInt8).as_i64(), v as u8 as i64);
        prop_assert_eq!(Value::Int(v).cast(ScalarType::UInt16).as_i64(), v as u16 as i64);
        prop_assert_eq!(Value::Int(v).cast(ScalarType::Int32).as_i64(), v as i32 as i64);
    }

    /// Variable substitution replaces every occurrence of the substituted
    /// variables and leaves the rest of the expression intact.
    #[test]
    fn substitution_replaces_all_occurrences(dx in -5i64..6, dy in -5i64..6) {
        let e = Expr::add(
            Expr::mul(Expr::var("x_0"), Expr::int(3)),
            Expr::add(Expr::var("x_1"), Expr::var("x_0")),
        );
        let substituted = e.substitute(&|name| {
            if name == "x_0" {
                Some(Expr::add(Expr::var("x_0"), Expr::int(dx)))
            } else if name == "x_1" {
                Some(Expr::int(dy))
            } else {
                None
            }
        });
        let printed = substituted.to_string();
        prop_assert!(!printed.contains("x_1"), "x_1 must be gone: {printed}");
        prop_assert!(substituted.node_count() >= e.node_count());
    }
}

// ---------------------------------------------------------------------------
// Bounds inference
// ---------------------------------------------------------------------------

proptest! {
    /// The inferred interval of an affine expression contains the value the
    /// expression actually takes for every in-bounds assignment of the
    /// variables — the soundness property bounds inference needs so producers
    /// are never sized too small.
    #[test]
    fn expr_interval_is_sound_for_affine_exprs(
        a in -4i64..5,
        b in -4i64..5,
        c in -8i64..9,
        x_max in 1i64..32,
        y_max in 1i64..32,
        x in 0i64..32,
        y in 0i64..32,
    ) {
        let x = x % (x_max + 1);
        let y = y % (y_max + 1);
        let e = Expr::add(
            Expr::add(
                Expr::mul(Expr::int(a), Expr::var("x_0")),
                Expr::mul(Expr::int(b), Expr::var("x_1")),
            ),
            Expr::int(c),
        );
        let mut bounds = BTreeMap::new();
        bounds.insert("x_0".to_string(), Interval::new(0, x_max));
        bounds.insert("x_1".to_string(), Interval::new(0, y_max));
        let params = BTreeMap::new();
        let interval = expr_interval(&e, &bounds, &params);
        let actual = a * x + b * y + c;
        prop_assert!(
            interval.min <= actual && actual <= interval.max,
            "value {actual} outside inferred interval [{}, {}]",
            interval.min,
            interval.max
        );
    }

    /// Interval union is commutative, idempotent and contains both operands.
    #[test]
    fn interval_union_properties(a in -100i64..100, b in -100i64..100, c in -100i64..100, d in -100i64..100) {
        let i1 = Interval::new(a.min(b), a.max(b));
        let i2 = Interval::new(c.min(d), c.max(d));
        let u = i1.union(i2);
        prop_assert_eq!(u, i2.union(i1));
        prop_assert_eq!(i1.union(i1), i1);
        prop_assert!(u.min <= i1.min && u.max >= i1.max);
        prop_assert!(u.min <= i2.min && u.max >= i2.max);
        prop_assert_eq!(u.extent(), u.max - u.min + 1);
    }

    /// Select expressions are bounded by the union of their branches.
    #[test]
    fn select_interval_covers_both_branches(t in -50i64..50, e in -50i64..50) {
        let expr = Expr::select(
            Expr::cmp(CmpOp::Lt, Expr::var("x_0"), Expr::int(10)),
            Expr::int(t),
            Expr::int(e),
        );
        let mut bounds = BTreeMap::new();
        bounds.insert("x_0".to_string(), Interval::new(0, 20));
        let interval = expr_interval(&expr, &bounds, &BTreeMap::new());
        prop_assert!(interval.min <= t.min(e));
        prop_assert!(interval.max >= t.max(e));
    }
}

// ---------------------------------------------------------------------------
// Schedule invariance of realization
// ---------------------------------------------------------------------------

/// A 3×1 blur with a downcast, shaped like the paper's running example.
fn blur_pipeline() -> Pipeline {
    let x = Expr::var("x_0");
    let y = Expr::var("x_1");
    let at = |dx: i64, dy: i64| {
        Expr::cast(
            ScalarType::UInt32,
            Expr::Image(
                "input_1".into(),
                vec![
                    Expr::add(x.clone(), Expr::int(dx)),
                    Expr::add(y.clone(), Expr::int(dy)),
                ],
            ),
        )
    };
    let sum = Expr::add(
        Expr::add(Expr::int(2), Expr::mul(Expr::int(2), at(1, 1))),
        Expr::add(at(0, 1), at(2, 1)),
    );
    let value = Expr::cast(
        ScalarType::UInt8,
        Expr::bin(
            BinOp::Shr,
            sum,
            Expr::cast(ScalarType::UInt32, Expr::int(2)),
        ),
    );
    Pipeline::new(
        Func::pure("output_1", &["x_0", "x_1"], ScalarType::UInt8, value),
        vec![ImageParam::new("input_1", ScalarType::UInt8, 2)],
    )
}

/// A two-stage pipeline (brighten then scale) exercising inlining/compute-root.
fn two_stage_pipeline() -> Pipeline {
    let x = Expr::var("x_0");
    let y = Expr::var("x_1");
    let bright = Func::pure(
        "bright",
        &["x_0", "x_1"],
        ScalarType::UInt16,
        Expr::add(
            Expr::cast(
                ScalarType::UInt16,
                Expr::Image("input_1".into(), vec![x.clone(), y.clone()]),
            ),
            Expr::int(17),
        ),
    );
    let out = Func::pure(
        "output_1",
        &["x_0", "x_1"],
        ScalarType::UInt8,
        Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Min,
                Expr::mul(Expr::FuncRef("bright".into(), vec![x, y]), Expr::int(2)),
                Expr::int(255),
            ),
        ),
    );
    Pipeline::new(out, vec![ImageParam::new("input_1", ScalarType::UInt8, 2)]).with_func(bright)
}

fn pseudo_random_image(w: usize, h: usize, seed: u64) -> Buffer {
    let mut b = Buffer::new(ScalarType::UInt8, &[w, h]);
    let mut state = seed | 1;
    for y in 0..h {
        for x in 0..w {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.set(
                &[x as i64, y as i64],
                Value::Int(((state >> 33) % 256) as i64),
            );
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-scheduling never changes the computed values: naive, tiled,
    /// parallel, vectorized and combined schedules all produce the same
    /// output buffer for the same pipeline and inputs.
    #[test]
    fn schedules_do_not_change_results(
        w in 6usize..40,
        h in 6usize..28,
        seed in any::<u64>(),
        tile_w in 2usize..16,
        tile_h in 2usize..16,
        vectorize in any::<bool>(),
    ) {
        let p = blur_pipeline();
        let input = pseudo_random_image(w + 2, h + 2, seed);
        let inputs = RealizeInputs::new().with_image("input_1", &input);

        let baseline = Realizer::new(Schedule::naive()).realize(&p, &[w, h], &inputs).unwrap();
        let schedules = vec![
            Schedule::naive().with_tile(Some((tile_w, tile_h))),
            Schedule::naive().with_parallel(true).with_threads(3),
            Schedule::naive().with_vectorize(vectorize),
            Schedule::stencil_default(),
            Schedule::stencil_default()
                .with_tile(Some((tile_w, tile_h)))
                .with_parallel(true)
                .with_vectorize(vectorize),
        ];
        for s in schedules {
            let label = s.to_string();
            let out = Realizer::new(s).realize(&p, &[w, h], &inputs).unwrap();
            prop_assert_eq!(&out, &baseline, "schedule {} changed the result", label);
        }
    }

    /// Inlining a producer versus computing it at root never changes results,
    /// for any tiling of the consumer.
    #[test]
    fn compute_root_is_value_preserving(
        w in 4usize..32,
        h in 4usize..24,
        seed in any::<u64>(),
        tile in 2usize..10,
    ) {
        let p = two_stage_pipeline();
        let input = pseudo_random_image(w, h, seed);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let inlined = Realizer::new(Schedule::naive()).realize(&p, &[w, h], &inputs).unwrap();
        let rooted = Realizer::new(
            Schedule::naive().with_compute_root("bright").with_tile(Some((tile, tile))),
        )
        .realize(&p, &[w, h], &inputs)
        .unwrap();
        prop_assert_eq!(inlined, rooted);
    }

    /// Fusing two pointwise pipelines with `compose_after` computes the same
    /// values as applying them one after the other through an intermediate
    /// buffer.
    #[test]
    fn fusion_matches_sequential_application(w in 4usize..32, h in 4usize..20, seed in any::<u64>()) {
        // Stage 1: invert. Stage 2: halve.
        let invert = Pipeline::new(
            Func::pure(
                "inverted",
                &["x_0", "x_1"],
                ScalarType::UInt8,
                Expr::cast(
                    ScalarType::UInt8,
                    Expr::bin(
                        BinOp::Sub,
                        Expr::int(255),
                        Expr::Image("input_1".into(), vec![Expr::var("x_0"), Expr::var("x_1")]),
                    ),
                ),
            ),
            vec![ImageParam::new("input_1", ScalarType::UInt8, 2)],
        );
        let halve = Pipeline::new(
            Func::pure(
                "halved",
                &["x_0", "x_1"],
                ScalarType::UInt8,
                Expr::cast(
                    ScalarType::UInt8,
                    Expr::bin(
                        BinOp::Shr,
                        Expr::Image("stage_in".into(), vec![Expr::var("x_0"), Expr::var("x_1")]),
                        Expr::uint(1),
                    ),
                ),
            ),
            vec![ImageParam::new("stage_in", ScalarType::UInt8, 2)],
        );

        let input = pseudo_random_image(w, h, seed);

        // Sequential: realize invert, feed its output to halve.
        let inputs1 = RealizeInputs::new().with_image("input_1", &input);
        let mid = Realizer::default().realize(&invert, &[w, h], &inputs1).unwrap();
        let inputs2 = RealizeInputs::new().with_image("stage_in", &mid);
        let sequential = Realizer::default().realize(&halve, &[w, h], &inputs2).unwrap();

        // Fused: halve ∘ invert as a single pipeline.
        let fused = halve.compose_after(&invert, "stage_in");
        prop_assert!(fused.images.contains_key("input_1"));
        prop_assert!(!fused.images.contains_key("stage_in"));
        let out = Realizer::new(Schedule::stencil_default())
            .realize(&fused, &[w, h], &RealizeInputs::new().with_image("input_1", &input))
            .unwrap();
        prop_assert_eq!(out, sequential);
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated Halide C++ source always declares every image parameter, the
    /// output function, and the `compile_to_file` call, and mentions every
    /// pure variable of the output func.
    #[test]
    fn generated_source_mentions_all_interface_elements(emit_main in any::<bool>()) {
        let p = blur_pipeline();
        let options = CodegenOptions { output_name: "halide_out_test".into(), emit_main };
        let src = generate_halide_source(&p, &options);
        prop_assert!(src.contains("ImageParam"));
        prop_assert!(src.contains("input_1"));
        prop_assert!(src.contains("output_1"));
        prop_assert!(src.contains("Var x_0"));
        prop_assert!(src.contains("Var x_1"));
        if emit_main {
            prop_assert!(src.contains("compile_to_file"));
            prop_assert!(src.contains("halide_out_test"));
        }
    }
}

// ---------------------------------------------------------------------------
// Differential testing: the lowered backend against the interpreter oracle
// ---------------------------------------------------------------------------

use helium_halide::realize::ExecBackend;

/// Random expressions over a 2-D `UInt8` image and the producer funcs
/// `stage_a`/`stage_b`, shaped like lifted stencils: widening casts around
/// loads, integer arithmetic, shifts by small constants, min/max and selects.
/// `func_off_lo` bounds the producer access offsets: negative offsets
/// exercise the clamped-boundary paths (where only backend *parity* is
/// guaranteed, as in Halide without boundary conditions), non-negative
/// offsets additionally guarantee schedule *invariance*.
fn stencil_expr_strategy(func_off_lo: i64) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-16i64..17).prop_map(Expr::int),
        Just(Expr::var("x_0")),
        Just(Expr::var("x_1")),
        (-2i64..3, -2i64..3).prop_map(|(dx, dy)| Expr::cast(
            ScalarType::UInt32,
            Expr::Image(
                "input_1".into(),
                vec![
                    Expr::add(Expr::var("x_0"), Expr::int(dx)),
                    Expr::add(Expr::var("x_1"), Expr::int(dy)),
                ],
            )
        )),
        (func_off_lo..3, func_off_lo..3).prop_map(|(dx, dy)| Expr::FuncRef(
            "stage_a".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        )),
        (func_off_lo..3, func_off_lo..3).prop_map(|(dx, dy)| Expr::FuncRef(
            "stage_b".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        )),
        // Non-affine producer indexing (x*y) exercises the lowering pass's
        // degrade-to-compute_root path.
        Just(Expr::FuncRef(
            "stage_a".into(),
            vec![
                Expr::mul(Expr::var("x_0"), Expr::var("x_1")),
                Expr::var("x_1")
            ],
        )),
    ];
    leaf.prop_recursive(3, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), (-4i64..5)).prop_map(|(a, c)| Expr::mul(a, Expr::int(c))),
            (inner.clone(), (0i64..5)).prop_map(|(a, s)| Expr::bin(BinOp::Shr, a, Expr::int(s))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Min, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Max, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Xor, a, b)),
            (inner.clone(), inner.clone(), inner.clone(), (-64i64..65))
                .prop_map(|(c, t, f, k)| Expr::select(Expr::cmp(CmpOp::Lt, c, Expr::int(k)), t, f)),
            inner
                .clone()
                .prop_map(|a| Expr::cast(ScalarType::UInt16, Expr::cast(ScalarType::UInt32, a))),
        ]
    })
}

/// The producer's own definition: a small stencil over the input image only.
fn producer_expr_strategy() -> impl Strategy<Value = Expr> {
    (-2i64..3, -2i64..3, -8i64..9, 0i64..3).prop_map(|(dx, dy, c, s)| {
        Expr::bin(
            BinOp::Shr,
            Expr::add(
                Expr::cast(
                    ScalarType::UInt32,
                    Expr::Image(
                        "input_1".into(),
                        vec![
                            Expr::add(Expr::var("x_0"), Expr::int(dx)),
                            Expr::add(Expr::var("x_1"), Expr::int(dy)),
                        ],
                    ),
                ),
                Expr::int(c),
            ),
            Expr::int(s),
        )
    })
}

/// Random three-stage pipelines: `stage_a` reads the input, `stage_b` reads
/// `stage_a` (a producer *chain*, so placements interact), and `output_1`
/// may read either stage directly.
fn pipeline_strategy(func_off_lo: i64) -> impl Strategy<Value = Pipeline> {
    (
        stencil_expr_strategy(func_off_lo),
        producer_expr_strategy(),
        (func_off_lo..3, func_off_lo..3, 0i64..9),
    )
        .prop_map(|(out_e, prod_e, (bdx, bdy, bc))| {
            let stage_a = Func::pure("stage_a", &["x_0", "x_1"], ScalarType::UInt16, prod_e);
            let stage_b = Func::pure(
                "stage_b",
                &["x_0", "x_1"],
                ScalarType::UInt16,
                Expr::add(
                    Expr::FuncRef(
                        "stage_a".into(),
                        vec![
                            Expr::add(Expr::var("x_0"), Expr::int(bdx)),
                            Expr::add(Expr::var("x_1"), Expr::int(bdy)),
                        ],
                    ),
                    Expr::int(bc),
                ),
            );
            let out = Func::pure(
                "output_1",
                &["x_0", "x_1"],
                ScalarType::UInt8,
                Expr::cast(ScalarType::UInt8, out_e),
            );
            Pipeline::new(out, vec![ImageParam::new("input_1", ScalarType::UInt8, 2)])
                .with_func(stage_a)
                .with_func(stage_b)
        })
}

/// Random schedules spanning every knob, including the compute_at directive.
fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (
        any::<bool>(),
        0usize..4,
        prop::sample::select(vec![
            None,
            Some((4usize, 4usize)),
            Some((8, 8)),
            Some((16, 4)),
        ]),
        any::<bool>(),
        0u8..3,
        prop::sample::select(vec!["x_0", "x_1"]),
        0u8..3,
        prop::sample::select(vec!["x_0", "x_1"]),
    )
        .prop_map(
            |(parallel, threads, tile, vectorize, place_a, var_a, place_b, var_b)| {
                let mut s = Schedule::naive()
                    .with_parallel(parallel)
                    .with_threads(threads)
                    .with_tile(tile)
                    .with_vectorize(vectorize);
                match place_a {
                    1 => s = s.with_compute_root("stage_a"),
                    2 => s = s.with_compute_at("stage_a", var_a),
                    _ => {}
                }
                match place_b {
                    1 => s = s.with_compute_root("stage_b"),
                    2 => s = s.with_compute_at("stage_b", var_b),
                    _ => {}
                }
                s
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property of the lowering subsystem: for random
    /// pipelines under random schedules, the lowered backend produces buffers
    /// bit-identical to the interpreter oracle.
    #[test]
    fn lowered_backend_matches_interpreter(
        p in pipeline_strategy(-2),
        schedule in schedule_strategy(),
        w in 5usize..24,
        h in 5usize..20,
        seed in any::<u64>(),
    ) {
        let input = pseudo_random_image(w + 4, h + 4, seed);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let interpreted = Realizer::new(schedule.clone())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[w, h], &inputs)
            .unwrap();
        let lowered = Realizer::new(schedule.clone())
            .with_backend(ExecBackend::Lowered)
            .realize(&p, &[w, h], &inputs)
            .unwrap();
        prop_assert_eq!(
            &interpreted, &lowered,
            "backends diverged under [{}] over {}x{}", schedule, w, h
        );
    }

    /// Beyond backend parity: for pipelines whose producer accesses never go
    /// below zero (so no read hits a materialized buffer's clamped lower
    /// boundary, where inline and compute_root placements legitimately differ
    /// — Halide would require an explicit boundary condition there), *any*
    /// schedule on *either* backend computes exactly the naive values.
    #[test]
    fn schedules_preserve_values(
        p in pipeline_strategy(0),
        schedule in schedule_strategy(),
        w in 5usize..24,
        h in 5usize..20,
        seed in any::<u64>(),
    ) {
        let input = pseudo_random_image(w + 4, h + 4, seed);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let naive = Realizer::new(Schedule::naive())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[w, h], &inputs)
            .unwrap();
        for backend in [ExecBackend::Interpret, ExecBackend::Lowered] {
            let out = Realizer::new(schedule.clone())
                .with_backend(backend)
                .realize(&p, &[w, h], &inputs)
                .unwrap();
            prop_assert_eq!(
                &out, &naive,
                "{:?} under [{}] changed values over {}x{}", backend, schedule, w, h
            );
        }
    }

    /// The compile-once/run-many API is observationally identical to the
    /// one-shot path: for random pipelines, schedules and backends,
    /// `CompiledPipeline::run` returns buffers bit-identical to a fresh
    /// `Realizer::realize` — across different extents and across repeated
    /// runs, where the repeat executes the *cached* program (verified via the
    /// hit counter) rather than recompiling.
    #[test]
    fn compiled_pipeline_matches_fresh_realizer(
        p in pipeline_strategy(-2),
        schedule in schedule_strategy(),
        w in 5usize..20,
        h in 5usize..16,
        seed in any::<u64>(),
        lowered in any::<bool>(),
    ) {
        use helium_halide::CompileOptions;
        let backend = if lowered { ExecBackend::Lowered } else { ExecBackend::Interpret };
        let input = pseudo_random_image(w + 6, h + 6, seed);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let compiled = p
            .compile(&schedule, &CompileOptions { backend, ..CompileOptions::default() })
            .unwrap();
        // Two distinct extents, then a repeat of the first (a cache hit).
        for extents in [vec![w, h], vec![w + 1, h], vec![w, h]] {
            let fresh = Realizer::new(schedule.clone())
                .with_backend(backend)
                .realize(&p, &extents, &inputs)
                .unwrap();
            let ran = compiled.run(&inputs, &extents).unwrap();
            prop_assert_eq!(
                &ran, &fresh,
                "compiled run diverged from fresh realize ({:?}, [{}], {:?})",
                backend, schedule, extents
            );
        }
        let stats = compiled.cache_stats();
        prop_assert_eq!(stats.misses, 2, "one compile per distinct extents");
        prop_assert_eq!(stats.hits, 1, "the repeated run must use the cache");
    }

    /// The two backends also agree on reductions (pure init + update), where
    /// the lowered backend runs the pure stage compiled and the update stage
    /// through the shared reduction interpreter.
    #[test]
    fn lowered_backend_matches_interpreter_on_histograms(
        w in 3usize..16,
        h in 3usize..12,
        seed in any::<u64>(),
        parallel in any::<bool>(),
    ) {
        let img = ImageParam::new("input_1", ScalarType::UInt8, 2);
        let rdom = RDom::over_image("r_0", &img);
        let access = Expr::Image(
            "input_1".into(),
            vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
        );
        let update = UpdateDef {
            lhs: vec![access.clone()],
            value: Expr::cast(
                ScalarType::UInt64,
                Expr::add(Expr::FuncRef("hist".into(), vec![access]), Expr::int(1)),
            ),
            rdom,
        };
        let hist = Func::pure("hist", &["x_0"], ScalarType::UInt64, Expr::int(0))
            .with_update(update);
        let p = Pipeline::new(hist, vec![img]);
        let input = pseudo_random_image(w, h, seed);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let schedule = Schedule::naive().with_parallel(parallel).with_vectorize(true);
        let a = Realizer::new(schedule.clone())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[256], &inputs)
            .unwrap();
        let b = Realizer::new(schedule)
            .with_backend(ExecBackend::Lowered)
            .realize(&p, &[256], &inputs)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
