//! Differential suite for the locality tier: sliding-window `compute_at`
//! reuse and multi-output fused loop nests.
//!
//! Both features are pure schedule transformations, so the acceptance
//! property is bit-identity: a sliding-window schedule must produce exactly
//! the bytes of the recompute-everything `compute_at` schedule and of the
//! interpreter oracle, and a `fuse_outputs` schedule must produce exactly
//! the bytes of its unfused counterpart — across prime extents,
//! border-clamping taps, vector widths and parallelism, under both pinned
//! execution tiers ([`Tier::Scalar`] / [`Tier::Simd`] via the [`Target`]
//! carried on [`CompileOptions`]; CI additionally runs the whole suite under
//! `HELIUM_FORCE_SCALAR=1` and `HELIUM_FORCE_SIMD=1` legs).
//!
//! Equality alone can be vacuous — a schedule that silently degrades to the
//! non-locality path also matches — so the deterministic tests guard with
//! the new counters: [`CounterSnapshot::delta`]'s `window_rows_reused` /
//! `multi_output_nests` and the [`CompiledPipeline::sliding_windows`] /
//! [`CompiledPipeline::multi_output_nests`] accessors prove the rolling
//! window and the shared nest actually fire.

use helium_halide::prelude::*;
use proptest::prelude::*;

/// Prime-ish extents: attach loops and shared outer loops never divide
/// evenly into vector chunks or thread chunks.
const EXTENTS: [usize; 5] = [5, 13, 23, 31, 47];

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

/// A widened tap on image `in`.
fn in_tap(dx: i64, dy: i64) -> Expr {
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

/// A tap on func `f`.
fn func_tap(f: &str, dx: i64, dy: i64) -> Expr {
    Expr::FuncRef(
        f.into(),
        vec![
            Expr::add(Expr::var("x_0"), Expr::int(dx)),
            Expr::add(Expr::var("x_1"), Expr::int(dy)),
        ],
    )
}

/// Two-stage vertical stencil: `blur_x` horizontally blurs `in`, `out` sums
/// `vert_taps` consecutive `blur_x` rows starting at `y + dy0`. With
/// `compute_at(blur_x, x_1)` the inferred region translates by one row per
/// attach iteration — the shape the sliding window rides.
fn two_stage_vertical(vert_taps: i64, dy0: i64) -> Pipeline {
    let blur_x = Func::pure(
        "blur_x",
        &["x_0", "x_1"],
        ScalarType::UInt16,
        Expr::cast(
            ScalarType::UInt16,
            Expr::bin(
                BinOp::Shr,
                Expr::cast(
                    ScalarType::UInt32,
                    Expr::add(Expr::add(in_tap(0, 0), in_tap(1, 0)), in_tap(2, 0)),
                ),
                Expr::uint(1),
            ),
        ),
    );
    let mut sum = Expr::cast(ScalarType::UInt32, func_tap("blur_x", 0, dy0));
    for t in 1..vert_taps {
        sum = Expr::add(
            sum,
            Expr::cast(ScalarType::UInt32, func_tap("blur_x", 0, dy0 + t)),
        );
    }
    let out = Func::pure(
        "out",
        &["x_0", "x_1"],
        ScalarType::UInt8,
        Expr::cast(ScalarType::UInt8, sum),
    );
    Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(blur_x)
}

/// Realize `p` on the interpreter backend — the oracle.
fn oracle(
    p: &Pipeline,
    schedule: &Schedule,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
) -> Buffer {
    Realizer::new(schedule.clone())
        .with_backend(ExecBackend::Interpret)
        .realize(p, extents, inputs)
        .expect("interpreter oracle")
}

/// Compile `p` under `schedule` on the lowered backend pinned to `target`
/// (resolved once at compile time) and run it once.
fn run_lowered(
    p: &Pipeline,
    schedule: &Schedule,
    target: Target,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
) -> (CompiledPipeline, Buffer) {
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
    (compiled, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sliding-window acceptance property: for random vertical stencils
    /// (border-clamping `dy0 < 0` included) over prime extents, the sliding
    /// schedule is bit-identical to the recompute-everything `compute_at`
    /// schedule and to the interpreter oracle, in both forced modes, serial
    /// and parallel.
    #[test]
    fn sliding_window_matches_recompute_and_oracle(
        vert_taps in 2i64..5,
        dy0 in -2i64..2,
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        width in prop::sample::select(vec![1usize, 8]),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let p = two_stage_vertical(vert_taps, dy0);
        let input = image(w + 4, h + vert_taps as usize + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let base = Schedule::naive()
            .with_parallel(parallel)
            .with_vector_width(width)
            .with_compute_at("blur_x", "x_1");
        let sliding = base.clone().with_store_sliding("blur_x");
        let expect = oracle(&p, &base, &[w, h], &inputs);
        for mode in [
        Target::detect().with_tier(Tier::Scalar),
        Target::detect().with_tier(Tier::Simd),
    ] {
            let (_, plain) = run_lowered(&p, &base, mode, &[w, h], &inputs);
            let (_, slid) = run_lowered(&p, &sliding, mode, &[w, h], &inputs);
            prop_assert_eq!(&plain, &expect, "compute_at diverged ({:?})", mode);
            prop_assert_eq!(&slid, &expect, "sliding window diverged ({:?})", mode);
        }
    }

    /// Multi-output fusion acceptance property: a three-stage chain whose
    /// cross-stage reads look back `lag` rows (lag 0 = pointwise) fused into
    /// shared nests is bit-identical to the unfused schedule and the oracle.
    /// Positive-lag variants and parallel+lag variants are inadmissible and
    /// must silently keep separate nests — also value-identical.
    #[test]
    fn fused_outputs_match_unfused_and_oracle(
        lag in -2i64..2,
        dx in -2i64..3,
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        width in prop::sample::select(vec![1usize, 8]),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let s1 = Func::pure(
            "s1",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::cast(
                ScalarType::UInt16,
                Expr::bin(BinOp::Xor, Expr::int(255), in_tap(0, 0)),
            ),
        );
        // s2 reads s1 at the current row AND at (x+dx, y+lag): the lagged
        // tap decides fused admissibility, the current-row tap keeps the
        // sized extents equal so the group stays a fusion candidate.
        let s2 = Func::pure(
            "s2",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::cast(
                ScalarType::UInt16,
                Expr::add(
                    Expr::cast(ScalarType::UInt32, func_tap("s1", 0, 0)),
                    Expr::cast(ScalarType::UInt32, func_tap("s1", dx, lag.min(0))),
                ),
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::add(
                    Expr::cast(ScalarType::UInt32, func_tap("s2", 0, 0)),
                    Expr::cast(ScalarType::UInt32, func_tap("s2", 0, lag)),
                ),
            ),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)])
            .with_func(s1)
            .with_func(s2);
        let input = image(w + 4, h + 4, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let unfused = Schedule::naive()
            .with_parallel(parallel)
            .with_vector_width(width)
            .with_compute_root("s1")
            .with_compute_root("s2");
        let fused = unfused.clone().with_fuse_outputs(true);
        let expect = oracle(&p, &unfused, &[w, h], &inputs);
        for mode in [
        Target::detect().with_tier(Tier::Scalar),
        Target::detect().with_tier(Tier::Simd),
    ] {
            let (_, plain) = run_lowered(&p, &unfused, mode, &[w, h], &inputs);
            let (_, shared) = run_lowered(&p, &fused, mode, &[w, h], &inputs);
            prop_assert_eq!(&plain, &expect, "unfused diverged ({:?})", mode);
            prop_assert_eq!(&shared, &expect, "fused nest diverged ({:?})", mode);
        }
    }
}

/// The fig7 shape the benchmark times: a two-stage blur with sliding-window
/// `compute_at` must compile exactly one rolling window, actually reuse rows
/// at run time (the counter guard makes the differential tests above
/// non-vacuous), and agree with the oracle in both pinned modes. Under
/// either schedule both stores — the producer filling its region buffer and
/// the consumer reading it — compile fused lane kernels.
#[test]
fn fig7_blur_sliding_window_reuses_rows() {
    let p = two_stage_vertical(3, 0);
    let (w, h) = (61, 47);
    let input = image(w + 4, h + 4, 0xCAFE);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let base = Schedule::naive()
        .with_vector_width(8)
        .with_compute_at("blur_x", "x_1");
    let sliding = base.clone().with_store_sliding("blur_x");
    let expect = oracle(&p, &base, &[w, h], &inputs);
    for mode in [
        Target::detect().with_tier(Tier::Scalar),
        Target::detect().with_tier(Tier::Simd),
    ] {
        let counters = CounterSnapshot::take();
        let (compiled, out) = run_lowered(&p, &sliding, mode, &[w, h], &inputs);
        assert_eq!(
            out, expect,
            "sliding window diverged from oracle ({mode:?})"
        );
        assert_eq!(
            compiled.sliding_windows(&inputs, &[w, h]).expect("program"),
            1,
            "the schedule must compile exactly one rolling window"
        );
        let reused = counters.delta().window_rows_reused;
        // Rows h-1 iterations could reuse, 2 warm rows each (extent 3,
        // shift 1): the serial attach loop must reuse every one of them.
        assert_eq!(
            reused,
            2 * (h as u64 - 1),
            "every attach iteration after the first must reuse 2 rows ({mode:?})"
        );
        // The recompute-everything schedule compiles no window.
        let (plain, _) = run_lowered(&p, &base, mode, &[w, h], &inputs);
        assert_eq!(plain.sliding_windows(&inputs, &[w, h]).expect("program"), 0);
        if mode.tier() == Tier::Scalar {
            continue;
        }
        for (name, c) in [("sliding", &compiled), ("plain", &plain)] {
            let profile = c.dry_run(&inputs, &[w, h]).expect("dry run");
            let stores: Vec<_> = profile.stages.iter().flat_map(|s| &s.stores).collect();
            assert_eq!(stores.len(), 2, "{name}: producer and consumer stores");
            assert!(
                stores.iter().all(|s| s.fused.is_some()),
                "{name}: both compute_at stores must fuse, got {stores:?}"
            );
        }
    }
}

/// A parallel sliding-window attach loop goes cold per worker chunk but must
/// still reuse rows inside each chunk — and stay bit-identical.
#[test]
fn parallel_sliding_window_stays_exact_and_reuses_within_chunks() {
    let p = two_stage_vertical(4, -1);
    let (w, h) = (31, 97);
    let input = image(w + 4, h + 6, 0xBEEF);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let base = Schedule::naive()
        .with_parallel(true)
        .with_threads(4)
        .with_vector_width(8)
        .with_compute_at("blur_x", "x_1");
    let sliding = base.clone().with_store_sliding("blur_x");
    let expect = oracle(&p, &base, &[w, h], &inputs);
    let counters = CounterSnapshot::take();
    let (_, out) = run_lowered(
        &p,
        &sliding,
        Target::detect().with_tier(Tier::Simd),
        &[w, h],
        &inputs,
    );
    assert_eq!(out, expect, "parallel sliding window diverged from oracle");
    // 4 workers × ~24 rows: all but the first iteration of each chunk reuse.
    assert!(
        counters.delta().window_rows_reused > 0,
        "workers must reuse rows within their chunks"
    );
}

/// A `compose_after` chain — two independently lifted pointwise filters
/// composed into one pipeline — must compile into ONE shared multi-output
/// nest, execute it (run-time counter), keep per-store lane kernels for
/// every member, and agree bit-for-bit with the unfused schedule and oracle.
#[test]
fn compose_after_chain_compiles_into_one_shared_nest() {
    let invert = |out_name: &str, img: &str| {
        let tap = Expr::cast(
            ScalarType::UInt32,
            Expr::Image(img.into(), vec![Expr::var("x_0"), Expr::var("x_1")]),
        );
        let f = Func::pure(
            out_name,
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::bin(BinOp::Xor, Expr::int(255), tap),
            ),
        );
        Pipeline::new(f, vec![ImageParam::new(img, ScalarType::UInt8, 2)])
    };
    let first = invert("output_1", "input_1");
    let second = invert("output_2", "input_1");
    let chain = second.compose_after(&first, "input_1");

    let (w, h) = (53, 37);
    let input = image(w, h, 0xD00D);
    let inputs = RealizeInputs::new().with_image("input_1", &input);
    let unfused = Schedule::naive()
        .with_vector_width(8)
        .with_compute_root("output_1");
    let fused = unfused.clone().with_fuse_outputs(true);
    let expect = oracle(&chain, &unfused, &[w, h], &inputs);

    for mode in [
        Target::detect().with_tier(Tier::Scalar),
        Target::detect().with_tier(Tier::Simd),
    ] {
        let counters = CounterSnapshot::take();
        let (compiled, out) = run_lowered(&chain, &fused, mode, &[w, h], &inputs);
        assert_eq!(out, expect, "fused chain diverged from oracle ({mode:?})");
        assert_eq!(
            compiled
                .multi_output_nests(&inputs, &[w, h])
                .expect("program"),
            1,
            "the chain must compile into one shared nest"
        );
        assert_eq!(
            counters.delta().multi_output_nests,
            1,
            "the shared nest must execute once per run ({mode:?})"
        );
        // Fusion shares the loop, not the kernels: both members keep their
        // compiled lane kernels.
        let counts = compiled
            .fused_store_counts(&inputs, &[w, h])
            .expect("counts");
        assert_eq!(counts.lanes_i32, 2, "each member keeps its lane kernel");
        // The unfused schedule compiles two separate nests.
        let (plain, _) = run_lowered(&chain, &unfused, mode, &[w, h], &inputs);
        assert_eq!(
            plain.multi_output_nests(&inputs, &[w, h]).expect("program"),
            0
        );
    }
}

/// The fused nest shows up in `dry_run` with one profiled stage per member
/// (output last), so cost models see the same stage list either way.
#[test]
fn fused_profile_keeps_one_stage_per_member() {
    let p = {
        let s1 = Func::pure(
            "s1",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::cast(ScalarType::UInt16, in_tap(1, 0)),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::cast(ScalarType::UInt32, func_tap("s1", 0, 0)),
            ),
        );
        Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(s1)
    };
    let input = image(20, 16, 0xFACE);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let fused = Schedule::naive()
        .with_vector_width(8)
        .with_compute_root("s1")
        .with_fuse_outputs(true);
    let compiled = p
        .compile(
            &fused,
            &CompileOptions {
                backend: ExecBackend::Lowered,
                ..CompileOptions::default()
            },
        )
        .expect("compile");
    assert_eq!(
        compiled
            .multi_output_nests(&inputs, &[16, 12])
            .expect("program"),
        1
    );
    let profile = compiled.dry_run(&inputs, &[16, 12]).expect("dry run");
    assert_eq!(profile.stages.len(), 2, "one profiled stage per member");
    assert_eq!(profile.stages[0].name, "s1");
    assert_eq!(profile.output().name, "out");
    assert!(profile.stages.iter().all(|s| s.lowered));
    assert!(
        profile.stages.iter().all(|s| s.stores.len() == 1),
        "each member owns exactly its own store profile"
    );
}
