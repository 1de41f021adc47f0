//! Differential suite for sliding-window `compute_at`.
//!
//! A `compute_at` producer whose region translates by one row per attach
//! iteration keeps its allocation as a rolling window and recomputes only
//! the newly exposed rows. That is a pure schedule transformation, so the
//! acceptance property is bit-identity: `compute_at` must produce exactly
//! the bytes of `compute_root` and of the interpreter oracle, across prime
//! extents, border-clamping taps, tiling and parallelism, under both
//! execution tiers ([`Tier::Scalar`] / [`Tier::Auto`] via the [`Target`]
//! carried on [`CompileOptions`]; CI additionally runs the whole suite under
//! a `HELIUM_FORCE_SCALAR=1` leg).
//!
//! Equality alone can be vacuous — a placement that silently recomputes
//! every row also matches — so the deterministic tests check that a window
//! compiled ([`CompiledPipeline::sliding_windows`]) and reused the rows it
//! should ([`CounterSnapshot::delta`]'s `window_rows_reused`). The counter is
//! process-wide, so every test here holds [`COUNTERS`] while it runs.

use helium_halide::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's tests, so one test's windows never land in
/// another's counter delta.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

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
/// `compute_at(blur_x, x_1)` on an untiled nest the inferred region
/// translates by one row per attach iteration, so it slides.
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

    /// Acceptance property: for random vertical stencils (border-clamping
    /// `dy0 < 0` included) over prime extents, `compute_at` — sliding when
    /// untiled, recomputing each tile's region when tiled — is bit-identical
    /// to `compute_root` and to the interpreter oracle, on both tiers,
    /// serial and parallel.
    #[test]
    fn sliding_window_matches_recompute_and_oracle(
        vert_taps in 2i64..5,
        dy0 in -2i64..2,
        wi in 0usize..EXTENTS.len(),
        hi in 0usize..EXTENTS.len(),
        parallel in any::<bool>(),
        tiled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let _guard = counters_lock();
        let (w, h) = (EXTENTS[wi], EXTENTS[hi]);
        let p = two_stage_vertical(vert_taps, dy0);
        let input = image(w + 4, h + vert_taps as usize + 2, seed);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let base = Schedule::naive()
            .with_parallel(parallel)
            .with_tile(tiled.then_some((8, 8)));
        let at = base.clone().with_compute_at("blur_x", "x_1");
        let root = base.with_compute_root("blur_x");
        let expect = oracle(&p, &at, &[w, h], &inputs);
        for mode in [Target::detect().with_tier(Tier::Scalar), Target::detect()] {
            let (_, rooted) = run_lowered(&p, &root, mode, &[w, h], &inputs);
            let (_, attached) = run_lowered(&p, &at, mode, &[w, h], &inputs);
            prop_assert_eq!(&rooted, &expect, "compute_root diverged ({:?})", mode);
            prop_assert_eq!(&attached, &expect, "compute_at diverged ({:?})", mode);
        }
    }
}

/// The fig7 shape: a two-stage blur with `compute_at` must compile exactly
/// one rolling window, reuse rows at run time (the guard that makes the
/// property above non-vacuous), and agree with the oracle on both tiers.
/// Both stores — the producer filling its window and the consumer reading
/// it — compile fused lane kernels.
#[test]
fn fig7_blur_sliding_window_reuses_rows() {
    let _guard = counters_lock();
    let p = two_stage_vertical(3, 0);
    let (w, h) = (61, 47);
    let input = image(w + 4, h + 4, 0xCAFE);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let at = Schedule::naive().with_compute_at("blur_x", "x_1");
    let expect = oracle(&p, &at, &[w, h], &inputs);
    for mode in [Target::detect().with_tier(Tier::Scalar), Target::detect()] {
        let counters = CounterSnapshot::take();
        let (compiled, out) = run_lowered(&p, &at, mode, &[w, h], &inputs);
        assert_eq!(out, expect, "compute_at diverged from oracle ({mode:?})");
        assert_eq!(
            compiled.sliding_windows(&inputs, &[w, h]).expect("program"),
            1,
            "the schedule must compile exactly one rolling window"
        );
        // Rows h-1 iterations could reuse, 2 warm rows each (extent 3,
        // shift 1): the serial attach loop must reuse every one of them.
        assert_eq!(
            counters.delta().window_rows_reused,
            2 * (h as u64 - 1),
            "every attach iteration after the first must reuse 2 rows ({mode:?})"
        );
        if mode.tier() == Tier::Scalar {
            continue;
        }
        let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
        let stores: Vec<_> = profile.stages.iter().flat_map(|s| &s.stores).collect();
        assert_eq!(stores.len(), 2, "producer and consumer stores");
        assert!(
            stores.iter().all(|s| s.fused.is_some()),
            "both compute_at stores must fuse, got {stores:?}"
        );
    }
}

/// A parallel sliding-window attach loop goes cold per worker chunk but must
/// still reuse rows inside each chunk — and stay bit-identical.
#[test]
fn parallel_sliding_window_stays_exact_and_reuses_within_chunks() {
    let _guard = counters_lock();
    let p = two_stage_vertical(4, -1);
    let (w, h) = (31, 97);
    let input = image(w + 4, h + 6, 0xBEEF);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let at = Schedule::naive()
        .with_parallel(true)
        .with_threads(4)
        .with_compute_at("blur_x", "x_1");
    let expect = oracle(&p, &at, &[w, h], &inputs);
    let counters = CounterSnapshot::take();
    let (compiled, out) = run_lowered(&p, &at, Target::detect(), &[w, h], &inputs);
    assert_eq!(out, expect, "parallel sliding window diverged from oracle");
    assert_eq!(
        compiled.sliding_windows(&inputs, &[w, h]).expect("program"),
        1
    );
    // 4 workers × ~24 rows: all but the first iteration of each chunk reuse.
    assert!(
        counters.delta().window_rows_reused > 0,
        "workers must reuse rows within their chunks"
    );
}

/// Under 64×64 tiles the attach loop is the tile's row loop and the region
/// also moves with the tile column, so it does not slide: `compute_at`
/// compiles no window, reuses no row, and still matches the oracle.
#[test]
fn tiled_compute_at_compiles_no_window() {
    let _guard = counters_lock();
    let p = two_stage_vertical(3, 0);
    let (w, h) = (150, 131);
    let input = image(w + 4, h + 4, 0xF00D);
    let inputs = RealizeInputs::new().with_image("in", &input);
    let at = Schedule::naive()
        .with_tile(Some((64, 64)))
        .with_compute_at("blur_x", "x_1");
    let expect = oracle(&p, &at, &[w, h], &inputs);
    for mode in [Target::detect().with_tier(Tier::Scalar), Target::detect()] {
        let counters = CounterSnapshot::take();
        let (compiled, out) = run_lowered(&p, &at, mode, &[w, h], &inputs);
        assert_eq!(
            out, expect,
            "tiled compute_at diverged from oracle ({mode:?})"
        );
        assert_eq!(
            compiled.sliding_windows(&inputs, &[w, h]).expect("program"),
            0,
            "a tiled region does not slide"
        );
        assert_eq!(counters.delta().window_rows_reused, 0, "({mode:?})");
        let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
        assert_eq!(
            profile.stages.len(),
            1,
            "blur_x is attached inside the output's nest, not demoted to compute_root"
        );
    }
}
