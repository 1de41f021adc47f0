//! Ablation: how much of the lifted kernels' speedup comes from each schedule
//! feature (the design choices the paper delegates to the Halide autotuner).
//!
//! For each lifted PhotoFlow filter the harness times the same lifted pipeline
//! under a ladder of schedules: fully naive, tiled only, parallel only, the
//! default stencil schedule (both), and a short `helium_tune::guided_search`
//! run (the reproduction-scale analogue of the paper's six-hour OpenTuner
//! search). Every store runs its fused SIMD kernel wherever one compiled, so
//! a `per-op` column times the naive schedule with the `Scalar` tier pinned
//! instead: what vectorization is worth. Every time is warm, the median of
//! cached runs of one compiled pipeline.
//!
//! A second table splits the execution tiers on one thread: per fixture, the
//! slow side over the fast side, as interleaved warm medians after checking
//! both write the same bytes. The lane-family rows set the per-op tier
//! against the fused kernel (the lifted filters on `[i32; W]`, the miniGMG
//! smooth on `[f32; W]` and `[f64; W/2]`, 64-bit binning on `[i64; W/2]`);
//! the reduction rows set the interpreter's update path against the
//! compiled update nest. Nothing gates these ratios: the fused family and
//! the compiled update of each fixture are tier-1 assertions in
//! helium-bench's tests.

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{
    hist64_pipeline, hist64_rdom_pipeline, lift_photoflow, minigmg_residual_norm,
    minigmg_smooth_f32, minigmg_smooth_f64, ms, time_interleaved, time_kernel, LiftedRealizeSetup,
    BENCH_HEIGHT, BENCH_WIDTH,
};
use helium_halide::{
    CompileOptions, ExecBackend, Pipeline, RealizeInputs, Schedule, StoreProfile, Target, Tier,
};
use helium_tune::{guided_search, SearchConfig};
use std::time::Duration;

/// Interleaved rounds per tier split (odd, so each median is a run).
const SPLIT_ROUNDS: usize = 15;

/// One row of the tier table.
struct Split {
    fixture: String,
    /// What the fast side's output store runs, from its dry run.
    fast_path: String,
    slow_side: &'static str,
    slow: Duration,
    fast: Duration,
}

/// Time `pipeline` compiled with `slow` (the interpreter, or the per-op tier)
/// against the default tier on one thread, as interleaved warm medians,
/// after checking both sides agree.
fn split(
    fixture: &str,
    pipeline: &Pipeline,
    inputs: &RealizeInputs<'_>,
    extents: &[usize],
    slow: &CompileOptions,
) -> Split {
    let slow_side = match slow.backend {
        ExecBackend::Interpret => "interpreter",
        ExecBackend::Lowered => "per-op",
    };
    let schedule = Schedule::stencil_default().with_parallel(false);
    let fast = CompileOptions {
        target: Some(Target::detect()),
        ..CompileOptions::default()
    };
    let compile = |options: &CompileOptions| pipeline.compile(&schedule, options).expect("compile");
    let (slow, fast) = (compile(slow), compile(&fast));
    assert_eq!(
        slow.run(inputs, extents).expect("slow run"),
        fast.run(inputs, extents).expect("fast run"),
        "{fixture}: the two sides disagree"
    );
    // The output stage's last store: the update of a reduction, else the
    // only store.
    let profile = fast.dry_run(inputs, extents).expect("dry run");
    let fast_path = match profile.output().stores.last() {
        Some(StoreProfile {
            fused: Some(family),
            ..
        }) => format!("{family:?} fused"),
        Some(StoreProfile {
            reduce: Some(family),
            ..
        }) => format!("{family:?} reduce"),
        _ => "per-op".to_string(),
    };
    let t = time_interleaved(&[&slow, &fast], inputs, extents, SPLIT_ROUNDS);
    Split {
        fixture: fixture.to_string(),
        fast_path: fast_path.to_lowercase(),
        slow_side,
        slow: t[0],
        fast: t[1],
    }
}

fn main() {
    let reps = 5;
    let per_op = CompileOptions {
        target: Some(Target::detect().with_tier(Tier::Scalar)),
        ..CompileOptions::default()
    };
    let interpreter = CompileOptions {
        backend: ExecBackend::Interpret,
        ..CompileOptions::default()
    };
    let mut splits = Vec::new();
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  best-tuned-schedule",
        "Filter", "naive", "tiled", "parallel", "per-op", "default", "tuned"
    );
    for filter in [
        PhotoFilter::Blur,
        PhotoFilter::BlurMore,
        PhotoFilter::Sharpen,
        PhotoFilter::Invert,
    ] {
        let (app, lifted) =
            lift_photoflow(filter, BENCH_WIDTH, BENCH_HEIGHT).expect("the filter lifts");
        let setup = LiftedRealizeSetup::new(&app, &lifted);
        let inputs = setup.inputs();
        let time = |schedule: &Schedule, options: &CompileOptions| {
            let (pipeline, extents) = (setup.pipeline(), &setup.extents);
            time_kernel(pipeline, schedule, options, &inputs, extents, reps).warm
        };
        let auto = CompileOptions::default();

        let naive = time(&Schedule::naive(), &auto);
        let tiled = time(&Schedule::naive().with_tile(Some((64, 32))), &auto);
        let parallel = time(&Schedule::naive().with_parallel(true), &auto);
        let per_op_time = time(&Schedule::naive(), &per_op);
        let default = time(&Schedule::stencil_default(), &auto);

        let config = SearchConfig {
            max_candidates: 12,
            budget: Duration::from_secs(8),
            ..SearchConfig::default()
        };
        let report = guided_search(setup.pipeline(), &setup.extents, &inputs, &config)
            .expect("tuning the lifted kernel succeeds");
        let tuned = time(&report.best, &auto);

        println!(
            "{:<14} {} {} {} {} {} {}  {}",
            filter.name(),
            ms(naive),
            ms(tiled),
            ms(parallel),
            ms(per_op_time),
            ms(default),
            ms(tuned),
            report.best
        );
        splits.push(split(
            &format!("{} {BENCH_WIDTH}x{BENCH_HEIGHT}", filter.name()),
            setup.pipeline(),
            &inputs,
            &setup.extents,
            &per_op,
        ));
    }
    println!(
        "\n(warm medians of {reps} runs in milliseconds, one output plane, {BENCH_WIDTH}x{BENCH_HEIGHT} image;"
    );
    println!(" `tuned` re-times the guided search's best schedule the same way)");

    let (smooth_f32, grid_f32) = minigmg_smooth_f32(64, 64, 12, 0x6116);
    let (smooth_f64, grid_f64) = minigmg_smooth_f64(64, 64, 12, 0x6116);
    let (hist, hist_in) = hist64_pipeline(192, 128, 0xB16B);
    let (rdom, rdom_in) = hist64_rdom_pipeline(256, 192, 0xB16B);
    let (norm, norm_grid) = minigmg_residual_norm(64, 64, 32, 0x6116);
    let fixtures = [
        (
            "smooth_f32 64x64x12",
            &smooth_f32,
            "grid",
            &grid_f32,
            vec![64, 64, 12],
            &per_op,
        ),
        (
            "smooth_f64 64x64x12",
            &smooth_f64,
            "grid",
            &grid_f64,
            vec![64, 64, 12],
            &per_op,
        ),
        (
            "hist64 192x128",
            &hist,
            "in",
            &hist_in,
            vec![192, 128],
            &per_op,
        ),
        (
            "hist64_rdom 256x192",
            &rdom,
            "in",
            &rdom_in,
            vec![256],
            &interpreter,
        ),
        (
            "residual_norm 64x64x32",
            &norm,
            "grid",
            &norm_grid,
            vec![1],
            &interpreter,
        ),
    ];
    for (fixture, pipeline, input_name, input, extents, slow) in fixtures {
        let inputs = RealizeInputs::new().with_image(input_name, input);
        splits.push(split(fixture, pipeline, &inputs, &extents, slow));
    }

    println!(
        "\n{:<26} {:<11} {:<11} {:>10} {:>10} {:>9}",
        "Tier split", "fast path", "slow side", "slow", "fast", "slow/fast"
    );
    for s in &splits {
        println!(
            "{:<26} {:<11} {:<11} {} {} {:>8.2}x",
            s.fixture,
            s.fast_path,
            s.slow_side,
            ms(s.slow),
            ms(s.fast),
            s.slow.as_secs_f64() / s.fast.as_secs_f64().max(1e-12)
        );
    }
    println!(
        "\n(stencil_default on one thread; interleaved warm medians of {SPLIT_ROUNDS} rounds in milliseconds)"
    );
}
