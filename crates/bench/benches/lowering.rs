//! Interpret-vs-Lowered and cached-vs-uncached comparison on the Fig. 7
//! filter set.
//!
//! Runs the criterion group and additionally writes a machine-readable
//! summary to `BENCH_lowering.json` in the workspace root: per filter, the
//! best-of-N wall-clock time for each backend under the stencil default
//! schedule; for the compile-once/run-many API the uncached (compile + run)
//! and cached (warm `CompiledPipeline::run`) times and the amortization
//! factor between them; and for the execution tiers a `scalar_ns` /
//! `simd_ns` pair — steady-state runs with fused SIMD kernels disabled and
//! enabled — plus the winning vector width of an 8/16/32 sweep
//! (`best_width`), so tier regressions are visible per PR.
//!
//! The report also carries the fused lane families' columns: miniGMG smooth
//! as a `Float32` pipeline timed per-op vs the `[f32; W]` fused tier
//! (`f32_simd_speedup`) and a histogram-style 64-bit binning pipeline timed
//! against the `[i64; W/2]` tier (`i64_simd_speedup`), each verified
//! bit-identical to the interpreter oracle before timing — plus a
//! `reductions` section timing pipelines whose hot path is an *update
//! definition* (the RDom hist64 and a miniGMG residual-norm reduction)
//! end-to-end compiled against the interpreter's `run_update` path
//! (`reduction_speedup`, gated ≥ 1.5× in CI), after asserting the updates
//! really execute through the compiled engine and match the oracle.
//!
//! A `locality` section times the locality tier: sliding-window `compute_at`
//! against plain recompute on a two-stage vertical blur (`window_speedup`,
//! gated ≥ 1.2× in CI, after asserting `window_rows_reused` really fired)
//! and a multi-output fused nest against per-stage `compute_root` nests on a
//! pointwise `compose_after` chain (`multi_output_speedup`, gated ≥ 1.2×,
//! after asserting the chain collapsed into exactly one shared nest) — both
//! bit-identical to the interpreter oracle before any timing counts.
//!
//! Setting `HELIUM_BENCH_SMOKE=1` skips the criterion group and writes the
//! report from a reduced configuration — CI uses this to exercise the cached
//! realize path on every PR without burning minutes.

use criterion::{criterion_group, Criterion};
use helium_apps::photoflow::PhotoFilter;
use helium_bench::{
    hist64_pipeline, hist64_rdom_pipeline, lift_photoflow, minigmg_residual_norm,
    minigmg_smooth_f32, minigmg_smooth_f64, pointwise_chain_pipeline, time_lifted_on,
    two_stage_blur_pipeline, LiftedRealizeSetup,
};
use helium_halide::{
    arch_rows_executed, set_target_override, Buffer, CompileOptions, CounterSnapshot, ExecBackend,
    Feature, Pipeline, RealizeInputs, Realizer, Schedule, Target, Tier,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const FILTERS: [PhotoFilter; 3] = [PhotoFilter::Invert, PhotoFilter::Blur, PhotoFilter::Sharpen];

fn smoke_mode() -> bool {
    std::env::var("HELIUM_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn bench_lowering(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowering");
    group.sample_size(10);
    for filter in FILTERS {
        let (app, lifted) = lift_photoflow(filter, 96, 64);
        for (backend, label) in [
            (ExecBackend::Interpret, "interpret"),
            (ExecBackend::Lowered, "lowered"),
        ] {
            group.bench_function(format!("{}_{label}", filter.name()), |b| {
                b.iter(|| time_lifted_on(&app, &lifted, Schedule::stencil_default(), backend, 1))
            });
        }
        // The compile/run split (input materialization hoisted out of the
        // timed closures): uncached compiles a fresh CompiledPipeline per
        // iteration; cached times only warm runs of one compiled pipeline.
        let setup = LiftedRealizeSetup::new(&app, &lifted);
        let inputs = setup.inputs();
        group.bench_function(format!("{}_uncached", filter.name()), |b| {
            b.iter(|| {
                let compiled = setup.compile(&Schedule::stencil_default(), ExecBackend::Lowered);
                compiled.run(&inputs, &setup.extents).expect("run")
            })
        });
        let compiled = setup.compile(&Schedule::stencil_default(), ExecBackend::Lowered);
        let _ = compiled.run(&inputs, &setup.extents).expect("warm-up run");
        group.bench_function(format!("{}_cached", filter.name()), |b| {
            b.iter(|| compiled.run(&inputs, &setup.extents).expect("run"))
        });
    }
    group.finish();
}

/// Compile a pipeline for the lowered backend with its execution target
/// pinned per [`CompileOptions::target`] (resolved once at compile time).
fn compile_pinned(
    pipeline: &Pipeline,
    schedule: &Schedule,
    target: Target,
) -> helium_halide::CompiledPipeline {
    pipeline
        .compile(
            schedule,
            &CompileOptions {
                backend: ExecBackend::Lowered,
                target: Some(target),
                ..CompileOptions::default()
            },
        )
        .expect("compile")
}

/// Steady-state best-of-`reps` timing of warm runs of a compiled pipeline.
fn time_compiled_runs(
    compiled: &helium_halide::CompiledPipeline,
    inputs: &RealizeInputs<'_>,
    extents: &[usize],
    reps: usize,
) -> Duration {
    let _ = compiled.run(inputs, extents).expect("warm-up run");
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let _ = compiled.run(inputs, extents).expect("run");
        best = best.min(start.elapsed());
    }
    best
}

/// Compiled-vs-interpreter split for a pipeline whose hot path is an update
/// (reduction) definition: assert the lowered backend executes every update
/// through the compiled engine (no `run_update` on the hot path) and matches
/// the interpreter oracle bit-for-bit, then time warm runs of both backends.
/// Returns `(interpret, compiled, speedup)`.
fn reduction_split(
    name: &str,
    pipeline: &Pipeline,
    input_name: &str,
    input: &Buffer,
    extents: &[usize],
    reps: usize,
) -> (Duration, Duration, f64) {
    let inputs = RealizeInputs::new().with_image(input_name, input);
    let schedule = Schedule::stencil_default();
    let compiled = pipeline
        .compile(
            &schedule,
            &CompileOptions {
                backend: ExecBackend::Lowered,
                ..CompileOptions::default()
            },
        )
        .expect("compile");
    let out = compiled.run(&inputs, extents).expect("compiled run");
    let counts = compiled.update_counts(&inputs, extents).expect("counts");
    assert_eq!(
        counts.interpreted, 0,
        "{name}: updates must execute compiled, got {counts:?}"
    );
    assert!(
        counts.compiled > 0,
        "{name}: no update definitions compiled"
    );
    let interp_compiled = pipeline
        .compile(
            &schedule,
            &CompileOptions {
                backend: ExecBackend::Interpret,
                ..CompileOptions::default()
            },
        )
        .expect("compile interpreter");
    let oracle = interp_compiled
        .run(&inputs, extents)
        .expect("interpreter run");
    assert_eq!(out, oracle, "{name}: compiled updates diverged from oracle");

    let interpret = time_compiled_runs(&interp_compiled, &inputs, extents, reps);
    let compiled_t = time_compiled_runs(&compiled, &inputs, extents, reps);
    let speedup = interpret.as_secs_f64() / compiled_t.as_secs_f64().max(1e-12);
    println!(
        "lowering: {name:<22} interpret={interpret:?} compiled={compiled_t:?} \
         reduction_speedup={speedup:.2}x"
    );
    (interpret, compiled_t, speedup)
}

/// Per-op tier vs fused lane family for one pipeline: verify the fused
/// output bit-identical to the interpreter oracle, then time the per-op tier
/// and a width sweep of the fused tier. Returns
/// `(scalar, simd, best_width, speedup)`.
fn lane_family_split(
    name: &str,
    pipeline: &Pipeline,
    input_name: &str,
    input: &Buffer,
    extents: &[usize],
    expect_family: &str,
    reps: usize,
) -> (Duration, Duration, usize, f64) {
    let inputs = RealizeInputs::new().with_image(input_name, input);
    let schedule = Schedule::stencil_default();
    // Correctness gate before timing: the fused tier must be active on the
    // expected lane family and bit-identical to the interpreter.
    let compiled = compile_pinned(pipeline, &schedule, Target::detect().with_tier(Tier::Simd));
    let fused = compiled.run(&inputs, extents).expect("fused run");
    let counts = compiled
        .fused_store_counts(&inputs, extents)
        .expect("counts");
    let family_count = match expect_family {
        "f32" => counts.lanes_f32,
        "f64" => counts.lanes_f64,
        "i64" => counts.lanes_i64,
        _ => counts.lanes_i32,
    };
    assert!(
        family_count > 0,
        "{name}: expected the {expect_family} fused lane family, got {counts:?}"
    );
    let oracle = Realizer::new(schedule.clone())
        .with_backend(ExecBackend::Interpret)
        .realize(pipeline, extents, &inputs)
        .expect("oracle");
    assert_eq!(fused, oracle, "{name}: fused output diverged from oracle");

    let scalar_compiled = compile_pinned(
        pipeline,
        &schedule,
        Target::detect().with_tier(Tier::Scalar),
    );
    let scalar = time_compiled_runs(&scalar_compiled, &inputs, extents, reps);
    let (mut best_width, mut simd) = (0usize, Duration::MAX);
    for width in [8usize, 16, 32] {
        // Each swept width compiles a different fused kernel (its own cache
        // key), so every one is pinned to the fused tier and oracle-gated
        // before its timing counts (on the same compiled pipeline).
        let s = schedule.clone().with_vector_width(width);
        let swept = compile_pinned(pipeline, &s, Target::detect().with_tier(Tier::Simd));
        let out = swept.run(&inputs, extents).expect("swept run");
        assert_eq!(out, oracle, "{name}: width {width} diverged from oracle");
        let t = time_compiled_runs(&swept, &inputs, extents, reps);
        if t < simd {
            simd = t;
            best_width = width;
        }
    }
    let speedup = scalar.as_secs_f64() / simd.as_secs_f64().max(1e-12);
    println!(
        "lowering: {name:<18} scalar={scalar:?} simd={simd:?} \
         {expect_family}_simd_speedup={speedup:.2}x best_width={best_width}"
    );
    (scalar, simd, best_width, speedup)
}

/// Portable lane loops vs the hand-written AVX2 `core::arch` kernels on one
/// compiled shape: assert the arch path really executes (run-time counter —
/// equality alone would be vacuous under silent fallback) and is
/// bit-identical to the portable lanes, then time warm runs of both. Returns
/// `(portable, arch, speedup)`, or `None` on hosts without AVX2.
fn arch_split(
    name: &str,
    pipeline: &Pipeline,
    input_name: &str,
    input: &Buffer,
    extents: &[usize],
    reps: usize,
) -> Option<(Duration, Duration, f64)> {
    if !Target::detect().has(Feature::Avx2) {
        println!("lowering: {name}: host does not report AVX2, skipping arch split");
        return None;
    }
    let inputs = RealizeInputs::new().with_image(input_name, input);
    // Serial, widest chunks: the split measures the kernel bodies, and
    // thread-pool coordination noise on a small grid would otherwise swamp
    // the per-chunk delta between the two ISAs.
    let schedule = Schedule::stencil_default()
        .with_parallel(false)
        .with_vector_width(32);
    let portable_c = compile_pinned(
        pipeline,
        &schedule,
        Target::portable().with_tier(Tier::Simd),
    );
    let arch_c = compile_pinned(
        pipeline,
        &schedule,
        Target::with_features(&[Feature::Avx2]).with_tier(Tier::Simd),
    );
    let portable_out = portable_c.run(&inputs, extents).expect("portable run");
    let before = arch_rows_executed();
    let arch_out = arch_c.run(&inputs, extents).expect("arch run");
    assert!(
        arch_rows_executed() > before,
        "{name}: the AVX2 kernels must actually execute"
    );
    assert_eq!(
        arch_out, portable_out,
        "{name}: arch kernels diverged from the portable lanes"
    );
    let portable = time_compiled_runs(&portable_c, &inputs, extents, reps);
    let arch = time_compiled_runs(&arch_c, &inputs, extents, reps);
    let speedup = portable.as_secs_f64() / arch.as_secs_f64().max(1e-12);
    println!("lowering: {name:<18} portable={portable:?} arch={arch:?} arch_speedup={speedup:.2}x");
    Some((portable, arch, speedup))
}

/// Sliding-window `compute_at` vs plain `compute_at` on the two-stage
/// vertical blur: oracle-gate both variants, assert the window really
/// compiles and re-uses rows at run time (non-vacuity), then time warm runs
/// of each. Returns `(plain, sliding, speedup)`.
fn window_split(
    name: &str,
    pipeline: &Pipeline,
    input: &Buffer,
    extents: &[usize],
    reps: usize,
) -> (Duration, Duration, f64) {
    let inputs = RealizeInputs::new().with_image("in", input);
    // Serial attach loop: every iteration after the first is warm, so the
    // measured delta is pure recompute-vs-reuse (parallel chunks would
    // restart the window cold per chunk).
    let base = Schedule::naive()
        .with_vector_width(8)
        .with_compute_at("blur_x", "x_1");
    let slid = base.clone().with_store_sliding("blur_x");
    let opts = CompileOptions {
        backend: ExecBackend::Lowered,
        ..CompileOptions::default()
    };
    let plain_c = pipeline.compile(&base, &opts).expect("compile plain");
    let slid_c = pipeline.compile(&slid, &opts).expect("compile sliding");
    // Correctness gate before timing: both variants bit-identical to the
    // interpreter oracle.
    let oracle = Realizer::new(base.clone())
        .with_backend(ExecBackend::Interpret)
        .realize(pipeline, extents, &inputs)
        .expect("oracle");
    let plain_out = plain_c.run(&inputs, extents).expect("plain run");
    assert_eq!(plain_out, oracle, "{name}: plain compute_at diverged");
    assert_eq!(
        plain_c.sliding_windows(&inputs, extents).expect("windows"),
        0,
        "{name}: plain schedule must not slide"
    );
    // Non-vacuity gate: the sliding schedule compiles exactly one window and
    // actually re-uses rows across attach iterations.
    let before = CounterSnapshot::take();
    let slid_out = slid_c.run(&inputs, extents).expect("sliding run");
    let reused = before.delta().window_rows_reused;
    assert_eq!(slid_out, oracle, "{name}: sliding window diverged");
    assert_eq!(
        slid_c.sliding_windows(&inputs, extents).expect("windows"),
        1,
        "{name}: the sliding schedule must compile one window"
    );
    assert!(
        reused > 0,
        "{name}: no rows re-used — the window is vacuous"
    );

    let plain = time_compiled_runs(&plain_c, &inputs, extents, reps);
    let sliding = time_compiled_runs(&slid_c, &inputs, extents, reps);
    let speedup = plain.as_secs_f64() / sliding.as_secs_f64().max(1e-12);
    println!(
        "lowering: {name:<18} plain={plain:?} sliding={sliding:?} \
         window_speedup={speedup:.2}x rows_reused={reused}"
    );
    (plain, sliding, speedup)
}

/// Multi-output fusion vs per-stage nests on the pointwise `compose_after`
/// chain: `compute_root` every upstream stage in both variants, oracle-gate
/// both, assert the fused variant really collapses into one shared nest
/// (non-vacuity), then time warm runs of each. Returns
/// `(unfused, fused, speedup)`.
fn multi_output_split(
    name: &str,
    pipeline: &Pipeline,
    input: &Buffer,
    extents: &[usize],
    reps: usize,
) -> (Duration, Duration, f64) {
    let inputs = RealizeInputs::new().with_image("in", input);
    // Parallel outer loop: the unfused chain spawns one worker set per
    // stage nest, the fused nest spawns once — exactly the re-walk the
    // locality tier removes.
    let mut base = Schedule::naive().with_vector_width(32).with_parallel(true);
    for func in pipeline.funcs.keys().filter(|n| **n != pipeline.output) {
        base = base.with_compute_root(func);
    }
    let fused_s = base.clone().with_fuse_outputs(true);
    let opts = CompileOptions {
        backend: ExecBackend::Lowered,
        ..CompileOptions::default()
    };
    let unfused_c = pipeline.compile(&base, &opts).expect("compile unfused");
    let fused_c = pipeline.compile(&fused_s, &opts).expect("compile fused");
    let oracle = Realizer::new(base.clone())
        .with_backend(ExecBackend::Interpret)
        .realize(pipeline, extents, &inputs)
        .expect("oracle");
    let unfused_out = unfused_c.run(&inputs, extents).expect("unfused run");
    assert_eq!(unfused_out, oracle, "{name}: unfused chain diverged");
    assert_eq!(
        unfused_c
            .multi_output_nests(&inputs, extents)
            .expect("nests"),
        0,
        "{name}: the unfused schedule must not fuse"
    );
    // Non-vacuity gate: the fused program holds one shared nest and every
    // run executes it as a multi-output dispatch.
    let before = CounterSnapshot::take();
    let fused_out = fused_c.run(&inputs, extents).expect("fused run");
    let nests = before.delta().multi_output_nests;
    assert_eq!(fused_out, oracle, "{name}: fused nest diverged");
    assert_eq!(
        fused_c.multi_output_nests(&inputs, extents).expect("nests"),
        1,
        "{name}: the chain must collapse into one shared nest"
    );
    assert!(nests >= 1, "{name}: the fused nest never executed");

    let unfused = time_compiled_runs(&unfused_c, &inputs, extents, reps);
    let fused = time_compiled_runs(&fused_c, &inputs, extents, reps);
    let speedup = unfused.as_secs_f64() / fused.as_secs_f64().max(1e-12);
    println!(
        "lowering: {name:<18} unfused={unfused:?} fused={fused:?} \
         multi_output_speedup={speedup:.2}x nests_per_run={nests}"
    );
    (unfused, fused, speedup)
}

fn write_report(reps: usize, width: usize, height: usize) {
    let mut entries = String::new();
    for (i, filter) in FILTERS.iter().enumerate() {
        let (app, lifted) = lift_photoflow(*filter, width, height);
        let schedule = Schedule::stencil_default();
        let interpret = time_lifted_on(
            &app,
            &lifted,
            schedule.clone(),
            ExecBackend::Interpret,
            reps,
        );
        let lowered = time_lifted_on(&app, &lifted, schedule.clone(), ExecBackend::Lowered, reps);
        // Cache amortization at request-rate granularity: small realizes over
        // the same lifted kernel, where per-call execution is cheap enough
        // that redoing planning/lowering per call would dominate.
        let setup = LiftedRealizeSetup::new(&app, &lifted);
        let small: Vec<usize> = setup.extents.iter().map(|&e| (e / 4).max(8)).collect();
        let uncached =
            setup.time_compiled(&schedule, ExecBackend::Lowered, reps, true, Some(&small));
        let cached =
            setup.time_compiled(&schedule, ExecBackend::Lowered, reps, false, Some(&small));
        // Execution-tier split at full extents, steady state: the per-op
        // tier (fused kernels disabled) against the fused SIMD tier, with a
        // vector-width sweep — widths now generate different fused kernels.
        // Targets resolve once at compile time, and `time_compiled` compiles
        // inside the pinned region, so the process-wide override pins each
        // measurement's tier — an inherited HELIUM_FORCE_* environment
        // variable cannot silently make both columns measure the same tier.
        set_target_override(Some(Target::detect().with_tier(Tier::Scalar)));
        let scalar = setup.time_compiled(&schedule, ExecBackend::Lowered, reps, false, None);
        set_target_override(Some(Target::detect()));
        let (mut best_width, mut simd) = (0usize, std::time::Duration::MAX);
        for width in [8usize, 16, 32] {
            let s = schedule.clone().with_vector_width(width);
            let t = setup.time_compiled(&s, ExecBackend::Lowered, reps, false, None);
            if t < simd {
                simd = t;
                best_width = width;
            }
        }
        set_target_override(None);
        let speedup = interpret.as_secs_f64() / lowered.as_secs_f64().max(1e-12);
        let cache_speedup = uncached.as_secs_f64() / cached.as_secs_f64().max(1e-12);
        let simd_speedup = scalar.as_secs_f64() / simd.as_secs_f64().max(1e-12);
        if i > 0 {
            entries.push_str(",\n");
        }
        let _ = write!(
            entries,
            "    {{\"filter\": \"{}\", \"interpret_ns\": {}, \"lowered_ns\": {}, \"speedup\": {:.3}, \
             \"cache_extents\": [{}, {}], \"uncached_ns\": {}, \"cached_ns\": {}, \"cache_speedup\": {:.3}, \
             \"scalar_ns\": {}, \"simd_ns\": {}, \"simd_speedup\": {:.3}, \"best_width\": {}}}",
            filter.name(),
            interpret.as_nanos(),
            lowered.as_nanos(),
            speedup,
            small[0],
            small.get(1).copied().unwrap_or(1),
            uncached.as_nanos(),
            cached.as_nanos(),
            cache_speedup,
            scalar.as_nanos(),
            simd.as_nanos(),
            simd_speedup,
            best_width
        );
        println!(
            "lowering: {:<10} interpret={interpret:?} lowered={lowered:?} speedup={speedup:.2}x \
             uncached={uncached:?} cached={cached:?} cache_speedup={cache_speedup:.2}x \
             scalar={scalar:?} simd={simd:?} simd_speedup={simd_speedup:.2}x best_width={best_width}",
            filter.name()
        );
    }
    // The fused lane families beyond the 32-bit integer one: miniGMG smooth
    // as a Float32 pipeline ([f32; W]) and 64-bit histogram binning
    // ([i64; W/2]), each oracle-verified before timing.
    let smoke = smoke_mode();
    let (nx, ny, nz) = if smoke { (32, 32, 6) } else { (64, 64, 12) };
    let (smooth, grid) = minigmg_smooth_f32(nx, ny, nz, 0x6116);
    let (s_scalar, s_simd, s_width, f32_speedup) = lane_family_split(
        "minigmg_smooth_f32",
        &smooth,
        "grid",
        &grid,
        &[nx, ny, nz],
        "f32",
        reps,
    );
    let (hw, hh) = if smoke { (96, 64) } else { (192, 128) };
    let (hist, hist_in) = hist64_pipeline(hw, hh, 0xB16B);
    let (h_scalar, h_simd, h_width, i64_speedup) =
        lane_family_split("hist64", &hist, "in", &hist_in, &[hw, hh], "i64", reps);
    // Double precision rides the [f64; W/2] family — no rounding casts, f64
    // lanes are the reference representation.
    let (dsmooth, dgrid) = minigmg_smooth_f64(nx, ny, nz, 0x6116);
    let (d_scalar, d_simd, d_width, f64_speedup) = lane_family_split(
        "minigmg_smooth_f64",
        &dsmooth,
        "grid",
        &dgrid,
        &[nx, ny, nz],
        "f64",
        reps,
    );
    // The explicit AVX2 core::arch kernels vs the portable lane loops, on
    // the same fused shapes (oracle-verified + counter-guarded inside the
    // split). Only the f32/f64 plan evaluators are split: i32 kernels run
    // the portable lanes on every target. `arch_speedup` is the best
    // demonstrated arch win; 0.0 with `avx2_detected: 0` means the host has
    // no AVX2 and the column is moot.
    let avx2_detected = Target::detect().has(Feature::Avx2);
    // Dedicated grid for the arch splits, even in smoke mode: the smoke grid
    // is small enough that fixed per-run overhead hides the kernel delta the
    // split exists to measure (still well under a second per column).
    let (anx, any, anz) = (64, 64, 16);
    let arch_f32 = {
        let (p, g) = minigmg_smooth_f32(anx, any, anz, 0x6116);
        arch_split(
            "smooth_f32_arch",
            &p,
            "grid",
            &g,
            &[anx, any, anz],
            reps.max(30),
        )
    };
    let arch_f64 = {
        let (p, g) = minigmg_smooth_f64(anx, any, anz, 0x6116);
        arch_split(
            "smooth_f64_arch",
            &p,
            "grid",
            &g,
            &[anx, any, anz],
            reps.max(30),
        )
    };
    let arch_speedup = [arch_f32, arch_f64]
        .iter()
        .flatten()
        .map(|(_, _, sp)| *sp)
        .fold(0.0f64, f64::max);

    // Lowered reductions: pipelines whose hot path is an update definition,
    // run end-to-end compiled (no `run_update`) against the interpreter.
    let (rw, rh) = if smoke { (96, 64) } else { (256, 192) };
    let (hist_rdom, hist_rdom_in) = hist64_rdom_pipeline(rw, rh, 0xB16B);
    let (hr_interp, hr_compiled, hist_speedup) =
        reduction_split("hist64_rdom", &hist_rdom, "in", &hist_rdom_in, &[256], reps);
    let (gx, gy, gz) = if smoke { (32, 32, 8) } else { (64, 64, 32) };
    let (norm, norm_grid) = minigmg_residual_norm(gx, gy, gz, 0x6116);
    let (n_interp, n_compiled, norm_speedup) = reduction_split(
        "minigmg_residual_norm",
        &norm,
        "grid",
        &norm_grid,
        &[1],
        reps,
    );
    let reduction_speedup = hist_speedup.min(norm_speedup);

    // The locality tier: sliding-window compute_at reuse and multi-output
    // fused nests, each oracle-gated and non-vacuity-checked before timing.
    let (ww, wh) = if smoke { (256, 160) } else { (768, 512) };
    let (window_p, window_in) = two_stage_blur_pipeline(ww, wh, 0x51DE);
    let (w_plain, w_sliding, window_speedup) =
        window_split("blur_window", &window_p, &window_in, &[ww, wh], reps.max(3));
    // Request-rate-sized realizes: per-nest worker spawning is the overhead
    // fusion removes, so the split runs where that overhead is visible and
    // takes best-of-many to keep the µs-scale measurement stable.
    let (cw, ch, stages) = if smoke { (96, 64, 8) } else { (128, 96, 8) };
    let (chain_p, chain_in) = pointwise_chain_pipeline(cw, ch, stages, 0xC4A1);
    let (m_unfused, m_fused, multi_output_speedup) = multi_output_split(
        "pointwise_chain",
        &chain_p,
        &chain_in,
        &[cw, ch],
        reps.max(12),
    );
    let locality = format!(
        "    {{\"pipeline\": \"two_stage_blur\", \"extents\": [{ww}, {wh}], \
         \"plain_ns\": {}, \"sliding_ns\": {}, \"window_speedup\": {window_speedup:.3}}},\n    \
         {{\"pipeline\": \"pointwise_chain\", \"extents\": [{cw}, {ch}], \"stages\": {stages}, \
         \"unfused_ns\": {}, \"fused_ns\": {}, \"multi_output_speedup\": {multi_output_speedup:.3}}}",
        w_plain.as_nanos(),
        w_sliding.as_nanos(),
        m_unfused.as_nanos(),
        m_fused.as_nanos(),
    );
    let reductions = format!(
        "    {{\"pipeline\": \"hist64_rdom\", \"extents\": [{rw}, {rh}], \"bins\": 256, \
         \"interpret_ns\": {}, \"compiled_ns\": {}, \"reduction_speedup\": {hist_speedup:.3}}},\n    \
         {{\"pipeline\": \"minigmg_residual_norm\", \"extents\": [{gx}, {gy}, {gz}], \
         \"interpret_ns\": {}, \"compiled_ns\": {}, \"reduction_speedup\": {norm_speedup:.3}}}",
        hr_interp.as_nanos(),
        hr_compiled.as_nanos(),
        n_interp.as_nanos(),
        n_compiled.as_nanos(),
    );
    let lane_families = format!(
        "    {{\"pipeline\": \"minigmg_smooth_f32\", \"family\": \"f32\", \"extents\": [{nx}, {ny}, {nz}], \
         \"scalar_ns\": {}, \"simd_ns\": {}, \"f32_simd_speedup\": {f32_speedup:.3}, \"best_width\": {s_width}}},\n    \
         {{\"pipeline\": \"hist64\", \"family\": \"i64\", \"extents\": [{hw}, {hh}], \
         \"scalar_ns\": {}, \"simd_ns\": {}, \"i64_simd_speedup\": {i64_speedup:.3}, \"best_width\": {h_width}}},\n    \
         {{\"pipeline\": \"minigmg_smooth_f64\", \"family\": \"f64\", \"extents\": [{nx}, {ny}, {nz}], \
         \"scalar_ns\": {}, \"simd_ns\": {}, \"f64_simd_speedup\": {f64_speedup:.3}, \"best_width\": {d_width}}}",
        s_scalar.as_nanos(),
        s_simd.as_nanos(),
        h_scalar.as_nanos(),
        h_simd.as_nanos(),
        d_scalar.as_nanos(),
        d_simd.as_nanos(),
    );
    let arch_entries = [("smooth_f32_arch", arch_f32), ("smooth_f64_arch", arch_f64)]
        .iter()
        .filter_map(|(n, v)| {
            v.map(|(p, a, _)| {
                format!(
                    "    {{\"pipeline\": \"{n}\", \"portable_ns\": {}, \"arch_ns\": {}}}",
                    p.as_nanos(),
                    a.as_nanos()
                )
            })
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"benchmark\": \"fig7_interpret_vs_lowered\",\n  \"schedule\": \"stencil_default\",\n  \"image\": [{width}, {height}],\n  \"reps\": {reps},\n  \"results\": [\n{entries}\n  ],\n  \"lane_families\": [\n{lane_families}\n  ],\n  \"reductions\": [\n{reductions}\n  ],\n  \"locality\": [\n{locality}\n  ],\n  \"arch\": [\n{arch_entries}\n  ],\n  \"avx2_detected\": {},\n  \"f32_simd_speedup\": {f32_speedup:.3},\n  \"i64_simd_speedup\": {i64_speedup:.3},\n  \"f64_simd_speedup\": {f64_speedup:.3},\n  \"arch_speedup\": {arch_speedup:.3},\n  \"reduction_speedup\": {reduction_speedup:.3},\n  \"window_speedup\": {window_speedup:.3},\n  \"multi_output_speedup\": {multi_output_speedup:.3}\n}}\n",
        u8::from(avx2_detected),
    );
    // Anchor at the workspace root regardless of the bench's working dir.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_lowering.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("lowering: wrote {}", path.display()),
        Err(e) => eprintln!("lowering: could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_lowering);

fn main() {
    if smoke_mode() {
        // CI smoke: small image, few reps, no criterion group — still lifts
        // all three filters and exercises both the cold and the cached
        // realize paths end to end.
        println!("lowering: HELIUM_BENCH_SMOKE set, running reduced report only");
        write_report(2, 48, 32);
    } else {
        benches();
        write_report(7, 96, 64);
    }
}
