//! Interpret-vs-Lowered and cached-vs-uncached comparison on the Fig. 7
//! filter set.
//!
//! Runs the criterion group and additionally writes a machine-readable
//! summary to `BENCH_lowering.json` in the workspace root: per filter, the
//! best-of-N wall-clock time for each backend under the stencil default
//! schedule; for the compile-once/run-many API the uncached (compile + run)
//! and cached (warm `CompiledPipeline::run`) times and the amortization
//! factor between them; and for the execution tiers a `scalar_ns` /
//! `simd_ns` pair — steady-state runs on one thread with fused SIMD kernels
//! disabled and enabled — so tier regressions are visible per PR.
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
//! Every two-sided split above times its sides in interleaved rounds,
//! alternating which side goes first, and reports medians, so drift in the
//! host's speed lands on every side alike. The report also carries an
//! ungated `tile_overhead.<filter>` column: `stencil_default` on one thread
//! over the same schedule untiled, for the lifted invert, blur and sharpen
//! at 1920×1080.
//!
//! Setting `HELIUM_BENCH_SMOKE=1` skips the criterion group and writes the
//! report from a reduced configuration — CI uses this to exercise the cached
//! realize path on every PR without burning minutes.

use criterion::{criterion_group, Criterion};
use helium_apps::photoflow::PhotoFilter;
use helium_bench::{
    hist64_pipeline, hist64_rdom_pipeline, lift_photoflow, minigmg_residual_norm,
    minigmg_smooth_f32, minigmg_smooth_f64, time_interleaved, time_lifted_on, LiftedRealizeSetup,
};
use helium_core::LiftedStencil;
use helium_halide::{
    Buffer, CompileOptions, ExecBackend, Pipeline, RealizeInputs, Realizer, ScalarType, Schedule,
    Target, Tier,
};
use std::fmt::Write as _;
use std::time::Duration;

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

/// Interleaved rounds for `reps`: an odd count, so each median is a run.
fn rounds(reps: usize) -> usize {
    2 * reps.max(2) + 1
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

    let t = time_interleaved(
        &[&interp_compiled, &compiled],
        &inputs,
        extents,
        rounds(reps),
    );
    let (interpret, compiled_t) = (t[0], t[1]);
    let speedup = interpret.as_secs_f64() / compiled_t.as_secs_f64().max(1e-12);
    println!(
        "lowering: {name:<22} interpret={interpret:?} compiled={compiled_t:?} \
         reduction_speedup={speedup:.2}x"
    );
    (interpret, compiled_t, speedup)
}

/// Per-op tier vs fused lane family for one pipeline: verify the fused
/// output bit-identical to the interpreter oracle, then time the two tiers
/// on the same schedule. Returns `(scalar, simd, speedup)`.
fn lane_family_split(
    name: &str,
    pipeline: &Pipeline,
    inputs: &RealizeInputs<'_>,
    extents: &[usize],
    expect_family: &str,
    reps: usize,
) -> (Duration, Duration, f64) {
    // One thread: the split compares tiers, and spawning the parallel
    // workers (about 130 µs per realize on a 2-vCPU host) costs more than
    // the whole fused realize of a smoke-sized kernel (about 40 µs for the
    // smoother, 3–26 µs for the Fig. 7 filters), so on a parallel schedule
    // the ratio measured thread start-up.
    let schedule = Schedule::stencil_default().with_parallel(false);
    // Correctness gate before timing: the fused tier must be active on the
    // expected lane family and bit-identical to the interpreter.
    let compiled = compile_pinned(pipeline, &schedule, Target::detect().with_tier(Tier::Simd));
    let fused = compiled.run(inputs, extents).expect("fused run");
    let counts = compiled
        .fused_store_counts(inputs, extents)
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
        .realize(pipeline, extents, inputs)
        .expect("oracle");
    assert_eq!(fused, oracle, "{name}: fused output diverged from oracle");

    let scalar_compiled = compile_pinned(
        pipeline,
        &schedule,
        Target::detect().with_tier(Tier::Scalar),
    );
    let t = time_interleaved(
        &[&scalar_compiled, &compiled],
        inputs,
        extents,
        rounds(reps),
    );
    let (scalar, simd) = (t[0], t[1]);
    let speedup = scalar.as_secs_f64() / simd.as_secs_f64().max(1e-12);
    println!(
        "lowering: {name:<18} scalar={scalar:?} simd={simd:?} \
         {expect_family}_simd_speedup={speedup:.2}x"
    );
    (scalar, simd, speedup)
}

/// Image the tiling overhead is measured on (the `run` workload's size).
const TILE_IMAGE: (usize, usize) = (1920, 1080);

/// Tiling overhead of a lifted kernel at [`TILE_IMAGE`] on one thread:
/// `stencil_default` (64×64 tiles, vectorized) over the untiled vectorized
/// schedule, as a ratio of interleaved medians, after checking both give the
/// same bytes. The engine picks its chunk from the row, so the ratio shows
/// what tiling itself costs (loop control, row set-up, the memory access
/// pattern), not a chunk-width difference.
fn tile_overhead(lifted: &LiftedStencil, reps: usize) -> f64 {
    let (w, h) = TILE_IMAGE;
    let kernel = lifted.primary();
    let images: Vec<(String, Buffer)> = kernel
        .pipeline
        .images
        .keys()
        .map(|name| {
            let mut image = Buffer::new(ScalarType::UInt8, &[w + 2, h + 2]);
            for (i, b) in image.bytes_mut().iter_mut().enumerate() {
                *b = (i.wrapping_mul(2654435761) >> 13) as u8;
            }
            (name.clone(), image)
        })
        .collect();
    let mut inputs = RealizeInputs::new();
    for (name, image) in &images {
        inputs = inputs.with_image(name, image);
    }
    for (name, value) in &kernel.parameter_values {
        inputs = inputs.with_param(name, *value);
    }
    let compile = |s: Schedule| {
        let options = CompileOptions::default();
        kernel.pipeline.compile(&s, &options).expect("compile")
    };
    let tiled = compile(Schedule::stencil_default().with_parallel(false));
    let untiled = compile(Schedule::naive().with_vectorize(true));
    assert_eq!(
        tiled.run(&inputs, &[w, h]).expect("tiled run"),
        untiled.run(&inputs, &[w, h]).expect("untiled run"),
        "tiled and untiled schedules must agree"
    );
    // Many rounds: a tiled run's memory traffic varies more from run to
    // run than an untiled one's, and each round costs only milliseconds.
    let t = time_interleaved(&[&tiled, &untiled], &inputs, &[w, h], rounds(4 * reps));
    t[0].as_secs_f64() / t[1].as_secs_f64().max(1e-12)
}

fn write_report(reps: usize, width: usize, height: usize) {
    let mut entries = String::new();
    let mut tile_overheads = Vec::new();
    for (i, filter) in FILTERS.iter().enumerate() {
        let (app, lifted) = lift_photoflow(*filter, width, height);
        let overhead = tile_overhead(&lifted, reps);
        println!(
            "lowering: {:<10} tile_overhead={overhead:.2}x",
            filter.name()
        );
        tile_overheads.push(format!("\"{}\": {overhead:.3}", filter.name()));

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
        // Execution-tier split at full extents, steady state, on one thread
        // like the lane families': the per-op tier against the fused i32
        // lanes, each side's target pinned at compile time.
        let (scalar, simd, simd_speedup) = lane_family_split(
            filter.name(),
            setup.pipeline(),
            &setup.inputs(),
            &setup.extents,
            "i32",
            reps,
        );
        let speedup = interpret.as_secs_f64() / lowered.as_secs_f64().max(1e-12);
        let cache_speedup = uncached.as_secs_f64() / cached.as_secs_f64().max(1e-12);
        if i > 0 {
            entries.push_str(",\n");
        }
        let _ = write!(
            entries,
            "    {{\"filter\": \"{}\", \"interpret_ns\": {}, \"lowered_ns\": {}, \"speedup\": {:.3}, \
             \"cache_extents\": [{}, {}], \"uncached_ns\": {}, \"cached_ns\": {}, \"cache_speedup\": {:.3}, \
             \"scalar_ns\": {}, \"simd_ns\": {}, \"simd_speedup\": {:.3}}}",
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
            simd_speedup
        );
        println!(
            "lowering: {:<10} interpret={interpret:?} lowered={lowered:?} speedup={speedup:.2}x \
             uncached={uncached:?} cached={cached:?} cache_speedup={cache_speedup:.2}x",
            filter.name()
        );
    }
    // The fused lane families beyond the 32-bit integer one: miniGMG smooth
    // as a Float32 pipeline ([f32; W]) and 64-bit histogram binning
    // ([i64; W/2]), each oracle-verified before timing.
    let smoke = smoke_mode();
    let (nx, ny, nz) = if smoke { (32, 32, 6) } else { (64, 64, 12) };
    let (smooth, grid) = minigmg_smooth_f32(nx, ny, nz, 0x6116);
    let (s_scalar, s_simd, f32_speedup) = lane_family_split(
        "minigmg_smooth_f32",
        &smooth,
        &RealizeInputs::new().with_image("grid", &grid),
        &[nx, ny, nz],
        "f32",
        reps,
    );
    let (hw, hh) = if smoke { (96, 64) } else { (192, 128) };
    let (hist, hist_in) = hist64_pipeline(hw, hh, 0xB16B);
    let (h_scalar, h_simd, i64_speedup) = lane_family_split(
        "hist64",
        &hist,
        &RealizeInputs::new().with_image("in", &hist_in),
        &[hw, hh],
        "i64",
        reps,
    );
    // Double precision rides the [f64; W/2] family — no rounding casts, f64
    // lanes are the reference representation.
    let (dsmooth, dgrid) = minigmg_smooth_f64(nx, ny, nz, 0x6116);
    let (d_scalar, d_simd, f64_speedup) = lane_family_split(
        "minigmg_smooth_f64",
        &dsmooth,
        &RealizeInputs::new().with_image("grid", &dgrid),
        &[nx, ny, nz],
        "f64",
        reps,
    );
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
         \"scalar_ns\": {}, \"simd_ns\": {}, \"f32_simd_speedup\": {f32_speedup:.3}}},\n    \
         {{\"pipeline\": \"hist64\", \"family\": \"i64\", \"extents\": [{hw}, {hh}], \
         \"scalar_ns\": {}, \"simd_ns\": {}, \"i64_simd_speedup\": {i64_speedup:.3}}},\n    \
         {{\"pipeline\": \"minigmg_smooth_f64\", \"family\": \"f64\", \"extents\": [{nx}, {ny}, {nz}], \
         \"scalar_ns\": {}, \"simd_ns\": {}, \"f64_simd_speedup\": {f64_speedup:.3}}}",
        s_scalar.as_nanos(),
        s_simd.as_nanos(),
        h_scalar.as_nanos(),
        h_simd.as_nanos(),
        d_scalar.as_nanos(),
        d_simd.as_nanos(),
    );
    let json = format!(
        "{{\n  \"benchmark\": \"fig7_interpret_vs_lowered\",\n  \"schedule\": \"stencil_default\",\n  \"image\": [{width}, {height}],\n  \"reps\": {reps},\n  \"results\": [\n{entries}\n  ],\n  \"lane_families\": [\n{lane_families}\n  ],\n  \"reductions\": [\n{reductions}\n  ],\n  \"tile_overhead\": {{{}}},\n  \"f32_simd_speedup\": {f32_speedup:.3},\n  \"i64_simd_speedup\": {i64_speedup:.3},\n  \"f64_simd_speedup\": {f64_speedup:.3},\n  \"reduction_speedup\": {reduction_speedup:.3}\n}}\n",
        tile_overheads.join(", ")
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
        // CI smoke: small image, no criterion group — still lifts all three
        // filters and exercises both the cold and the cached realize paths
        // end to end. A smoke realize takes microseconds, so the splits run
        // 17 interleaved rounds to keep their medians steady from one
        // regeneration to the next.
        println!("lowering: HELIUM_BENCH_SMOKE set, running reduced report only");
        write_report(8, 48, 32);
    } else {
        benches();
        write_report(7, 96, 64);
    }
}
