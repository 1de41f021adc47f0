//! Criterion micro-benchmarks backing Fig. 8: separate versus fused execution
//! of a two-stage lifted pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use helium_apps::photoflow::PhotoFilter;
use helium_bench::{buffer_from_layout, lift_photoflow};
use helium_halide::{ExecBackend, RealizeInputs, Realizer, Schedule};

fn bench_pipelines(c: &mut Criterion) {
    let (blur_app, blur) = lift_photoflow(PhotoFilter::Blur, 96, 64).expect("blur lifts");
    let (_, invert) = lift_photoflow(PhotoFilter::Invert, 96, 64).expect("invert lifts");
    let blur_kernel = blur.primary();
    let invert_kernel = invert.primary();
    let input_name = blur_kernel.pipeline.images.keys().next().cloned().unwrap();
    let invert_input = invert_kernel
        .pipeline
        .images
        .keys()
        .next()
        .cloned()
        .unwrap();
    let input = buffer_from_layout(&blur_app, &blur, &input_name);
    let extents: Vec<usize> = blur
        .buffer(&blur_kernel.output)
        .unwrap()
        .extents
        .iter()
        .map(|&e| e as usize)
        .collect();
    let realizer = Realizer::new(Schedule::stencil_default());
    let interpreter =
        Realizer::new(Schedule::stencil_default()).with_backend(ExecBackend::Interpret);
    let fused = invert_kernel
        .pipeline
        .compose_after(&blur_kernel.pipeline, &invert_input);

    let mut group = c.benchmark_group("fig8_pipelines");
    group.sample_size(10);
    group.bench_function("separate", |b| {
        b.iter(|| {
            let blurred = realizer
                .realize(
                    &blur_kernel.pipeline,
                    &extents,
                    &RealizeInputs::new().with_image(&input_name, &input),
                )
                .unwrap();
            realizer
                .realize(
                    &invert_kernel.pipeline,
                    &extents,
                    &RealizeInputs::new().with_image(&invert_input, &blurred),
                )
                .unwrap()
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            realizer
                .realize(
                    &fused,
                    &extents,
                    &RealizeInputs::new().with_image(&input_name, &input),
                )
                .unwrap()
        })
    });
    // The same fused pipeline on the interpreter oracle, so the lowering
    // engine's contribution to Fig. 8 stays measurable.
    group.bench_function("fused_interpret", |b| {
        b.iter(|| {
            interpreter
                .realize(
                    &fused,
                    &extents,
                    &RealizeInputs::new().with_image(&input_name, &input),
                )
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
