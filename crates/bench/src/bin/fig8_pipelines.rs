//! Regenerates the paper's Fig. 8: filter-pipeline performance — running the
//! lifted filters separately (materializing every intermediate) versus as one
//! fused Halide pipeline.

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{buffer_from_layout, lift_photoflow, ms, BENCH_HEIGHT, BENCH_WIDTH};
use helium_halide::{RealizeInputs, Realizer, Schedule};
use std::time::Instant;

fn main() {
    // The paper's Photoshop pipeline is blur -> invert -> sharpen more; we
    // fuse the lifted blur and invert stages (sharpen-more composes the same
    // way) and report separate vs fused execution.
    let (blur_app, blur) =
        lift_photoflow(PhotoFilter::Blur, BENCH_WIDTH, BENCH_HEIGHT).expect("blur lifts");
    let (_, invert) =
        lift_photoflow(PhotoFilter::Invert, BENCH_WIDTH, BENCH_HEIGHT).expect("invert lifts");

    let blur_kernel = blur.primary();
    let invert_kernel = invert.primary();
    let input_name = blur_kernel
        .pipeline
        .images
        .keys()
        .next()
        .cloned()
        .expect("input");
    let invert_input = invert_kernel
        .pipeline
        .images
        .keys()
        .next()
        .cloned()
        .expect("input");
    let input = buffer_from_layout(&blur_app, &blur, &input_name);
    let extents: Vec<usize> = blur
        .buffer(&blur_kernel.output)
        .expect("output layout")
        .extents
        .iter()
        .map(|&e| e as usize)
        .collect();

    let realizer = Realizer::new(Schedule::stencil_default());
    let reps = 3;

    let mut separate_best = std::time::Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let blurred = realizer
            .realize(
                &blur_kernel.pipeline,
                &extents,
                &RealizeInputs::new().with_image(&input_name, &input),
            )
            .expect("blur realizes");
        let _ = realizer
            .realize(
                &invert_kernel.pipeline,
                &extents,
                &RealizeInputs::new().with_image(&invert_input, &blurred),
            )
            .expect("invert realizes");
        separate_best = separate_best.min(start.elapsed());
    }

    let fused = invert_kernel
        .pipeline
        .compose_after(&blur_kernel.pipeline, &invert_input);
    let mut fused_best = std::time::Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let _ = realizer
            .realize(
                &fused,
                &extents,
                &RealizeInputs::new().with_image(&input_name, &input),
            )
            .expect("fused pipeline realizes");
        fused_best = fused_best.min(start.elapsed());
    }

    println!("pipeline: blur -> invert (lifted kernels, one colour plane)");
    println!("standalone separate : {} ms", ms(separate_best));
    println!("standalone fused    : {} ms", ms(fused_best));
    println!(
        "fusion speedup      : {:.2}x",
        separate_best.as_secs_f64() / fused_best.as_secs_f64().max(1e-9)
    );
}
