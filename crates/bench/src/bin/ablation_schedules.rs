//! Ablation: how much of the lifted kernels' speedup comes from each schedule
//! feature (the design choices the paper delegates to the Halide autotuner).
//!
//! For each lifted PhotoFlow filter the harness times the same lifted pipeline
//! under a ladder of schedules: fully naive, tiled only, parallel only,
//! vectorized only, the default stencil schedule (all three), and a short
//! `helium_tune::guided_search` run (the reproduction-scale analogue of the
//! paper's six-hour OpenTuner search).

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{
    buffer_from_layout, lift_photoflow, ms, time_lifted, BENCH_HEIGHT, BENCH_WIDTH,
};
use helium_halide::{RealizeInputs, Schedule};
use helium_tune::{guided_search, SearchConfig};
use std::time::Duration;

fn main() {
    let reps = 3;
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  best-tuned-schedule",
        "Filter", "naive", "tiled", "parallel", "vector", "default", "tuned"
    );
    for filter in [
        PhotoFilter::Blur,
        PhotoFilter::BlurMore,
        PhotoFilter::Sharpen,
        PhotoFilter::Invert,
    ] {
        let (app, lifted) = lift_photoflow(filter, BENCH_WIDTH, BENCH_HEIGHT);

        let naive = time_lifted(&app, &lifted, Schedule::naive(), reps);
        let tiled = time_lifted(
            &app,
            &lifted,
            Schedule::naive().with_tile(Some((64, 32))),
            reps,
        );
        let parallel = time_lifted(&app, &lifted, Schedule::naive().with_parallel(true), reps);
        let vector = time_lifted(&app, &lifted, Schedule::naive().with_vectorize(true), reps);
        let default = time_lifted(&app, &lifted, Schedule::stencil_default(), reps);

        // Tune the primary kernel (same inputs the timing helper uses).
        let kernel = lifted.primary();
        let out_layout = lifted.buffer(&kernel.output).expect("output layout");
        let extents: Vec<usize> = out_layout.extents.iter().map(|&e| e as usize).collect();
        let buffers: Vec<(String, helium_halide::Buffer)> = kernel
            .pipeline
            .images
            .keys()
            .map(|name| (name.clone(), buffer_from_layout(&app, &lifted, name)))
            .collect();
        let mut inputs = RealizeInputs::new();
        for (name, buf) in &buffers {
            inputs = inputs.with_image(name, buf);
        }
        for (name, value) in &kernel.parameter_values {
            inputs = inputs.with_param(name, *value);
        }
        let config = SearchConfig {
            max_candidates: 12,
            budget: Duration::from_secs(8),
            ..SearchConfig::default()
        };
        let report = guided_search(&kernel.pipeline, &extents, &inputs, &config)
            .expect("tuning the lifted kernel succeeds");
        let tuned = time_lifted(&app, &lifted, report.best.clone(), reps);

        println!(
            "{:<14} {} {} {} {} {} {}  {}",
            filter.name(),
            ms(naive),
            ms(tiled),
            ms(parallel),
            ms(vector),
            ms(default),
            ms(tuned),
            report.best
        );
    }
    println!(
        "\n(all times in milliseconds, one output plane, {}x{} image;",
        BENCH_WIDTH, BENCH_HEIGHT
    );
    println!(" `tuned` re-times the guided search's best schedule with the same repetitions)");
}
