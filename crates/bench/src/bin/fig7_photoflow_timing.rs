//! Regenerates the top half of the paper's Fig. 7: timing comparison between
//! the legacy PhotoFlow filters and the lifted Halide implementations.
//!
//! Two baselines are reported: the legacy binary running in the VM (the
//! literal analogue of the shipped executable) and a native scalar port of
//! the same algorithm (a conservative upper bound on the original's
//! performance). Both process the image's three planes and are reported per
//! plane, like the lifted kernel, which computes one plane. The lifted kernel
//! runs under `Schedule::stencil_default()`: `lifted-warm` is the median of
//! cached runs of one compiled pipeline, `lifted-cold` the median of a fresh
//! compile plus its first run, and both ratios divide by the warm time.

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{
    lift_photoflow, ms, time_kernel, time_legacy_native, time_legacy_vm, LiftedRealizeSetup,
    BENCH_HEIGHT, BENCH_WIDTH,
};
use helium_halide::{CompileOptions, Schedule};

fn main() {
    let reps = 5;
    println!(
        "{:<14} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "Filter", "legacy-vm", "native-port", "lifted-warm", "lifted-cold", "vs vm", "vs native"
    );
    for filter in [
        PhotoFilter::Invert,
        PhotoFilter::Blur,
        PhotoFilter::BlurMore,
        PhotoFilter::Sharpen,
        PhotoFilter::SharpenMore,
        PhotoFilter::Threshold,
        PhotoFilter::BoxBlur,
    ] {
        let (app, lifted) = match lift_photoflow(filter, BENCH_WIDTH, BENCH_HEIGHT) {
            Ok(v) => v,
            Err(e) => {
                println!("{:<14} not lifted: {e}", filter.name());
                continue;
            }
        };
        let vm = time_legacy_vm(&app, 1);
        let native = time_legacy_native(&app, reps);
        let setup = LiftedRealizeSetup::new(&app, &lifted);
        let lifted_time = time_kernel(
            setup.pipeline(),
            &Schedule::stencil_default(),
            &CompileOptions::default(),
            &setup.inputs(),
            &setup.extents,
            reps,
        );
        let warm = lifted_time.warm.as_secs_f64().max(1e-9);
        println!(
            "{:<14} {} {} {} {} {:>8.2}x {:>8.2}x",
            filter.name(),
            ms(vm),
            ms(native),
            ms(lifted_time.warm),
            ms(lifted_time.cold),
            vm.as_secs_f64() / warm,
            native.as_secs_f64() / warm,
        );
    }
    println!(
        "\n(milliseconds per image plane, {BENCH_WIDTH}x{BENCH_HEIGHT}: medians of {reps} runs,"
    );
    println!(" one for the VM; the ratios divide by lifted-warm)");
}
