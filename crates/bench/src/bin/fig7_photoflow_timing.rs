//! Regenerates the top half of the paper's Fig. 7: timing comparison between
//! the legacy PhotoFlow filters and the lifted Halide implementations.
//!
//! Two baselines are reported: the legacy binary running in the VM (the
//! literal analogue of the shipped executable) and a native scalar port of
//! the same algorithm (a conservative upper bound on the original's
//! performance).

use helium_apps::photoflow::PhotoFilter;
use helium_bench::{
    lift_photoflow, ms, time_legacy_native, time_legacy_vm, time_lifted, BENCH_HEIGHT, BENCH_WIDTH,
};
use helium_halide::Schedule;

fn main() {
    let reps = 3;
    println!(
        "{:<14} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "Filter", "legacy-vm", "native-port", "lifted", "vs vm", "vs native"
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
        let result = std::panic::catch_unwind(|| lift_photoflow(filter, BENCH_WIDTH, BENCH_HEIGHT));
        let (app, lifted) = match result {
            Ok(v) => v,
            Err(_) => {
                println!("{:<14} (not lifted)", filter.name());
                continue;
            }
        };
        let vm = time_legacy_vm(&app, 1);
        let native = time_legacy_native(&app, reps);
        let lifted_time = time_lifted(&app, &lifted, Schedule::stencil_default(), reps);
        println!(
            "{:<14} {} {} {} {:>8.2}x {:>8.2}x",
            filter.name(),
            ms(vm),
            ms(native),
            ms(lifted_time),
            vm.as_secs_f64() / lifted_time.as_secs_f64().max(1e-9),
            native.as_secs_f64() / lifted_time.as_secs_f64().max(1e-9),
        );
    }
    println!("\n(all times in milliseconds; one plane timed for the lifted kernels,");
    println!(" three planes for the legacy baselines)");
}
