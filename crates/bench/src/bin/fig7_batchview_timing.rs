//! Regenerates the bottom half of the paper's Fig. 7: timing comparison for
//! the BatchView (IrfanView-analogue) filters against the lifted Halide
//! implementations.
//!
//! Two baselines are reported, as for the PhotoFlow table: the legacy binary
//! interpreted in the VM (the analogue of the shipped executable) and a native
//! scalar port of the same algorithm. Every side processes the whole
//! interleaved image. The lifted kernels run under the default stencil
//! schedule (tiled + parallel): `lifted-warm` is the median of cached runs of
//! one compiled pipeline, `lifted-cold` the median of a fresh compile plus its
//! first run, and both ratios divide by the warm time.

use helium_apps::batchview::BatchFilter;
use helium_bench::{lift_batchview, median_time, ms, run_legacy, time_lifted_kernel};
use helium_halide::Schedule;

fn main() {
    let (w, h) = (192, 128);
    let reps = 5;
    println!(
        "{:<12} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "Filter", "legacy-vm", "native-port", "lifted-warm", "lifted-cold", "vs vm", "vs native"
    );
    for filter in BatchFilter::ALL {
        let (app, lifted) = match lift_batchview(filter, w, h) {
            Ok(v) => v,
            Err(e) => {
                println!("{:<12} not lifted: {e}", filter.name());
                continue;
            }
        };
        let (cpu, vm) = run_legacy(app.program(), app.fresh_cpu(true));
        let native = median_time(reps, || app.reference_output());
        let lifted_time =
            time_lifted_kernel(&cpu.mem, &lifted, &Schedule::stencil_default(), None, reps);
        let warm = lifted_time.warm.as_secs_f64().max(1e-9);
        println!(
            "{:<12} {} {} {} {} {:>8.2}x {:>8.2}x",
            filter.name(),
            ms(vm),
            ms(native),
            ms(lifted_time.warm),
            ms(lifted_time.cold),
            vm.as_secs_f64() / warm,
            native.as_secs_f64() / warm,
        );
    }
    println!("\n(milliseconds over the interleaved RGB image, {w}x{h}: medians of {reps} runs,");
    println!(" one for the VM; the ratios divide by lifted-warm)");
}
