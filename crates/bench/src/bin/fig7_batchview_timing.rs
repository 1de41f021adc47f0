//! Regenerates the bottom half of the paper's Fig. 7: timing comparison for
//! the BatchView (IrfanView-analogue) filters against the lifted Halide
//! implementations.
//!
//! Two baselines are reported, as for the PhotoFlow table: the legacy binary
//! interpreted in the VM (the analogue of the shipped executable) and a native
//! scalar port of the same algorithm. The lifted kernels are realized with the
//! default stencil schedule (tiled + parallel).

use helium_apps::batchview::BatchFilter;
use helium_bench::{lift_batchview, ms, run_legacy, time_lifted_kernel};
use helium_halide::Schedule;
use std::time::{Duration, Instant};

fn time<F: FnMut()>(mut f: F, reps: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let (w, h) = (192, 128);
    let reps = 3;
    println!(
        "{:<12} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "Filter", "legacy-vm", "native-port", "lifted", "vs vm", "vs native"
    );
    for filter in BatchFilter::ALL {
        let result = std::panic::catch_unwind(|| lift_batchview(filter, w, h));
        let (app, lifted) = match result {
            Ok(v) => v,
            Err(_) => {
                println!("{:<12} (not lifted)", filter.name());
                continue;
            }
        };
        let (cpu, vm) = run_legacy(app.program(), app.fresh_cpu(true));
        let native = time(
            || {
                let _ = app.reference_output();
            },
            reps,
        );
        let lifted_time =
            time_lifted_kernel(&cpu.mem, &lifted, Schedule::stencil_default(), None, reps);
        println!(
            "{:<12} {} {} {} {:>8.2}x {:>8.2}x",
            filter.name(),
            ms(vm),
            ms(native),
            ms(lifted_time),
            vm.as_secs_f64() / lifted_time.as_secs_f64().max(1e-9),
            native.as_secs_f64() / lifted_time.as_secs_f64().max(1e-9),
        );
    }
    println!("\n(all times in milliseconds; interleaved RGB image {w}x{h})");
}
