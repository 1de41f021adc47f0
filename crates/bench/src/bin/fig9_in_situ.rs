//! Regenerates the paper's Fig. 9: in-situ replacement — the lifted kernels
//! patched back into the host application and therefore constrained by the
//! host's tiling decisions.
//!
//! The host constraint is modelled by realizing the lifted kernel one host
//! tile (8 scanlines) at a time instead of over the whole image, which
//! bounds the parallelism and locality the schedule can exploit, exactly the
//! effect the paper reports for the patched Photoshop binaries.
//!
//! Every lifted time is warm (the median of cached runs of one compiled
//! pipeline): `standalone` realizes the whole plane at once, `in-situ` is
//! the band count times one band's realize (plus the shorter last band's
//! where the rows do not divide evenly). The native port runs over the
//! image's three planes and is reported per plane, and `speedup` is
//! native-port ÷ in-situ.

use helium_apps::photoflow::{PhotoFilter, TILE_ROWS};
use helium_bench::{
    lift_photoflow, ms, time_kernel, time_legacy_native, LiftedRealizeSetup, BENCH_HEIGHT,
    BENCH_WIDTH,
};
use helium_halide::{CompileOptions, Schedule};

fn main() {
    let reps = 5;
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>9}",
        "Filter", "native-port", "standalone", "in-situ", "speedup"
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
        let setup = LiftedRealizeSetup::new(&app, &lifted);
        let inputs = setup.inputs();
        let warm = |schedule: &Schedule, extents: &[usize]| {
            let options = CompileOptions::default();
            time_kernel(setup.pipeline(), schedule, &options, &inputs, extents, reps).warm
        };

        let native = time_legacy_native(&app, reps);

        // Standalone: the full image in one realization, free to parallelize.
        let standalone = warm(&Schedule::stencil_default(), &setup.extents);

        // In-situ: the host hands the kernel one band of scanlines at a time.
        let band_schedule = Schedule::stencil_default().with_threads(2);
        let (width, rows, band) = (setup.extents[0], setup.extents[1], TILE_ROWS as usize);
        let mut in_situ = warm(&band_schedule, &[width, band]) * (rows / band) as u32;
        if rows % band > 0 {
            in_situ += warm(&band_schedule, &[width, rows % band]);
        }

        println!(
            "{:<14} {} {} {} {:>8.2}x",
            filter.name(),
            ms(native),
            ms(standalone),
            ms(in_situ),
            native.as_secs_f64() / in_situ.as_secs_f64().max(1e-9)
        );
    }
    println!(
        "\n(milliseconds per image plane, {BENCH_WIDTH}x{BENCH_HEIGHT}: medians of {reps} runs;"
    );
    println!(" the lifted columns are warm)");
}
