//! Regenerates the paper's §6.3 miniGMG experiment: the smooth stencil of the
//! multigrid benchmark, legacy versus the lifted-and-rescheduled kernel.
//!
//! The stencil is lifted end to end by `helium-core` using generic inference
//! (no known input/output data, exactly as in the paper), then realized by the
//! helium-halide runtime with a parallel schedule. The legacy baselines are
//! the binary in the VM and the native scalar port. The lifted times are warm
//! (the median of cached runs of one compiled pipeline) unless marked cold (a
//! fresh compile plus its first run), and the speedups divide by warm times.

use helium_apps::Grid3D;
use helium_bench::{lift_minigmg, median_time, ms, run_legacy, time_lifted_kernel};
use helium_halide::Schedule;

fn main() {
    let (nx, ny, nz) = (48, 48, 24);
    let (app, lifted) = lift_minigmg(nx, ny, nz);
    let grid: &Grid3D = app.grid();

    println!(
        "miniGMG smooth stencil ({nx}x{ny}x{nz} interior, ghost=1), lifted via generic inference"
    );
    println!(
        "localization: {} of {} blocks in the coverage difference, {} static instructions",
        lifted.stats.diff_basic_blocks,
        lifted.stats.total_basic_blocks,
        lifted.stats.static_instruction_count
    );

    let (cpu, vm) = run_legacy(app.program(), app.fresh_cpu(true));
    let reps = 5;
    let native = median_time(reps, || app.reference_output());
    // Realize over the true interior extents (the inferred innermost extent
    // includes the ghost gap of each scanline).
    let extents = Some(vec![grid.nx, grid.ny, grid.nz]);
    let parallel = Schedule::stencil_default().with_parallel(true);
    let lifted_time = time_lifted_kernel(&cpu.mem, &lifted, &parallel, extents.clone(), reps);
    let naive_time = time_lifted_kernel(&cpu.mem, &lifted, &Schedule::naive(), extents, reps);

    // Correctness: compare a fresh realization against the native reference.
    let reference = app.reference_output();
    let out = {
        let kernel = lifted.primary();
        let input = helium_bench::buffer_from_memory(
            &cpu.mem,
            &lifted,
            "input_1",
            helium_halide::ScalarType::Float64,
        );
        let mut inputs = helium_halide::RealizeInputs::new().with_image("input_1", &input);
        for (name, value) in &kernel.parameter_values {
            inputs = inputs.with_param(name, *value);
        }
        helium_halide::Realizer::new(parallel)
            .realize(&kernel.pipeline, &[grid.nx, grid.ny, grid.nz], &inputs)
            .expect("lifted smooth realizes")
    };
    let mut max_err = 0f64;
    for z in 0..grid.nz {
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                let got = out.get(&[x as i64, y as i64, z as i64]).as_f64();
                max_err = max_err.max((got - reference.get(x, y, z)).abs());
            }
        }
    }

    println!("legacy (VM)          : {} ms", ms(vm));
    println!("legacy (native)      : {} ms", ms(native));
    println!("lifted, naive sched  : {} ms", ms(naive_time.warm));
    println!("lifted, parallel     : {} ms", ms(lifted_time.warm));
    println!("lifted, parallel cold: {} ms", ms(lifted_time.cold));
    let warm = lifted_time.warm.as_secs_f64().max(1e-9);
    println!("speedup vs VM        : {:.2}x", vm.as_secs_f64() / warm);
    println!("speedup vs native    : {:.2}x", native.as_secs_f64() / warm);
    println!("max |error|          : {max_err:e}");
    println!("\n(generated Halide source below)\n");
    println!("{}", lifted.halide_source());
}
