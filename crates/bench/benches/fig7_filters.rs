//! Criterion micro-benchmarks backing Fig. 7: per-filter comparison of the
//! legacy native port (all three planes) against warm runs of the lifted,
//! rescheduled kernels (one plane).

use criterion::{criterion_group, criterion_main, Criterion};
use helium_apps::photoflow::PhotoFilter;
use helium_bench::{lift_photoflow, LiftedRealizeSetup};
use helium_halide::{CompileOptions, ExecBackend, Schedule};

fn bench_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_filters");
    group.sample_size(10);
    for filter in [PhotoFilter::Invert, PhotoFilter::Blur, PhotoFilter::Sharpen] {
        let (app, lifted) = lift_photoflow(filter, 96, 64).expect("the filter lifts");
        group.bench_function(format!("{}_legacy_native", filter.name()), |b| {
            b.iter(|| app.reference_output())
        });
        let setup = LiftedRealizeSetup::new(&app, &lifted);
        let inputs = setup.inputs();
        // Both execution backends, so regressions in either are visible.
        for (backend, label) in [
            (ExecBackend::Interpret, "interpret"),
            (ExecBackend::Lowered, "lowered"),
        ] {
            let options = CompileOptions {
                backend,
                ..CompileOptions::default()
            };
            let compiled = setup
                .pipeline()
                .compile(&Schedule::stencil_default(), &options)
                .expect("compile");
            group.bench_function(format!("{}_lifted_{label}", filter.name()), |b| {
                b.iter(|| compiled.run(&inputs, &setup.extents).expect("run"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);
