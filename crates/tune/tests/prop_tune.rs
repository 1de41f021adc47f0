//! Differential suite for the tuner's view of the backend-selection API:
//! `dry_run`'s per-store [`StoreProfile`] reports a fused kernel exactly
//! when the run executes one (the fused-row counter advances), and the cost
//! model's `fused_stores` column is derived from exactly those profiles —
//! on the Auto and Scalar tiers, on an i32 stencil, an f64 one and a 1-D
//! one whose only loop is parallel.

use helium_halide::prelude::*;
use helium_halide::{CompileOptions, StoreProfile};
use helium_tune::ScheduleFeatures;

/// A bordered stencil pipeline that fuses on `[i32; W]` lanes.
fn stencil_pipeline() -> Pipeline {
    let u32c = |e: Expr| Expr::cast(ScalarType::UInt32, e);
    let tap = |dx: i64, dy: i64| {
        u32c(Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        ))
    };
    let value = Expr::cast(
        ScalarType::UInt8,
        u32c(Expr::bin(
            BinOp::Shr,
            u32c(Expr::add(u32c(Expr::add(tap(0, 0), tap(1, 0))), tap(0, 1))),
            Expr::uint(1),
        )),
    );
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value);
    Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)])
}

/// The same bordered stencil on `Float64` data, fusing on `[f64; W/2]`
/// lanes.
fn f64_stencil_pipeline() -> Pipeline {
    let tap = |dx: i64, dy: i64| {
        Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        )
    };
    let value = Expr::mul(
        Expr::add(
            Expr::add(tap(0, 0), tap(1, 0)),
            Expr::add(tap(0, 1), tap(1, 1)),
        ),
        Expr::ConstFloat(0.25, ScalarType::Float64),
    );
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::Float64, value);
    Pipeline::new(out, vec![ImageParam::new("in", ScalarType::Float64, 2)])
}

/// A 3-tap `u8` blur over a 1-D image: under `stencil_default` its one loop
/// is both the parallel loop and the lane loop, so it is never vectorized.
fn blur_1d_pipeline() -> Pipeline {
    let tap = |dx: i64| {
        Expr::cast(
            ScalarType::UInt32,
            Expr::Image(
                "in".into(),
                vec![Expr::add(Expr::var("x_0"), Expr::int(dx))],
            ),
        )
    };
    let sum = Expr::add(Expr::add(tap(0), Expr::mul(Expr::int(2), tap(1))), tap(2));
    let value = Expr::cast(ScalarType::UInt8, Expr::bin(BinOp::Shr, sum, Expr::uint(2)));
    let out = Func::pure("out", &["x_0"], ScalarType::UInt8, value);
    Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 1)])
}

/// Every fixture with a matching input image and its output extents.
fn fixtures(w: usize, h: usize) -> [(Pipeline, Buffer, Vec<usize>); 3] {
    let image =
        |ty, extents: &[usize]| input(ty, &extents.iter().map(|e| e + 2).collect::<Vec<_>>());
    [
        (
            stencil_pipeline(),
            image(ScalarType::UInt8, &[w, h]),
            vec![w, h],
        ),
        (
            f64_stencil_pipeline(),
            image(ScalarType::Float64, &[w, h]),
            vec![w, h],
        ),
        (
            blur_1d_pipeline(),
            image(ScalarType::UInt8, &[w * h]),
            vec![w * h],
        ),
    ]
}

fn input(ty: ScalarType, extents: &[usize]) -> Buffer {
    let mut b = Buffer::new(ty, extents);
    let mut s = 0x5EED_u64;
    for c in b.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b.set(&c, Value::Int(((s >> 33) % 256) as i64));
    }
    b
}

fn fused_stores(profile: &helium_halide::PipelineProfile) -> Vec<&StoreProfile> {
    profile
        .stages
        .iter()
        .flat_map(|s| s.stores.iter())
        .filter(|p| p.fused.is_some())
        .collect()
}

/// Whatever `dry_run` reports per store is what the run executes: fused
/// kernels iff the fused-row counter advances, and the model counts them.
/// The run's bytes equal the interpreter's. This binary's only test, so no
/// concurrent run moves the counter.
#[test]
fn dry_run_fused_stores_match_executed_path() {
    let schedule = Schedule::stencil_default();
    for (p, img, extents) in fixtures(37, 19) {
        let inputs = RealizeInputs::new().with_image("in", &img);
        let oracle = Realizer::new(schedule.clone())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &extents, &inputs)
            .expect("interpreter");
        for tier in [Tier::Auto, Tier::Scalar] {
            let compiled = p
                .compile(
                    &schedule,
                    &CompileOptions {
                        target: Some(Target::detect().with_tier(tier)),
                        ..CompileOptions::default()
                    },
                )
                .expect("compile");
            let profile = compiled.dry_run(&inputs, &extents).expect("dry run");
            let stores = fused_stores(&profile);
            assert_eq!(
                stores.is_empty(),
                tier == Tier::Scalar,
                "the stencil fuses exactly when the {tier:?} tier runs kernels"
            );
            let features = ScheduleFeatures::extract(&schedule, &profile);
            assert_eq!(features.fused_stores, stores.len());
            let snapshot = CounterSnapshot::take();
            let out = compiled.run(&inputs, &extents).expect("run");
            let advanced = snapshot.delta().fused_rows > 0;
            assert_eq!(out, oracle, "{extents:?} under {tier:?}");
            assert_eq!(
                advanced,
                !stores.is_empty(),
                "{extents:?}: dry run promised {} fused stores but the fused-row counter \
                 advance was {advanced} under {tier:?}",
                stores.len()
            );
        }
    }
}
