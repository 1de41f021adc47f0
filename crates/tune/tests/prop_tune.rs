//! Differential suite for the tuner's view of the backend-selection API:
//! `dry_run`'s per-store [`StoreProfile`] reports a fused kernel exactly
//! when the run executes one (the fused-row counter advances), and the cost
//! model's `fused_stores` column is derived from exactly those profiles —
//! across the Auto, Simd and Scalar tiers, on an i32 stencil and an f64 one.

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

/// Both fixtures with a matching input image.
fn fixtures(w: usize, h: usize) -> [(Pipeline, Buffer); 2] {
    [
        (stencil_pipeline(), input(ScalarType::UInt8, w, h)),
        (f64_stencil_pipeline(), input(ScalarType::Float64, w, h)),
    ]
}

fn input(ty: ScalarType, w: usize, h: usize) -> Buffer {
    let mut b = Buffer::new(ty, &[w, h]);
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
/// This binary's only test, so no concurrent run moves the counter.
#[test]
fn dry_run_fused_stores_match_executed_path() {
    let (w, h) = (37, 19);
    let schedule = Schedule::stencil_default();
    for (p, img) in fixtures(w + 2, h + 2) {
        let inputs = RealizeInputs::new().with_image("in", &img);
        for tier in [Tier::Auto, Tier::Simd, Tier::Scalar] {
            let compiled = p
                .compile(
                    &schedule,
                    &CompileOptions {
                        target: Some(Target::detect().with_tier(tier)),
                        ..CompileOptions::default()
                    },
                )
                .expect("compile");
            let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
            let stores = fused_stores(&profile);
            assert_eq!(
                stores.is_empty(),
                tier == Tier::Scalar,
                "the stencil fuses exactly when the {tier:?} tier runs kernels"
            );
            let features = ScheduleFeatures::extract(&schedule, &profile);
            assert_eq!(features.fused_stores, stores.len());
            let snapshot = CounterSnapshot::take();
            let _ = compiled.run(&inputs, &[w, h]).expect("run");
            let advanced = snapshot.delta().fused_rows > 0;
            assert_eq!(
                advanced,
                !stores.is_empty(),
                "dry run promised {} fused stores but the fused-row counter advance was \
                 {advanced} under {tier:?}",
                stores.len()
            );
        }
    }
}
