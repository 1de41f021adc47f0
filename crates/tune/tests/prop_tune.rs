//! Differential suite for the tuner's view of the backend-selection API:
//! `dry_run`'s per-store [`StoreProfile::selected_isa`] must follow the
//! executor's per-family ISA rule and agree with the path the executor
//! actually takes (run-time arch counters), and the cost model's
//! `arch_stores` feature column must be derived from exactly those profiles
//! — across pinned portable, pinned AVX2 and detected targets, on an i32
//! stencil (always portable lanes) and an f64 one (AVX2 where the host has
//! it).

use helium_halide::prelude::*;
use helium_halide::{arch_rows_executed, CompileOptions, StoreProfile};
use helium_tune::{score, ScheduleFeatures};
use proptest::prelude::*;

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
/// lanes: four taps, within the AVX2 plan evaluators' tap cap.
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

/// Both fixtures with a matching input image: the i32 stencil, which never
/// selects AVX2, and the f64 one, which does on AVX2 hosts.
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

/// The executor's per-family ISA rule as the tuner sees it: a store's
/// chunks run on AVX2 only when the target resolves it and the store is an
/// i64 kernel or a float kernel of at most 16 taps.
fn expected_isa(target: Target, store: &StoreProfile) -> Isa {
    let eligible = match store.fused.or(store.reduce) {
        Some(LaneFamily::I64) => true,
        Some(LaneFamily::F32 | LaneFamily::F64) => store.taps <= 16,
        Some(LaneFamily::I32) | None => false,
    };
    if eligible {
        target.effective_isa()
    } else {
        Isa::Portable
    }
}

fn fused_stores(profile: &helium_halide::PipelineProfile) -> Vec<&StoreProfile> {
    profile
        .stages
        .iter()
        .flat_map(|s| s.stores.iter())
        .filter(|p| p.fused.is_some() || p.reduce.is_some())
        .collect()
}

/// Whatever ISA `dry_run` reports per store is the ISA the run actually
/// executes — `selected_isa == Avx2` iff the arch row counter advances,
/// `Portable` iff it does not — and it follows the per-family rule.
#[test]
fn dry_run_selected_isa_matches_executed_path() {
    let (w, h) = (37, 19);
    let schedule = Schedule::stencil_default();
    let targets = [
        Target::portable().with_tier(Tier::Simd),
        Target::with_features(&[Feature::Avx2]).with_tier(Tier::Simd),
        Target::detect().with_tier(Tier::Simd),
    ];
    for (p, img) in fixtures(w + 2, h + 2) {
        let inputs = RealizeInputs::new().with_image("in", &img);
        for target in targets {
            let compiled = p
                .compile(
                    &schedule,
                    &CompileOptions {
                        target: Some(target),
                        ..CompileOptions::default()
                    },
                )
                .expect("compile");
            let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
            let stores = fused_stores(&profile);
            assert!(!stores.is_empty(), "the stencil must compile fused stores");
            for store in &stores {
                assert_eq!(
                    store.selected_isa,
                    expected_isa(target, store),
                    "selected_isa breaks the per-family rule under {target:?}"
                );
            }
            let predicts_arch = stores.iter().any(|p| p.selected_isa == Isa::Avx2);
            let before = arch_rows_executed();
            let _ = compiled.run(&inputs, &[w, h]).expect("run");
            let advanced = arch_rows_executed() > before;
            assert_eq!(
                advanced, predicts_arch,
                "selected_isa promised {predicts_arch} but arch counter advance was {advanced} \
                 under {target:?}"
            );
        }
    }
}

/// The cost model's `arch_stores` column counts exactly the stores whose
/// profile selected the arch ISA, and arch selection never worsens a fused
/// schedule's score.
#[test]
fn model_arch_stores_column_tracks_selected_isa() {
    let (w, h) = (37, 19);
    let schedule = Schedule::stencil_default();
    for (p, img) in fixtures(w + 2, h + 2) {
        let inputs = RealizeInputs::new().with_image("in", &img);
        let mut scores = Vec::new();
        for target in [
            Target::portable().with_tier(Tier::Simd),
            Target::with_features(&[Feature::Avx2]).with_tier(Tier::Simd),
        ] {
            let compiled = p
                .compile(
                    &schedule,
                    &CompileOptions {
                        target: Some(target),
                        ..CompileOptions::default()
                    },
                )
                .expect("compile");
            let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
            let features = ScheduleFeatures::extract(&schedule, &profile);
            let expect = fused_stores(&profile)
                .iter()
                .filter(|p| p.selected_isa == Isa::Avx2)
                .count();
            assert_eq!(features.arch_stores, expect);
            let columns = features.columns();
            let col = columns
                .iter()
                .find(|(name, _)| *name == "arch_stores")
                .expect("arch_stores column");
            assert_eq!(col.1 as usize, expect);
            scores.push((expect, score(&schedule, &profile)));
        }
        // On AVX2 hosts the f64 fixture's second compile selects the arch
        // ISA and must score below portable; otherwise both columns are
        // portable and equal.
        let (portable, arch) = (scores[0], scores[1]);
        assert_eq!(portable.0, 0);
        if arch.0 > 0 {
            assert!(
                arch.1 < portable.1,
                "arch-selected stores must score cheaper: {arch:?} vs {portable:?}"
            );
        } else {
            assert_eq!(arch.1, portable.1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across random schedules, `selected_isa` reporting is consistent: the
    /// portable target never reports an arch store, the AVX2-pinned target
    /// reports arch stores exactly where the host resolves the feature and
    /// the per-family rule admits the store, and unfused stores always
    /// report portable.
    #[test]
    fn selected_isa_is_consistent_across_schedules(
        width in prop::sample::select(vec![1usize, 4, 8, 16, 32]),
        parallel in any::<bool>(),
        tiled in any::<bool>(),
    ) {
        let (w, h) = (23, 13);
        let mut schedule = Schedule::naive()
            .with_parallel(parallel)
            .with_vector_width(width);
        if tiled {
            schedule = schedule.with_tile(Some((8, 8)));
        }
        let targets = [Target::portable(), Target::with_features(&[Feature::Avx2])];
        for (p, img) in fixtures(w + 2, h + 2) {
            let inputs = RealizeInputs::new().with_image("in", &img);
            for target in targets {
                let compiled = p
                    .compile(
                        &schedule,
                        &CompileOptions {
                            target: Some(target),
                            ..CompileOptions::default()
                        },
                    )
                    .expect("compile");
                let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
                for store in profile.stages.iter().flat_map(|s| &s.stores) {
                    prop_assert_eq!(store.selected_isa, expected_isa(target, store));
                }
            }
        }
    }
}
