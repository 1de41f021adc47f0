//! The analytical cost model: score a candidate [`Schedule`] from a dry-run
//! [`PipelineProfile`], without timing it.
//!
//! The model predicts *relative* per-realize cost in abstract element-steps —
//! its job is to rank candidates so the timing budget concentrates on the
//! few schedules that can win, not to predict wall-clock nanoseconds. All of
//! its inputs come from compile-time introspection
//! ([`CompiledPipeline::dry_run`](helium_halide::CompiledPipeline::dry_run)):
//! which lane family each store fused onto (its chunk comes from the row), the
//! stencil halo radius (predicting the interior fraction that runs fused
//! versus the boundary columns that peel onto the per-op tier), tap counts,
//! the working set each materialized producer adds, and whether reductions
//! admit the lane tree-reduce or privatize-then-merge paths.

use helium_halide::exec::MAX_LANES;
use helium_halide::{LaneFamily, PipelineProfile, Schedule, StageProfile, StoreProfile};

/// The model's feature vector for one candidate schedule, exposed on every
/// trial of a [`TuneReport`](crate::TuneReport) so benches and tests can
/// assert *why* a schedule won, not just that it did.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleFeatures {
    /// Whether the schedule vectorizes the innermost loop.
    pub vectorize: bool,
    /// Whether the outer loop is distributed across worker threads.
    pub parallel: bool,
    /// Threads the schedule would actually use on this machine.
    pub effective_threads: usize,
    /// Tile sizes, if tiling is enabled.
    pub tile: Option<(usize, usize)>,
    /// Materialized stages (producers + output).
    pub stages: usize,
    /// Cells of the output buffer.
    pub output_cells: u64,
    /// Cells materialized into producer buffers beyond the output.
    pub producer_cells: u64,
    /// Stores that compiled a fused SIMD lane kernel (tier 1).
    pub fused_stores: usize,
    /// Lowered stores left on the per-op tier.
    pub unfused_stores: usize,
    /// Guarded (reduction) stores.
    pub guarded_stores: usize,
    /// Guarded stores that compiled the fused lane tree-reduce.
    pub reduce_stores: usize,
    /// Stores admitting privatize-then-merge deferred accumulation.
    pub parallel_reduce_stores: usize,
    /// Total taps (source loads) across all fused kernels.
    pub taps: usize,
    /// Largest stencil halo radius across fused stores.
    pub max_tap_offset: i64,
    /// Predicted fraction of output columns the fused interior covers
    /// (the rest peels onto the per-op boundary tier).
    pub interior_fraction: f64,
    /// Update definitions falling back to the reduction interpreter.
    pub interpreted_updates: usize,
    /// Stages falling back to the per-element interpreter entirely.
    pub interpreted_stages: usize,
    /// Mean warm-iteration row reuse across sliding-window `compute_at`
    /// allocations: a window of extent `E` re-uses `(E - 1) / E` of its rows
    /// per attach iteration. `0.0` when no window compiled.
    pub window_reuse_fraction: f64,
}

impl ScheduleFeatures {
    /// Extract the feature vector for `schedule` from its dry-run profile.
    pub fn extract(schedule: &Schedule, profile: &PipelineProfile) -> ScheduleFeatures {
        let stores = || profile.stages.iter().flat_map(|s| s.stores.iter());
        let interior = profile
            .stages
            .iter()
            .flat_map(|s| {
                let extent0 = s.extents.first().copied().unwrap_or(1).max(1);
                s.stores
                    .iter()
                    .filter(|p| p.fused.is_some())
                    .map(move |p| interior_fraction(extent0, p.max_tap_offset))
            })
            .fold((0.0f64, 0usize), |(sum, n), f| (sum + f, n + 1));
        ScheduleFeatures {
            vectorize: schedule.vectorize,
            parallel: schedule.parallel,
            effective_threads: schedule.effective_threads(),
            tile: schedule.tile,
            stages: profile.stages.len(),
            output_cells: profile.output_cells(),
            producer_cells: profile.producer_cells(),
            fused_stores: stores().filter(|p| p.fused.is_some()).count(),
            unfused_stores: stores()
                .filter(|p| p.fused.is_none() && p.reduce.is_none())
                .count(),
            guarded_stores: stores().filter(|p| p.guarded).count(),
            reduce_stores: stores().filter(|p| p.reduce.is_some()).count(),
            parallel_reduce_stores: stores().filter(|p| p.parallel_reduce).count(),
            taps: stores().map(|p| p.taps).sum(),
            max_tap_offset: stores().map(|p| p.max_tap_offset).max().unwrap_or(0),
            interior_fraction: if interior.1 == 0 {
                0.0
            } else {
                interior.0 / interior.1 as f64
            },
            interpreted_updates: profile.updates.interpreted,
            interpreted_stages: profile.stages.iter().filter(|s| !s.lowered).count(),
            window_reuse_fraction: window_reuse_fraction(profile),
        }
    }

    /// The feature vector as named columns, for report rows and assertions.
    pub fn columns(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("vectorize", if self.vectorize { 1.0 } else { 0.0 }),
            ("parallel", if self.parallel { 1.0 } else { 0.0 }),
            ("effective_threads", self.effective_threads as f64),
            ("tile_cells", self.tile.map_or(0.0, |(w, h)| (w * h) as f64)),
            ("stages", self.stages as f64),
            ("output_cells", self.output_cells as f64),
            ("producer_cells", self.producer_cells as f64),
            ("fused_stores", self.fused_stores as f64),
            ("unfused_stores", self.unfused_stores as f64),
            ("guarded_stores", self.guarded_stores as f64),
            ("reduce_stores", self.reduce_stores as f64),
            ("parallel_reduce_stores", self.parallel_reduce_stores as f64),
            ("taps", self.taps as f64),
            ("max_tap_offset", self.max_tap_offset as f64),
            ("interior_fraction", self.interior_fraction),
            ("interpreted_updates", self.interpreted_updates as f64),
            ("interpreted_stages", self.interpreted_stages as f64),
            ("window_reuse_fraction", self.window_reuse_fraction),
        ]
    }
}

/// Mean warm-iteration row-reuse fraction across the profile's
/// sliding-window allocations: `(E - 1) / E` per window of extent `E`, 0.0
/// when no window compiled.
fn window_reuse_fraction(profile: &PipelineProfile) -> f64 {
    let windows = &profile.sliding_window_extents;
    if windows.is_empty() {
        return 0.0;
    }
    let sum: f64 = windows
        .iter()
        .map(|&e| (e.max(1) - 1) as f64 / e.max(1) as f64)
        .sum();
    sum / windows.len() as f64
}

/// Fraction of the lane dimension a fused kernel covers at full chunk speed:
/// a halo of radius `b` peels `b` columns per side onto the per-op tier.
fn interior_fraction(extent0: usize, halo: i64) -> f64 {
    let peel = 2.0 * halo.max(0) as f64;
    ((extent0 as f64 - peel) / extent0 as f64).clamp(0.0, 1.0)
}

/// Lanes a fused store executes per dispatch over rows of `row` lanes: the
/// chunk the engine picks from the row ([`LaneFamily::chunk_lanes`]), which
/// the schedule does not enter.
fn fused_lanes(family: LaneFamily, row: usize) -> f64 {
    family.chunk_lanes(row) as f64
}

/// Abstract per-element cost of the per-op typed tier: a dispatch overhead
/// amortized over the batch plus per-op work. A dispatch batches
/// [`MAX_LANES`] lanes under a vectorized loop and one otherwise. Calibrated
/// against the fused tier's unit on the lifted invert at 96×64 (release
/// build, 2-vCPU host, medians of 301 serial runs): the per-op tier took 95
/// and 20 ns per element at batches of 1 and 16 lanes, where the 1-tap fused
/// store took 4.2 ns (0.078 units). Per-op work is thus about 5× a fused
/// element, the scale [`THREAD_SPAWN_COST`] is weighed against.
fn per_op_cost(schedule: &Schedule) -> f64 {
    let batch = if schedule.vectorize { MAX_LANES } else { 1 };
    0.28 + 1.5 / batch as f64
}

/// Predicted cost of one store over one cell of its stage.
fn store_cost(p: &StoreProfile, schedule: &Schedule, extent0: usize) -> f64 {
    if let Some(family) = p.reduce {
        // Lane tree-reduce accumulation: a reduction domain's rows are long
        // enough for the widest chunk.
        return (1.0 + 0.25 * p.taps as f64) / fused_lanes(family, usize::MAX) + 0.05;
    }
    // The engine runs a fused kernel under a vectorized lane loop only; an
    // unvectorized one stays on the per-op tier.
    if let Some(family) = p.fused.filter(|_| schedule.vectorize) {
        let interior = interior_fraction(extent0, p.max_tap_offset);
        // A fused row spans the tile width, or the whole first dimension.
        let row = schedule.tile.map_or(extent0, |(tw, _)| tw.min(extent0));
        let fused = (1.0 + 0.25 * p.taps as f64) / fused_lanes(family, row);
        return interior * fused + (1.0 - interior) * per_op_cost(schedule);
    }
    if p.guarded {
        // Per-op read-modify-write with clamped destinations.
        return per_op_cost(schedule) + 1.5;
    }
    per_op_cost(schedule)
}

/// Per-element cost of a stage with no lowered plan (the per-element
/// interpreter walks the whole expression tree per cell).
const INTERPRETED_CELL_COST: f64 = 12.0;

/// Per-element cost of an update running the reduction interpreter.
const INTERPRETED_UPDATE_COST: f64 = 16.0;

/// Fixed cost of spawning one scoped worker thread, in element-steps.
const THREAD_SPAWN_COST: f64 = 2_000.0;

/// Score a candidate: predicted relative cost of one realize, lower is
/// better. Deterministic in (schedule, profile) — ties between structurally
/// different schedules are broken downstream by the timing bandit.
pub fn score(schedule: &Schedule, profile: &PipelineProfile) -> f64 {
    let mut cost = 0.0f64;
    for stage in &profile.stages {
        cost += stage_cost(stage, schedule);
    }
    // Outer-loop distribution: near-linear over the threads that exist on
    // this machine, paying a spawn cost per worker per realize. On a
    // single-core host effective_threads() is 1 and this is neutral.
    let threads = schedule.effective_threads().max(1) as f64;
    if threads > 1.0 {
        cost = cost / (1.0 + 0.9 * (threads - 1.0)) + THREAD_SPAWN_COST * threads;
    }
    // Tiling: small loop-bookkeeping overhead, paid back by locality only
    // when the untiled row working set is large. Kept mild — tier selection
    // and vectorization dominate ranking; tiles break timing ties.
    if let Some((tw, th)) = schedule.tile {
        let row_bytes = profile.output().extents.first().copied().unwrap_or(1) as f64 * 8.0;
        let locality = if row_bytes > 256.0 * 1024.0 {
            0.97
        } else {
            1.01
        };
        let granularity = if tw * th < 1024 { 1.03 } else { 1.0 };
        cost *= locality * granularity;
    }
    // Sliding-window compute_at: warm attach iterations skip the reused
    // producer rows, so the attached producer's recompute share shrinks by
    // the mean warm-reuse fraction. Kept mild and multiplicative — exactly
    // neutral when no window compiled.
    let reuse = window_reuse_fraction(profile);
    if reuse > 0.0 {
        cost *= 1.0 - 0.35 * reuse;
    }
    cost
}

/// Predicted cost of one stage: its cell count times the per-cell cost of
/// every store (or the interpreter fallbacks).
fn stage_cost(stage: &StageProfile, schedule: &Schedule) -> f64 {
    let cells = stage.cells() as f64;
    let extent0 = stage.extents.first().copied().unwrap_or(1).max(1);
    let mut per_cell = 0.0f64;
    if stage.lowered {
        for store in &stage.stores {
            per_cell += store_cost(store, schedule, extent0);
        }
    } else {
        per_cell += INTERPRETED_CELL_COST;
    }
    // Interpreted updates iterate their reduction domain, which the profile
    // does not expose; the stage's own cells are the available proxy.
    per_cell += stage.interpreted_updates as f64 * INTERPRETED_UPDATE_COST;
    cells * per_cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use helium_halide::{
        BinOp, CompileOptions, Expr, Func, ImageParam, Pipeline, RealizeInputs, ScalarType, Value,
    };
    use helium_halide::{Buffer, CompiledPipeline, Target, Tier};

    fn invert_pipeline() -> (Pipeline, Buffer) {
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Xor,
                Expr::Image("in".into(), vec![x, y]),
                Expr::int(255),
            ),
        );
        let p = Pipeline::new(
            Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value),
            vec![ImageParam::new("in", ScalarType::UInt8, 2)],
        );
        let mut input = Buffer::new(ScalarType::UInt8, &[64, 48]);
        for c in input.coords().collect::<Vec<_>>() {
            input.set(&c, Value::Int((c[0] * 5 + c[1]) % 256));
        }
        (p, input)
    }

    fn profile_of(p: &Pipeline, s: &Schedule, input: &Buffer) -> helium_halide::PipelineProfile {
        let inputs = RealizeInputs::new().with_image("in", input);
        let compiled: CompiledPipeline = p.compile(s, &CompileOptions::default()).unwrap();
        compiled.dry_run(&inputs, &[64, 48]).unwrap()
    }

    #[test]
    fn fused_wide_schedules_score_below_naive_scalar() {
        let (p, input) = invert_pipeline();
        let naive = Schedule::naive();
        let wide = Schedule::naive().with_vectorize(true);
        let naive_score = score(&naive, &profile_of(&p, &naive, &input));
        let wide_score = score(&wide, &profile_of(&p, &wide, &input));
        assert!(
            wide_score < naive_score,
            "fused vectorized schedule must be ranked above scalar: {wide_score} vs {naive_score}"
        );
    }

    #[test]
    fn features_expose_tier_selection() {
        let (p, input) = invert_pipeline();
        let wide = Schedule::naive().with_vectorize(true);
        let inputs = RealizeInputs::new().with_image("in", &input);
        let features = |tier: Tier| {
            let options = CompileOptions {
                target: Some(Target::current().with_tier(tier)),
                ..CompileOptions::default()
            };
            let compiled = p.compile(&wide, &options).unwrap();
            ScheduleFeatures::extract(&wide, &compiled.dry_run(&inputs, &[64, 48]).unwrap())
        };
        // A Scalar tier runs the store per-op, and its dry run says so.
        let f = features(Tier::Scalar);
        assert_eq!((f.fused_stores, f.unfused_stores), (0, 1));
        let f = features(Tier::Auto);
        assert_eq!(f.fused_stores, 1, "the invert store fuses on i32 lanes");
        assert_eq!(f.unfused_stores, 0);
        assert_eq!(f.stages, 1);
        assert_eq!(f.output_cells, 64 * 48);
        assert!(f.interior_fraction > 0.9, "pointwise kernels have no halo");
        let columns = f.columns();
        assert!(columns
            .iter()
            .any(|(n, v)| *n == "fused_stores" && *v == 1.0));
    }

    /// Two-stage vertical stencil: `blur_x` is read at rows `y` and `y + 1`,
    /// so a `compute_at` attach slides a 2-row window.
    fn vertical_pipeline() -> (Pipeline, Buffer) {
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let blur_x = Func::pure(
            "blur_x",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::cast(
                ScalarType::UInt16,
                Expr::Image("in".into(), vec![x.clone(), y.clone()]),
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::add(
                    Expr::FuncRef("blur_x".into(), vec![x.clone(), y.clone()]),
                    Expr::FuncRef("blur_x".into(), vec![x, Expr::add(y, Expr::int(1))]),
                ),
            ),
        );
        let p =
            Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(blur_x);
        let mut input = Buffer::new(ScalarType::UInt8, &[64, 48]);
        for c in input.coords().collect::<Vec<_>>() {
            input.set(&c, Value::Int((c[0] * 3 + c[1]) % 256));
        }
        (p, input)
    }

    #[test]
    fn sliding_window_feature_surfaces_and_discounts() {
        let (p, input) = vertical_pipeline();
        let rooted = Schedule::naive()
            .with_vectorize(true)
            .with_compute_root("blur_x");
        let at = Schedule::naive()
            .with_vectorize(true)
            .with_compute_at("blur_x", "x_1");
        let tiled_at = at.clone().with_tile(Some((16, 16)));
        let profile_rooted = profile_of(&p, &rooted, &input);
        let profile_at = profile_of(&p, &at, &input);
        let f_at = ScheduleFeatures::extract(&at, &profile_at);
        assert_eq!(
            f_at.window_reuse_fraction, 0.5,
            "a 2-row window re-uses half its rows per warm iteration"
        );
        assert_eq!(
            ScheduleFeatures::extract(&rooted, &profile_rooted).window_reuse_fraction,
            0.0,
            "no window without compute_at"
        );
        assert_eq!(
            ScheduleFeatures::extract(&tiled_at, &profile_of(&p, &tiled_at, &input))
                .window_reuse_fraction,
            0.0,
            "a tiled attach region moves with the tile column, so it does not slide"
        );
        // The discount applies exactly when a window compiled: the same
        // profile with its windows stripped scores higher.
        let mut unslid = profile_at.clone();
        unslid.sliding_window_extents.clear();
        assert!(
            score(&at, &profile_at) < score(&at, &unslid),
            "the model must discount a compiled sliding window"
        );
        let columns = f_at.columns();
        assert!(columns
            .iter()
            .any(|(n, v)| *n == "window_reuse_fraction" && *v == 0.5));
    }

    #[test]
    fn scoring_is_deterministic() {
        let (p, input) = invert_pipeline();
        let s = Schedule::stencil_default();
        let profile = profile_of(&p, &s, &input);
        assert_eq!(score(&s, &profile), score(&s, &profile));
    }
}
