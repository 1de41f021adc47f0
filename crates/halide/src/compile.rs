//! Compile-once/run-many execution: [`CompiledPipeline`] and the prepared
//! programs behind it.
//!
//! [`Pipeline::compile`] splits realization into two phases:
//!
//! * **Compile** (once per pipeline × schedule, then once per output extents ×
//!   input-binding signature on first use): structural validation,
//!   `compute_at` planning, producer sizing via bounds inference,
//!   dependency-ordering of materialized stages, lowering to loop-nest IR,
//!   simplification and lane-program construction. The result is a
//!   [`PreparedProgram`] held in the compiled pipeline's keyed
//!   [`ProgramCache`](crate::cache::ProgramCache).
//! * **Run** (every call): bind buffers, execute the prepared stages, return
//!   the output buffer. No planning or lowering happens on a warm cache —
//!   verified by the cache's hit/miss counters.
//!
//! The split is what lets lifted kernels serve realizes at request rate: the
//! paper's pipeline lifts a binary *once* and then runs the recovered Halide
//! code in production, so the per-call path must not re-do compiler work.
//! [`crate::realize::Realizer`] remains as a thin compatibility shim routing
//! through the same machinery.
//!
//! Programs are cached per input-binding signature because compilation
//! constant-folds scalar parameters into lane programs and sizes producer
//! regions from image extents; see [`crate::cache`] for the key structure.

use crate::bounds::{accumulate_func_bounds, Interval};
use crate::buffer::{write_scalar, Buffer};
use crate::cache::{binding_signature, fingerprint_pipeline, fingerprint_schedule};
use crate::cache::{CacheKey, CacheStats, ShardedCache, DEFAULT_CACHE_CAPACITY};
use crate::eval::{eval_expr, validate_bindings, EvalSources};
use crate::exec::{self, ExecPlan, FusedStoreCounts, StoreProfile};
use crate::expr::Expr;
use crate::func::{Func, Pipeline, UpdateDef};
use crate::lower::{inline_except, lower_update, plan_compute_at, ComputeAtOutcome};
use crate::realize::{ExecBackend, RealizeError, RealizeInputs};
use crate::schedule::Schedule;
use crate::stmt::Stmt;
use crate::target::Target;
use crate::types::{ScalarType, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Options of [`Pipeline::compile`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The execution backend compiled programs target.
    pub backend: ExecBackend,
    /// Capacity of the compiled pipeline's internal
    /// [`ProgramCache`](crate::cache::ProgramCache) (one entry per
    /// output-extents × binding-signature combination).
    pub cache_capacity: usize,
    /// The backend-selection [`Target`] this pipeline executes under —
    /// execution tier pin plus the ISA features its fused kernels may use.
    /// `None` resolves [`Target::current`] (process-wide override, else the
    /// environment pins via [`Target::from_env`]) **once at compile time**;
    /// the resolved value is stored on the [`CompiledPipeline`] and every
    /// dispatch site reads it. Every target produces bit-identical buffers —
    /// differential tests use this to pin tiers and ISAs per pipeline
    /// without touching global state.
    pub target: Option<Target>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            backend: ExecBackend::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            target: None,
        }
    }
}

/// How a prepared program executes its update (reduction) definitions: how
/// many run as lowered guarded nests inside the compiled engine versus
/// through the reduction interpreter (`run_update`, the differential oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateCounts {
    /// Update definitions lowered into the stage's compiled plan.
    pub compiled: usize,
    /// Update definitions executed by the reduction interpreter.
    pub interpreted: usize,
}

/// Compile-time profile of one materialized stage of a prepared program: its
/// buffer geometry plus the per-store profiles of its lowered plan. See
/// [`PipelineProfile`].
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// The stage's func name.
    pub name: String,
    /// The extents the stage materializes over (the output stage's are the
    /// realize extents; producers are sized by bounds inference).
    pub extents: Vec<usize>,
    /// Whether the stage compiled onto the lowered backend (loop-nest IR with
    /// lane programs); interpreted stages evaluate per element through the
    /// shared evaluator and have no store profiles.
    pub lowered: bool,
    /// Per-store profiles of the lowered plan (empty when interpreted).
    pub stores: Vec<StoreProfile>,
    /// Update definitions this stage runs through the reduction interpreter
    /// instead of lowered guarded nests.
    pub interpreted_updates: usize,
}

impl StageProfile {
    /// Number of output cells the stage computes (product of its extents).
    pub fn cells(&self) -> u64 {
        self.extents
            .iter()
            .map(|&e| e as u64)
            .product::<u64>()
            .max(1)
    }
}

/// Everything a cost model can learn about a prepared program without running
/// it: the materialized stages (producers in dependency order, output last),
/// each with its sized extents and per-store execution-tier profiles.
///
/// Obtained from [`CompiledPipeline::dry_run`]. The profile reflects
/// compile-time kernel *selection* under the compiled [`Target`]'s tier: a
/// Scalar tier executes no fused kernel, so its profiles report none.
#[derive(Debug, Clone)]
pub struct PipelineProfile {
    /// Materialized stages in execution order; the last entry is always the
    /// output stage.
    pub stages: Vec<StageProfile>,
    /// How the program executes its update definitions.
    pub updates: UpdateCounts,
    /// Window extents (rows) of every sliding-window `compute_at`
    /// allocation; a window of extent `E` re-uses `E - 1` rows per warm
    /// attach iteration.
    pub sliding_window_extents: Vec<usize>,
}

impl PipelineProfile {
    /// The output stage's profile.
    pub fn output(&self) -> &StageProfile {
        self.stages.last().expect("the output stage always exists")
    }

    /// Cells of the output buffer.
    pub fn output_cells(&self) -> u64 {
        self.output().cells()
    }

    /// Total cells materialized into producer buffers beyond the output —
    /// the working set the schedule trades against locality.
    pub fn producer_cells(&self) -> u64 {
        self.stages[..self.stages.len() - 1]
            .iter()
            .map(StageProfile::cells)
            .sum()
    }

    /// Per-lane-family fused-kernel counts summed over every stage.
    pub fn fused_store_counts(&self) -> FusedStoreCounts {
        let mut counts = FusedStoreCounts::default();
        for p in self.stages.iter().flat_map(|s| s.stores.iter()) {
            match p.fused {
                Some(exec::LaneFamily::I32) => counts.lanes_i32 += 1,
                Some(exec::LaneFamily::I64) => counts.lanes_i64 += 1,
                Some(exec::LaneFamily::F32) => counts.lanes_f32 += 1,
                Some(exec::LaneFamily::F64) => counts.lanes_f64 += 1,
                None => {}
            }
        }
        counts
    }
}

/// A pipeline compiled against a fixed schedule and backend.
///
/// Obtained from [`Pipeline::compile`]; [`CompiledPipeline::run`] executes
/// with only per-call work once the internal program cache is warm. The
/// pipeline and schedule are snapshotted at compile time, so later mutation
/// of the originals cannot desynchronize cached programs.
#[derive(Debug)]
pub struct CompiledPipeline {
    pipeline: Pipeline,
    schedule: Schedule,
    backend: ExecBackend,
    target: Target,
    pipeline_fp: u64,
    schedule_fp: u64,
    cache: ShardedCache<Arc<PreparedProgram>>,
}

// The serving layer shares one `CompiledPipeline` (and the plans inside it)
// across worker threads; assert the whole stack is thread-shareable by
// construction so a non-Sync field can never sneak in unnoticed.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledPipeline>();
    assert_send_sync::<PreparedProgram>();
};

impl Pipeline {
    /// Compile this pipeline under `schedule` for repeated realization.
    ///
    /// Performs the extents-independent work up front (structural validation
    /// of every func reachable from the output); the extents- and
    /// binding-dependent work (planning, sizing, lowering, lane programs)
    /// happens on the first [`CompiledPipeline::run`] per key and is cached.
    ///
    /// # Errors
    /// Returns [`RealizeError::UndefinedFunc`] if a reachable func reference
    /// has no definition.
    pub fn compile(
        &self,
        schedule: &Schedule,
        options: &CompileOptions,
    ) -> Result<CompiledPipeline, RealizeError> {
        validate_structure(self)?;
        Ok(CompiledPipeline {
            pipeline_fp: fingerprint_pipeline(self),
            schedule_fp: fingerprint_schedule(schedule),
            pipeline: self.clone(),
            schedule: schedule.clone(),
            backend: options.backend,
            target: options.target.unwrap_or_else(Target::current),
            cache: ShardedCache::new(options.cache_capacity),
        })
    }
}

impl CompiledPipeline {
    /// Realize the compiled pipeline over `output_extents` with `inputs`.
    ///
    /// The first call per (extents, binding signature) builds and caches the
    /// prepared program; warm calls only execute it.
    ///
    /// # Errors
    /// Returns an error if inputs or parameters are missing, a referenced
    /// func is undefined, or the extents do not match the output
    /// dimensionality.
    pub fn run(
        &self,
        inputs: &RealizeInputs<'_>,
        output_extents: &[usize],
    ) -> Result<Buffer, RealizeError> {
        let key = CacheKey {
            pipeline: self.pipeline_fp,
            schedule: self.schedule_fp,
            backend: self.backend,
            extents: output_extents.to_vec(),
            bindings: binding_signature(inputs),
        };
        realize_with_cache(
            &self.pipeline,
            &self.schedule,
            self.backend,
            self.target,
            output_extents,
            inputs,
            key,
            &self.cache,
        )
    }

    /// The schedule the pipeline was compiled under.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The execution backend programs target.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// The resolved backend-selection [`Target`] this pipeline executes
    /// under — [`CompileOptions::target`], or the [`Target::current`]
    /// snapshot taken at compile time.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The compiled pipeline (the snapshot taken at compile time).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Per-lane-family fused-kernel counts of the prepared program for
    /// `output_extents` × `inputs` (see [`FusedStoreCounts`]): how many of
    /// the program's stores *compiled* a tier-1 kernel, and on which lane
    /// family (`[i32; W]`, `[i64; W/2]` or `[f32; W]`). Builds and caches
    /// the program if this key has not run yet — the kernel selection is
    /// part of the cached plan, so a subsequent [`CompiledPipeline::run`]
    /// executes the same plan. Note the counts reflect compile-time kernel
    /// *selection*: whether a counted kernel actually executes is gated per
    /// run by the compiled [`Target`]'s tier (a `Tier::Scalar`-pinned
    /// pipeline reports its kernels but runs the per-op tier).
    ///
    /// # Errors
    /// Returns an error if inputs or parameters are missing or the extents
    /// do not match the output dimensionality.
    pub fn fused_store_counts(
        &self,
        inputs: &RealizeInputs<'_>,
        output_extents: &[usize],
    ) -> Result<FusedStoreCounts, RealizeError> {
        Ok(self.program(inputs, output_extents)?.fused_store_counts())
    }

    /// How the prepared program for `output_extents` × `inputs` executes its
    /// update definitions (see [`UpdateCounts`]): `interpreted == 0` is the
    /// proof that no reduction runs through `run_update` on the hot path.
    /// Builds and caches the program if this key has not run yet. On the
    /// interpreter backend every update is, by definition, interpreted.
    ///
    /// # Errors
    /// Returns an error if inputs or parameters are missing or the extents
    /// do not match the output dimensionality.
    pub fn update_counts(
        &self,
        inputs: &RealizeInputs<'_>,
        output_extents: &[usize],
    ) -> Result<UpdateCounts, RealizeError> {
        Ok(self.program(inputs, output_extents)?.update_counts())
    }

    /// Number of sliding-window `compute_at` allocations in the prepared
    /// program for `output_extents` × `inputs` — the rolling producer
    /// windows reused across attach iterations (the run-time reuse itself is
    /// counted by [`exec::window_rows_reused`]). Builds and caches the
    /// program if this key has not run yet.
    ///
    /// # Errors
    /// Returns an error if inputs or parameters are missing or the extents
    /// do not match the output dimensionality.
    pub fn sliding_windows(
        &self,
        inputs: &RealizeInputs<'_>,
        output_extents: &[usize],
    ) -> Result<usize, RealizeError> {
        Ok(self.program(inputs, output_extents)?.sliding_windows())
    }

    /// Build (or fetch) the prepared program for `output_extents` × `inputs`
    /// and return its compile-time profile — everything the schedule search's
    /// cost model scores, with *no execution*: per-stage buffer geometry and
    /// per-store tier selection, tap counts, halo radii and reduction
    /// admissibility (see [`PipelineProfile`]). The program lands in the same
    /// keyed cache a subsequent [`CompiledPipeline::run`] uses, so a dry-run
    /// followed by a run compiles exactly once.
    ///
    /// # Errors
    /// Returns an error if inputs or parameters are missing or the extents
    /// do not match the output dimensionality.
    pub fn dry_run(
        &self,
        inputs: &RealizeInputs<'_>,
        output_extents: &[usize],
    ) -> Result<PipelineProfile, RealizeError> {
        Ok(self.program(inputs, output_extents)?.profile(self.target))
    }

    /// Fetch (or build and cache) the prepared program for one (extents,
    /// binding signature) key — the single place the introspection accessors
    /// construct their cache key, so the key shape cannot drift between them.
    fn program(
        &self,
        inputs: &RealizeInputs<'_>,
        output_extents: &[usize],
    ) -> Result<Arc<PreparedProgram>, RealizeError> {
        let key = CacheKey {
            pipeline: self.pipeline_fp,
            schedule: self.schedule_fp,
            backend: self.backend,
            extents: output_extents.to_vec(),
            bindings: binding_signature(inputs),
        };
        program_for(
            &self.pipeline,
            &self.schedule,
            self.backend,
            output_extents,
            inputs,
            key,
            &self.cache,
        )
    }

    /// Hit/miss/eviction counters of the internal program cache, aggregated
    /// across its shards. A warm run shows up as a hit — the proof that it
    /// did no planning or lowering.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The per-shard counter view behind [`Self::cache_stats`].
    pub fn cache_shard_stats(&self) -> Vec<CacheStats> {
        self.cache.shard_stats()
    }

    /// Programs actually compiled by cache misses. With
    /// [`Self::coalesced_compiles`] this reconciles against the aggregated
    /// miss counter: `misses == compiles + coalesced_compiles`.
    pub fn compiles(&self) -> u64 {
        self.cache.builds()
    }

    /// Cache misses that joined a concurrent identical compilation (same
    /// pipeline fingerprint × extents × binding signature) instead of
    /// compiling again — the request-coalescing counter.
    pub fn coalesced_compiles(&self) -> u64 {
        self.cache.coalesced_waits()
    }

    /// Number of cached prepared programs.
    pub fn cached_programs(&self) -> usize {
        self.cache.len()
    }

    /// Structural fingerprint of the compiled pipeline
    /// ([`crate::cache::fingerprint_pipeline`]). Stable across processes;
    /// the serving layer keys per-pipeline admission quotas on it.
    pub fn pipeline_fingerprint(&self) -> u64 {
        self.pipeline_fp
    }
}

/// Shared realize path of [`CompiledPipeline::run`] and the
/// [`crate::realize::Realizer`] shim: look `key` up in `cache`, build the
/// prepared program on a miss, execute it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn realize_with_cache(
    pipeline: &Pipeline,
    schedule: &Schedule,
    backend: ExecBackend,
    target: Target,
    output_extents: &[usize],
    inputs: &RealizeInputs<'_>,
    key: CacheKey,
    cache: &ShardedCache<Arc<PreparedProgram>>,
) -> Result<Buffer, RealizeError> {
    let program = program_for(
        pipeline,
        schedule,
        backend,
        output_extents,
        inputs,
        key,
        cache,
    )?;
    program.execute(inputs, target)
}

/// Fetch (or build and cache) the prepared program for one cache key: the
/// compile half of [`realize_with_cache`], shared with introspection APIs
/// like [`CompiledPipeline::fused_store_counts`].
fn program_for(
    pipeline: &Pipeline,
    schedule: &Schedule,
    backend: ExecBackend,
    output_extents: &[usize],
    inputs: &RealizeInputs<'_>,
    key: CacheKey,
    cache: &ShardedCache<Arc<PreparedProgram>>,
) -> Result<Arc<PreparedProgram>, RealizeError> {
    // Dimension mismatches are cheap to detect and must not poison the cache.
    let output = pipeline.output_func();
    if output.dims() != output_extents.len() {
        return Err(RealizeError::DimensionMismatch {
            expected: output.dims(),
            got: output_extents.len(),
        });
    }
    // The build runs with no shard lock held, so compilation never serializes
    // concurrent realizes of *other* programs; concurrent misses on this same
    // key coalesce into one build and share the Arc.
    cache.get_or_build(&key, || {
        Ok(Arc::new(PreparedProgram::build(
            pipeline,
            schedule,
            backend,
            output_extents,
            inputs,
        )?))
    })
}

/// Extents-independent validation: every func reference reachable from the
/// output must resolve to a definition.
fn validate_structure(pipeline: &Pipeline) -> Result<(), RealizeError> {
    let mut pending = vec![pipeline.output.clone()];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    while let Some(name) = pending.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let func = pipeline
            .funcs
            .get(&name)
            .ok_or_else(|| RealizeError::UndefinedFunc(name.clone()))?;
        let mut refs: BTreeSet<String> = BTreeSet::new();
        if let Some(e) = &func.pure_def {
            refs.extend(e.referenced_funcs());
        }
        for u in &func.updates {
            for e in u.lhs.iter().chain(std::iter::once(&u.value)) {
                refs.extend(e.referenced_funcs());
            }
        }
        refs.remove(&name); // self-references are reduction reads
        pending.extend(refs);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Prepared programs
// ---------------------------------------------------------------------------

/// A fully compiled realization plan for one (pipeline, schedule, backend,
/// extents, binding signature) key: the materialized stages in dependency
/// order (the last stage produces the output), each carrying its pre-built
/// execution artifact. Running a prepared program does no planning, sizing,
/// lowering or lane-program compilation.
#[derive(Debug)]
pub struct PreparedProgram {
    /// Materialized stages in dependency order; the last one always produces
    /// the pipeline output.
    stages: Vec<Stage>,
    /// The parameter environment (scalar params + injected image extents)
    /// captured at build time. Valid for every run served by this program:
    /// the cache key's binding signature pins all param values and image
    /// extents, so recomputing the map per warm call would only burn
    /// allocations on the request-rate path.
    params: BTreeMap<String, Value>,
}

/// One materialized func: its buffer geometry plus the compiled pure stage
/// and its update definitions. On the lowered backend the update nests are
/// lowered *into* the stage's [`ExecPlan`] (after the pure init) whenever
/// their shape admits it, so the whole stage — init and reductions — runs
/// through the compiled engine; `updates` then only serves as the retained
/// definition (and the interpreter fallback when lowering declined).
#[derive(Debug)]
struct Stage {
    name: String,
    vars: Vec<String>,
    ty: ScalarType,
    extents: Vec<usize>,
    pure_exec: Option<PureExec>,
    updates: Vec<UpdateDef>,
    /// Whether `pure_exec`'s lowered plan already contains every update
    /// definition (guarded stores); when false the updates run through
    /// [`run_update`], the reduction interpreter that doubles as the
    /// differential oracle.
    updates_compiled: bool,
}

/// The compiled artifact of a pure definition.
#[derive(Debug)]
enum PureExec {
    /// Interpreter backend: the fully inlined expression, evaluated per
    /// element by the shared [`crate::eval`] evaluator.
    Interpreted {
        expr: Expr,
        var_slots: BTreeMap<String, usize>,
        threads: usize,
    },
    /// Lowered backend: loop-nest IR with lane programs compiled per store
    /// (boxed: plans dwarf the interpreted variant).
    Lowered(Box<ExecPlan>),
}

/// The funcs that must be materialized into buffers regardless of backend:
/// `compute_root` plus every func with reductions.
fn base_roots(pipeline: &Pipeline, schedule: &Schedule) -> BTreeSet<String> {
    pipeline
        .funcs
        .iter()
        .filter(|(n, f)| {
            **n != pipeline.output && (schedule.compute_root.contains(*n) || !f.updates.is_empty())
        })
        .map(|(n, _)| n.clone())
        .collect()
}

/// The funcs named by `compute_at` that could be attached (pure, existing,
/// not already roots). Used for sizing so both backends materialize shared
/// producers over identical extents.
fn compute_at_funcs(
    pipeline: &Pipeline,
    schedule: &Schedule,
    base: &BTreeSet<String>,
) -> BTreeSet<String> {
    schedule
        .compute_at
        .keys()
        .filter(|n| pipeline.funcs.contains_key(*n) && **n != pipeline.output && !base.contains(*n))
        .cloned()
        .collect()
}

impl PreparedProgram {
    /// Compile the full realization plan for one cache key.
    pub(crate) fn build(
        pipeline: &Pipeline,
        schedule: &Schedule,
        backend: ExecBackend,
        output_extents: &[usize],
        inputs: &RealizeInputs<'_>,
    ) -> Result<PreparedProgram, RealizeError> {
        let output = pipeline.output_func();
        if output.dims() != output_extents.len() {
            return Err(RealizeError::DimensionMismatch {
                expected: output.dims(),
                got: output_extents.len(),
            });
        }
        let params = inputs.params_with_image_extents();

        let base = base_roots(pipeline, schedule);
        let at_funcs = compute_at_funcs(pipeline, schedule, &base);

        // Decide compute_at placements. The interpreter backend realizes
        // compute_at producers as compute_root (value-identical); the lowered
        // backend keeps affine placements and degrades the rest.
        let outcome = match backend {
            ExecBackend::Interpret => ComputeAtOutcome {
                plans: Vec::new(),
                demoted: at_funcs.clone(),
            },
            ExecBackend::Lowered => {
                plan_compute_at(pipeline, schedule, output_extents, &params, &base)?
            }
        };

        // Funcs materialized into standalone buffers before the output runs.
        let mut materialize: BTreeSet<String> = base.clone();
        materialize.extend(outcome.demoted.iter().cloned());

        // Sizing keep-set is backend-independent so shared producers get
        // identical extents (and therefore identical boundary clamping).
        let mut sizing_keep = base.clone();
        sizing_keep.extend(at_funcs.iter().cloned());

        // Materialized producers in dependency order with their sized
        // extents; the loop below turns them into stages.
        let mut producer_seq: Vec<(String, Vec<usize>)> = Vec::new();
        if !materialize.is_empty() {
            // Compute the bounds each kept func is accessed over — from the
            // output's (inlined) expression, then transitively through every
            // kept producer's own definition, so producers referenced only by
            // other producers (e.g. a compute_root feeding a compute_at func)
            // are sized by what actually reads them.
            let inlined = match &output.pure_def {
                Some(e) => inline_except(pipeline, e, &sizing_keep)?,
                None => Expr::int(0),
            };
            let mut var_bounds = BTreeMap::new();
            for (d, v) in output.vars.iter().enumerate() {
                var_bounds.insert(
                    v.clone(),
                    Interval {
                        min: 0,
                        max: output_extents[d] as i64 - 1,
                    },
                );
            }
            let mut required: BTreeMap<String, Vec<Interval>> = BTreeMap::new();
            accumulate_func_bounds(&inlined, &var_bounds, &params, &mut required);
            // Propagate requirements through kept producers to a fixed point
            // (bounded: pipelines are acyclic, so one pass per chained
            // producer suffices).
            for _ in 0..sizing_keep.len() + 1 {
                let mut grown = false;
                for name in &sizing_keep {
                    let func = match pipeline.funcs.get(name) {
                        Some(f) => f,
                        None => continue,
                    };
                    let (Some(body), Some(region)) = (&func.pure_def, required.get(name)) else {
                        continue;
                    };
                    let body = inline_except(pipeline, body, &sizing_keep)?;
                    let mut bounds = BTreeMap::new();
                    for (d, v) in func.vars.iter().enumerate() {
                        let max = region.get(d).map(|i| i.max).unwrap_or(0).max(0);
                        bounds.insert(v.clone(), Interval { min: 0, max });
                    }
                    let before = required.clone();
                    accumulate_func_bounds(&body, &bounds, &params, &mut required);
                    if required != before {
                        grown = true;
                    }
                }
                if !grown {
                    break;
                }
            }
            // Materialize in dependency order: a producer whose realization
            // reads another materialized func (through its pure or update
            // definitions) must come after it.
            let deps_of = |name: &String| -> Result<BTreeSet<String>, RealizeError> {
                let func = &pipeline.funcs[name];
                let mut refs = BTreeSet::new();
                if let Some(body) = &func.pure_def {
                    refs.extend(inline_except(pipeline, body, &base)?.referenced_funcs());
                }
                for u in &func.updates {
                    for e in u.lhs.iter().chain(std::iter::once(&u.value)) {
                        refs.extend(inline_except(pipeline, e, &base)?.referenced_funcs());
                    }
                }
                refs.remove(name);
                refs.retain(|r| materialize.contains(r));
                Ok(refs)
            };
            let mut pending: Vec<String> = materialize.iter().cloned().collect();
            let mut ordered: Vec<String> = Vec::new();
            while !pending.is_empty() {
                let done: BTreeSet<String> = ordered.iter().cloned().collect();
                let mut picked = None;
                for (i, n) in pending.iter().enumerate() {
                    if deps_of(n)?.iter().all(|d| done.contains(d)) {
                        picked = Some(i);
                        break;
                    }
                }
                // A cycle (which well-formed pipelines cannot have) falls back
                // to name order so compilation still terminates.
                let i = picked.unwrap_or(0);
                ordered.push(pending.remove(i));
            }
            for name in &ordered {
                let extents: Vec<usize> = match required.get(name) {
                    Some(ivals) => ivals
                        .iter()
                        .map(|i| i.max.saturating_add(1).max(1) as usize)
                        .collect(),
                    None => output_extents.to_vec(),
                };
                producer_seq.push((name.clone(), extents));
            }
        }

        // Producers in dependency order, then the output.
        let mut stages = Vec::with_capacity(producer_seq.len() + 1);
        let mut roots_so_far: BTreeSet<String> = BTreeSet::new();
        for (name, extents) in &producer_seq {
            let mut sub_pipeline = pipeline.clone();
            sub_pipeline.output = name.clone();
            stages.push(Stage::build(
                &sub_pipeline,
                schedule,
                backend,
                extents,
                inputs,
                &params,
                &base,
                &ComputeAtOutcome::default(),
                &roots_so_far,
            )?);
            roots_so_far.insert(name.clone());
        }
        stages.push(Stage::build(
            pipeline,
            schedule,
            backend,
            output_extents,
            inputs,
            &params,
            &materialize,
            &outcome,
            &roots_so_far,
        )?);
        Ok(PreparedProgram { stages, params })
    }

    /// How many update definitions across all stages execute through the
    /// compiled engine (lowered guarded nests inside the stage plan) versus
    /// the reduction interpreter.
    pub(crate) fn update_counts(&self) -> UpdateCounts {
        let mut counts = UpdateCounts::default();
        for stage in &self.stages {
            if stage.updates_compiled {
                counts.compiled += stage.updates.len();
            } else {
                counts.interpreted += stage.updates.len();
            }
        }
        counts
    }

    /// The lowered plans of the program's stages (interpreted stages have
    /// none).
    fn plans(&self) -> impl Iterator<Item = &ExecPlan> {
        self.stages
            .iter()
            .filter_map(|stage| match &stage.pure_exec {
                Some(PureExec::Lowered(plan)) => Some(&**plan),
                _ => None,
            })
    }

    /// Number of sliding-window (`SlideWindow`) allocations across every
    /// lowered plan in the program — the rolling `compute_at` buffers reused
    /// between attach iterations.
    pub(crate) fn sliding_windows(&self) -> usize {
        self.plans().map(ExecPlan::sliding_window_count).sum()
    }

    /// Per-lane-family fused-kernel counts summed over every lowered stage
    /// (materialized producers plus the output stage). Interpreted stages
    /// contribute nothing — they have no lane programs.
    pub(crate) fn fused_store_counts(&self) -> FusedStoreCounts {
        let mut counts = FusedStoreCounts::default();
        for c in self.plans().map(ExecPlan::fused_store_counts) {
            counts.lanes_i32 += c.lanes_i32;
            counts.lanes_i64 += c.lanes_i64;
            counts.lanes_f32 += c.lanes_f32;
            counts.lanes_f64 += c.lanes_f64;
        }
        counts
    }

    /// The compile-time profile behind [`CompiledPipeline::dry_run`]: one
    /// [`StageProfile`] per materialized stage (output last), built from the
    /// already-compiled plans — profiling does no additional compilation.
    pub(crate) fn profile(&self, target: Target) -> PipelineProfile {
        let stages = self
            .stages
            .iter()
            .map(|stage| {
                let (lowered, stores) = match &stage.pure_exec {
                    Some(PureExec::Lowered(plan)) => (true, plan.store_profiles(target)),
                    Some(PureExec::Interpreted { .. }) | None => (false, Vec::new()),
                };
                StageProfile {
                    name: stage.name.clone(),
                    extents: stage.extents.clone(),
                    lowered,
                    stores,
                    interpreted_updates: if stage.updates_compiled {
                        0
                    } else {
                        stage.updates.len()
                    },
                }
            })
            .collect();
        PipelineProfile {
            stages,
            updates: self.update_counts(),
            sliding_window_extents: self
                .plans()
                .flat_map(ExecPlan::sliding_window_extents)
                .collect(),
        }
    }

    /// Execute the prepared program: materialize producer stages in order,
    /// then the output stage. Only per-call work happens here.
    pub(crate) fn execute(
        &self,
        inputs: &RealizeInputs<'_>,
        target: Target,
    ) -> Result<Buffer, RealizeError> {
        let (output, producers) = self
            .stages
            .split_last()
            .expect("a prepared program always ends with the output stage");
        let mut roots: BTreeMap<String, Buffer> = BTreeMap::new();
        for stage in producers {
            let buf = stage.run(inputs, &self.params, &roots, target)?;
            roots.insert(stage.name.clone(), buf);
        }
        output.run(inputs, &self.params, &roots, target)
    }
}

impl Stage {
    /// Compile one stage: the pipeline's output func realized over `extents`,
    /// with `keep` naming the funcs left un-inlined (read as sources) and
    /// `outcome` carrying this stage's `compute_at` placements.
    /// `roots_available` is the set of producer buffers that will exist when
    /// this stage runs.
    #[allow(clippy::too_many_arguments)]
    fn build(
        pipeline: &Pipeline,
        schedule: &Schedule,
        backend: ExecBackend,
        extents: &[usize],
        inputs: &RealizeInputs<'_>,
        params: &BTreeMap<String, Value>,
        keep: &BTreeSet<String>,
        outcome: &ComputeAtOutcome,
        roots_available: &BTreeSet<String>,
    ) -> Result<Stage, RealizeError> {
        let func = pipeline.output_func();
        let (pure_exec, updates_compiled) = match backend {
            ExecBackend::Interpret => {
                let exec = match &func.pure_def {
                    None => None,
                    Some(def) => Some(build_interpreted(
                        pipeline,
                        schedule,
                        def,
                        extents,
                        inputs,
                        params,
                        keep,
                        roots_available,
                    )?),
                };
                (exec, false)
            }
            ExecBackend::Lowered => build_lowered(
                pipeline,
                schedule,
                extents,
                inputs,
                params,
                keep,
                outcome,
                roots_available,
            )?,
        };
        Ok(Stage {
            name: func.name.clone(),
            vars: func.vars.clone(),
            ty: func.ty,
            extents: extents.to_vec(),
            pure_exec,
            updates: func.updates.clone(),
            updates_compiled,
        })
    }

    /// Execute the stage: allocate the buffer, run the pure stage, apply the
    /// update definitions.
    fn run(
        &self,
        inputs: &RealizeInputs<'_>,
        params: &BTreeMap<String, Value>,
        roots: &BTreeMap<String, Buffer>,
        target: Target,
    ) -> Result<Buffer, RealizeError> {
        let mut buffer = Buffer::new(self.ty, &self.extents);
        match &self.pure_exec {
            None => {}
            Some(PureExec::Lowered(plan)) => {
                exec::run_with_target(plan, &mut buffer, &inputs.images, roots, params, target)?;
            }
            Some(PureExec::Interpreted {
                expr,
                var_slots,
                threads,
            }) => {
                run_interpreted(
                    expr,
                    var_slots,
                    *threads,
                    &mut buffer,
                    inputs,
                    params,
                    roots,
                )?;
            }
        }
        if !self.updates_compiled {
            for update in &self.updates {
                run_update(
                    &self.name,
                    &self.vars,
                    update,
                    &mut buffer,
                    inputs,
                    params,
                    roots,
                )?;
            }
        }
        Ok(buffer)
    }
}

/// Probe used to pre-validate variable/parameter bindings at compile time, so
/// unbound names error during compilation rather than at the first element.
struct BindingProbe<'a> {
    var_slots: &'a BTreeMap<String, usize>,
    params: &'a BTreeMap<String, Value>,
}

impl EvalSources for BindingProbe<'_> {
    fn var(&self, name: &str) -> Option<i64> {
        self.var_slots.contains_key(name).then_some(0)
    }
    fn param(&self, name: &str) -> Option<Value> {
        self.params.get(name).copied()
    }
    fn load_image(&self, _name: &str, _indices: &[i64]) -> Result<Value, RealizeError> {
        Ok(Value::Int(0)) // sources are validated separately
    }
    fn load_func(&self, _name: &str, _indices: &[i64]) -> Result<Value, RealizeError> {
        Ok(Value::Int(0))
    }
}

/// Compile the interpreter-backend pure stage: inline everything outside
/// `keep`, validate all sources and bindings, and record the per-element
/// evaluation setup.
#[allow(clippy::too_many_arguments)]
fn build_interpreted(
    pipeline: &Pipeline,
    schedule: &Schedule,
    def: &Expr,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    params: &BTreeMap<String, Value>,
    keep: &BTreeSet<String>,
    roots_available: &BTreeSet<String>,
) -> Result<PureExec, RealizeError> {
    let func = pipeline.output_func();
    let expr = inline_except(pipeline, def, keep)?;
    for name in expr.referenced_images() {
        if !inputs.images.contains_key(&name) && !roots_available.contains(&name) {
            return Err(RealizeError::MissingInput(name));
        }
    }
    for name in expr.referenced_funcs() {
        if !roots_available.contains(&name) && !inputs.images.contains_key(&name) {
            return Err(RealizeError::UndefinedFunc(name));
        }
    }
    let var_slots: BTreeMap<String, usize> = func
        .vars
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect();
    validate_bindings(
        &expr,
        &BindingProbe {
            var_slots: &var_slots,
            params,
        },
    )?;
    let outer = extents.last().copied().unwrap_or(1);
    let threads = schedule.effective_threads().min(outer.max(1));
    Ok(PureExec::Interpreted {
        expr,
        var_slots,
        threads,
    })
}

/// Compile the lowered-backend stage: validate, lower the pure definition to
/// loop-nest IR, lower every update definition into guarded reduction nests
/// appended to the same plan (when all of them lower — order between updates
/// must be preserved, so it is all or nothing), and build the typed lane
/// programs. Returns the plan plus whether the updates are inside it.
#[allow(clippy::too_many_arguments)]
fn build_lowered(
    pipeline: &Pipeline,
    schedule: &Schedule,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    params: &BTreeMap<String, Value>,
    keep: &BTreeSet<String>,
    outcome: &ComputeAtOutcome,
    roots_available: &BTreeSet<String>,
) -> Result<(Option<PureExec>, bool), RealizeError> {
    let func = pipeline.output_func();
    if let Some(def) = &func.pure_def {
        // Mirror the interpreter's up-front validation (and error kinds).
        let mut sized_keep = keep.clone();
        sized_keep.extend(outcome.plans.iter().map(|p| p.func.clone()));
        let expr = inline_except(pipeline, def, &sized_keep)?;
        for name in expr.referenced_images() {
            if !inputs.images.contains_key(&name) {
                return Err(RealizeError::MissingInput(name));
            }
        }
        for name in expr.referenced_funcs() {
            let is_plan = outcome.plans.iter().any(|p| p.func == name);
            if !roots_available.contains(&name) && !is_plan {
                return Err(RealizeError::UndefinedFunc(name));
            }
        }
    } else if func.updates.is_empty() {
        return Ok((None, false));
    }
    // Deterministic, so the rare fused-prepare fallback below can re-lower
    // instead of every compile deep-cloning the pure nest up front.
    let lower_stmt = || -> Result<Stmt, RealizeError> {
        match &func.pure_def {
            None => Ok(Stmt::Block(Vec::new())),
            Some(_) => crate::lower::lower_pure(pipeline, schedule, extents, keep, outcome),
        }
    };
    let stmt = lower_stmt()?;
    let image_decls: Vec<(String, ScalarType)> = inputs
        .images
        .iter()
        .map(|(n, b)| (n.clone(), b.scalar_type()))
        .collect();
    let root_decls: Vec<(String, ScalarType)> = roots_available
        .iter()
        .map(|n| {
            pipeline
                .funcs
                .get(n)
                .map(|f| (n.clone(), f.ty))
                .ok_or_else(|| RealizeError::UndefinedFunc(n.clone()))
        })
        .collect::<Result<_, _>>()?;

    // Lower the update definitions into guarded nests appended after the
    // pure init. Best-effort: any update whose shape or source bindings the
    // lowered path cannot honour keeps the whole update sequence on the
    // reduction interpreter (order between updates must be preserved).
    let stmt = if !func.updates.is_empty() && updates_lowerable(func, inputs, roots_available) {
        let mut next_id = stmt.store_count();
        let mut parts = vec![stmt];
        let mut all = true;
        for update in &func.updates {
            match lower_update(func, update, extents, schedule, params, &mut next_id) {
                Some(nest) => parts.push(nest),
                None => {
                    all = false;
                    break;
                }
            }
        }
        if all {
            let combined = Stmt::block(parts);
            // A compile failure inside an update expression (e.g. an unbound
            // parameter the interpreter would only report at run time) falls
            // back to the interpreted update path rather than failing the
            // stage — re-lowering the pure nest, which only happens on this
            // rare path.
            match exec::prepare(
                combined,
                &func.name,
                func.ty,
                &image_decls,
                &root_decls,
                params,
            ) {
                Ok(plan) => return Ok((Some(PureExec::Lowered(Box::new(plan))), true)),
                Err(_) => lower_stmt()?,
            }
        } else {
            // Some update declined: recover the pure nest unchanged.
            parts.into_iter().next().expect("pure nest is parts[0]")
        }
    } else {
        stmt
    };
    let plan = exec::prepare(stmt, &func.name, func.ty, &image_decls, &root_decls, params)?;
    Ok((Some(PureExec::Lowered(Box::new(plan))), false))
}

/// Whether the update definitions' sources resolve exactly as the reduction
/// interpreter would resolve them: image reads bind input images (not
/// shadowed by a same-named root), func reads bind the func itself or a
/// materialized root. Anything else keeps the interpreter path, whose source
/// resolution (and error surface) is the contract.
fn updates_lowerable(
    func: &Func,
    inputs: &RealizeInputs<'_>,
    roots_available: &BTreeSet<String>,
) -> bool {
    for update in &func.updates {
        for e in update.lhs.iter().chain(std::iter::once(&update.value)) {
            for name in e.referenced_images() {
                if !inputs.images.contains_key(&name)
                    || roots_available.contains(&name)
                    || name == func.name
                {
                    return false;
                }
            }
            for name in e.referenced_funcs() {
                if name != func.name
                    && (!roots_available.contains(&name) || inputs.images.contains_key(&name))
                {
                    return false;
                }
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Interpreter-backend execution (per-element shared evaluator)
// ---------------------------------------------------------------------------

/// Sources of the interpreter backend's pure stage. Materialized roots shadow
/// same-named images, mirroring the compiled backend's slot table (images
/// registered first, roots overriding).
struct PureSources<'a> {
    var_slots: &'a BTreeMap<String, usize>,
    vars: Vec<i64>,
    params: &'a BTreeMap<String, Value>,
    images: &'a BTreeMap<String, &'a Buffer>,
    roots: &'a BTreeMap<String, Buffer>,
}

impl EvalSources for PureSources<'_> {
    fn var(&self, name: &str) -> Option<i64> {
        self.var_slots.get(name).map(|slot| self.vars[*slot])
    }
    fn param(&self, name: &str) -> Option<Value> {
        self.params.get(name).copied()
    }
    fn load_image(&self, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        if let Some(buf) = self.roots.get(name) {
            return Ok(buf.get(indices));
        }
        self.images
            .get(name)
            .map(|buf| buf.get(indices))
            .ok_or_else(|| RealizeError::MissingInput(name.to_string()))
    }
    fn load_func(&self, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        if let Some(buf) = self.roots.get(name) {
            return Ok(buf.get(indices));
        }
        self.images
            .get(name)
            .map(|buf| buf.get(indices))
            .ok_or_else(|| RealizeError::UndefinedFunc(name.to_string()))
    }
}

/// Walk the output domain in memory order, evaluating `expr` per element with
/// the shared evaluator, optionally distributing outer rows across scoped
/// worker threads (each writes a disjoint byte chunk).
fn run_interpreted(
    expr: &Expr,
    var_slots: &BTreeMap<String, usize>,
    threads: usize,
    buffer: &mut Buffer,
    inputs: &RealizeInputs<'_>,
    params: &BTreeMap<String, Value>,
    roots: &BTreeMap<String, Buffer>,
) -> Result<(), RealizeError> {
    let extents = buffer.extents().to_vec();
    let ty = buffer.scalar_type();
    let elem_bytes = ty.bytes();
    let dims = extents.len();
    let inner: usize = extents[..dims - 1].iter().product::<usize>().max(1);
    let outer = extents[dims - 1];
    let threads = threads.min(outer.max(1));
    let data = buffer.bytes_mut();
    let row_bytes = inner * elem_bytes;

    let eval_rows =
        |outer_range: std::ops::Range<usize>, chunk: &mut [u8]| -> Result<(), RealizeError> {
            let mut src = PureSources {
                var_slots,
                vars: vec![0i64; dims],
                params,
                images: &inputs.images,
                roots,
            };
            for (row_i, o) in outer_range.enumerate() {
                src.vars[dims - 1] = o as i64;
                for i in 0..inner {
                    // Decode the linear inner index into coordinates.
                    let mut rem = i;
                    for (d, e) in extents[..dims - 1].iter().enumerate() {
                        src.vars[d] = (rem % e) as i64;
                        rem /= e;
                    }
                    let v = eval_expr(expr, &src)?;
                    let off = row_i * row_bytes + i * elem_bytes;
                    write_scalar(ty, v, &mut chunk[off..off + elem_bytes]);
                }
            }
            Ok(())
        };

    if threads <= 1 {
        eval_rows(0..outer, data)
    } else {
        let rows_per_thread = outer.div_ceil(threads);
        let chunks: Vec<&mut [u8]> = data.chunks_mut(rows_per_thread * row_bytes).collect();
        let errors = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (t, chunk) in chunks.into_iter().enumerate() {
                let start = t * rows_per_thread;
                let end = ((t + 1) * rows_per_thread).min(outer);
                let eval_rows = &eval_rows;
                let errors = &errors;
                scope.spawn(move || {
                    if let Err(e) = eval_rows(start..end, chunk) {
                        errors.lock().expect("error mutex").push(e);
                    }
                });
            }
        });
        match errors.into_inner().expect("error mutex").pop() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Update (reduction) execution — both backends share this path
// ---------------------------------------------------------------------------

/// Sources of an update definition: reduction variables, input images, the
/// buffer being updated (reads of the func itself), and materialized roots.
struct UpdateSources<'a> {
    vars: BTreeMap<String, i64>,
    params: &'a BTreeMap<String, Value>,
    images: &'a BTreeMap<String, &'a Buffer>,
    self_name: &'a str,
    self_buffer: &'a Buffer,
    roots: &'a BTreeMap<String, Buffer>,
}

impl EvalSources for UpdateSources<'_> {
    fn var(&self, name: &str) -> Option<i64> {
        self.vars.get(name).copied()
    }
    fn param(&self, name: &str) -> Option<Value> {
        self.params.get(name).copied()
    }
    fn load_image(&self, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        self.images
            .get(name)
            .map(|buf| buf.get(indices))
            .ok_or_else(|| RealizeError::MissingInput(name.to_string()))
    }
    fn load_func(&self, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        if name == self.self_name {
            return Ok(self.self_buffer.get(indices));
        }
        self.roots
            .get(name)
            .map(|buf| buf.get(indices))
            .ok_or_else(|| RealizeError::UndefinedFunc(name.to_string()))
    }
}

/// Apply one update definition with the shared evaluator — the reduction
/// *interpreter*, which serves as the differential oracle for the lowered
/// update nests.
///
/// Iteration order (the contract the lowered nests are pinned against): free
/// pure variables of the update (those of `self_vars` referenced by the LHS
/// or value) iterate the full output extent as the *outermost* loops, highest
/// dimension outermost; the reduction domain iterates inside them in
/// row-major order (first rdom dimension innermost). Reductions are
/// inherently ordered, so everything applies sequentially.
fn run_update(
    self_name: &str,
    self_vars: &[String],
    update: &UpdateDef,
    buffer: &mut Buffer,
    inputs: &RealizeInputs<'_>,
    params: &BTreeMap<String, Value>,
    roots: &BTreeMap<String, Buffer>,
) -> Result<(), RealizeError> {
    // Resolve the reduction domain bounds and the free pure vars through the
    // lowering pass's own helpers, so both paths iterate identical spaces.
    let dims = crate::lower::resolve_rdom_dims(&update.rdom, params);
    let free: Vec<(String, i64)> = crate::lower::free_pure_vars_in(self_vars, update)
        .into_iter()
        .map(|(d, v)| (v, buffer.extents()[d] as i64))
        .collect();
    let pure_total: i64 = free.iter().map(|(_, e)| (*e).max(0)).product();
    let total: i64 = dims.iter().map(|(_, _, e)| (*e).max(0)).product();
    for pi in 0..pure_total {
        let mut rem = pi;
        let mut pure_vars = BTreeMap::new();
        for (var, extent) in &free {
            let e = (*extent).max(1);
            pure_vars.insert(var.clone(), rem % e);
            rem /= e;
        }
        for i in 0..total {
            let mut rem = i;
            let mut vars = pure_vars.clone();
            for (var, min, extent) in &dims {
                let e = (*extent).max(1);
                vars.insert(var.clone(), min + rem % e);
                rem /= e;
            }
            let (idx, value) = {
                let src = UpdateSources {
                    vars,
                    params,
                    images: &inputs.images,
                    self_name,
                    self_buffer: &*buffer,
                    roots,
                };
                let idx: Result<Vec<i64>, RealizeError> = update
                    .lhs
                    .iter()
                    .map(|e| eval_expr(e, &src).map(|v| v.as_i64()))
                    .collect();
                (idx?, eval_expr(&update.value, &src)?)
            };
            buffer.set(&idx, value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Func, ImageParam};
    use crate::realize::Realizer;

    /// bright(x,y) = in(x,y) + 17 (u16); out(x,y) = u8(bright(x,y) + bright(x+2,y+1))
    fn two_stage() -> Pipeline {
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let bright = Func::pure(
            "bright",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::add(
                Expr::cast(
                    ScalarType::UInt16,
                    Expr::Image("input_1".into(), vec![x.clone(), y.clone()]),
                ),
                Expr::int(17),
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::add(
                    Expr::FuncRef("bright".into(), vec![x.clone(), y.clone()]),
                    Expr::FuncRef(
                        "bright".into(),
                        vec![Expr::add(x, Expr::int(2)), Expr::add(y, Expr::int(1))],
                    ),
                ),
            ),
        );
        Pipeline::new(out, vec![ImageParam::new("input_1", ScalarType::UInt8, 2)]).with_func(bright)
    }

    fn image(w: usize, h: usize) -> Buffer {
        let mut b = Buffer::new(ScalarType::UInt8, &[w, h]);
        let mut s = 11u64;
        for c in b.coords().collect::<Vec<_>>() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.set(&c, Value::Int(((s >> 33) % 256) as i64));
        }
        b
    }

    #[test]
    fn warm_runs_do_no_planning_or_lowering() {
        let p = two_stage();
        let schedule = Schedule::stencil_default().with_compute_at("bright", "x_1");
        let compiled = p.compile(&schedule, &CompileOptions::default()).unwrap();
        let input = image(14, 12);
        let inputs = RealizeInputs::new().with_image("input_1", &input);

        let first = compiled.run(&inputs, &[10, 8]).unwrap();
        let second = compiled.run(&inputs, &[10, 8]).unwrap();
        let third = compiled.run(&inputs, &[10, 8]).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, third);

        let stats = compiled.cache_stats();
        assert_eq!(stats.misses, 1, "only the first run compiles");
        assert_eq!(
            stats.hits, 2,
            "warm runs reuse the prepared program (no planning/lowering)"
        );
        assert_eq!(compiled.cached_programs(), 1);
    }

    #[test]
    fn compiled_run_matches_fresh_realizer_on_both_backends() {
        let p = two_stage();
        let input = image(16, 12);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        for backend in [ExecBackend::Interpret, ExecBackend::Lowered] {
            for schedule in [
                Schedule::naive(),
                Schedule::stencil_default(),
                Schedule::naive().with_compute_at("bright", "x_1"),
                Schedule::naive().with_compute_root("bright"),
            ] {
                let compiled = p
                    .compile(
                        &schedule,
                        &CompileOptions {
                            backend,
                            ..CompileOptions::default()
                        },
                    )
                    .unwrap();
                for extents in [[12usize, 10], [8, 6], [12, 10]] {
                    let fresh = Realizer::new(schedule.clone())
                        .with_backend(backend)
                        .realize(&p, &extents, &inputs)
                        .unwrap();
                    let ran = compiled.run(&inputs, &extents).unwrap();
                    assert_eq!(
                        ran, fresh,
                        "compiled run diverged from Realizer ({backend:?}, [{schedule}], {extents:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_extents_occupy_distinct_cache_entries() {
        let p = two_stage();
        let compiled = p
            .compile(&Schedule::stencil_default(), &CompileOptions::default())
            .unwrap();
        let input = image(20, 16);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        compiled.run(&inputs, &[10, 8]).unwrap();
        compiled.run(&inputs, &[12, 8]).unwrap();
        compiled.run(&inputs, &[10, 8]).unwrap();
        let stats = compiled.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(compiled.cached_programs(), 2);
    }

    #[test]
    fn tiny_cache_capacity_evicts_but_stays_correct() {
        let p = two_stage();
        let compiled = p
            .compile(
                &Schedule::stencil_default(),
                &CompileOptions {
                    cache_capacity: 1,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
        let input = image(20, 16);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let realizer = Realizer::new(Schedule::stencil_default());
        for extents in [[10usize, 8], [12, 8], [10, 8], [12, 8]] {
            let fresh = realizer.realize(&p, &extents, &inputs).unwrap();
            let ran = compiled.run(&inputs, &extents).unwrap();
            assert_eq!(ran, fresh, "eviction must not affect values");
        }
        let stats = compiled.cache_stats();
        assert!(stats.evictions >= 2, "capacity-1 cache thrashes: {stats:?}");
        assert_eq!(compiled.cached_programs(), 1);
    }

    #[test]
    fn different_param_values_compile_separate_programs() {
        // out(x) = in(x) + k — k is constant-folded into the lane program, so
        // different values of k must not share a cached program.
        let x = Expr::var("x_0");
        let out = Func::pure(
            "out",
            &["x_0"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::add(
                    Expr::Image("in".into(), vec![x]),
                    Expr::Param("k".into(), ScalarType::Int32),
                ),
            ),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 1)]);
        let compiled = p
            .compile(&Schedule::naive(), &CompileOptions::default())
            .unwrap();
        let mut input = Buffer::new(ScalarType::UInt8, &[8]);
        for i in 0..8 {
            input.set(&[i], Value::Int(i * 3));
        }
        let a = compiled
            .run(
                &RealizeInputs::new()
                    .with_image("in", &input)
                    .with_param("k", Value::Int(1)),
                &[8],
            )
            .unwrap();
        let b = compiled
            .run(
                &RealizeInputs::new()
                    .with_image("in", &input)
                    .with_param("k", Value::Int(100)),
                &[8],
            )
            .unwrap();
        assert_eq!(a.get(&[2]).as_i64(), 7);
        assert_eq!(b.get(&[2]).as_i64(), 106);
        assert_eq!(compiled.cache_stats().misses, 2, "params are keyed");
    }

    /// hist(x) = 0; hist[in(r.x, r.y)] = cast<u64>(hist[in(r.x, r.y)] + 1).
    fn hist_pipeline() -> Pipeline {
        use crate::func::{RDom, UpdateDef};
        let img = ImageParam::new("input_1", ScalarType::UInt8, 2);
        let rdom = RDom::over_image("r_0", &img);
        let lhs = Expr::Image(
            "input_1".into(),
            vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
        );
        let update = UpdateDef {
            lhs: vec![lhs.clone()],
            value: Expr::cast(
                ScalarType::UInt64,
                Expr::add(Expr::FuncRef("hist".into(), vec![lhs]), Expr::int(1)),
            ),
            rdom,
        };
        let hist =
            Func::pure("hist", &["x_0"], ScalarType::UInt64, Expr::int(0)).with_update(update);
        Pipeline::new(hist, vec![img])
    }

    #[test]
    fn histogram_updates_execute_compiled_and_match_oracle() {
        let p = hist_pipeline();
        let input = image(23, 17);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let compiled = p
            .compile(&Schedule::stencil_default(), &CompileOptions::default())
            .unwrap();
        let out = compiled.run(&inputs, &[256]).unwrap();
        let counts = compiled.update_counts(&inputs, &[256]).unwrap();
        assert_eq!(
            counts,
            UpdateCounts {
                compiled: 1,
                interpreted: 0
            },
            "the histogram update must lower into the compiled plan"
        );
        let oracle = Realizer::new(Schedule::stencil_default())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[256], &inputs)
            .unwrap();
        assert_eq!(out, oracle, "compiled histogram diverged from run_update");
        // The interpreter backend reports everything interpreted.
        let interp = p
            .compile(
                &Schedule::stencil_default(),
                &CompileOptions {
                    backend: ExecBackend::Interpret,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
        let c = interp.update_counts(&inputs, &[256]).unwrap();
        assert_eq!(c.compiled, 0);
        assert_eq!(c.interpreted, 1);
    }

    #[test]
    fn loop_invariant_accumulator_uses_fused_tree_reduce() {
        use crate::func::{RDom, UpdateDef};
        // norm(0) = 0; norm(0) = norm(0) + in(r.x)^2 over a 1-D rdom: the
        // canonical residual-norm shape the fused accumulation kernel covers.
        let img = ImageParam::new("in", ScalarType::UInt8, 1);
        let tap = Expr::cast(
            ScalarType::UInt64,
            Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into())]),
        );
        let update = UpdateDef {
            lhs: vec![Expr::int(0)],
            value: Expr::add(
                Expr::FuncRef("norm".into(), vec![Expr::int(0)]),
                Expr::mul(tap.clone(), tap),
            ),
            rdom: RDom::over_image("r_0", &img),
        };
        let norm =
            Func::pure("norm", &["x_0"], ScalarType::UInt64, Expr::int(0)).with_update(update);
        let p = Pipeline::new(norm, vec![img]);
        let mut input = Buffer::new(ScalarType::UInt8, &[301]);
        let mut s = 7u64;
        let mut expect = 0u64;
        for i in 0..301i64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (s >> 33) % 256;
            input.set(&[i], Value::Int(v as i64));
            expect = expect.wrapping_add(v * v);
        }
        let inputs = RealizeInputs::new().with_image("in", &input);
        let counters = exec::CounterSnapshot::take();
        // Pin the fused tier so an inherited HELIUM_FORCE_SCALAR cannot
        // silently skip the kernel this test asserts on.
        let compiled = p
            .compile(
                &Schedule::stencil_default(),
                &CompileOptions {
                    target: Some(Target::detect().with_tier(crate::target::Tier::Simd)),
                    ..CompileOptions::default()
                },
            )
            .unwrap();
        let out = compiled.run(&inputs, &[1]).unwrap();
        assert_eq!(out.get(&[0]).as_i64() as u64, expect);
        assert_eq!(
            compiled.update_counts(&inputs, &[1]).unwrap(),
            UpdateCounts {
                compiled: 1,
                interpreted: 0
            }
        );
        assert!(
            counters.delta().reduce_chunks > 0,
            "the accumulator must run the fused tree-reduce epilogue"
        );
        // ForceScalar pins the per-op path; results stay bit-identical.
        let scalar = p
            .compile(
                &Schedule::stencil_default(),
                &CompileOptions {
                    target: Some(Target::detect().with_tier(crate::target::Tier::Scalar)),
                    ..CompileOptions::default()
                },
            )
            .unwrap();
        assert_eq!(scalar.run(&inputs, &[1]).unwrap(), out);
        let oracle = Realizer::new(Schedule::stencil_default())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[1], &inputs)
            .unwrap();
        assert_eq!(out, oracle);
    }

    #[test]
    fn pure_dim_accumulator_vectorizes_privatized_lanes() {
        use crate::func::{RDom, UpdateDef};
        // f(x) = x; f(x) = cast<u32>(f(x) + in(x + r.x)) over r in [0, 5):
        // privatized — the pure lane loop vectorizes, writes stay disjoint.
        let img = ImageParam::new("in", ScalarType::UInt8, 1);
        let update = UpdateDef {
            lhs: vec![Expr::var("x_0")],
            value: Expr::cast(
                ScalarType::UInt32,
                Expr::add(
                    Expr::FuncRef("f".into(), vec![Expr::var("x_0")]),
                    Expr::Image(
                        "in".into(),
                        vec![Expr::add(Expr::var("x_0"), Expr::RVar("r_0.x".into()))],
                    ),
                ),
            ),
            rdom: RDom::with_constant_bounds("r_0", &[(0, 5)]),
        };
        let f = Func::pure(
            "f",
            &["x_0"],
            ScalarType::UInt32,
            Expr::cast(ScalarType::UInt32, Expr::var("x_0")),
        )
        .with_update(update);
        let p = Pipeline::new(f, vec![img]);
        let input = {
            let mut b = Buffer::new(ScalarType::UInt8, &[64]);
            for i in 0..64i64 {
                b.set(&[i], Value::Int((i * 7 + 3) % 256));
            }
            b
        };
        let inputs = RealizeInputs::new().with_image("in", &input);
        for vectorize in [false, true] {
            let schedule = Schedule::stencil_default().with_vectorize(vectorize);
            let compiled = p.compile(&schedule, &CompileOptions::default()).unwrap();
            let out = compiled.run(&inputs, &[47]).unwrap();
            assert_eq!(
                compiled.update_counts(&inputs, &[47]).unwrap(),
                UpdateCounts {
                    compiled: 1,
                    interpreted: 0
                }
            );
            let oracle = Realizer::new(schedule)
                .with_backend(ExecBackend::Interpret)
                .realize(&p, &[47], &inputs)
                .unwrap();
            assert_eq!(out, oracle, "vectorize={vectorize} diverged");
        }
    }

    #[test]
    fn structural_validation_rejects_dangling_refs() {
        let out = Func::pure(
            "out",
            &["x_0"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::FuncRef("nowhere".into(), vec![Expr::var("x_0")]),
            ),
        );
        let p = Pipeline::new(out, Vec::new());
        let err = p
            .compile(&Schedule::naive(), &CompileOptions::default())
            .unwrap_err();
        assert_eq!(err, RealizeError::UndefinedFunc("nowhere".into()));
    }
}
