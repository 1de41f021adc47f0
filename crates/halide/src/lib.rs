//! # helium-halide
//!
//! A miniature Halide: the DSL that lifted stencil kernels are expressed in,
//! plus the runtime needed to re-optimize and execute them.
//!
//! The original Helium emits Halide C++ and relies on the Halide compiler and
//! an OpenTuner-based autotuner. This crate plays both roles at reproduction
//! scale:
//!
//! * [`expr`], [`func`], [`types`] — the DSL: typed expressions, `select`,
//!   casts, external intrinsics, image parameters, reduction domains, pure and
//!   update definitions, and multi-stage pipelines with fusion
//!   ([`func::Pipeline::compose_after`]);
//! * [`buffer`] — dense n-dimensional buffers used as inputs and outputs;
//! * [`bounds`] — interval-based bounds inference for sizing producers;
//! * [`schedule`] — the schedule knobs (tiling, parallelism, vectorization,
//!   `compute_root`, `compute_at`) the autotuner searches over;
//! * [`stmt`], [`lower`], [`exec`] — the compilation pipeline: schedules are
//!   *lowered* into an explicit loop-nest IR ([`stmt::Stmt`]) with
//!   bounds-inference-sized intermediate allocations, then executed by a
//!   three-tier compiled engine (fused SIMD lane kernels in four lane
//!   families — `[i32; W]` wrapping, `[i64; W/2]` exact-value, `[f32; W]`
//!   rounding-disciplined and `[f64; W/2]` reference-precision — with
//!   interior/boundary loop splitting and masked/overlapping tail chunks,
//!   per-op typed lane dispatch, and a shared-evaluator per-element
//!   fallback) with scoped-thread parallelism — see the [`exec`] module
//!   docs. The lane kernels are portable Rust with constant trip counts
//!   that the compiler vectorizes for whatever ISA it targets; no kernel is
//!   written per ISA. Update (reduction) definitions lower too:
//!   guarded [`stmt::Stmt::ReduceStore`] nests with a privatized-vs-sequential
//!   accumulation strategy and a fused integer tree-reduce for
//!   loop-invariant accumulators, so histograms, scans and residual norms
//!   execute end-to-end compiled. Parallel-scheduled integer accumulator
//!   nests additionally run privatize-then-merge across worker threads
//!   ([`stmt::LoopKind::ParallelReduce`]): each worker accumulates raw sums
//!   into private side buffers, merged by wrapping adds — bit-identical to
//!   the serial order because integer addition commutes modulo 2^w;
//! * [`compile`], [`cache`] — the compile-once/run-many API:
//!   [`func::Pipeline::compile`] produces a [`CompiledPipeline`] whose `run`
//!   does only per-call work, backed by a [`ShardedCache`] (key-hash-sharded
//!   LRU with per-shard stats, aggregated counters, and same-key build
//!   coalescing for concurrent callers);
//! * [`eval`] — the single shared [`Value`] evaluator all backends route
//!   expression semantics through (reductions, the interpreter backend, and
//!   the compiled backend's per-element fallback);
//! * [`realize`] — the compatibility shim driving either backend
//!   ([`realize::ExecBackend::Lowered`] by default;
//!   [`realize::ExecBackend::Interpret`] keeps the original per-element
//!   interpreter as the differential-testing oracle — both produce
//!   bit-identical buffers);
//! * [`codegen`] — emission of genuine Halide C++ source text, the paper's
//!   published artifact.
//!
//! ## Example: compile once, run many
//!
//! The production entry point is [`func::Pipeline::compile`]: compilation
//! (validation, `compute_at` planning, lowering, lane-program construction)
//! happens once, and every [`compile::CompiledPipeline::run`] after the first
//! executes the cached program.
//!
//! ```
//! use helium_halide::prelude::*;
//!
//! // output(x, y) = cast<u8>(255 - input(x, y))
//! let x = Expr::var("x_0");
//! let y = Expr::var("x_1");
//! let value = Expr::cast(
//!     ScalarType::UInt8,
//!     Expr::bin(BinOp::Sub, Expr::int(255), Expr::Image("input_1".into(), vec![x, y])),
//! );
//! let func = Func::pure("output_1", &["x_0", "x_1"], ScalarType::UInt8, value);
//! let pipeline = Pipeline::new(func, vec![ImageParam::new("input_1", ScalarType::UInt8, 2)]);
//!
//! let mut input = Buffer::new(ScalarType::UInt8, &[8, 8]);
//! input.set(&[3, 3], Value::Int(10));
//! let inputs = RealizeInputs::new().with_image("input_1", &input);
//!
//! // Compile once...
//! let compiled = pipeline.compile(&Schedule::stencil_default(), &CompileOptions::default())?;
//! // ...run many: the first run per (extents, bindings) builds and caches the
//! // program; every run after that is a cache hit doing only per-call work.
//! let out = compiled.run(&inputs, &[8, 8])?;
//! assert_eq!(out.get(&[3, 3]), Value::Int(245));
//! let again = compiled.run(&inputs, &[8, 8])?;
//! assert_eq!(again, out);
//! assert_eq!(compiled.cache_stats().hits, 1);
//!
//! // And the Halide C++ artifact:
//! let src = generate_halide_source(&pipeline, &CodegenOptions::default());
//! assert!(src.contains("compile_to_file"));
//! # Ok::<(), helium_halide::realize::RealizeError>(())
//! ```
//!
//! ## When to use `Realizer` vs `CompiledPipeline`
//!
//! [`Realizer`] remains for one-shot and exploratory use: it takes the
//! pipeline per call, so it fits differential tests and code that realizes
//! many different pipelines ad hoc. It shares a [`ShardedCache`] across calls
//! (and clones), so even repeated `realize` calls amortize compilation — but
//! it must fingerprint the pipeline on every call to find the cached program.
//! [`CompiledPipeline`] binds the pipeline and schedule once, skips the
//! per-call fingerprinting, owns its own cache, and makes the compiled
//! artifact an explicit value you can keep, pass around and introspect
//! ([`compile::CompiledPipeline::cache_stats`]). Serving realizes at request
//! rate — the paper's lift-once/run-forever scenario — should use
//! `CompiledPipeline`.

#![warn(missing_docs)]

pub mod bounds;
pub mod buffer;
pub mod cache;
pub mod codegen;
pub mod compile;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod func;
pub mod lower;
pub mod realize;
pub mod schedule;
pub mod simplify;
pub mod stmt;
pub mod target;
pub mod types;

pub use buffer::Buffer;
pub use cache::{CacheKey, CacheStats, ProgramCache, ShardedCache};
pub use codegen::{generate_halide_source, CodegenOptions};
pub use compile::{CompileOptions, CompiledPipeline, PipelineProfile, StageProfile, UpdateCounts};
pub use eval::{eval_expr, EvalSources};
pub use exec::{
    fused_rows_executed, fused_tail_chunks_executed, parallel_reduce_merges_executed,
    reduce_chunks_executed, CounterSnapshot, FusedStoreCounts, LaneFamily, StoreProfile,
};
pub use expr::{BinOp, CmpOp, Expr, ExternCall};
pub use func::{Func, ImageParam, Pipeline, RDom, UpdateDef};
pub use realize::{ExecBackend, RealizeError, RealizeInputs, Realizer};
pub use schedule::Schedule;
pub use simplify::{simplify, simplify_func, simplify_pipeline};
pub use stmt::{LoopKind, Stmt};
pub use target::{set_target_override, Isa, Target, Tier};
pub use types::{ScalarType, Value};

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::buffer::Buffer;
    pub use crate::cache::CacheStats;
    pub use crate::codegen::{generate_halide_source, CodegenOptions};
    pub use crate::compile::{CompileOptions, CompiledPipeline, UpdateCounts};
    pub use crate::exec::{CounterSnapshot, FusedStoreCounts, LaneFamily};
    pub use crate::expr::{BinOp, CmpOp, Expr, ExternCall};
    pub use crate::func::{Func, ImageParam, Pipeline, RDom, UpdateDef};
    pub use crate::realize::{ExecBackend, RealizeInputs, Realizer};
    pub use crate::schedule::Schedule;
    pub use crate::simplify::{simplify, simplify_pipeline};
    pub use crate::target::{Isa, Target, Tier};
    pub use crate::types::{ScalarType, Value};
}
