//! The compiled executor for lowered loop-nest IR.
//!
//! Execution has three tiers, fastest first; every store is compiled to the
//! best tier its shape admits and the others remain as fallbacks:
//!
//! 1. **Fused SIMD lane kernels.** At [`prepare`] time each store under a
//!    vectorized innermost loop is additionally compiled — when its loads
//!    are affine in the loop variables and contiguous (or invariant) along
//!    the lane dimension — into a single fused kernel over one of three
//!    *lane families*, each with its own bit-exactness invariant:
//!
//!    | family      | lanes per chunk  | outputs            | exactness invariant |
//!    |-------------|------------------|--------------------|---------------------|
//!    | `[i32; W]`  | `W` ∈ {8,16,32}  | ≤ 32-bit integers  | lanes hold the low 32 bits of the reference `i64` value; wrapping/bitwise ops are low-bit homomorphic, value-sensitive ops (shifts, min/max, compares, selects) only emitted when interval analysis proves the 32-bit result exact |
//!    | `[i64; W/2]`| `W/2` ∈ {4,8,16} | any integer (incl. `UInt64`) | lanes *are* the reference `i64` value — every emitted op replicates [`eval_binop`] integer semantics verbatim, so no wrap proofs are needed (they would be vacuous) |
//!    | `[f32; W]`  | `W` ∈ {8,16,32}  | `Float32`          | lanes hold values bit-exactly representable in `f32`; arithmetic is only emitted at *rounding points* (an enclosing `cast<float>` or the store's own narrowing), where a single `f32` rounding of exact-`f32` operands equals the reference's compute-in-`f64`-then-round (innocuous double rounding: 53 ≥ 2·24 + 2 significant bits, for +, −, ×, ÷ and sqrt) |
//!
//!    Integer stores try the `[i32; W]` family first and fall back to
//!    `[i64; W/2]` when the 32-bit proofs fail, so wide-valued idioms (64-bit
//!    histogram bins, unprovable shifts) still fuse at half throughput.
//!    The kernels evaluate fixed-width chunks with constant trip counts that
//!    LLVM reliably turns into SIMD, loading taps as straight slices with
//!    *no per-lane clamping* and storing whole chunks contiguously. Narrow
//!    types stay narrow end-to-end: a `UInt8` blur runs as u8 loads → i32
//!    arithmetic → u8 stores, never widening to `i64`/`f64`.
//! 2. **Per-op typed lane dispatch.** Every store compiles to typed stack
//!    programs (`TOp`) whose int lanes are `i64` and float lanes `f64`,
//!    with clamped, gather-style loads — the general path, and the one the
//!    fused tier's boundary peels run on.
//! 3. **Per-element fallback.** Stores whose types cannot be inferred
//!    statically (a `select` mixing int and float branches) evaluate through
//!    the shared [`crate::eval`] evaluator — the same code the interpreter
//!    backend and the reduction path run, so the fallback cannot drift.
//!
//! **Lowered reductions.** Update definitions no longer fall off the
//! compiled cliff: `crate::lower::lower_update` turns each one into rdom/pure
//! loop nests over a *guarded* store ([`Stmt::ReduceStore`]), which this
//! executor runs with clamped destination indices (`Buffer::set` semantics —
//! histogram left-hand sides index by data) through the same typed per-op
//! programs as pure stores. Two accumulation refinements apply where proven
//! exact:
//!
//! * **Privatized lanes** — when every free pure variable owns its LHS
//!   dimension and self-reads hit exactly the written point, the lowering
//!   pass hoists the rdom loops outside and vectorizes the innermost pure
//!   loop; lanes write disjoint cells, so batching them through the per-op
//!   tier is bit-exact.
//! * **Fused tree-reduce** — a loop-invariant integer accumulator
//!   (`F[c] = casts(F[c] + g(r))` with `g` not reading `F`) compiles `g`
//!   onto the `[i32; W]`/`[i64; W/2]` lane families and folds whole chunks
//!   with a wrapping in-lane tree-reduce ([`ReduceKernel`] documents the
//!   congruence-mod-`2^k` argument that makes reassociation exact; float
//!   accumulators never take this path because float addition is not
//!   associative). `Auto` mode always uses a compiled reduce kernel —
//!   rdom loops are serial, so there is no scheduled width to gate on —
//!   and `ForceScalar` pins the per-op read-modify-write path.
//!
//! Everything else stays on the sequential per-element path, which preserves
//! the reduction interpreter's iteration order exactly (that interpreter,
//! `run_update` in `crate::compile`, remains as the differential oracle).
//!
//! **Interior/boundary splitting with masked tails.** A fused store does not
//! run its kernel blindly: at each entry of the innermost loop the executor
//! derives, from the affine decomposition of every load index and the bound
//! buffer extents, the sub-range of the loop where *every* load is provably
//! in-range (the steady-state interior). The interior runs the fused kernel
//! in full-width chunks; the border lanes before and after it run the
//! clamped per-op tier — so boundary clamping semantics are preserved
//! exactly while the hot interior pays for none of it. A sub-width interior
//! tail no longer peels onto the per-op tier: after at least one full chunk,
//! the final chunk simply *overlaps* the previous one (re-storing identical
//! lanes — sound because the kernel is deterministic and reads nothing it
//! wrote; stores that read their own buffer are refused fusion outright, at
//! build time, via [`crate::stmt::value_reads_buffer`] and the tap-slot
//! check); an interior shorter than one chunk instead runs a single *masked*
//! chunk that loads only the provably in-range lane prefix (zero-filling the
//! rest) and stores only that prefix. Either way small tiles stay on tier 1
//! — [`fused_tail_chunks_executed`] counts these tail chunks.
//!
//! **The locality tier.** Two lowering constructs cut redundant memory
//! traffic without touching per-element values:
//!
//! * [`Stmt::SlideWindow`] manages a `compute_at` allocation as a rolling
//!   window: at each attach iteration it compares the region minimum against
//!   the previous iteration's (tracked per-thread in [`Scratch`], so parallel
//!   chunks just start cold), shifts the surviving rows down in place with
//!   one `memmove`, and binds the warm-row count to a pseudo-variable the
//!   producer nest's sliding loop starts at — only newly exposed rows are
//!   recomputed. Exactness: region inference proved the window's content is a
//!   pure function of the sliding minimum, so a shifted row is bit-identical
//!   to a recomputed one. [`window_rows_reused`] counts the rows saved.
//! * Multi-output fused nests ([`prepare_multi`] / [`run_multi_with_target`])
//!   carry several `Produce` blocks under one shared outer loop, writing
//!   several output buffers per walk; each member store still selects its
//!   own execution tier. [`multi_output_nests_executed`] counts the runs.
//!
//! **Bit-exactness.** Every tier replicates [`Value`] semantics exactly:
//! integer arithmetic wraps, division by zero yields zero, right shifts are
//! logical on `i64`, casts truncate like C casts, and out-of-range loads
//! clamp per [`Buffer::get`]. Floats are carried as `f64` and round at
//! `cast<float>` points and `Float32` stores. Each fused lane family carries
//! its own proof obligation (see the table above): the `[i32; W]` family's
//! interval proofs are what make lifted u32 wrap-around idioms like
//! PhotoFlow's `4294967295 * x` negative taps fusable; the `[i64; W/2]`
//! family needs no proofs because its lanes are the reference values; the
//! `[f32; W]` family's rounding-point discipline makes lifted
//! single-precision SSE code (every instruction rounds at `f32`) fuse while
//! expressions that genuinely accumulate in `f64` fall back a tier.
//! Anything unprovable falls back a tier. The differential property suites
//! in `tests/prop_halide.rs` and `tests/prop_simd.rs` enforce equality
//! against the interpreter across all tiers, element types (including NaN,
//! ±Inf and subnormal float inputs) and extents.
//!
//! Backend selection is a [`Target`]: an execution [`Tier`] (pin the fused
//! tier on or off, or let the runner choose) plus the ISA
//! [`Feature`](crate::target::Feature)s the fused kernels may exploit. A
//! target is resolved once at compile time
//! ([`crate::compile::CompileOptions::target`], defaulting to
//! [`Target::current`] — env pins live in [`Target::from_env`]); its ISA is
//! [`Isa::Avx2`] only when it carries
//! [`Feature::Avx2`](crate::target::Feature::Avx2) *and*
//! `is_x86_feature_detected!("avx2")` confirms it at run time
//! ([`Target::effective_isa`]). One per-family rule, `kernel_isa`, then
//! decides whether a kernel's chunks run a hand-written AVX2 evaluator from
//! the `arch` module: i64 kernels and f32/f64 kernels of at most 16 taps do;
//! i32 kernels and wider float kernels run the portable lanes. The rule
//! follows measurements on a 2-core AVX2 Xeon (medians of 15, AVX2-pinned vs
//! portable-pinned targets, identical bytes): the f32/f64 plan evaluators
//! ran 1.07–2.10× on a 7-tap stencil, but an i32 AVX2 evaluator ran only
//! 0.76–1.02× on a u8 7-tap stencil and full-chunk f32/f64 AVX2 evaluators
//! 0.55–0.98× on a 25-tap stencil; the i64 evaluator awaits a re-measurement.
//! The fused and reduce dispatchers, the [`arch_rows_executed`] counter and
//! [`StoreProfile::selected_isa`] all read that one rule. The portable
//! constant-trip lane loops — one generic tap loader, chunk store and float
//! evaluator over the lane type (`LaneConst`), plus the integer evaluator —
//! remain both the fallback and the bit-exactness oracle. Integer arch
//! kernels are exact by construction (wrapping semantics); float arch
//! kernels vectorize only IEEE-exact single-rounding ops
//! (`Add`/`Sub`/`Mul`/`Div`/`Sqrt`), leaving `Min`/`Max`/`Cmp` on the scalar
//! reference path because `_mm256_min_ps` NaN/±0 semantics differ from
//! Rust's.
//!
//! Since the compile/run split, store compilation happens once in [`prepare`]
//! (producing an [`ExecPlan`] that the program cache retains — including the
//! per-store fused-kernel selection) and [`run`] only binds buffers and
//! walks the loop nest.
//!
//! **Safety.** Worker threads share buffers through raw pointers; no `&mut`
//! is ever formed over shared data. This is sound because (a) loads only ever
//! read buffers that nothing writes during the run (inputs, pre-materialized
//! roots, and the thread's own finished `compute_at` scratch — a fused
//! kernel additionally rejects stores whose value reads the buffer being
//! written), and (b) the lowering pass only marks the *outermost* output
//! loop parallel, with every store under it indexing the output through that
//! loop's variable, so threads write disjoint byte ranges; `compute_at`
//! buffers are allocated inside the parallel body and are thread-local by
//! construction. Guarded reduction stores are the one place a program reads
//! the buffer it writes: their nests contain no parallel loops (the lowering
//! pass never marks rdom or update-pure loops parallel), every read
//! completes before the corresponding write within a dispatch, and a
//! vectorized (privatized) lane batch touches pairwise-disjoint cells.

use crate::bounds::{combine, expr_interval, f64_is_f32_exact, Interval};
use crate::buffer::Buffer;
use crate::eval::{eval_expr, EvalSources};
use crate::expr::{eval_binop, eval_cmp, BinOp, CmpOp, Expr, ExternCall};
use crate::realize::RealizeError;
use crate::stmt::{
    access_contiguous_in, access_invariant_in, value_reads_buffer, AffineIndex, LoopKind, Stmt,
};
use crate::target::{Isa, Target, Tier};
use crate::types::{ScalarType, Value};
use std::collections::BTreeMap;
use std::ops::{AddAssign, DivAssign, MulAssign, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of lanes evaluated per dispatch of the per-op typed tier, and the
/// sub-batch size wider vectorized widths are split into: a schedule asking
/// for `vectorize(32)` dispatches 32 lanes per store visit, executed as two
/// full 16-lane batches (results are identical either way; see
/// `Runner::exec_store`). Fused SIMD kernels choose their own chunk width
/// (up to [`MAX_CHUNK`]) from the schedule.
pub const MAX_LANES: usize = 16;

/// Widest fused-kernel chunk (lanes of `i32` per kernel invocation).
pub const MAX_CHUNK: usize = 32;

/// Value-stack depth limit of fused kernels; deeper programs (rare — tap
/// accumulation is peephole-fused) use the per-op tier.
const V_STACK: usize = 8;

/// Cap on `workers × Σ merged-buffer cells` for parallel-reduce deferred
/// accumulation: beyond this the private side buffers would cost more than
/// the reduction saves, so the nest degrades to the serial reference path.
const MERGE_MAX_CELLS: usize = 4 << 20;

// ---------------------------------------------------------------------------
// Execution counters
// ---------------------------------------------------------------------------

/// Rows (innermost-loop executions) that ran the fused-kernel interior path,
/// for observability and tests.
static FUSED_ROWS: AtomicU64 = AtomicU64::new(0);

/// Sub-width interior tails executed as fused chunks (overlapping or masked)
/// instead of peeling onto the per-op tier, for observability and tests.
static FUSED_TAILS: AtomicU64 = AtomicU64::new(0);

/// Chunks accumulated by fused reduction kernels (the in-lane tree-reduce
/// epilogue of lowered update definitions), for observability and tests.
static REDUCE_CHUNKS: AtomicU64 = AtomicU64::new(0);

/// Private accumulator buffers merged into an output by the parallel
/// reduction accumulation path (one per merged buffer per
/// [`LoopKind::ParallelReduce`] nest execution), for observability and tests.
static PARALLEL_REDUCE_MERGES: AtomicU64 = AtomicU64::new(0);

/// Rows of sliding-window `compute_at` allocations reused (shifted in place
/// instead of recomputed) by [`Stmt::SlideWindow`] executions, for
/// observability and tests — the proof that the locality tier fires.
static WINDOW_ROWS_REUSED: AtomicU64 = AtomicU64::new(0);

/// Multi-output fused loop nests executed (plans run through
/// [`run_multi_with_target`] with more than one output buffer), for
/// observability and tests.
static MULTI_OUTPUT_NESTS: AtomicU64 = AtomicU64::new(0);

/// Fused interior rows and reduce loops whose chunks executed on a
/// hand-written `core::arch` ISA path (currently AVX2) instead of the
/// portable lane loops, for observability and tests — the proof that
/// `kernel_isa` dispatch actually fires. Counted per loop/row, not per
/// chunk, to keep the atomic off the chunk hot path.
static ARCH_ROWS: AtomicU64 = AtomicU64::new(0);

/// Number of innermost-loop rows executed through the fused-kernel interior
/// path since process start (monotonic; for tests and observability).
pub fn fused_rows_executed() -> u64 {
    FUSED_ROWS.load(Ordering::Relaxed)
}

/// Number of sub-width interior tails executed as fused chunks (masked or
/// overlapping) rather than peeled onto the per-op tier since process start
/// (monotonic; for tests and observability).
pub fn fused_tail_chunks_executed() -> u64 {
    FUSED_TAILS.load(Ordering::Relaxed)
}

/// Number of chunks accumulated by fused reduction kernels (the lane
/// tree-reduce path of lowered update definitions) since process start
/// (monotonic; for tests and observability).
pub fn reduce_chunks_executed() -> u64 {
    REDUCE_CHUNKS.load(Ordering::Relaxed)
}

/// Number of private accumulator buffers merged into outputs by the parallel
/// reduction accumulation path since process start (monotonic; for tests and
/// observability).
pub fn parallel_reduce_merges_executed() -> u64 {
    PARALLEL_REDUCE_MERGES.load(Ordering::Relaxed)
}

/// Number of sliding-window rows reused (shifted in place instead of
/// recomputed) since process start (monotonic; for tests and observability).
pub fn window_rows_reused() -> u64 {
    WINDOW_ROWS_REUSED.load(Ordering::Relaxed)
}

/// Number of multi-output fused nest executions (runs with more than one
/// output buffer) since process start (monotonic; for tests and
/// observability).
pub fn multi_output_nests_executed() -> u64 {
    MULTI_OUTPUT_NESTS.load(Ordering::Relaxed)
}

/// Number of fused rows / reduce loops whose chunks ran on a hand-written
/// `core::arch` ISA path since process start (monotonic; for tests and
/// observability).
pub fn arch_rows_executed() -> u64 {
    ARCH_ROWS.load(Ordering::Relaxed)
}

/// A scoped snapshot of the global execution counters, for tests that assert
/// exact deltas.
///
/// The counters are process-wide and monotonic, so a read-then-reset pattern
/// races against concurrently executing pipelines (another thread's
/// increments land between the read and the reset and are misattributed).
/// Snapshot/diff never resets: [`CounterSnapshot::take`] captures the
/// monotonic values, [`CounterSnapshot::delta`] subtracts a later snapshot —
/// concurrent activity can only *add* to a delta, never corrupt another
/// thread's baseline. Tests asserting exact counts should still serialize
/// their own executions (the counters cannot attribute increments to
/// pipelines), but unrelated parallel tests no longer flake each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// [`fused_rows_executed`] at snapshot time.
    pub fused_rows: u64,
    /// [`fused_tail_chunks_executed`] at snapshot time.
    pub fused_tails: u64,
    /// [`reduce_chunks_executed`] at snapshot time.
    pub reduce_chunks: u64,
    /// [`parallel_reduce_merges_executed`] at snapshot time.
    pub parallel_reduce_merges: u64,
    /// [`window_rows_reused`] at snapshot time.
    pub window_rows_reused: u64,
    /// [`multi_output_nests_executed`] at snapshot time.
    pub multi_output_nests: u64,
    /// [`arch_rows_executed`] at snapshot time.
    pub arch_rows: u64,
}

impl CounterSnapshot {
    /// Capture the current values of every execution counter.
    pub fn take() -> CounterSnapshot {
        CounterSnapshot {
            fused_rows: fused_rows_executed(),
            fused_tails: fused_tail_chunks_executed(),
            reduce_chunks: reduce_chunks_executed(),
            parallel_reduce_merges: parallel_reduce_merges_executed(),
            window_rows_reused: window_rows_reused(),
            multi_output_nests: multi_output_nests_executed(),
            arch_rows: arch_rows_executed(),
        }
    }

    /// The per-counter increments since this snapshot was taken.
    pub fn delta(&self) -> CounterSnapshot {
        let now = CounterSnapshot::take();
        CounterSnapshot {
            fused_rows: now.fused_rows.saturating_sub(self.fused_rows),
            fused_tails: now.fused_tails.saturating_sub(self.fused_tails),
            reduce_chunks: now.reduce_chunks.saturating_sub(self.reduce_chunks),
            parallel_reduce_merges: now
                .parallel_reduce_merges
                .saturating_sub(self.parallel_reduce_merges),
            window_rows_reused: now
                .window_rows_reused
                .saturating_sub(self.window_rows_reused),
            multi_output_nests: now
                .multi_output_nests
                .saturating_sub(self.multi_output_nests),
            arch_rows: now.arch_rows.saturating_sub(self.arch_rows),
        }
    }
}

// ---------------------------------------------------------------------------
// Slots: buffers addressable by compiled programs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SlotDecl {
    ty: ScalarType,
    writable: bool,
}

/// A bound buffer: raw parts of either a caller-provided [`Buffer`] or a
/// scoped `Allocate` scratch vector.
#[derive(Debug, Clone)]
struct SlotBind {
    ptr: *mut u8,
    byte_len: usize,
    extents: Vec<usize>,
    strides: Vec<usize>,
}

impl SlotBind {
    /// Read-only view of the backing bytes.
    ///
    /// Sound per the module-level aliasing argument: buffers read through
    /// this are never written during the run.
    fn data(&self) -> &[u8] {
        // SAFETY: ptr/byte_len come from a live buffer borrow or a live
        // Allocate scratch vector; binds never outlive their buffer.
        unsafe { std::slice::from_raw_parts(self.ptr, self.byte_len) }
    }

    /// Write `bytes` at `byte_off` without forming a `&mut` over the buffer.
    #[inline]
    fn write(&self, byte_off: usize, bytes: &[u8]) {
        debug_assert!(byte_off + bytes.len() <= self.byte_len);
        // SAFETY: in-bounds per the debug assert (store indices are in range
        // by loop construction); concurrent writers target disjoint ranges
        // per the module-level invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.add(byte_off), bytes.len());
        }
    }
}

/// Bind table shared across worker threads (cloned per thread; the raw
/// pointers alias, the metadata does not).
///
/// SAFETY: Send is sound per the module-level aliasing argument.
#[derive(Clone)]
struct BindTable(Vec<Option<SlotBind>>);

unsafe impl Send for BindTable {}

// ---------------------------------------------------------------------------
// Typed lane programs
// ---------------------------------------------------------------------------

/// One operation of a typed lane program. Operand kinds were resolved at
/// compile time; `promote_*` flags replicate `Value::as_f64` promotions.
#[derive(Debug, Clone)]
enum TOp {
    ConstI(i64),
    ConstF(f64),
    /// Push the loop variable at `depth`; stepped per lane when `depth` is
    /// the store's innermost loop.
    Var(usize),
    /// Convert the top int register to float (`as_f64`).
    I2F,
    /// Convert the top float register to int (`as_i64`).
    F2I,
    /// Integer binary op (both operands int), `eval_binop` int semantics.
    BinII(BinOp),
    /// Float arithmetic (Add/Sub/Mul/Div/Mod/Min/Max), float-branch
    /// semantics; `promote_*` converts an int operand first.
    BinFF {
        op: BinOp,
        promote_a: bool,
        promote_b: bool,
    },
    /// Bitwise/shift with a float operand: `eval_binop` float-branch
    /// semantics (`(x as i64) op (y as i64)`), yielding int.
    BinBitFF {
        op: BinOp,
        promote_a: bool,
        promote_b: bool,
    },
    CmpII(CmpOp),
    CmpFF {
        op: CmpOp,
        promote_a: bool,
        promote_b: bool,
    },
    /// Cast with an int source.
    CastI(ScalarType),
    /// Cast with a float source.
    CastF(ScalarType),
    /// `select(cond, t, f)`; branch kinds match by construction.
    Sel {
        cond_float: bool,
        branches_float: bool,
    },
    /// Extern call; all arguments already float.
    Call(ExternCall, usize),
    /// Clamped load from a buffer slot of element type `ty`.
    Load {
        slot: usize,
        arity: usize,
        ty: ScalarType,
    },
}

#[derive(Debug, Clone)]
struct Program {
    ops: Vec<TOp>,
    max_stack: usize,
    float_result: bool,
}

/// A store compiled to typed lane programs.
#[derive(Debug, Clone)]
struct TypedStore {
    slot: usize,
    index_progs: Vec<Program>,
    value_prog: Program,
}

/// A store that could not be typed statically; evaluated per element with
/// exact [`Value`] semantics.
#[derive(Debug, Clone)]
struct FallbackStore {
    slot: usize,
    indices: Vec<Expr>,
    value: Expr,
    var_depths: BTreeMap<String, usize>,
    slots: BTreeMap<String, usize>,
}

#[derive(Debug, Clone)]
enum StoreExec {
    Typed(TypedStore),
    Fallback(Box<FallbackStore>),
}

#[derive(Debug, Clone)]
struct CompiledStore {
    exec: StoreExec,
    /// Depth of the innermost enclosing loop (the lane dimension).
    lane_depth: usize,
    /// The fused SIMD lane kernel, when the store's shape admits one (tier 1;
    /// `exec` remains as the boundary-peel and fallback tier).
    fused: Option<FusedKernel>,
    /// Guarded (reduction) store: destination indices clamp to the buffer
    /// extents exactly like [`Buffer::set`], and the value may read the
    /// buffer being written — so the per-op tier must execute it with the
    /// read-modify-write ordering the enclosing loop nest dictates.
    clamp: bool,
    /// The fused accumulation kernel, when the guarded store is a
    /// loop-invariant integer accumulator (`F[c] = casts(F[c] + g(r))`) whose
    /// `g` fuses on an integer lane family: chunks of `g` are evaluated in
    /// lanes and folded with a wrapping tree-reduce.
    reduce: Option<ReduceKernel>,
    /// The deferred-accumulation plan, when the guarded store admits
    /// privatize-then-merge parallel reduction (see [`MergeAcc`]).
    merge: Option<MergeAcc>,
}

/// A guarded store admissible for *deferred accumulation*: the engine of
/// [`LoopKind::ParallelReduce`]. Applies to updates of the shape
/// `F[lhs] = C(F[lhs] + g(...))` where `C` is a chain of integer casts each
/// at least as wide as `F`'s element type, the self-read is exactly the LHS
/// point, and neither `g` nor the LHS index expressions read `F`.
///
/// Instead of the per-element read-modify-write, each worker evaluates the
/// LHS indices and `g` in lane batches over its slice of the reduction
/// domain and adds raw `i64` sums into a private per-thread buffer; the
/// buffers are then merged into `F` with one wrapping add and one truncating
/// store per touched cell.
///
/// **Exactness.** The reference applies `v ← read(write(C(v + gᵢ)))` per
/// element. Since every cast in `C` has width ≥ `F`'s element width
/// `w_out`, each step — cast chain, truncating store, extending load — is
/// congruent to the identity mod `2^w_out`, so the stored bytes after any
/// prefix of updates equal `(v₀ + Σ gᵢ) mod 2^w_out`. Addition commutes and
/// reassociates freely mod `2^w_out`, so accumulating the `gᵢ` in any order
/// and merging once is bit-identical — including cells never touched, whose
/// merge is skipped (a zero total would round-trip their bytes unchanged
/// anyway). Index and value loads clamp identically on every path
/// ([`TOp::Load`] is clamped), so batching needs no interior/boundary
/// splitting.
#[derive(Debug, Clone)]
struct MergeAcc {
    /// The lane-batched program computing `g` (integer result).
    g_prog: Program,
    /// Every slot read by the LHS index programs or `g`. If any of them is
    /// also written by a store merged in the same nest, the runner degrades
    /// to the serial reference path (privatization would reorder those
    /// reads relative to the writes).
    read_slots: Vec<usize>,
}

// ---------------------------------------------------------------------------
// Fused SIMD lane kernels (tier 1)
// ---------------------------------------------------------------------------

/// An affine index over enclosing loop *depths*, with the lane variable's
/// term factored out: `konst + Σ coeff·vars[depth]` (+ `x` for the
/// contiguous dimension, added at run time).
#[derive(Debug, Clone, PartialEq, Eq)]
struct DepthAffine {
    konst: i64,
    terms: Vec<(usize, i64)>,
}

impl DepthAffine {
    /// Evaluate against the current loop-variable values.
    fn eval(&self, vars: &[i64]) -> i64 {
        let mut v = self.konst;
        for &(depth, c) in &self.terms {
            v = v.wrapping_add(c.wrapping_mul(vars[depth]));
        }
        v
    }
}

/// How a tap's lanes map onto its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TapLane {
    /// Dimension 0 steps one element per lane; other dimensions are
    /// lane-invariant. The interior loads `W` consecutive elements.
    Contiguous,
    /// Every dimension is lane-invariant: one scalar load, broadcast.
    Broadcast,
}

/// One load of a fused kernel: a buffer slot with per-dimension affine bases
/// (lane variable excluded) and the lane classification.
#[derive(Debug, Clone, PartialEq)]
struct TapAccess {
    slot: usize,
    ty: ScalarType,
    dims: Vec<DepthAffine>,
    lane: TapLane,
}

/// One op of an integer fused kernel: a stack machine over `[C; W]` chunks
/// with *wrapping* arithmetic, where `C` is the lane type's constant carrier
/// (`i32` for the narrow family, `i64` for the wide one).
///
/// For `[i32; W]` kernels compilation maintains the invariant that every
/// value on the stack holds the low 32 bits of the reference `i64` value;
/// value-sensitive ops are only emitted when interval analysis proved their
/// 32-bit result exact (see the module docs). For `[i64; W/2]` kernels the
/// lanes *are* the reference values and every op is exact by construction.
#[derive(Debug, Clone, PartialEq)]
enum VOp<C = i32> {
    /// Push a broadcast constant (for i32 lanes: the low 32 bits of the i64
    /// constant).
    Const(C),
    /// Push the loop variable at `depth` (a lane ramp at the lane depth).
    Var(usize),
    /// Push tap `tap`'s lanes (contiguous slice or broadcast scalar).
    Load(usize),
    /// Wrapping `a + b`.
    Add,
    /// Wrapping `a - b`.
    Sub,
    /// Wrapping `a * b`.
    Mul,
    /// Wrapping `top + c`.
    AddC(C),
    /// Wrapping `top * c`.
    MulC(C),
    /// Bitwise ops.
    And,
    Or,
    Xor,
    AndC(C),
    OrC(C),
    XorC(C),
    /// `top & mask` (narrowing casts; also zeroes lanes via `Mask(0)`).
    Mask(C),
    /// Logical shift right of lanes reinterpreted as unsigned (for i32
    /// lanes: operand proven within `[0, 2^32)`, where this equals the i64
    /// logical shift; for i64 lanes this *is* the reference shift).
    ShrU(u32),
    /// Wrapping shift left (count < lane width).
    Shl(u32),
    /// Sign-extend the low 32 bits (`v as i32 as i64`, the `Int32` cast on
    /// i64 lanes; the identity on i32 lanes, never emitted there).
    Sext32,
    /// Signed min/max (for i32 lanes: operands proven within i32).
    MinS,
    MaxS,
    /// Unsigned min/max (for i32 lanes: operands proven within `[0, 2^32)`;
    /// never emitted for i64 lanes — the reference compares signed i64).
    MinU,
    MaxU,
    /// Signed / unsigned comparison, yielding 0/1 lanes.
    CmpS(CmpOp),
    CmpU(CmpOp),
    /// `select(cond, t, f)` on three stack values.
    Sel,
    /// Fused multiply-accumulate: `top += coeff * tap` (wrapping).
    Axpy {
        tap: usize,
        coeff: C,
    },
}

/// One op of a float fused kernel, generic over the lane carrier `C`.
///
/// For `C = f32` (`[f32; W]` lanes) compilation maintains the invariant
/// that every lane holds a value bit-exactly representable in `f32` that
/// equals the reference `f64` value (rounded at the reference's own rounding
/// points): arithmetic ops are only emitted where the reference rounds —
/// under a `cast<float>` or at the `Float32` store — where one `f32`
/// rounding of exact operands equals compute-in-`f64`-then-round.
///
/// For `C = f64` (`[f64; W/2]` lanes) no discipline is needed: the reference
/// evaluator carries floats as `f64`, so the lanes ARE the reference values
/// and every op is exact by construction.
#[derive(Debug, Clone, PartialEq)]
enum FOp<C> {
    /// Push a broadcast constant (proven lane-exact at compile time).
    Const(C),
    /// Push the loop variable at `depth` as f32 lanes (a lane ramp at the
    /// lane depth; the variable's interval is proven f32-exact).
    Var(usize),
    /// Push tap `tap`'s lanes (f32 loads, or u8/u16 loads converted —
    /// exactly — to f32).
    Load(usize),
    /// Rounding-point arithmetic: one f32 rounding each.
    Add,
    Sub,
    Mul,
    Div,
    /// Exact selection ops, evaluated in f64 per lane to mirror
    /// [`eval_binop`]'s float branch bit-for-bit (NaN and ±0.0 included).
    Min,
    Max,
    /// Rounding-point square root.
    Sqrt,
    /// Comparison, yielding 1.0/0.0 mask lanes (the reference's 0/1 integers
    /// are f32-exact).
    Cmp(CmpOp),
    /// `select(cond, t, f)` on three stack values; the condition tests
    /// `lane != 0.0`, which matches `Value::is_true` on the exact value.
    Sel,
}

/// One op of a float fused kernel's **arch plan**: the [`FOp`] stream with
/// adjacent const/load/arithmetic patterns pre-fused at kernel-build time,
/// consumed only by the hand-written AVX2 evaluators (the `arch` module).
/// The portable evaluators never read it — they stay the oracle.
///
/// Why it exists: the integer families fuse their multiply-accumulate spine
/// into [`VOp::Axpy`], but float programs carry each `Const`/`Load`/`Mul`/
/// `Add` as a separate full-chunk pass through the stack arrays. A 7-tap
/// stencil pays ~13 such passes per chunk. The fused plan ops below let the
/// AVX2 path touch each tap exactly once, in registers, streaming full-width
/// contiguous taps straight from the bound buffer.
///
/// **Exactness.** Every fused op performs the same roundings in the same
/// operand order as the ops it replaces (`PushCMulLoad` = one `c * tap`
/// rounding, `AccAddCMulLoad` = that plus one `acc + _` rounding, etc.), so
/// the plan is bit-identical to the `FOp` stream by construction — including
/// NaN payload propagation, which on x86 follows operand order. Net stack
/// effect of each rewrite is preserved, so passthrough ops ([`AOp::Op`])
/// observe exactly the stack the portable evaluator would.
#[derive(Debug, Clone, PartialEq)]
enum AOp<C> {
    /// Passthrough: the original op, executed by the generic arch body.
    Op(FOp<C>),
    /// Push `c * tap` (from `Const(c), Load(t), Mul`).
    PushCMulLoad {
        tap: usize,
        c: C,
    },
    /// Push `tap * c` (from `Load(t), Const(c), Mul`).
    PushLoadMulC {
        tap: usize,
        c: C,
    },
    /// `top = top + c * tap` (from `PushCMulLoad, Add`).
    AccAddCMulLoad {
        tap: usize,
        c: C,
    },
    /// `top = top + tap * c` (from `PushLoadMulC, Add`).
    AccAddLoadMulC {
        tap: usize,
        c: C,
    },
    /// `top = top OP tap` (from `Load(t), Add/Sub/Mul/Div`).
    AccAddLoad(usize),
    AccSubLoad(usize),
    AccMulLoad(usize),
    AccDivLoad(usize),
    /// `top = top OP c` (from `Const(c), Add/Sub/Mul/Div`).
    AccAddC(C),
    AccSubC(C),
    AccMulC(C),
    AccDivC(C),
}

/// Pre-fuse a float op stream into its arch plan (see [`AOp`]). Each rewrite
/// consumes only ops whose operands are adjacent on the virtual stack, so
/// adjacency in the emitted plan proves the operands — no symbolic stack
/// simulation is needed.
fn build_arch_plan<C: Copy>(ops: &[FOp<C>]) -> Vec<AOp<C>> {
    let mut plan: Vec<AOp<C>> = Vec::with_capacity(ops.len());
    for op in ops {
        let fused = match op {
            FOp::Mul => match &plan[..] {
                [.., AOp::Op(FOp::Const(c)), AOp::Op(FOp::Load(t))] => {
                    Some((2, AOp::PushCMulLoad { tap: *t, c: *c }))
                }
                [.., AOp::Op(FOp::Load(t)), AOp::Op(FOp::Const(c))] => {
                    Some((2, AOp::PushLoadMulC { tap: *t, c: *c }))
                }
                [.., AOp::Op(FOp::Const(c))] => Some((1, AOp::AccMulC(*c))),
                [.., AOp::Op(FOp::Load(t))] => Some((1, AOp::AccMulLoad(*t))),
                _ => None,
            },
            FOp::Add => match &plan[..] {
                [.., AOp::PushCMulLoad { tap, c }] => {
                    Some((1, AOp::AccAddCMulLoad { tap: *tap, c: *c }))
                }
                [.., AOp::PushLoadMulC { tap, c }] => {
                    Some((1, AOp::AccAddLoadMulC { tap: *tap, c: *c }))
                }
                [.., AOp::Op(FOp::Const(c))] => Some((1, AOp::AccAddC(*c))),
                [.., AOp::Op(FOp::Load(t))] => Some((1, AOp::AccAddLoad(*t))),
                _ => None,
            },
            FOp::Sub => match &plan[..] {
                [.., AOp::Op(FOp::Const(c))] => Some((1, AOp::AccSubC(*c))),
                [.., AOp::Op(FOp::Load(t))] => Some((1, AOp::AccSubLoad(*t))),
                _ => None,
            },
            FOp::Div => match &plan[..] {
                [.., AOp::Op(FOp::Const(c))] => Some((1, AOp::AccDivC(*c))),
                [.., AOp::Op(FOp::Load(t))] => Some((1, AOp::AccDivLoad(*t))),
                _ => None,
            },
            _ => None,
        };
        match fused {
            Some((consumed, aop)) => {
                plan.truncate(plan.len() - consumed);
                plan.push(aop);
            }
            None => plan.push(AOp::Op(op.clone())),
        }
    }
    plan
}

/// The pre-built arch plan of a [`FusedKernel`], by lane family. Integer
/// programs carry none — their hot spine is already fused as [`VOp::Axpy`].
#[derive(Debug, Clone, PartialEq)]
enum ArchPlan {
    Int,
    F32(Vec<AOp<f32>>),
    F64(Vec<AOp<f64>>),
}

/// The lane program of a fused kernel, tagging which lane family it runs on.
#[derive(Debug, Clone, PartialEq)]
enum LaneProgram {
    /// `[i32; W]` wrapping lanes with interval-proven exactness.
    I32(Vec<VOp<i32>>),
    /// `[i64; W/2]` lanes carrying exact reference values.
    I64(Vec<VOp<i64>>),
    /// `[f32; W]` lanes with rounding-point discipline.
    F32(Vec<FOp<f32>>),
    /// `[f64; W/2]` lanes carrying exact reference float values.
    F64(Vec<FOp<f64>>),
}

/// The lane family a fused kernel was compiled for. See the module docs for
/// the per-family exactness invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneFamily {
    /// `[i32; W]` wrapping lanes (≤ 32-bit integer outputs, interval-proven).
    I32,
    /// `[i64; W/2]` exact-value lanes (any integer output, no proofs needed).
    I64,
    /// `[f32; W]` lanes (Float32 outputs, rounding-point discipline).
    F32,
    /// `[f64; W/2]` lanes (Float64 outputs; lanes are the reference values).
    F64,
}

/// Compile-time profile of one compiled store, for the cost model behind
/// `helium-tune`: which execution tier the store selected and the shape facts
/// that predict its per-element cost — all known without running the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreProfile {
    /// The fused SIMD lane family the store compiled for tier 1, if any
    /// (`None` means the store runs the per-op tier every time).
    pub fused: Option<LaneFamily>,
    /// Number of taps (source loads) of the fused kernel; 0 when unfused.
    pub taps: usize,
    /// Largest absolute constant offset across the fused taps' per-dimension
    /// affine bases — the stencil halo radius, which predicts how many
    /// boundary columns peel off the fused interior onto the per-op tier.
    pub max_tap_offset: i64,
    /// Guarded (reduction) store: clamped destination, read-modify-write
    /// ordering on the per-op tier.
    pub guarded: bool,
    /// The fused accumulation (lane tree-reduce) family, when the guarded
    /// store compiled one.
    pub reduce: Option<LaneFamily>,
    /// Whether the store admits privatize-then-merge deferred accumulation
    /// under a [`crate::stmt::LoopKind::ParallelReduce`] nest.
    pub parallel_reduce: bool,
    /// The instruction-set family the store's fused/reduce chunks will
    /// execute on under the profiled [`Target`]: [`Isa::Avx2`] only for i64
    /// kernels and f32/f64 kernels of at most 16 taps on a target that
    /// resolves AVX2, else [`Isa::Portable`] (always for unfused stores — the
    /// per-op and fallback tiers have no arch paths).
    pub selected_isa: Isa,
}

/// Per-lane-family fused-kernel counts of an [`ExecPlan`], for observability,
/// autotuner reporting and benchmark columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedStoreCounts {
    /// Stores fused on `[i32; W]` lanes.
    pub lanes_i32: usize,
    /// Stores fused on `[i64; W/2]` lanes.
    pub lanes_i64: usize,
    /// Stores fused on `[f32; W]` lanes.
    pub lanes_f32: usize,
    /// Stores fused on `[f64; W/2]` lanes.
    pub lanes_f64: usize,
}

impl FusedStoreCounts {
    /// Total fused stores across all lane families.
    pub fn total(&self) -> usize {
        self.lanes_i32 + self.lanes_i64 + self.lanes_f32 + self.lanes_f64
    }
}

/// A store compiled into a fused SIMD lane kernel: the lane program, its
/// taps, and the contiguous output access.
#[derive(Debug, Clone, PartialEq)]
struct FusedKernel {
    prog: LaneProgram,
    /// Pre-fused float op stream for the AVX2 evaluators (see [`AOp`]);
    /// [`ArchPlan::Int`] for the integer families.
    arch_plan: ArchPlan,
    taps: Vec<TapAccess>,
    /// Output slot (dimension 0 is contiguous in the lane variable).
    out_slot: usize,
    out_ty: ScalarType,
    /// Per-dimension output index bases (lane variable excluded).
    out_dims: Vec<DepthAffine>,
}

/// A guarded reduction store compiled into a fused accumulation kernel.
///
/// Applies to updates of the shape `F[lhs] = C(F[lhs] + g(...))` where the
/// LHS is invariant in the innermost (rdom) loop variable, `C` is a chain of
/// integer casts, the self-read is exactly the LHS point, and `g` — which
/// must not read `F` — compiles onto an integer lane family. Per entry of the
/// innermost loop the runner reads the accumulator once, folds chunk after
/// chunk of `g` lanes with a wrapping in-lane tree-reduce, replays `C`, and
/// stores once.
///
/// **Exactness.** The reference applies `v ← read(write(C(v + gᵢ)))` per
/// element. Every integer cast (and the buffer store/load round trip) is a
/// function of its operand's low `k` bits that is congruent to the identity
/// mod `2^k`, where `k` is the narrowest width in the chain — so the whole
/// step function depends only on `(v + gᵢ) mod 2^k` and addition commutes
/// and reassociates freely mod `2^k`. Chunked accumulation therefore yields
/// bit-identical bytes. For the `[i32; W]` family the lanes carry `g` mod
/// `2^32`, which covers every `k ≤ 32`; family selection restricts it to
/// stores of ≤ 32-bit types, and `[i64; W/2]` lanes are exact outright.
#[derive(Debug, Clone, PartialEq)]
struct ReduceKernel {
    /// The lane program computing `g` (integer families only).
    prog: LaneProgram,
    /// Taps of `g` over the innermost loop variable.
    taps: Vec<TapAccess>,
    /// Accumulator buffer slot.
    out_slot: usize,
    /// Accumulator element type.
    out_ty: ScalarType,
    /// Per-dimension LHS index bases (invariant in the lane variable;
    /// clamped to the buffer extents at run time, like [`Buffer::set`]).
    out_dims: Vec<DepthAffine>,
    /// The peeled integer-cast chain `C`, outermost first, replayed onto the
    /// accumulated value before the final store.
    casts: Vec<ScalarType>,
}

impl ReduceKernel {
    /// The lane family the kernel accumulates on.
    fn family(&self) -> LaneFamily {
        match self.prog {
            LaneProgram::I32(_) => LaneFamily::I32,
            LaneProgram::I64(_) => LaneFamily::I64,
            LaneProgram::F32(_) | LaneProgram::F64(_) => {
                unreachable!("reduce kernels are integer-only")
            }
        }
    }

    /// Chunk width: reductions always accumulate at the widest chunk
    /// ([`MAX_CHUNK`] lanes for i32, half for i64) — there is no scheduled
    /// lane loop to inherit a width from.
    fn chunk_width(&self) -> usize {
        match self.family() {
            LaneFamily::I32 => MAX_CHUNK,
            LaneFamily::I64 => MAX_CHUNK / 2,
            LaneFamily::F32 | LaneFamily::F64 => {
                unreachable!("reduce kernels are integer-only")
            }
        }
    }
}

impl FusedKernel {
    /// The lane family this kernel runs on.
    fn family(&self) -> LaneFamily {
        match self.prog {
            LaneProgram::I32(_) => LaneFamily::I32,
            LaneProgram::I64(_) => LaneFamily::I64,
            LaneProgram::F32(_) => LaneFamily::F32,
            LaneProgram::F64(_) => LaneFamily::F64,
        }
    }

    /// The chunk width used for a scheduled vector width: {8, 16, 32} lanes
    /// for the i32/f32 families, half that ({4, 8, 16}) for the 64-bit-wide
    /// i64/f64 lanes so one chunk covers the same number of vector registers.
    fn chunk_width(&self, width: usize) -> usize {
        let w = if width >= 32 {
            32
        } else if width >= 16 {
            16
        } else {
            8
        };
        match self.family() {
            LaneFamily::I32 | LaneFamily::F32 => w,
            LaneFamily::I64 | LaneFamily::F64 => w / 2,
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
}

enum CompileFail {
    /// Fall back to the per-element evaluator (e.g. dynamically typed select).
    Soft,
    /// A real error (missing input/param, undefined func).
    Hard(RealizeError),
}

struct Compiler<'a> {
    var_depths: &'a BTreeMap<String, usize>,
    slot_ids: &'a BTreeMap<String, usize>,
    decls: &'a [SlotDecl],
    params: &'a BTreeMap<String, Value>,
}

struct Emit {
    ops: Vec<TOp>,
    cur: usize,
    max: usize,
}

impl Emit {
    fn new() -> Emit {
        Emit {
            ops: Vec::new(),
            cur: 0,
            max: 0,
        }
    }

    fn push(&mut self, op: TOp, delta: isize) {
        self.ops.push(op);
        self.cur = (self.cur as isize + delta) as usize;
        self.max = self.max.max(self.cur);
    }
}

impl Compiler<'_> {
    fn compile(&self, e: &Expr, out: &mut Emit) -> Result<Kind, CompileFail> {
        match e {
            Expr::Var(name) | Expr::RVar(name) => {
                let depth =
                    self.var_depths.get(name).copied().ok_or_else(|| {
                        CompileFail::Hard(RealizeError::MissingParam(name.clone()))
                    })?;
                out.push(TOp::Var(depth), 1);
                Ok(Kind::Int)
            }
            Expr::ConstInt(v, ty) => {
                if ty.is_float() {
                    out.push(TOp::ConstF(*v as f64), 1);
                    Ok(Kind::Float)
                } else {
                    out.push(TOp::ConstI(*v), 1);
                    Ok(Kind::Int)
                }
            }
            Expr::ConstFloat(v, _) => {
                out.push(TOp::ConstF(*v), 1);
                Ok(Kind::Float)
            }
            Expr::Param(name, _) => {
                let v =
                    self.params.get(name).copied().ok_or_else(|| {
                        CompileFail::Hard(RealizeError::MissingParam(name.clone()))
                    })?;
                match v {
                    Value::Int(i) => {
                        out.push(TOp::ConstI(i), 1);
                        Ok(Kind::Int)
                    }
                    Value::Float(f) => {
                        out.push(TOp::ConstF(f), 1);
                        Ok(Kind::Float)
                    }
                }
            }
            Expr::Cast(ty, inner) => {
                let k = self.compile(inner, out)?;
                match k {
                    Kind::Int => out.push(TOp::CastI(*ty), 0),
                    Kind::Float => out.push(TOp::CastF(*ty), 0),
                }
                Ok(if ty.is_float() {
                    Kind::Float
                } else {
                    Kind::Int
                })
            }
            Expr::Binary(op, a, b) => {
                let ka = self.compile(a, out)?;
                let kb = self.compile(b, out)?;
                let bitwise = matches!(
                    op,
                    BinOp::Shr | BinOp::Shl | BinOp::And | BinOp::Or | BinOp::Xor
                );
                if ka == Kind::Int && kb == Kind::Int {
                    out.push(TOp::BinII(*op), -1);
                    Ok(Kind::Int)
                } else if bitwise {
                    out.push(
                        TOp::BinBitFF {
                            op: *op,
                            promote_a: ka == Kind::Int,
                            promote_b: kb == Kind::Int,
                        },
                        -1,
                    );
                    Ok(Kind::Int)
                } else {
                    out.push(
                        TOp::BinFF {
                            op: *op,
                            promote_a: ka == Kind::Int,
                            promote_b: kb == Kind::Int,
                        },
                        -1,
                    );
                    Ok(Kind::Float)
                }
            }
            Expr::Cmp(op, a, b) => {
                let ka = self.compile(a, out)?;
                let kb = self.compile(b, out)?;
                if ka == Kind::Int && kb == Kind::Int {
                    out.push(TOp::CmpII(*op), -1);
                } else {
                    out.push(
                        TOp::CmpFF {
                            op: *op,
                            promote_a: ka == Kind::Int,
                            promote_b: kb == Kind::Int,
                        },
                        -1,
                    );
                }
                Ok(Kind::Int)
            }
            Expr::Select(c, t, f) => {
                let kc = self.compile(c, out)?;
                let kt = self.compile(t, out)?;
                let kf = self.compile(f, out)?;
                if kt != kf {
                    // Dynamically typed select: the interpreter picks the
                    // branch value unchanged, so the result type varies per
                    // element. Use the fallback evaluator.
                    return Err(CompileFail::Soft);
                }
                out.push(
                    TOp::Sel {
                        cond_float: kc == Kind::Float,
                        branches_float: kt == Kind::Float,
                    },
                    -2,
                );
                Ok(kt)
            }
            Expr::Call(call, args) => {
                for a in args {
                    let k = self.compile(a, out)?;
                    if k == Kind::Int {
                        out.push(TOp::I2F, 0);
                    }
                }
                out.push(TOp::Call(*call, args.len()), 1 - args.len() as isize);
                Ok(Kind::Float)
            }
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let slot = self.slot_ids.get(name).copied().ok_or_else(|| {
                    CompileFail::Hard(match e {
                        Expr::Image(..) => RealizeError::MissingInput(name.clone()),
                        _ => RealizeError::UndefinedFunc(name.clone()),
                    })
                })?;
                for a in args {
                    let k = self.compile(a, out)?;
                    if k == Kind::Float {
                        out.push(TOp::F2I, 0);
                    }
                }
                let ty = self.decls[slot].ty;
                out.push(
                    TOp::Load {
                        slot,
                        arity: args.len(),
                        ty,
                    },
                    1 - args.len() as isize,
                );
                Ok(if ty.is_float() {
                    Kind::Float
                } else {
                    Kind::Int
                })
            }
        }
    }

    fn compile_program(&self, e: &Expr, force_int: bool) -> Result<Program, CompileFail> {
        let mut emit = Emit::new();
        let kind = self.compile(e, &mut emit)?;
        let mut float_result = kind == Kind::Float;
        if force_int && float_result {
            emit.push(TOp::F2I, 0);
            float_result = false;
        }
        Ok(Program {
            ops: emit.ops,
            max_stack: emit.max.max(1),
            float_result,
        })
    }
}

// ---------------------------------------------------------------------------
// Fused-kernel compilation
// ---------------------------------------------------------------------------

/// Evaluate `e` to an integer constant when it is one (constants, bound
/// integer params, and integer casts thereof).
fn const_int_of(e: &Expr, params: &BTreeMap<String, Value>) -> Option<i64> {
    match e {
        Expr::ConstInt(v, ty) if !ty.is_float() => Some(*v),
        Expr::Param(name, _) => match params.get(name) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        },
        Expr::Cast(ty, inner) if !ty.is_float() => {
            const_int_of(inner, params).map(|v| Value::Int(v).cast(*ty).as_i64())
        }
        _ => None,
    }
}

/// Emission state of one fused kernel, generic over the lane-op type.
struct VEmit<Op> {
    ops: Vec<Op>,
    taps: Vec<TapAccess>,
    cur: usize,
    max: usize,
}

impl<Op> VEmit<Op> {
    fn new() -> VEmit<Op> {
        VEmit {
            ops: Vec::new(),
            taps: Vec::new(),
            cur: 0,
            max: 0,
        }
    }

    fn push(&mut self, op: Op, delta: isize) {
        self.ops.push(op);
        self.cur = (self.cur as isize + delta) as usize;
        self.max = self.max.max(self.cur);
    }

    /// Register a tap access, deduplicating identical ones.
    fn tap(&mut self, tap: TapAccess) -> usize {
        match emitted_tap(&self.taps, &tap) {
            Some(i) => i,
            None => {
                self.taps.push(tap);
                self.taps.len() - 1
            }
        }
    }
}

/// Compiles one store into a [`FusedKernel`] on the best lane family its
/// output type and value shape admit, failing (with `None`) on any shape no
/// family's exactness invariant can cover; the caller keeps the per-op tier
/// in that case.
struct FusedBuilder<'a> {
    var_depths: &'a BTreeMap<String, usize>,
    var_bounds: &'a BTreeMap<String, Interval>,
    slot_ids: &'a BTreeMap<String, usize>,
    decls: &'a [SlotDecl],
    params: &'a BTreeMap<String, Value>,
    /// Variable of the innermost enclosing loop (the lane dimension).
    lane_var: &'a str,
    out_slot: usize,
}

impl FusedBuilder<'_> {
    /// Family selection: narrow integer outputs try the proven `[i32; W]`
    /// family first (twice the lanes per register) and fall back to the
    /// proof-free `[i64; W/2]` family; `UInt64` outputs go straight to i64
    /// lanes; `Float32` outputs use the `[f32; W]` family. `self_alias` is
    /// the name-level check ([`value_reads_buffer`]) computed by the caller —
    /// a self-aliasing store must not fuse at all (chunked evaluation would
    /// read lanes written earlier in the same row).
    fn build(&self, indices: &[Expr], value: &Expr, self_alias: bool) -> Option<FusedKernel> {
        if self_alias {
            return None;
        }
        let out_ty = self.decls[self.out_slot].ty;
        // The store must be contiguous along the lane variable.
        let (out_dims, out_lane) = self.access_dims(indices)?;
        if out_lane != Some(TapLane::Contiguous) {
            return None;
        }
        let built = match out_ty {
            ScalarType::UInt8 | ScalarType::UInt16 | ScalarType::UInt32 | ScalarType::Int32 => {
                self.build_i32(value).or_else(|| self.build_i64(value))
            }
            ScalarType::UInt64 => self.build_i64(value),
            ScalarType::Float32 => self.build_f32(value),
            // Float64 values are the reference representation itself, so the
            // `[f64; W/2]` family is exact by construction (no rounding
            // discipline needed — every FOp mirrors the reference op).
            ScalarType::Float64 => self.build_f64(value),
        };
        let (prog, taps) = built?;
        // A tap aliasing the output would read lanes the kernel just wrote
        // (slot-level check; `self_alias` already covered the name level).
        if taps.iter().any(|t| t.slot == self.out_slot) {
            return None;
        }
        let arch_plan = match &prog {
            LaneProgram::F32(ops) => ArchPlan::F32(build_arch_plan(ops)),
            LaneProgram::F64(ops) => ArchPlan::F64(build_arch_plan(ops)),
            _ => ArchPlan::Int,
        };
        Some(FusedKernel {
            prog,
            arch_plan,
            taps,
            out_slot: self.out_slot,
            out_ty,
            out_dims,
        })
    }

    /// Compile a guarded reduction store into a [`ReduceKernel`] when its
    /// shape admits one (see the kernel's docs for the pattern and proof).
    /// `None` keeps the per-op tier, which is always correct.
    fn build_reduce(&self, indices: &[Expr], value: &Expr) -> Option<ReduceKernel> {
        // Peel the integer-cast chain wrapping the accumulation.
        let mut casts = Vec::new();
        let mut v = value;
        while let Expr::Cast(ty, inner) = v {
            if ty.is_float() {
                return None;
            }
            casts.push(*ty);
            v = inner;
        }
        let Expr::Binary(BinOp::Add, a, b) = v else {
            return None;
        };
        // One side must be the bare self-read of exactly the LHS point.
        let is_self = |e: &Expr| {
            matches!(e, Expr::FuncRef(name, args)
                if self.slot_ids.get(name) == Some(&self.out_slot) && args.as_slice() == indices)
        };
        let g = match (is_self(a), is_self(b)) {
            (true, false) => b,
            (false, true) => a,
            _ => return None,
        };
        // The LHS must be affine and invariant in the lane (innermost rdom)
        // variable: the accumulator cell is fixed for the whole inner loop.
        let (out_dims, lane) = self.access_dims(indices)?;
        if lane != Some(TapLane::Broadcast) {
            return None;
        }
        let out_ty = self.decls[self.out_slot].ty;
        // Family selection mirrors pure stores: ≤ 32-bit accumulators may
        // ride i32 lanes (sums mod 2^32 cover every k ≤ 32), UInt64 needs
        // exact i64 lanes, floats never fuse (f32 addition is not
        // associative, so a tree-reduce would not be bit-exact).
        let built = match out_ty {
            ScalarType::UInt8 | ScalarType::UInt16 | ScalarType::UInt32 | ScalarType::Int32 => {
                self.build_i32(g).or_else(|| self.build_i64(g))
            }
            ScalarType::UInt64 => self.build_i64(g),
            ScalarType::Float32 | ScalarType::Float64 => None,
        };
        let (prog, taps) = built?;
        // `g` must not read the accumulator: its chunks are evaluated before
        // the (single) store, so a read of `F` would observe a stale value
        // the reference path refreshes per element.
        if taps.iter().any(|t| t.slot == self.out_slot) {
            return None;
        }
        Some(ReduceKernel {
            prog,
            taps,
            out_slot: self.out_slot,
            out_ty,
            out_dims,
            casts,
        })
    }

    fn build_i32(&self, value: &Expr) -> Option<(LaneProgram, Vec<TapAccess>)> {
        let mut emit = VEmit::new();
        self.fuse(value, &mut emit)?;
        if emit.max > V_STACK {
            return None;
        }
        peephole(&mut emit.ops);
        Some((LaneProgram::I32(emit.ops), emit.taps))
    }

    fn build_i64(&self, value: &Expr) -> Option<(LaneProgram, Vec<TapAccess>)> {
        let mut emit = VEmit::new();
        self.fuse64(value, &mut emit)?;
        if emit.max > V_STACK {
            return None;
        }
        peephole(&mut emit.ops);
        Some((LaneProgram::I64(emit.ops), emit.taps))
    }

    fn build_f32(&self, value: &Expr) -> Option<(LaneProgram, Vec<TapAccess>)> {
        let mut emit = VEmit::new();
        // The `Float32` store narrows the value exactly like a `cast<float>`,
        // so the top level is itself a rounding point.
        self.fuse_f32_rounding(value, &mut emit)?;
        if emit.max > V_STACK {
            return None;
        }
        Some((LaneProgram::F32(emit.ops), emit.taps))
    }

    fn build_f64(&self, value: &Expr) -> Option<(LaneProgram, Vec<TapAccess>)> {
        let mut emit = VEmit::new();
        self.fuse_f64(value, &mut emit)?;
        if emit.max > V_STACK {
            return None;
        }
        Some((LaneProgram::F64(emit.ops), emit.taps))
    }

    /// Decompose an access's index expressions into per-dimension affine
    /// bases with the lane term removed, and classify the access along the
    /// lane variable: contiguous (dimension 0 steps by one, the rest
    /// invariant), broadcast (all invariant), or `None` lane classification
    /// for strided/transposed patterns.
    #[allow(clippy::type_complexity)]
    fn access_dims(&self, args: &[Expr]) -> Option<(Vec<DepthAffine>, Option<TapLane>)> {
        let affine: Vec<AffineIndex> = args
            .iter()
            .map(|arg| AffineIndex::decompose(arg, self.params))
            .collect::<Option<_>>()?;
        let mut dims = Vec::with_capacity(affine.len());
        for a in &affine {
            let mut terms = Vec::new();
            for (v, c) in &a.coeffs {
                if v == self.lane_var {
                    continue;
                }
                terms.push((*self.var_depths.get(v)?, *c));
            }
            dims.push(DepthAffine {
                konst: a.konst,
                terms,
            });
        }
        let lane = if access_contiguous_in(&affine, self.lane_var) {
            Some(TapLane::Contiguous)
        } else if access_invariant_in(&affine, self.lane_var) {
            Some(TapLane::Broadcast)
        } else {
            None
        };
        Some((dims, lane))
    }

    /// Classify and decompose a tap access.
    fn tap_dims(&self, args: &[Expr]) -> Option<(Vec<DepthAffine>, TapLane)> {
        let (dims, lane) = self.access_dims(args)?;
        lane.map(|lane| (dims, lane))
    }

    /// Compile `e`, pushing ops that leave its lanes on the stack, and return
    /// a sound interval of the reference `i64` value. `None` aborts fusion.
    fn fuse(&self, e: &Expr, out: &mut VEmit<VOp<i32>>) -> Option<Interval> {
        match e {
            Expr::ConstInt(v, ty) if !ty.is_float() => {
                out.push(VOp::Const(*v as i32), 1);
                Some(Interval::point(*v))
            }
            Expr::ConstInt(..) | Expr::ConstFloat(..) | Expr::Call(..) => None,
            Expr::Param(name, _) => match self.params.get(name) {
                Some(Value::Int(v)) => {
                    out.push(VOp::Const(*v as i32), 1);
                    Some(Interval::point(*v))
                }
                _ => None,
            },
            Expr::Var(name) | Expr::RVar(name) => {
                let depth = *self.var_depths.get(name)?;
                let iv = *self.var_bounds.get(name)?;
                // Lane ramps compute `x + l` in i32.
                if !iv.within(Interval::i32_range()) {
                    return None;
                }
                out.push(VOp::Var(depth), 1);
                Some(iv)
            }
            Expr::Cast(ty, inner) => {
                let iv = self.fuse(inner, out)?;
                match ty {
                    // Identity on the i64 value.
                    ScalarType::UInt64 => Some(iv),
                    // Reinterpretations of the low 32 bits: no lane op, only
                    // the interval changes.
                    ScalarType::UInt32 => Some(if iv.within(Interval::u32_range()) {
                        iv
                    } else {
                        Interval::u32_range()
                    }),
                    ScalarType::Int32 => Some(if iv.within(Interval::i32_range()) {
                        iv
                    } else {
                        Interval::i32_range()
                    }),
                    ScalarType::UInt16 | ScalarType::UInt8 => {
                        let mask = if *ty == ScalarType::UInt8 {
                            0xff
                        } else {
                            0xffff
                        };
                        if iv.within(Interval { min: 0, max: mask }) {
                            Some(iv)
                        } else {
                            out.push(VOp::Mask(mask as i32), 0);
                            Some(Interval { min: 0, max: mask })
                        }
                    }
                    ScalarType::Float32 | ScalarType::Float64 => None,
                }
            }
            Expr::Binary(op, a, b) => self.fuse_binary(*op, a, b, out),
            Expr::Cmp(op, a, b) => {
                let ia = self.fuse(a, out)?;
                let ib = self.fuse(b, out)?;
                if ia.within(Interval::i32_range()) && ib.within(Interval::i32_range()) {
                    out.push(VOp::CmpS(*op), -1);
                } else if ia.within(Interval::u32_range()) && ib.within(Interval::u32_range()) {
                    out.push(VOp::CmpU(*op), -1);
                } else {
                    return None;
                }
                Some(Interval { min: 0, max: 1 })
            }
            Expr::Select(c, t, f) => {
                let ic = self.fuse(c, out)?;
                // The truth test is on lanes; sound iff zero-faithful, i.e.
                // the value is within [i32::MIN, u32::MAX] so value == 0
                // exactly when its low 32 bits are 0.
                if !ic.within(Interval {
                    min: i32::MIN as i64,
                    max: u32::MAX as i64,
                }) {
                    return None;
                }
                let it = self.fuse(t, out)?;
                let if_ = self.fuse(f, out)?;
                out.push(VOp::Sel, -2);
                Some(it.union(if_))
            }
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let slot = *self.slot_ids.get(name)?;
                let ty = self.decls[slot].ty;
                let iv = Interval::of_type(ty)?;
                let (dims, lane) = self.tap_dims(args)?;
                let tap = TapAccess {
                    slot,
                    ty,
                    dims,
                    lane,
                };
                let idx = out.tap(tap);
                out.push(VOp::Load(idx), 1);
                Some(iv)
            }
        }
    }

    fn fuse_binary(
        &self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        out: &mut VEmit<VOp<i32>>,
    ) -> Option<Interval> {
        match op {
            // Quotient/remainder lanes would need exact i64 semantics
            // (including divide-by-zero and i32::MIN edge cases) — rare in
            // stencils; keep them on the per-op tier.
            BinOp::Div | BinOp::Mod => None,
            BinOp::Shr => {
                let s_raw = const_int_of(b, self.params)?;
                let s = (s_raw as u64 & 63) as u32;
                let ia = self.fuse(a, out)?;
                // The i64 shift is logical; it agrees with a 32-bit unsigned
                // shift only for operands within [0, 2^32).
                if !ia.within(Interval::u32_range()) {
                    return None;
                }
                if s == 0 {
                    Some(ia)
                } else if s >= 32 {
                    out.push(VOp::Mask(0), 0);
                    Some(Interval::point(0))
                } else {
                    out.push(VOp::ShrU(s), 0);
                    Some(Interval {
                        min: ia.min >> s,
                        max: ia.max >> s,
                    })
                }
            }
            BinOp::Shl => {
                let s_raw = const_int_of(b, self.params)?;
                // eval_binop: `wrapping_shl(y as u32)`, which masks by 63.
                let s = (s_raw as u32) & 63;
                let ia = self.fuse(a, out)?;
                let iv = combine(BinOp::Shl, ia, Interval::point(s_raw));
                if s < 32 {
                    if s > 0 {
                        out.push(VOp::Shl(s), 0);
                    }
                } else {
                    // The low 32 bits of `v << s` are zero for s >= 32.
                    out.push(VOp::Mask(0), 0);
                }
                Some(iv)
            }
            BinOp::Min | BinOp::Max => {
                let ia = self.fuse(a, out)?;
                let ib = self.fuse(b, out)?;
                let signed = ia.within(Interval::i32_range()) && ib.within(Interval::i32_range());
                let unsigned = ia.within(Interval::u32_range()) && ib.within(Interval::u32_range());
                let vop = match (op, signed, unsigned) {
                    (BinOp::Min, true, _) => VOp::MinS,
                    (BinOp::Max, true, _) => VOp::MaxS,
                    (BinOp::Min, false, true) => VOp::MinU,
                    (BinOp::Max, false, true) => VOp::MaxU,
                    _ => return None,
                };
                out.push(vop, -1);
                Some(combine(op, ia, ib))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                // Wrapping/bitwise ops are homomorphic in the low 32 bits, so
                // they are emitted unconditionally; the interval (saturating
                // to "everything" on potential i64 wrap) is what downstream
                // value-sensitive ops validate against.
                let ka = const_int_of(a, self.params);
                let kb = const_int_of(b, self.params);
                let commutes = matches!(
                    op,
                    BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
                );
                let fold = |k: i64, o: &mut VEmit<VOp<i32>>| match op {
                    BinOp::Add => o.push(VOp::AddC(k as i32), 0),
                    BinOp::Sub => o.push(VOp::AddC((k.wrapping_neg()) as i32), 0),
                    BinOp::Mul => o.push(VOp::MulC(k as i32), 0),
                    BinOp::And => o.push(VOp::AndC(k as i32), 0),
                    BinOp::Or => o.push(VOp::OrC(k as i32), 0),
                    BinOp::Xor => o.push(VOp::XorC(k as i32), 0),
                    _ => unreachable!("folded ops are wrapping/bitwise"),
                };
                if let Some(k) = kb {
                    let ia = self.fuse(a, out)?;
                    if !(k == 0 && matches!(op, BinOp::Add | BinOp::Sub)) {
                        fold(k, out);
                    }
                    return Some(combine(op, ia, Interval::point(k)));
                }
                if let (Some(k), true) = (ka, commutes) {
                    let ib = self.fuse(b, out)?;
                    if !(k == 0 && op == BinOp::Add) {
                        fold(k, out);
                    }
                    return Some(combine(op, Interval::point(k), ib));
                }
                let ia = self.fuse(a, out)?;
                let ib = self.fuse(b, out)?;
                let vop = match op {
                    BinOp::Add => VOp::Add,
                    BinOp::Sub => VOp::Sub,
                    BinOp::Mul => VOp::Mul,
                    BinOp::And => VOp::And,
                    BinOp::Or => VOp::Or,
                    BinOp::Xor => VOp::Xor,
                    _ => unreachable!("matched above"),
                };
                out.push(vop, -1);
                Some(combine(op, ia, ib))
            }
        }
    }

    // -- The `[i64; W/2]` family: lanes are the reference `i64` value -------

    /// Compile `e` onto i64 lanes. Unlike [`Self::fuse`] there is no interval
    /// bookkeeping: every emitted op replicates the [`eval_binop`] /
    /// [`eval_cmp`] / [`Value::cast`] integer semantics verbatim on the full
    /// 64-bit value, so exactness holds by construction and `None` only means
    /// "shape not expressible" (float operands, non-constant shift counts,
    /// division), never "unprovable".
    fn fuse64(&self, e: &Expr, out: &mut VEmit<VOp<i64>>) -> Option<()> {
        match e {
            Expr::ConstInt(v, ty) if !ty.is_float() => {
                out.push(VOp::Const(*v), 1);
                Some(())
            }
            Expr::ConstInt(..) | Expr::ConstFloat(..) | Expr::Call(..) => None,
            Expr::Param(name, _) => match self.params.get(name) {
                Some(Value::Int(v)) => {
                    out.push(VOp::Const(*v), 1);
                    Some(())
                }
                _ => None,
            },
            Expr::Var(name) | Expr::RVar(name) => {
                let depth = *self.var_depths.get(name)?;
                out.push(VOp::Var(depth), 1);
                Some(())
            }
            Expr::Cast(ty, inner) => {
                self.fuse64(inner, out)?;
                match ty {
                    // Value::cast keeps the i64 bits for UInt64.
                    ScalarType::UInt64 => {}
                    ScalarType::UInt8 => out.push(VOp::Mask(0xff), 0),
                    ScalarType::UInt16 => out.push(VOp::Mask(0xffff), 0),
                    ScalarType::UInt32 => out.push(VOp::Mask(0xffff_ffff), 0),
                    ScalarType::Int32 => out.push(VOp::Sext32, 0),
                    ScalarType::Float32 | ScalarType::Float64 => return None,
                }
                Some(())
            }
            Expr::Binary(op, a, b) => self.fuse64_binary(*op, a, b, out),
            Expr::Cmp(op, a, b) => {
                // eval_cmp's integer branch compares signed i64 regardless of
                // the operands' nominal unsigned types.
                self.fuse64(a, out)?;
                self.fuse64(b, out)?;
                out.push(VOp::CmpS(*op), -1);
                Some(())
            }
            Expr::Select(c, t, f) => {
                // Lanes hold the exact value, so `lane != 0` is Value::is_true
                // with no zero-faithfulness caveat.
                self.fuse64(c, out)?;
                self.fuse64(t, out)?;
                self.fuse64(f, out)?;
                out.push(VOp::Sel, -2);
                Some(())
            }
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let slot = *self.slot_ids.get(name)?;
                let ty = self.decls[slot].ty;
                if ty.is_float() {
                    return None;
                }
                let (dims, lane) = self.tap_dims(args)?;
                let idx = out.tap(TapAccess {
                    slot,
                    ty,
                    dims,
                    lane,
                });
                out.push(VOp::Load(idx), 1);
                Some(())
            }
        }
    }

    fn fuse64_binary(
        &self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        out: &mut VEmit<VOp<i64>>,
    ) -> Option<()> {
        match op {
            // Quotient/remainder lanes would have to replicate the
            // divide-by-zero and i64::MIN / -1 edge cases per lane — rare in
            // stencils; keep them on the per-op tier (as the i32 family does).
            BinOp::Div | BinOp::Mod => None,
            BinOp::Shr => {
                // eval_binop: `(x as u64) >> (y as u64 & 63)` — exactly ShrU.
                let s = (const_int_of(b, self.params)? as u64 & 63) as u32;
                self.fuse64(a, out)?;
                if s > 0 {
                    out.push(VOp::ShrU(s), 0);
                }
                Some(())
            }
            BinOp::Shl => {
                // eval_binop: `wrapping_shl(y as u32)`, which masks by 63.
                let s = (const_int_of(b, self.params)? as u32) & 63;
                self.fuse64(a, out)?;
                if s > 0 {
                    out.push(VOp::Shl(s), 0);
                }
                Some(())
            }
            BinOp::Min | BinOp::Max => {
                // eval_binop's integer branch is signed i64 min/max.
                self.fuse64(a, out)?;
                self.fuse64(b, out)?;
                out.push(
                    if op == BinOp::Min {
                        VOp::MinS
                    } else {
                        VOp::MaxS
                    },
                    -1,
                );
                Some(())
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                let ka = const_int_of(a, self.params);
                let kb = const_int_of(b, self.params);
                let commutes = matches!(
                    op,
                    BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
                );
                let fold = |k: i64, o: &mut VEmit<VOp<i64>>| match op {
                    BinOp::Add => o.push(VOp::AddC(k), 0),
                    BinOp::Sub => o.push(VOp::AddC(k.wrapping_neg()), 0),
                    BinOp::Mul => o.push(VOp::MulC(k), 0),
                    BinOp::And => o.push(VOp::AndC(k), 0),
                    BinOp::Or => o.push(VOp::OrC(k), 0),
                    BinOp::Xor => o.push(VOp::XorC(k), 0),
                    _ => unreachable!("folded ops are wrapping/bitwise"),
                };
                if let Some(k) = kb {
                    self.fuse64(a, out)?;
                    if !(k == 0 && matches!(op, BinOp::Add | BinOp::Sub)) {
                        fold(k, out);
                    }
                    return Some(());
                }
                if let (Some(k), true) = (ka, commutes) {
                    self.fuse64(b, out)?;
                    if !(k == 0 && op == BinOp::Add) {
                        fold(k, out);
                    }
                    return Some(());
                }
                self.fuse64(a, out)?;
                self.fuse64(b, out)?;
                let vop = match op {
                    BinOp::Add => VOp::Add,
                    BinOp::Sub => VOp::Sub,
                    BinOp::Mul => VOp::Mul,
                    BinOp::And => VOp::And,
                    BinOp::Or => VOp::Or,
                    BinOp::Xor => VOp::Xor,
                    _ => unreachable!("matched above"),
                };
                out.push(vop, -1);
                Some(())
            }
        }
    }

    // -- The `[f32; W]` family: rounding-point discipline -------------------

    /// Compile `e` onto f32 lanes under the invariant that the reference
    /// `f64` value of `e` is bit-exactly representable in `f32` for every
    /// input, and the lanes hold it. Returns the expression's reference kind
    /// (integer leaves stay `Kind::Int` — carried as exact f32 lanes — which
    /// [`Self::fuse_f32_rounding`] uses to reject all-integer arithmetic the
    /// reference would evaluate on i64).
    fn fuse_f32(&self, e: &Expr, out: &mut VEmit<FOp<f32>>) -> Option<Kind> {
        match e {
            Expr::ConstFloat(v, _) => {
                if !f64_is_f32_exact(*v) {
                    return None;
                }
                out.push(FOp::Const(*v as f32), 1);
                Some(Kind::Float)
            }
            Expr::ConstInt(v, ty) if ty.is_float() => {
                if !f64_is_f32_exact(*v as f64) {
                    return None;
                }
                out.push(FOp::Const(*v as f64 as f32), 1);
                Some(Kind::Float)
            }
            Expr::ConstInt(v, _) => {
                if !Interval::f32_exact_int_range().contains(*v) {
                    return None;
                }
                out.push(FOp::Const(*v as f32), 1);
                Some(Kind::Int)
            }
            Expr::Param(name, _) => match self.params.get(name)? {
                Value::Int(v) => {
                    if !Interval::f32_exact_int_range().contains(*v) {
                        return None;
                    }
                    out.push(FOp::Const(*v as f32), 1);
                    Some(Kind::Int)
                }
                Value::Float(f) => {
                    if !f64_is_f32_exact(*f) {
                        return None;
                    }
                    out.push(FOp::Const(*f as f32), 1);
                    Some(Kind::Float)
                }
            },
            Expr::Var(name) | Expr::RVar(name) => {
                let depth = *self.var_depths.get(name)?;
                let iv = *self.var_bounds.get(name)?;
                if !iv.within(Interval::f32_exact_int_range()) {
                    return None;
                }
                out.push(FOp::Var(depth), 1);
                Some(Kind::Int)
            }
            // The explicit rounding point: exactly where lifted
            // single-precision code rounds after every SSE instruction.
            Expr::Cast(ScalarType::Float32, inner) => {
                self.fuse_f32_rounding(inner, out)?;
                Some(Kind::Float)
            }
            // Widening an exact-f32 (or exactly promoted integer) value is
            // the identity on the carried lanes.
            Expr::Cast(ScalarType::Float64, inner) => {
                self.fuse_f32(inner, out)?;
                Some(Kind::Float)
            }
            // Integer casts leave the float-exact domain.
            Expr::Cast(..) => None,
            Expr::Binary(op @ (BinOp::Min | BinOp::Max), a, b) => {
                let ka = self.fuse_f32(a, out)?;
                let kb = self.fuse_f32(b, out)?;
                if ka == Kind::Int && kb == Kind::Int {
                    // The reference would take the i64 min/max; stay safe and
                    // leave all-integer shapes to the integer families.
                    return None;
                }
                // Selection of one exact operand: exact without a rounding
                // point (evaluated in f64 per lane to match eval_binop on
                // NaN and ±0.0).
                out.push(
                    if *op == BinOp::Min {
                        FOp::Min
                    } else {
                        FOp::Max
                    },
                    -1,
                );
                Some(Kind::Float)
            }
            // Arithmetic without an enclosing rounding point would make the
            // lanes diverge from the f64 reference value.
            Expr::Binary(..) => None,
            Expr::Cmp(op, a, b) => {
                // Comparison of exact values is order-preserving across
                // widths (NaN unordered in both), and the 0/1 result is
                // f32-exact.
                self.fuse_f32(a, out)?;
                self.fuse_f32(b, out)?;
                out.push(FOp::Cmp(*op), -1);
                Some(Kind::Int)
            }
            Expr::Select(c, t, f) => {
                self.fuse_f32(c, out)?;
                let kt = self.fuse_f32(t, out)?;
                let kf = self.fuse_f32(f, out)?;
                if kt != kf {
                    // Mirror the typed tier, which falls back on dynamically
                    // typed selects.
                    return None;
                }
                out.push(FOp::Sel, -2);
                Some(kt)
            }
            // Extern calls round at f64; only sqrt under a rounding point is
            // exact (handled by fuse_f32_rounding).
            Expr::Call(..) => None,
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let slot = *self.slot_ids.get(name)?;
                let ty = self.decls[slot].ty;
                // Float32 loads are exact by definition; narrow integer loads
                // (u8/u16) promote to f32 without loss.
                let kind = match ty {
                    ScalarType::Float32 => Kind::Float,
                    _ => {
                        let iv = Interval::of_type(ty)?;
                        if !iv.within(Interval::f32_exact_int_range()) {
                            return None;
                        }
                        Kind::Int
                    }
                };
                let (dims, lane) = self.tap_dims(args)?;
                let idx = out.tap(TapAccess {
                    slot,
                    ty,
                    dims,
                    lane,
                });
                out.push(FOp::Load(idx), 1);
                Some(kind)
            }
        }
    }

    /// Compile `e` in a *rounding context*: the caller (a `cast<float>` or
    /// the `Float32` store itself) rounds the reference `f64` value to `f32`.
    /// Here — and only here — f32 arithmetic may be emitted: one f32 rounding
    /// of bit-exact operands equals the reference's f64 op followed by the
    /// cast for +, −, ×, ÷ and sqrt (f64's 53 significant bits ≥ 2·24 + 2,
    /// so the double rounding is innocuous). Anything already exact passes
    /// through [`Self::fuse_f32`]; the rounding is then the identity.
    fn fuse_f32_rounding(&self, e: &Expr, out: &mut VEmit<FOp<f32>>) -> Option<Kind> {
        match e {
            Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div), a, b) => {
                let ka = self.fuse_f32(a, out)?;
                let kb = self.fuse_f32(b, out)?;
                if ka == Kind::Int && kb == Kind::Int {
                    // The reference would wrap on i64 and round the integer
                    // result; leave all-integer arithmetic to the integer
                    // families.
                    return None;
                }
                out.push(
                    match op {
                        BinOp::Add => FOp::Add,
                        BinOp::Sub => FOp::Sub,
                        BinOp::Mul => FOp::Mul,
                        BinOp::Div => FOp::Div,
                        _ => unreachable!("matched above"),
                    },
                    -1,
                );
                Some(Kind::Float)
            }
            Expr::Call(ExternCall::Sqrt, args) if args.len() == 1 => {
                self.fuse_f32(&args[0], out)?;
                out.push(FOp::Sqrt, 0);
                Some(Kind::Float)
            }
            _ => self.fuse_f32(e, out),
        }
    }

    // -- The `[f64; W/2]` family: lanes are the reference values ------------

    /// Compile `e` onto f64 lanes. The reference evaluator carries floats as
    /// `f64`, so no rounding discipline exists: every emitted op mirrors the
    /// reference op bit-for-bit and the lanes hold the reference values by
    /// construction. Only integer *leaves* need a proof — within
    /// [`Interval::f64_exact_int_range`] their `i64 → f64` promotion is the
    /// exact, order-preserving map the reference itself applies in mixed
    /// arithmetic and comparisons. All-integer arithmetic is still rejected
    /// (the reference would wrap on `i64`), exactly like the f32 family.
    fn fuse_f64(&self, e: &Expr, out: &mut VEmit<FOp<f64>>) -> Option<Kind> {
        match e {
            Expr::ConstFloat(v, _) => {
                out.push(FOp::Const(*v), 1);
                Some(Kind::Float)
            }
            // `v as f64` is exactly the promotion the reference performs on
            // a float-typed integer constant, whatever its magnitude.
            Expr::ConstInt(v, ty) if ty.is_float() => {
                out.push(FOp::Const(*v as f64), 1);
                Some(Kind::Float)
            }
            Expr::ConstInt(v, _) => {
                if !Interval::f64_exact_int_range().contains(*v) {
                    return None;
                }
                out.push(FOp::Const(*v as f64), 1);
                Some(Kind::Int)
            }
            Expr::Param(name, _) => match self.params.get(name)? {
                Value::Int(v) => {
                    if !Interval::f64_exact_int_range().contains(*v) {
                        return None;
                    }
                    out.push(FOp::Const(*v as f64), 1);
                    Some(Kind::Int)
                }
                Value::Float(f) => {
                    out.push(FOp::Const(*f), 1);
                    Some(Kind::Float)
                }
            },
            Expr::Var(name) | Expr::RVar(name) => {
                let depth = *self.var_depths.get(name)?;
                let iv = *self.var_bounds.get(name)?;
                if !iv.within(Interval::f64_exact_int_range()) {
                    return None;
                }
                out.push(FOp::Var(depth), 1);
                Some(Kind::Int)
            }
            // Widening to the reference representation is the identity on
            // the carried lanes (an int operand promotes exactly, a float
            // operand already is the f64 value).
            Expr::Cast(ScalarType::Float64, inner) => {
                self.fuse_f64(inner, out)?;
                Some(Kind::Float)
            }
            // A `cast<float>` inserts an f32 rounding the f64 lanes cannot
            // replay; those shapes belong to the `[f32; W]` family. Integer
            // casts leave the exact domain entirely.
            Expr::Cast(..) => None,
            Expr::Binary(
                op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max),
                a,
                b,
            ) => {
                let ka = self.fuse_f64(a, out)?;
                let kb = self.fuse_f64(b, out)?;
                if ka == Kind::Int && kb == Kind::Int {
                    // The reference would wrap (or min/max) on i64; leave
                    // all-integer shapes to the integer families.
                    return None;
                }
                out.push(
                    match op {
                        BinOp::Add => FOp::Add,
                        BinOp::Sub => FOp::Sub,
                        BinOp::Mul => FOp::Mul,
                        BinOp::Div => FOp::Div,
                        BinOp::Min => FOp::Min,
                        BinOp::Max => FOp::Max,
                        _ => unreachable!("matched above"),
                    },
                    -1,
                );
                Some(Kind::Float)
            }
            // Mod (and any op the reference defines on integers only).
            Expr::Binary(..) => None,
            Expr::Cmp(op, a, b) => {
                // Exact-range operands compare identically as f64 (the int
                // promotion is injective and order-preserving; NaN is
                // unordered in both representations).
                self.fuse_f64(a, out)?;
                self.fuse_f64(b, out)?;
                out.push(FOp::Cmp(*op), -1);
                Some(Kind::Int)
            }
            Expr::Select(c, t, f) => {
                self.fuse_f64(c, out)?;
                let kt = self.fuse_f64(t, out)?;
                let kf = self.fuse_f64(f, out)?;
                if kt != kf {
                    return None;
                }
                out.push(FOp::Sel, -2);
                Some(kt)
            }
            // The reference computes sqrt in f64 — mirrored exactly. Other
            // extern calls stay on the per-op tier.
            Expr::Call(ExternCall::Sqrt, args) if args.len() == 1 => {
                self.fuse_f64(&args[0], out)?;
                out.push(FOp::Sqrt, 0);
                Some(Kind::Float)
            }
            Expr::Call(..) => None,
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let slot = *self.slot_ids.get(name)?;
                let ty = self.decls[slot].ty;
                // f64 loads ARE the reference values; f32 loads widen
                // exactly; integer loads are exact within ±2^53 (UInt64's
                // range exceeds it and is rejected by `of_type`).
                let kind = match ty {
                    ScalarType::Float64 | ScalarType::Float32 => Kind::Float,
                    _ => {
                        let iv = Interval::of_type(ty)?;
                        if !iv.within(Interval::f64_exact_int_range()) {
                            return None;
                        }
                        Kind::Int
                    }
                };
                let (dims, lane) = self.tap_dims(args)?;
                let idx = out.tap(TapAccess {
                    slot,
                    ty,
                    dims,
                    lane,
                });
                out.push(FOp::Load(idx), 1);
                Some(kind)
            }
        }
    }
}

fn emitted_tap(taps: &[TapAccess], tap: &TapAccess) -> Option<usize> {
    taps.iter().position(|t| t == tap)
}

/// Scalar carrier of a lane family — `i32`, `i64`, `f32` or `f64`: the
/// constant type of its ops and the element type of its chunks. Gives the
/// generic [`peephole`] the wrapping negation it needs to sign-adjust folded
/// coefficients, and the generic tap loader, chunk store and float evaluator
/// the conversions each family's exactness argument admits.
trait LaneConst: Copy + Default + PartialEq + PartialOrd {
    /// Wrapping negation (two's complement).
    fn wneg(self) -> Self;
    /// The multiplicative identity (the implicit coefficient of a bare tap).
    fn one() -> Self;
    /// An integer tap element or loop variable, already extended to `i64`
    /// the way the per-op tier extends it: truncated to the lane width on
    /// integer lanes, promoted on float lanes (exactly — fusion admits only
    /// values the float type represents).
    fn from_i64(v: i64) -> Self;
    /// A `Float32` tap element: bit-exact on f32 lanes, widened on f64 lanes.
    fn from_f32(v: f32) -> Self;
    /// A `Float64` value (only f64 lanes load them; f32 Min/Max results
    /// round back through it).
    fn from_f64(v: f64) -> Self;
    /// The lane widened to `f64`, where float Min/Max are evaluated.
    fn to_f64(self) -> f64;
    /// The lane's bits, extended to 64; a chunk store keeps the low bytes of
    /// the output type.
    fn to_bits(self) -> u64;
    /// Square root, rounded once in the lane type (float lanes only).
    fn sqrt(self) -> Self;
}

// The conversions are always inlined so that unoptimized builds, which run
// the test suite, keep the generic lane loops close to hand-written speed.
macro_rules! lane_const {
    ($($t:ty: $wneg:expr, $to_bits:expr, $sqrt:expr;)*) => {$(
        impl LaneConst for $t {
            #[inline(always)]
            fn wneg(self) -> Self {
                $wneg(self)
            }
            #[inline(always)]
            fn one() -> Self {
                1 as $t
            }
            #[inline(always)]
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn from_f32(v: f32) -> Self {
                v as $t
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn to_bits(self) -> u64 {
                $to_bits(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                $sqrt(self)
            }
        }
    )*};
}

lane_const! {
    i32: i32::wrapping_neg, |v: i32| v as u64, |_| unreachable!("no integer sqrt");
    i64: i64::wrapping_neg, |v: i64| v as u64, |_| unreachable!("no integer sqrt");
    f32: |v: f32| -v, |v: f32| u64::from(v.to_bits()), f32::sqrt;
    f64: |v: f64| -v, f64::to_bits, f64::sqrt;
}

/// Collapse the dominant stencil pattern — load, scale, accumulate — into
/// fused multiply-accumulate superops, shrinking both dispatch count and
/// stack traffic: an `Add`/`Sub` whose right operand was built as
/// `Load(t) [· c] (± taps ± consts)*` folds into the left operand as a chain
/// of `Axpy`/`AddC` ops. Sound because wrapping adds commute and associate
/// modulo the lane width (`a - (x + y) = a - x - y`); applies to both
/// integer lane families (float lanes never fold — a fused multiply-add
/// would change rounding).
fn peephole<C: LaneConst>(ops: &mut Vec<VOp<C>>) {
    let mut out: Vec<VOp<C>> = Vec::with_capacity(ops.len());
    for op in ops.drain(..) {
        match op {
            VOp::Add | VOp::Sub => {
                if !try_fold_additive(&mut out, matches!(op, VOp::Sub)) {
                    out.push(op);
                }
            }
            _ => out.push(op),
        }
    }
    *ops = out;
}

/// If the top stack operand of `out` is an additive chain rooted at a single
/// `Load`, fold the pending `Add`/`Sub` into it and return `true`.
fn try_fold_additive<C: LaneConst>(out: &mut Vec<VOp<C>>, negate: bool) -> bool {
    // Walk back over top-modifying additive ops to the operand's push.
    let n = out.len();
    let mut j = n;
    while j > 0 {
        match out[j - 1] {
            VOp::Axpy { .. } | VOp::AddC(_) | VOp::MulC(_) => j -= 1,
            VOp::Load(_) => {
                j -= 1;
                break;
            }
            _ => return false,
        }
    }
    let Some(VOp::Load(tap)) = out.get(j).cloned() else {
        return false;
    };
    // An optional scale directly after the load; any later MulC scales the
    // accumulated sum and is not additive — reject.
    let mut coeff = C::one();
    let mut k = j + 1;
    if let Some(VOp::MulC(c)) = out.get(k) {
        coeff = *c;
        k += 1;
    }
    if !out[k..]
        .iter()
        .all(|op| matches!(op, VOp::Axpy { .. } | VOp::AddC(_)))
    {
        return false;
    }
    // Rewrite: Load [MulC] => Axpy, then sign-adjust the tail.
    let neg = |c: C| if negate { c.wneg() } else { c };
    let tail: Vec<VOp<C>> = out.drain(k..).collect();
    out.truncate(j);
    out.push(VOp::Axpy {
        tap,
        coeff: neg(coeff),
    });
    for op in tail {
        out.push(match op {
            VOp::Axpy { tap, coeff } => VOp::Axpy {
                tap,
                coeff: neg(coeff),
            },
            VOp::AddC(c) => VOp::AddC(neg(c)),
            _ => unreachable!("validated additive"),
        });
    }
    true
}

// ---------------------------------------------------------------------------
// Preparation: walk the stmt, assign slots/depths, compile stores
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Prepared {
    decls: Vec<SlotDecl>,
    /// Slot id per Allocate node, keyed by buffer name (unique per tree).
    alloc_slots: BTreeMap<String, usize>,
    stores: Vec<Option<CompiledStore>>,
    max_depth: usize,
    max_stack: usize,
    max_arity: usize,
}

struct PrepareCtx<'a> {
    params: &'a BTreeMap<String, Value>,
    decls: Vec<SlotDecl>,
    slot_ids: BTreeMap<String, usize>,
    alloc_slots: BTreeMap<String, usize>,
    stores: Vec<Option<CompiledStore>>,
    var_depths: BTreeMap<String, usize>,
    /// Sound interval of each in-scope loop variable (from its bound
    /// expressions), consumed by the fused-kernel compiler's proofs.
    var_bounds: BTreeMap<String, Interval>,
    depth: usize,
    max_depth: usize,
    max_stack: usize,
    max_arity: usize,
}

impl PrepareCtx<'_> {
    fn add_slot(&mut self, name: &str, ty: ScalarType, writable: bool) -> usize {
        let id = self.decls.len();
        self.decls.push(SlotDecl { ty, writable });
        self.slot_ids.insert(name.to_string(), id);
        id
    }

    fn walk(&mut self, stmt: &Stmt) -> Result<(), RealizeError> {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.walk(s)?;
                }
                Ok(())
            }
            Stmt::Produce { body, .. } => self.walk(body),
            Stmt::Allocate { name, ty, body, .. } => {
                let prev = self.slot_ids.get(name).copied();
                let id = self.add_slot(name, *ty, true);
                self.alloc_slots.insert(name.clone(), id);
                self.walk(body)?;
                match prev {
                    Some(p) => {
                        self.slot_ids.insert(name.clone(), p);
                    }
                    None => {
                        self.slot_ids.remove(name);
                    }
                }
                Ok(())
            }
            Stmt::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                let prev = self.var_depths.insert(var.clone(), self.depth);
                // A sound interval for the loop variable: symbolic bounds
                // (tile tails) resolve through the enclosing vars' intervals.
                let imin = expr_interval(min, &self.var_bounds, self.params);
                let iext = expr_interval(extent, &self.var_bounds, self.params);
                let hi = imin.max.saturating_add(iext.max.saturating_sub(1).max(0));
                let prev_bounds = self
                    .var_bounds
                    .insert(var.clone(), Interval::new(imin.min, hi));
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
                self.walk(body)?;
                self.depth -= 1;
                match prev {
                    Some(p) => {
                        self.var_depths.insert(var.clone(), p);
                    }
                    None => {
                        self.var_depths.remove(var);
                    }
                }
                match prev_bounds {
                    Some(p) => {
                        self.var_bounds.insert(var.clone(), p);
                    }
                    None => {
                        self.var_bounds.remove(var);
                    }
                }
                Ok(())
            }
            Stmt::SlideWindow {
                extent,
                warm_var,
                body,
                ..
            } => {
                // The warm-row count behaves like a loop variable bound once
                // per attach iteration: it occupies a depth slot (so the
                // producer nest's sliding loop can reference it through the
                // environment) with the sound interval [0, extent].
                let prev = self.var_depths.insert(warm_var.clone(), self.depth);
                let prev_bounds = self
                    .var_bounds
                    .insert(warm_var.clone(), Interval::new(0, *extent as i64));
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
                self.walk(body)?;
                self.depth -= 1;
                match prev {
                    Some(p) => {
                        self.var_depths.insert(warm_var.clone(), p);
                    }
                    None => {
                        self.var_depths.remove(warm_var);
                    }
                }
                match prev_bounds {
                    Some(p) => {
                        self.var_bounds.insert(warm_var.clone(), p);
                    }
                    None => {
                        self.var_bounds.remove(warm_var);
                    }
                }
                Ok(())
            }
            Stmt::Store {
                id,
                buffer,
                indices,
                value,
            } => self.compile_store(*id, buffer, indices, value, false),
            Stmt::ReduceStore {
                id,
                buffer,
                indices,
                value,
            } => self.compile_store(*id, buffer, indices, value, true),
        }
    }

    /// Compile one store (pure or guarded) into its [`CompiledStore`]:
    /// typed/fallback programs, stack/arity accounting, and the tier-1
    /// kernel attempt — a [`FusedKernel`] for pure stores (`clamp = false`),
    /// a [`ReduceKernel`] for guarded reduction stores (`clamp = true`,
    /// which never take the pure fused tier: their value reads the buffer
    /// being written and the LHS may be data-dependent). Kernel compilation
    /// is best-effort — any failure keeps the typed/fallback tiers.
    fn compile_store(
        &mut self,
        id: usize,
        buffer: &str,
        indices: &[Expr],
        value: &Expr,
        clamp: bool,
    ) -> Result<(), RealizeError> {
        let slot = self
            .slot_ids
            .get(buffer)
            .copied()
            .ok_or_else(|| RealizeError::UndefinedFunc(buffer.to_string()))?;
        debug_assert!(
            self.decls[slot].writable,
            "store to read-only buffer {buffer}"
        );
        let lane_depth = self.depth.saturating_sub(1);
        let compiler = Compiler {
            var_depths: &self.var_depths,
            slot_ids: &self.slot_ids,
            decls: &self.decls,
            params: self.params,
        };
        let compiled = (|| -> Result<StoreExec, CompileFail> {
            let mut index_progs = Vec::with_capacity(indices.len());
            for idx in indices {
                index_progs.push(compiler.compile_program(idx, true)?);
            }
            let value_prog = compiler.compile_program(value, false)?;
            Ok(StoreExec::Typed(TypedStore {
                slot,
                index_progs,
                value_prog,
            }))
        })();
        let exec = match compiled {
            Ok(t) => t,
            Err(CompileFail::Hard(e)) => return Err(e),
            Err(CompileFail::Soft) => StoreExec::Fallback(Box::new(FallbackStore {
                slot,
                indices: indices.to_vec(),
                value: value.clone(),
                var_depths: self.var_depths.clone(),
                slots: self.slot_ids.clone(),
            })),
        };
        if let StoreExec::Typed(t) = &exec {
            for p in t.index_progs.iter().chain(std::iter::once(&t.value_prog)) {
                self.max_stack = self.max_stack.max(p.max_stack);
                for op in &p.ops {
                    if let TOp::Load { arity, .. } = op {
                        self.max_arity = self.max_arity.max(*arity);
                    }
                }
            }
            self.max_arity = self.max_arity.max(t.index_progs.len());
        }
        let (fused, reduce) = match &exec {
            StoreExec::Typed(_) if self.depth > 0 => {
                let lane_var = self
                    .var_depths
                    .iter()
                    .find(|(_, d)| **d == lane_depth)
                    .map(|(v, _)| v.clone());
                match lane_var {
                    Some(lane_var) => {
                        let builder = FusedBuilder {
                            var_depths: &self.var_depths,
                            var_bounds: &self.var_bounds,
                            slot_ids: &self.slot_ids,
                            decls: &self.decls,
                            params: self.params,
                            lane_var: &lane_var,
                            out_slot: slot,
                        };
                        if clamp {
                            (None, builder.build_reduce(indices, value))
                        } else {
                            // A store that reads its own buffer never fuses
                            // (chunked evaluation would observe its writes).
                            let self_alias = value_reads_buffer(value, buffer);
                            (builder.build(indices, value, self_alias), None)
                        }
                    }
                    None => (None, None),
                }
            }
            _ => (None, None),
        };
        let merge = if clamp {
            self.build_merge(slot, buffer, indices, value, &exec)
        } else {
            None
        };
        if self.stores.len() <= id {
            self.stores.resize_with(id + 1, || None);
        }
        self.stores[id] = Some(CompiledStore {
            exec,
            lane_depth,
            fused,
            clamp,
            reduce,
            merge,
        });
        Ok(())
    }

    /// Attempt the deferred-accumulation plan for a guarded store: peel the
    /// integer cast chain, split off the exact self-read, compile `g`, and
    /// record the slots the store reads (see [`MergeAcc`] for the
    /// admissibility conditions and the exactness argument). Best-effort —
    /// any failure keeps `merge = None` and the nest runs serially.
    fn build_merge(
        &mut self,
        slot: usize,
        buffer: &str,
        indices: &[Expr],
        value: &Expr,
        exec: &StoreExec,
    ) -> Option<MergeAcc> {
        let StoreExec::Typed(t) = exec else {
            return None;
        };
        let out_ty = self.decls[slot].ty;
        if matches!(out_ty, ScalarType::Float32 | ScalarType::Float64) {
            return None;
        }
        // Peel the cast chain: every cast must be integer and at least as
        // wide as the output element, so the chain is the identity on the
        // stored bytes and the merge needs no cast replay.
        let mut inner = value;
        while let Expr::Cast(ty, e) = inner {
            if matches!(ty, ScalarType::Float32 | ScalarType::Float64)
                || ty.bytes() < out_ty.bytes()
            {
                return None;
            }
            inner = e;
        }
        let Expr::Binary(BinOp::Add, a, b) = inner else {
            return None;
        };
        let is_self_read = |e: &Expr| {
            matches!(e, Expr::FuncRef(name, args)
                if name == buffer && args.as_slice() == indices)
        };
        let g = match (is_self_read(a), is_self_read(b)) {
            (true, false) => b.as_ref(),
            (false, true) => a.as_ref(),
            _ => return None,
        };
        if value_reads_buffer(g, buffer) || indices.iter().any(|i| value_reads_buffer(i, buffer)) {
            return None;
        }
        let compiler = Compiler {
            var_depths: &self.var_depths,
            slot_ids: &self.slot_ids,
            decls: &self.decls,
            params: self.params,
        };
        let g_prog = match compiler.compile_program(g, false) {
            Ok(p) if !p.float_result => p,
            _ => return None,
        };
        let mut read_slots: Vec<usize> = Vec::new();
        for p in t.index_progs.iter().chain(std::iter::once(&g_prog)) {
            for op in &p.ops {
                if let TOp::Load { slot, .. } = op {
                    if !read_slots.contains(slot) {
                        read_slots.push(*slot);
                    }
                }
            }
        }
        self.max_stack = self.max_stack.max(g_prog.max_stack);
        Some(MergeAcc { g_prog, read_slots })
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Per-thread scratch: lane register files, load offset buffers, and
/// reusable backing storage for `Allocate` nodes (an attach loop re-enters
/// its allocation once per iteration; reusing the heap buffer keeps the
/// allocator off the hot path).
struct Scratch {
    ints: Vec<i64>,
    floats: Vec<f64>,
    idx: Vec<i64>,
    offs: Vec<usize>,
    /// Per-row tap base offsets of the active fused kernel.
    tap_bases: Vec<i64>,
    allocs: BTreeMap<usize, Vec<u8>>,
    /// Last sliding-dimension region minimum seen per window allocation slot
    /// (keyed like `allocs`), consumed by [`Stmt::SlideWindow`] to decide how
    /// many rows of the previous iteration's content survive. Thread-local
    /// like the backing storage, so parallel attach loops simply start cold
    /// per worker chunk.
    windows: BTreeMap<usize, i64>,
}

impl Scratch {
    fn new(prepared: &Prepared) -> Scratch {
        let regs = prepared.max_stack.max(1) * MAX_LANES;
        Scratch {
            ints: vec![0; regs],
            floats: vec![0.0; regs],
            idx: vec![0; prepared.max_arity.max(1) * MAX_LANES],
            offs: vec![0; MAX_LANES],
            tap_bases: Vec::new(),
            allocs: BTreeMap::new(),
            windows: BTreeMap::new(),
        }
    }
}

struct Runner<'a> {
    prepared: &'a Prepared,
    params: &'a BTreeMap<String, Value>,
    /// The execution tier of the resolved [`Target`].
    tier: Tier,
    /// The target ISA resolved once per run via [`Target::effective_isa`]:
    /// [`Isa::Avx2`] only when the target carries the feature *and* the
    /// running CPU reports it, which is what makes the `arch` dispatch sound.
    /// Each kernel narrows it through [`kernel_isa`].
    isa: Isa,
}

/// Derive the in-range interior `[lo, hi]` (inclusive) of one innermost-loop
/// entry over `[min, end)`: the sub-range of the loop variable where every
/// tap access is provably within its buffer, filling `tap_bases` with each
/// tap's per-row base offset. Shared by the fused-kernel and fused-reduction
/// runners — the pre/post peels cover `[min, lo)` and `(hi, end)` with the
/// clamped per-op tier. `lo > hi` means no interior exists (e.g. a
/// lane-invariant index out of range, which the reference semantics clamp).
fn tap_interior(
    taps: &[TapAccess],
    binds: &BindTable,
    vars: &[i64],
    min: i64,
    end: i64,
    tap_bases: &mut Vec<i64>,
) -> (i64, i64) {
    let mut lo = min;
    let mut hi = end - 1;
    tap_bases.clear();
    for tap in taps {
        let bind = binds.0[tap.slot].as_ref().expect("tap source bound");
        let mut base = 0i64;
        for (d, aff) in tap.dims.iter().enumerate() {
            let b = aff.eval(vars);
            let ext = bind.extents[d] as i64;
            if d == 0 && tap.lane == TapLane::Contiguous {
                // 0 <= b + x <= ext - 1, and dimension 0 has stride 1.
                lo = lo.max(b.saturating_neg());
                hi = hi.min((ext - 1).saturating_sub(b));
                base = base.wrapping_add(b);
            } else {
                if b < 0 || b >= ext {
                    // A lane-invariant index out of range: the reference
                    // semantics clamp it, so no interior exists.
                    hi = lo - 1;
                }
                base = base.wrapping_add(b.wrapping_mul(bind.strides[d] as i64));
            }
        }
        tap_bases.push(base);
    }
    (lo, hi)
}

/// Evaluate a loop-bound expression to a scalar with the current environment.
fn eval_scalar(e: &Expr, env: &[(String, i64)]) -> Result<i64, RealizeError> {
    Ok(match e {
        Expr::Var(n) | Expr::RVar(n) => env
            .iter()
            .rev()
            .find(|(name, _)| name == n)
            .map(|(_, v)| *v)
            .ok_or_else(|| RealizeError::MissingParam(n.clone()))?,
        Expr::ConstInt(v, _) => *v,
        Expr::ConstFloat(v, _) => *v as i64,
        Expr::Binary(op, a, b) => eval_binop(
            *op,
            Value::Int(eval_scalar(a, env)?),
            Value::Int(eval_scalar(b, env)?),
        )
        .as_i64(),
        Expr::Cmp(op, a, b) => eval_cmp(
            *op,
            Value::Int(eval_scalar(a, env)?),
            Value::Int(eval_scalar(b, env)?),
        )
        .as_i64(),
        Expr::Select(c, t, f) => {
            if eval_scalar(c, env)? != 0 {
                eval_scalar(t, env)?
            } else {
                eval_scalar(f, env)?
            }
        }
        Expr::Cast(ty, inner) => Value::Int(eval_scalar(inner, env)?).cast(*ty).as_i64(),
        other => {
            return Err(RealizeError::MissingParam(format!(
                "unsupported loop bound expression: {other}"
            )))
        }
    })
}

impl Runner<'_> {
    fn run(
        &self,
        stmt: &Stmt,
        binds: &mut BindTable,
        env: &mut Vec<(String, i64)>,
        vars: &mut [i64],
        scratch: &mut Scratch,
        in_parallel: bool,
    ) -> Result<(), RealizeError> {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.run(s, binds, env, vars, scratch, in_parallel)?;
                }
                Ok(())
            }
            Stmt::Produce { body, .. } => self.run(body, binds, env, vars, scratch, in_parallel),
            Stmt::Allocate {
                name,
                ty,
                extents,
                body,
            } => {
                let slot = self.prepared.alloc_slots[name];
                let total: usize = extents.iter().product();
                let needed = total * ty.bytes();
                // Reuse this thread's backing buffer across iterations of the
                // attach loop. Skipping the re-zero is sound because the
                // produce nest lowered into `body` stores every element of
                // the region before anything reads it.
                let data = scratch.allocs.entry(slot).or_default();
                if data.len() != needed {
                    data.clear();
                    data.resize(needed, 0);
                }
                let mut strides = Vec::with_capacity(extents.len());
                let mut stride = 1usize;
                for &e in extents {
                    strides.push(stride);
                    stride *= e;
                }
                binds.0[slot] = Some(SlotBind {
                    ptr: data.as_mut_ptr(),
                    byte_len: needed,
                    extents: extents.clone(),
                    strides,
                });
                let result = self.run(body, binds, env, vars, scratch, in_parallel);
                binds.0[slot] = None;
                result
            }
            Stmt::SlideWindow {
                name,
                dim,
                extent,
                min,
                warm_var,
                body,
            } => {
                let slot = self.prepared.alloc_slots[name];
                let cur = eval_scalar(min, env)?;
                let ext = *extent as i64;
                // Warm rows: how much of the previous iteration's window
                // content is still in range after the region minimum advanced
                // from `prev` to `cur`. Content is a pure function of the
                // minimum (region inference proved every other dimension
                // stationary), so local row `p` must hold producer row
                // `p + cur`; the old buffer holds `p + prev` at row `p`, i.e.
                // the surviving rows sit `shift = cur - prev` higher — shift
                // them down in place and recompute only `[warm, extent)`.
                let warm = match scratch.windows.get(&slot) {
                    Some(&prev) if cur >= prev && cur - prev < ext => {
                        let shift = (cur - prev) as usize;
                        let warm = *extent - shift;
                        if shift > 0 {
                            let bind = binds.0[slot].as_ref().expect("window allocation bound");
                            debug_assert_eq!(bind.extents[*dim], *extent);
                            let total: usize = bind.extents.iter().product();
                            let elem = bind.byte_len / total.max(1);
                            let row = bind.strides[*dim] * elem;
                            // memmove within this thread's scratch backing:
                            // dst < src, ranges may overlap.
                            unsafe {
                                std::ptr::copy(bind.ptr.add(shift * row), bind.ptr, warm * row);
                            }
                        }
                        WINDOW_ROWS_REUSED.fetch_add(warm as u64, Ordering::Relaxed);
                        warm as i64
                    }
                    // Cold (first iteration, or the minimum moved backwards /
                    // jumped past the window): recompute every row.
                    _ => 0,
                };
                scratch.windows.insert(slot, cur);
                let depth = env.len();
                env.push((warm_var.clone(), warm));
                vars[depth] = warm;
                let result = self.run(body, binds, env, vars, scratch, in_parallel);
                env.pop();
                result
            }
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let min = eval_scalar(min, env)?;
                let extent = eval_scalar(extent, env)?.max(0);
                let depth = env.len();
                // The full scheduled width: each store visit dispatches this
                // many lanes, and `exec_store` batches them `MAX_LANES` at a
                // time — `vectorize(32)` really runs 32 lanes per dispatch.
                let batch = match kind {
                    LoopKind::Vectorized { width } => (*width).max(1),
                    _ => 1,
                };
                match kind {
                    LoopKind::Parallel { threads } if !in_parallel && extent > 1 => {
                        let avail = if *threads > 0 {
                            *threads
                        } else {
                            std::thread::available_parallelism()
                                .map(|n| n.get())
                                .unwrap_or(1)
                        };
                        let workers = avail.min(extent as usize);
                        if workers <= 1 {
                            return self.run_serial_loop(
                                var,
                                min,
                                extent,
                                batch,
                                body,
                                binds,
                                env,
                                vars,
                                scratch,
                                in_parallel,
                            );
                        }
                        let chunk = (extent as usize).div_ceil(workers);
                        let errors = std::sync::Mutex::new(Vec::new());
                        std::thread::scope(|scope| {
                            for w in 0..workers {
                                let start = min + (w * chunk) as i64;
                                let end = (min + extent).min(start + chunk as i64);
                                if start >= end {
                                    continue;
                                }
                                let mut binds = binds.clone();
                                let mut env = env.clone();
                                let mut vars = vars.to_vec();
                                let errors = &errors;
                                let body = &**body;
                                let var = var.as_str();
                                scope.spawn(move || {
                                    let mut scratch = Scratch::new(self.prepared);
                                    env.push((var.to_string(), 0));
                                    for i in start..end {
                                        env[depth].1 = i;
                                        vars[depth] = i;
                                        if let Err(e) = self.run(
                                            body,
                                            &mut binds,
                                            &mut env,
                                            &mut vars,
                                            &mut scratch,
                                            true,
                                        ) {
                                            errors.lock().expect("error mutex").push(e);
                                            return;
                                        }
                                    }
                                });
                            }
                        });
                        let mut errs = errors.into_inner().expect("error mutex");
                        match errs.pop() {
                            Some(e) => Err(e),
                            None => Ok(()),
                        }
                    }
                    LoopKind::ParallelReduce { threads }
                        if !in_parallel && extent > 1 && self.tier != Tier::Scalar =>
                    {
                        self.run_parallel_reduce(
                            var, min, extent, *threads, body, binds, env, vars, scratch,
                        )
                    }
                    _ => self.run_serial_loop(
                        var,
                        min,
                        extent,
                        batch,
                        body,
                        binds,
                        env,
                        vars,
                        scratch,
                        in_parallel,
                    ),
                }
            }
            Stmt::Store { id, .. } | Stmt::ReduceStore { id, .. } => {
                // A store not directly owned by a loop (e.g. beside an
                // Allocate in a Block, or an update over an empty reduction
                // domain): execute a single element at the current
                // environment.
                self.exec_store(*id, 1, binds, vars, scratch)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_serial_loop(
        &self,
        var: &str,
        min: i64,
        extent: i64,
        batch: usize,
        body: &Stmt,
        binds: &mut BindTable,
        env: &mut Vec<(String, i64)>,
        vars: &mut [i64],
        scratch: &mut Scratch,
        in_parallel: bool,
    ) -> Result<(), RealizeError> {
        let depth = env.len();
        env.push((var.to_string(), 0));
        let result = (|| {
            if let Stmt::Store { id, .. } | Stmt::ReduceStore { id, .. } = body {
                // Innermost loop over a single store: tier selection.
                let store = self.prepared.stores[*id].as_ref().expect("store compiled");
                let use_fused = match self.tier {
                    Tier::Scalar => false,
                    Tier::Auto => batch > 1,
                    Tier::Simd => true,
                };
                if use_fused {
                    if let Some(fused) = &store.fused {
                        debug_assert_eq!(store.lane_depth, depth, "lane depth mismatch");
                        let width = if batch > 1 { batch } else { MAX_LANES };
                        return self.run_fused_loop(
                            fused, *id, depth, min, extent, width, binds, vars, scratch,
                        );
                    }
                }
                // Fused accumulation kernels have no scheduled lane loop to
                // gate on (rdom loops are serial by construction), so Auto
                // uses them whenever one compiled; only the Scalar tier pins
                // the per-op tier.
                if self.tier != Tier::Scalar {
                    if let Some(reduce) = &store.reduce {
                        debug_assert_eq!(store.lane_depth, depth, "lane depth mismatch");
                        return self.run_reduce_loop(
                            reduce, *id, depth, min, extent, binds, vars, scratch,
                        );
                    }
                }
                // Per-op tier: run in lane batches of the scheduled width.
                // Guarded stores only ever see batch > 1 when the lowering
                // pass vectorized their lane loop (privatized accumulation:
                // per-lane writes are provably disjoint).
                let mut i = min;
                let end = min + extent;
                while i < end {
                    let n = batch.min((end - i) as usize);
                    env[depth].1 = i;
                    vars[depth] = i;
                    self.exec_store(*id, n, binds, vars, scratch)?;
                    i += n as i64;
                }
                Ok(())
            } else {
                for i in min..min + extent {
                    env[depth].1 = i;
                    vars[depth] = i;
                    self.run(body, binds, env, vars, scratch, in_parallel)?;
                }
                Ok(())
            }
        })();
        env.pop();
        result
    }

    /// Execute one full innermost loop of a fused store: derive the in-range
    /// interior from the tap bases and buffer extents, run the fused kernel
    /// over full-width chunks there (finishing with an overlapping or masked
    /// tail chunk, so sub-width remainders stay on tier 1), and peel the
    /// clamped borders through the per-op tier.
    #[allow(clippy::too_many_arguments)]
    fn run_fused_loop(
        &self,
        fused: &FusedKernel,
        store_id: usize,
        lane_depth: usize,
        min: i64,
        extent: i64,
        width: usize,
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let end = min + extent;
        if extent <= 0 {
            return Ok(());
        }
        let (lo, hi) = tap_interior(&fused.taps, binds, vars, min, end, &mut scratch.tap_bases);
        if lo > hi {
            return self.general_range(
                store_id, lane_depth, min, end, MAX_LANES, binds, vars, scratch,
            );
        }
        // Output base offset (store indices are in range by construction).
        let out_bind = binds.0[fused.out_slot]
            .as_ref()
            .expect("store target bound");
        let mut out_base = 0i64;
        for (d, aff) in fused.out_dims.iter().enumerate() {
            out_base =
                out_base.wrapping_add(aff.eval(vars).wrapping_mul(out_bind.strides[d] as i64));
        }

        let w = fused.chunk_width(width);
        let isa = kernel_isa(fused.family(), fused.taps.len(), self.isa);
        // Pre-peel (clamped border), full-width interior chunks, the fused
        // tail chunk, then the post-peel.
        self.general_range(
            store_id, lane_depth, min, lo, MAX_LANES, binds, vars, scratch,
        )?;
        let mut x = lo;
        while x + w as i64 <= hi + 1 {
            dispatch_fused_chunk(
                fused,
                x,
                w,
                w,
                &scratch.tap_bases,
                out_base,
                lane_depth,
                binds,
                vars,
                isa,
            );
            x += w as i64;
        }
        let rem = (hi + 1 - x) as usize;
        if rem > 0 {
            if x > lo {
                // Overlapping final chunk: step back so the chunk ends at the
                // interior's edge, re-storing lanes the previous chunk wrote.
                // Sound because the kernel is deterministic and reads nothing
                // the store writes — self-aliasing stores never fuse (the
                // `value_reads_buffer` / tap-slot checks at build time) — so
                // the re-stored lanes are bit-identical.
                dispatch_fused_chunk(
                    fused,
                    hi + 1 - w as i64,
                    w,
                    w,
                    &scratch.tap_bases,
                    out_base,
                    lane_depth,
                    binds,
                    vars,
                    isa,
                );
            } else {
                // Masked final chunk: load and store only the `rem` provably
                // in-range lanes (the rest are zero-filled and discarded).
                // This is what keeps interiors shorter than one chunk — small
                // tiles — on tier 1.
                dispatch_fused_chunk(
                    fused,
                    x,
                    w,
                    rem,
                    &scratch.tap_bases,
                    out_base,
                    lane_depth,
                    binds,
                    vars,
                    isa,
                );
            }
            x = hi + 1;
            FUSED_TAILS.fetch_add(1, Ordering::Relaxed);
        }
        self.general_range(
            store_id, lane_depth, x, end, MAX_LANES, binds, vars, scratch,
        )?;
        if x > lo {
            FUSED_ROWS.fetch_add(1, Ordering::Relaxed);
            if isa == Isa::Avx2 {
                ARCH_ROWS.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Run `[from, to)` of an innermost store loop through the per-op tier
    /// (the peel path of fused stores), in batches of at most `batch` lanes.
    /// Reduction peels pass `batch = 1`: a guarded store may read-modify-write
    /// one cell across consecutive iterations, which lane batching would
    /// reorder.
    #[allow(clippy::too_many_arguments)]
    fn general_range(
        &self,
        store_id: usize,
        lane_depth: usize,
        from: i64,
        to: i64,
        batch: usize,
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let mut i = from;
        while i < to {
            let n = batch.max(1).min((to - i) as usize);
            vars[lane_depth] = i;
            self.exec_store(store_id, n, binds, vars, scratch)?;
            i += n as i64;
        }
        Ok(())
    }

    /// Execute one full innermost loop of a guarded store through its fused
    /// accumulation kernel: derive the in-range interior of `g`'s taps, read
    /// the accumulator once, fold tree-reduced chunks of `g` lanes into it,
    /// replay the update's cast chain, store once — and run everything the
    /// interior does not cover per element through the per-op tier (exact
    /// under any split because every step commutes mod the chain's width;
    /// see [`ReduceKernel`]).
    #[allow(clippy::too_many_arguments)]
    fn run_reduce_loop(
        &self,
        rk: &ReduceKernel,
        store_id: usize,
        lane_depth: usize,
        min: i64,
        extent: i64,
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let end = min + extent;
        if extent <= 0 {
            return Ok(());
        }
        let (lo, hi) = tap_interior(&rk.taps, binds, vars, min, end, &mut scratch.tap_bases);
        let w = rk.chunk_width();
        if lo > hi || hi + 1 - lo < w as i64 {
            // No interior worth a chunk: the whole loop runs per element.
            return self.general_range(store_id, lane_depth, min, end, 1, binds, vars, scratch);
        }
        // The accumulator cell, clamped per dimension like `Buffer::set`.
        let out_bind = binds.0[rk.out_slot].as_ref().expect("store target bound");
        let mut out_off = 0usize;
        for (d, aff) in rk.out_dims.iter().enumerate() {
            let i = aff.eval(vars).clamp(0, out_bind.extents[d] as i64 - 1) as usize;
            out_off += i * out_bind.strides[d];
        }
        // Pre-peel, then accumulate the interior on lanes.
        self.general_range(store_id, lane_depth, min, lo, 1, binds, vars, scratch)?;
        let eb = rk.out_ty.bytes();
        let byte_off = out_off * eb;
        let mut acc =
            crate::buffer::read_scalar(rk.out_ty, &out_bind.data()[byte_off..byte_off + eb])
                .as_i64();
        let isa = kernel_isa(rk.family(), rk.taps.len(), self.isa);
        let mut x = lo;
        while x <= hi {
            let n = (w as i64).min(hi + 1 - x) as usize;
            acc = acc.wrapping_add(dispatch_reduce_chunk(
                rk,
                x,
                n,
                &scratch.tap_bases,
                lane_depth,
                binds,
                vars,
                isa,
            ));
            x += n as i64;
            REDUCE_CHUNKS.fetch_add(1, Ordering::Relaxed);
        }
        if isa == Isa::Avx2 {
            ARCH_ROWS.fetch_add(1, Ordering::Relaxed);
        }
        // Replay the update's cast chain (innermost first) and store through
        // the buffer type, exactly as the per-element path would.
        let mut val = Value::Int(acc);
        for ty in rk.casts.iter().rev() {
            val = val.cast(*ty);
        }
        let mut tmp = [0u8; 8];
        crate::buffer::write_scalar(rk.out_ty, val, &mut tmp[..eb]);
        out_bind.write(byte_off, &tmp[..eb]);
        // Post-peel continues from the updated accumulator.
        self.general_range(store_id, lane_depth, hi + 1, end, 1, binds, vars, scratch)
    }

    /// Whether every statement under a [`LoopKind::ParallelReduce`] loop is
    /// admissible for deferred accumulation, collecting the merged store ids:
    /// only blocks, serial/vectorized loops, and guarded stores that compiled
    /// a [`MergeAcc`] plan. Anything else — nested parallel loops, scoped
    /// allocations, pure stores, fallback stores — degrades the nest to the
    /// serial reference path.
    fn collect_merge_stores(&self, stmt: &Stmt, ids: &mut Vec<usize>) -> bool {
        match stmt {
            Stmt::Block(stmts) => stmts.iter().all(|s| self.collect_merge_stores(s, ids)),
            Stmt::For { kind, body, .. } => {
                matches!(kind, LoopKind::Serial | LoopKind::Vectorized { .. })
                    && self.collect_merge_stores(body, ids)
            }
            Stmt::ReduceStore { id, .. } => {
                let store = self.prepared.stores[*id].as_ref().expect("store compiled");
                if store.clamp && store.merge.is_some() {
                    ids.push(*id);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Execute a [`LoopKind::ParallelReduce`] loop by privatize-then-merge
    /// deferred accumulation (see [`MergeAcc`] for the exactness argument):
    /// split the reduction domain across workers, each accumulating raw
    /// `i64` sums of `g` into private per-buffer side arrays, then merge
    /// them into the outputs with one wrapping add and one truncating store
    /// per touched cell.
    ///
    /// Even a single worker takes the deferred path: per element it skips
    /// the accumulator self-read, the second evaluation of the LHS indices
    /// inside the value program, and the per-step cast replay — and batches
    /// the index and `g` programs [`MAX_LANES`] lanes at a time, where the
    /// serial guarded path is pinned to one lane per dispatch.
    ///
    /// Degrades to [`Runner::run_serial_loop`] (bit-identical by the
    /// exactness argument, and the reference order when it matters) whenever
    /// the body is not admissible, a merged store reads a merged output, or
    /// the private buffers would exceed [`MERGE_MAX_CELLS`].
    #[allow(clippy::too_many_arguments)]
    fn run_parallel_reduce(
        &self,
        var: &str,
        min: i64,
        extent: i64,
        threads: usize,
        body: &Stmt,
        binds: &mut BindTable,
        env: &mut Vec<(String, i64)>,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let mut ids = Vec::new();
        let admissible = self.collect_merge_stores(body, &mut ids) && !ids.is_empty();
        let store_slot = |id: usize| match &self.prepared.stores[id]
            .as_ref()
            .expect("store compiled")
            .exec
        {
            StoreExec::Typed(t) => t.slot,
            StoreExec::Fallback(_) => unreachable!("merge stores are typed"),
        };
        // Merged output slots, deduped (stores sharing a buffer share its
        // side array, preserving their relative accumulation).
        let mut slots: Vec<usize> = Vec::new();
        if admissible {
            for &id in &ids {
                let slot = store_slot(id);
                if !slots.contains(&slot) {
                    slots.push(slot);
                }
            }
        }
        // A merged store whose indices or `g` read a merged output would
        // observe privatized (deferred) writes out of order — run serially.
        let coherent = admissible
            && ids.iter().all(|&id| {
                let store = self.prepared.stores[id].as_ref().expect("store compiled");
                let merge = store.merge.as_ref().expect("admissible store has a plan");
                !merge.read_slots.iter().any(|r| slots.contains(r))
            });
        let cells: Vec<usize> = slots
            .iter()
            .map(|&slot| {
                let bind = binds.0[slot].as_ref().expect("store target bound");
                bind.byte_len / self.prepared.decls[slot].ty.bytes()
            })
            .collect();
        let avail = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let workers = avail.min(extent as usize).max(1);
        let total_cells: usize = cells.iter().sum();
        if !coherent || workers.saturating_mul(total_cells) > MERGE_MAX_CELLS {
            return self
                .run_serial_loop(var, min, extent, 1, body, binds, env, vars, scratch, false);
        }
        let mut worker_bufs: Vec<Vec<Vec<i64>>> = (0..workers)
            .map(|_| cells.iter().map(|&c| vec![0i64; c]).collect())
            .collect();
        if workers == 1 {
            self.accumulate_outer(
                var,
                min,
                min + extent,
                body,
                &slots,
                &mut worker_bufs[0],
                binds,
                env,
                vars,
                scratch,
            )?;
        } else {
            let chunk = (extent as usize).div_ceil(workers);
            let errors = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for (w, bufs) in worker_bufs.iter_mut().enumerate() {
                    let start = min + (w * chunk) as i64;
                    let end = (min + extent).min(start + chunk as i64);
                    if start >= end {
                        continue;
                    }
                    let binds = binds.clone();
                    let mut env = env.clone();
                    let mut vars = vars.to_vec();
                    let errors = &errors;
                    let slots = &slots;
                    scope.spawn(move || {
                        let mut scratch = Scratch::new(self.prepared);
                        if let Err(e) = self.accumulate_outer(
                            var,
                            start,
                            end,
                            body,
                            slots,
                            bufs,
                            &binds,
                            &mut env,
                            &mut vars,
                            &mut scratch,
                        ) {
                            errors.lock().expect("error mutex").push(e);
                        }
                    });
                }
            });
            let mut errs = errors.into_inner().expect("error mutex");
            if let Some(e) = errs.pop() {
                // Nothing was merged: the outputs are untouched.
                return Err(e);
            }
        }
        // Merge: per buffer, fold the workers' sums cell-wise and apply each
        // nonzero total with one wrapping add and one truncating store — a
        // zero total (untouched, or touched summing to zero) round-trips the
        // stored bytes unchanged, so skipping it is exact.
        for (bi, &slot) in slots.iter().enumerate() {
            let bind = binds.0[slot].as_ref().expect("store target bound");
            let ty = self.prepared.decls[slot].ty;
            let eb = ty.bytes();
            let mut tmp = [0u8; 8];
            for off in 0..cells[bi] {
                let mut total = 0i64;
                for bufs in &worker_bufs {
                    total = total.wrapping_add(bufs[bi][off]);
                }
                if total == 0 {
                    continue;
                }
                let byte = off * eb;
                let raw = crate::buffer::read_scalar(ty, &bind.data()[byte..byte + eb]).as_i64();
                crate::buffer::write_scalar(
                    ty,
                    Value::Int(raw.wrapping_add(total)),
                    &mut tmp[..eb],
                );
                bind.write(byte, &tmp[..eb]);
            }
            PARALLEL_REDUCE_MERGES.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// One worker's slice `[start, end)` of a parallel-reduce loop: push the
    /// loop variable and accumulate the body per iteration — or, when the
    /// tagged loop is itself the innermost store loop (a 1-D reduction
    /// domain), hand the whole slice to the lane-batched store path.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_outer(
        &self,
        var: &str,
        start: i64,
        end: i64,
        body: &Stmt,
        slots: &[usize],
        side: &mut [Vec<i64>],
        binds: &BindTable,
        env: &mut Vec<(String, i64)>,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let depth = env.len();
        env.push((var.to_string(), start));
        let result = (|| {
            if let Stmt::ReduceStore { id, .. } = body {
                vars[depth] = start;
                return self.accumulate_store_loop(
                    *id,
                    depth,
                    start,
                    end - start,
                    slots,
                    side,
                    binds,
                    vars,
                    scratch,
                );
            }
            for i in start..end {
                env[depth].1 = i;
                vars[depth] = i;
                self.accumulate(body, slots, side, binds, env, vars, scratch)?;
            }
            Ok(())
        })();
        env.pop();
        result
    }

    /// The deferred-accumulation walker over an admissible parallel-reduce
    /// body (mirrors [`Runner::run`]'s serial structure for the statement
    /// kinds the admissibility walk admits).
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &self,
        stmt: &Stmt,
        slots: &[usize],
        side: &mut [Vec<i64>],
        binds: &BindTable,
        env: &mut Vec<(String, i64)>,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        match stmt {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.accumulate(s, slots, side, binds, env, vars, scratch)?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                min,
                extent,
                body,
                ..
            } => {
                let min = eval_scalar(min, env)?;
                let extent = eval_scalar(extent, env)?.max(0);
                self.accumulate_outer(
                    var,
                    min,
                    min + extent,
                    body,
                    slots,
                    side,
                    binds,
                    env,
                    vars,
                    scratch,
                )
            }
            Stmt::ReduceStore { id, .. } => {
                // A bare store at the current environment: one element.
                let lane_depth = self.prepared.stores[*id]
                    .as_ref()
                    .expect("store compiled")
                    .lane_depth;
                let at = vars[lane_depth];
                self.accumulate_store_loop(
                    *id, lane_depth, at, 1, slots, side, binds, vars, scratch,
                )
            }
            _ => unreachable!("admissibility walk rejected this statement"),
        }
    }

    /// Accumulate one innermost store loop `[min, min+extent)` into the
    /// store's side buffer. Loop-invariant accumulators keep riding the
    /// existing fused tree-reduce chunks ([`ReduceKernel`]) — the partial
    /// sums land in the side-buffer cell instead of the output — so that
    /// family loses nothing to deferral; everything else (and the chunk
    /// peels) runs the lane-batched element path.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_store_loop(
        &self,
        id: usize,
        lane_depth: usize,
        min: i64,
        extent: i64,
        slots: &[usize],
        side: &mut [Vec<i64>],
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        if extent <= 0 {
            return Ok(());
        }
        let store = self.prepared.stores[id].as_ref().expect("store compiled");
        let StoreExec::Typed(t) = &store.exec else {
            unreachable!("merge stores are typed");
        };
        let merge = store.merge.as_ref().expect("admissible store has a plan");
        let buf_idx = slots
            .iter()
            .position(|&s| s == t.slot)
            .expect("merged slot");
        let end = min + extent;
        debug_assert_eq!(store.lane_depth, lane_depth, "lane depth mismatch");
        if let Some(rk) = &store.reduce {
            let (lo, hi) = tap_interior(&rk.taps, binds, vars, min, end, &mut scratch.tap_bases);
            let w = rk.chunk_width();
            if lo <= hi && hi + 1 - lo >= w as i64 {
                let out_bind = binds.0[t.slot].as_ref().expect("store target bound");
                let mut out_off = 0usize;
                for (d, aff) in rk.out_dims.iter().enumerate() {
                    let i = aff.eval(vars).clamp(0, out_bind.extents[d] as i64 - 1) as usize;
                    out_off += i * out_bind.strides[d];
                }
                self.accumulate_elements(
                    t, merge, lane_depth, min, lo, buf_idx, side, binds, vars, scratch,
                );
                let isa = kernel_isa(rk.family(), rk.taps.len(), self.isa);
                let mut acc = 0i64;
                let mut x = lo;
                while x <= hi {
                    let n = (w as i64).min(hi + 1 - x) as usize;
                    acc = acc.wrapping_add(dispatch_reduce_chunk(
                        rk,
                        x,
                        n,
                        &scratch.tap_bases,
                        lane_depth,
                        binds,
                        vars,
                        isa,
                    ));
                    x += n as i64;
                    REDUCE_CHUNKS.fetch_add(1, Ordering::Relaxed);
                }
                if isa == Isa::Avx2 {
                    ARCH_ROWS.fetch_add(1, Ordering::Relaxed);
                }
                side[buf_idx][out_off] = side[buf_idx][out_off].wrapping_add(acc);
                self.accumulate_elements(
                    t,
                    merge,
                    lane_depth,
                    hi + 1,
                    end,
                    buf_idx,
                    side,
                    binds,
                    vars,
                    scratch,
                );
                return Ok(());
            }
        }
        self.accumulate_elements(
            t, merge, lane_depth, min, end, buf_idx, side, binds, vars, scratch,
        );
        Ok(())
    }

    /// The lane-batched deferred element path over `[from, to)`: evaluate
    /// the LHS index programs and `g` [`MAX_LANES`] lanes at a time, clamp
    /// each destination like `Buffer::set`, and add the raw `g` values into
    /// the side buffer. No interior/boundary split is needed — every load in
    /// the programs clamps exactly like the reference semantics.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_elements(
        &self,
        t: &TypedStore,
        merge: &MergeAcc,
        lane_depth: usize,
        from: i64,
        to: i64,
        buf_idx: usize,
        side: &mut [Vec<i64>],
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) {
        if from >= to {
            return;
        }
        let bind = binds.0[t.slot].as_ref().expect("store target bound");
        let arity = t.index_progs.len();
        let base = vars[lane_depth];
        let buf = &mut side[buf_idx];
        let mut i = from;
        while i < to {
            let n = MAX_LANES.min((to - i) as usize);
            vars[lane_depth] = i;
            for (d, prog) in t.index_progs.iter().enumerate() {
                run_program(prog, lane_depth, n, binds, vars, scratch);
                for l in 0..n {
                    scratch.idx[d * MAX_LANES + l] = scratch.ints[l];
                }
            }
            run_program(&merge.g_prog, lane_depth, n, binds, vars, scratch);
            for l in 0..n {
                let mut off = 0usize;
                for d in 0..arity {
                    let idx = scratch.idx[d * MAX_LANES + l].clamp(0, bind.extents[d] as i64 - 1);
                    off += (idx as usize) * bind.strides[d];
                }
                buf[off] = buf[off].wrapping_add(scratch.ints[l]);
            }
            i += n as i64;
        }
        vars[lane_depth] = base;
    }

    /// Dispatch `n` lanes of a store starting at the current lane variable.
    /// Widths beyond [`MAX_LANES`] are batched `MAX_LANES` at a time (the
    /// scratch register files are `MAX_LANES` wide), advancing the lane
    /// variable per batch — results are identical to any other batching.
    fn exec_store(
        &self,
        id: usize,
        n: usize,
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let store = self.prepared.stores[id].as_ref().expect("store compiled");
        let lane_depth = store.lane_depth;
        let base = vars[lane_depth];
        let mut done = 0usize;
        let result = (|| {
            while done < n {
                let m = MAX_LANES.min(n - done);
                vars[lane_depth] = base + done as i64;
                match &store.exec {
                    StoreExec::Typed(t) => {
                        self.exec_typed(t, store.clamp, lane_depth, m, binds, vars, scratch);
                    }
                    StoreExec::Fallback(f) => {
                        self.exec_fallback(f, lane_depth, m, binds, vars)?;
                    }
                }
                done += m;
            }
            Ok(())
        })();
        vars[lane_depth] = base;
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_typed(
        &self,
        t: &TypedStore,
        clamp: bool,
        lane_depth: usize,
        n: usize,
        binds: &BindTable,
        vars: &[i64],
        scratch: &mut Scratch,
    ) {
        // Evaluate the index programs, parking each result in scratch.idx.
        let arity = t.index_progs.len();
        for (d, prog) in t.index_progs.iter().enumerate() {
            run_program(prog, lane_depth, n, binds, vars, scratch);
            for l in 0..n {
                scratch.idx[d * MAX_LANES + l] = scratch.ints[l];
            }
        }
        run_program(&t.value_prog, lane_depth, n, binds, vars, scratch);

        let bind = binds.0[t.slot].as_ref().expect("store target bound");
        // Destination offsets. Pure stores are in-range by loop construction;
        // guarded (reduction) stores clamp per dimension like `Buffer::set` —
        // histogram LHS indices are data and may land anywhere.
        for l in 0..n {
            let mut off = 0usize;
            for d in 0..arity {
                let i = scratch.idx[d * MAX_LANES + l];
                let i = if clamp {
                    i.clamp(0, bind.extents[d] as i64 - 1)
                } else {
                    debug_assert!(
                        i >= 0 && (i as usize) < bind.extents[d],
                        "store index {i} out of range 0..{} (dim {d})",
                        bind.extents[d]
                    );
                    i
                };
                off += (i as usize) * bind.strides[d];
            }
            scratch.offs[l] = off;
        }
        let ty = self.prepared.decls[t.slot].ty;
        let offs = &scratch.offs;
        // Monomorphized store loops: cast exactly like `write_scalar`.
        if t.value_prog.float_result {
            let vals = &scratch.floats[..MAX_LANES];
            match ty {
                ScalarType::UInt8 => {
                    for l in 0..n {
                        bind.write(offs[l], &[(vals[l] as i64) as u8]);
                    }
                }
                ScalarType::UInt16 => {
                    for l in 0..n {
                        bind.write(offs[l] * 2, &((vals[l] as i64) as u16).to_le_bytes());
                    }
                }
                ScalarType::UInt32 => {
                    for l in 0..n {
                        bind.write(offs[l] * 4, &((vals[l] as i64) as u32).to_le_bytes());
                    }
                }
                ScalarType::UInt64 => {
                    for l in 0..n {
                        bind.write(offs[l] * 8, &((vals[l] as i64) as u64).to_le_bytes());
                    }
                }
                ScalarType::Int32 => {
                    for l in 0..n {
                        bind.write(offs[l] * 4, &((vals[l] as i64) as i32).to_le_bytes());
                    }
                }
                ScalarType::Float32 => {
                    for l in 0..n {
                        bind.write(offs[l] * 4, &(vals[l] as f32).to_le_bytes());
                    }
                }
                ScalarType::Float64 => {
                    for l in 0..n {
                        bind.write(offs[l] * 8, &vals[l].to_le_bytes());
                    }
                }
            }
        } else {
            let vals = &scratch.ints[..MAX_LANES];
            match ty {
                ScalarType::UInt8 => {
                    for l in 0..n {
                        bind.write(offs[l], &[vals[l] as u8]);
                    }
                }
                ScalarType::UInt16 => {
                    for l in 0..n {
                        bind.write(offs[l] * 2, &(vals[l] as u16).to_le_bytes());
                    }
                }
                ScalarType::UInt32 => {
                    for l in 0..n {
                        bind.write(offs[l] * 4, &(vals[l] as u32).to_le_bytes());
                    }
                }
                ScalarType::UInt64 => {
                    for l in 0..n {
                        bind.write(offs[l] * 8, &(vals[l] as u64).to_le_bytes());
                    }
                }
                ScalarType::Int32 => {
                    for l in 0..n {
                        bind.write(offs[l] * 4, &(vals[l] as i32).to_le_bytes());
                    }
                }
                ScalarType::Float32 => {
                    for l in 0..n {
                        bind.write(offs[l] * 4, &((vals[l] as f64) as f32).to_le_bytes());
                    }
                }
                ScalarType::Float64 => {
                    for l in 0..n {
                        bind.write(offs[l] * 8, &(vals[l] as f64).to_le_bytes());
                    }
                }
            }
        }
    }

    fn exec_fallback(
        &self,
        f: &FallbackStore,
        lane_depth: usize,
        n: usize,
        binds: &BindTable,
        vars: &[i64],
    ) -> Result<(), RealizeError> {
        let base = vars[lane_depth];
        let mut vars = vars.to_vec();
        for l in 0..n {
            vars[lane_depth] = base + l as i64;
            let src = FallbackSources {
                store: f,
                binds,
                prepared: self.prepared,
                params: self.params,
                vars: &vars,
            };
            let mut idx = Vec::with_capacity(f.indices.len());
            for e in &f.indices {
                idx.push(eval_expr(e, &src)?.as_i64());
            }
            let v = eval_expr(&f.value, &src)?;
            let bind = binds.0[f.slot].as_ref().expect("store target bound");
            let ty = self.prepared.decls[f.slot].ty;
            let mut off = 0usize;
            for (d, &i) in idx.iter().enumerate() {
                let i = i.clamp(0, bind.extents[d] as i64 - 1) as usize;
                off += i * bind.strides[d];
            }
            let bytes = ty.bytes();
            let mut tmp = [0u8; 8];
            crate::buffer::write_scalar(ty, v, &mut tmp[..bytes]);
            bind.write(off * bytes, &tmp[..bytes]);
        }
        Ok(())
    }
}

/// Sources of the fallback store path (stores whose types cannot be inferred
/// statically): variables resolve through the store's recorded loop depths,
/// loads go through the slot table with clamping — evaluation itself is the
/// shared [`crate::eval`] evaluator, so the fallback cannot drift from the
/// other backends.
struct FallbackSources<'a> {
    store: &'a FallbackStore,
    binds: &'a BindTable,
    prepared: &'a Prepared,
    params: &'a BTreeMap<String, Value>,
    vars: &'a [i64],
}

impl FallbackSources<'_> {
    fn load(&self, slot: usize, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        let bind = self.binds.0[slot]
            .as_ref()
            .ok_or_else(|| RealizeError::UndefinedFunc(name.to_string()))?;
        let mut off = 0usize;
        for (d, &i) in indices.iter().enumerate() {
            let i = i.clamp(0, bind.extents[d] as i64 - 1) as usize;
            off += i * bind.strides[d];
        }
        let ty = self.prepared.decls[slot].ty;
        let bytes = ty.bytes();
        Ok(crate::buffer::read_scalar(
            ty,
            &bind.data()[off * bytes..off * bytes + bytes],
        ))
    }
}

impl EvalSources for FallbackSources<'_> {
    fn var(&self, name: &str) -> Option<i64> {
        self.store.var_depths.get(name).map(|d| self.vars[*d])
    }
    fn param(&self, name: &str) -> Option<Value> {
        self.params.get(name).copied()
    }
    fn load_image(&self, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        let slot = self
            .store
            .slots
            .get(name)
            .copied()
            .ok_or_else(|| RealizeError::MissingInput(name.to_string()))?;
        self.load(slot, name, indices)
    }
    fn load_func(&self, name: &str, indices: &[i64]) -> Result<Value, RealizeError> {
        let slot = self
            .store
            .slots
            .get(name)
            .copied()
            .ok_or_else(|| RealizeError::UndefinedFunc(name.to_string()))?;
        self.load(slot, name, indices)
    }
}

/// Run one typed program over `n` lanes; the result lands in register 0 of
/// the matching scratch array.
fn run_program(
    prog: &Program,
    lane_depth: usize,
    n: usize,
    binds: &BindTable,
    vars: &[i64],
    scratch: &mut Scratch,
) {
    let mut sp = 0usize;
    let ints = &mut scratch.ints;
    let floats = &mut scratch.floats;
    let offs = &mut scratch.offs;
    for op in &prog.ops {
        match op {
            TOp::ConstI(v) => {
                for l in 0..n {
                    ints[sp * MAX_LANES + l] = *v;
                }
                sp += 1;
            }
            TOp::ConstF(v) => {
                for l in 0..n {
                    floats[sp * MAX_LANES + l] = *v;
                }
                sp += 1;
            }
            TOp::Var(depth) => {
                let base = vars[*depth];
                if *depth == lane_depth {
                    for l in 0..n {
                        ints[sp * MAX_LANES + l] = base + l as i64;
                    }
                } else {
                    for l in 0..n {
                        ints[sp * MAX_LANES + l] = base;
                    }
                }
                sp += 1;
            }
            TOp::I2F => {
                let s = (sp - 1) * MAX_LANES;
                for l in 0..n {
                    floats[s + l] = ints[s + l] as f64;
                }
            }
            TOp::F2I => {
                let s = (sp - 1) * MAX_LANES;
                for l in 0..n {
                    ints[s + l] = floats[s + l] as i64;
                }
            }
            TOp::BinII(op) => {
                let (a, b) = ((sp - 2) * MAX_LANES, (sp - 1) * MAX_LANES);
                match op {
                    BinOp::Add => {
                        for l in 0..n {
                            ints[a + l] = ints[a + l].wrapping_add(ints[b + l]);
                        }
                    }
                    BinOp::Sub => {
                        for l in 0..n {
                            ints[a + l] = ints[a + l].wrapping_sub(ints[b + l]);
                        }
                    }
                    BinOp::Mul => {
                        for l in 0..n {
                            ints[a + l] = ints[a + l].wrapping_mul(ints[b + l]);
                        }
                    }
                    BinOp::Div => {
                        for l in 0..n {
                            let y = ints[b + l];
                            ints[a + l] = if y == 0 { 0 } else { ints[a + l] / y };
                        }
                    }
                    BinOp::Mod => {
                        for l in 0..n {
                            let y = ints[b + l];
                            ints[a + l] = if y == 0 { 0 } else { ints[a + l] % y };
                        }
                    }
                    BinOp::Shr => {
                        for l in 0..n {
                            ints[a + l] =
                                ((ints[a + l] as u64) >> (ints[b + l] as u64 & 63)) as i64;
                        }
                    }
                    BinOp::Shl => {
                        for l in 0..n {
                            ints[a + l] = ints[a + l].wrapping_shl(ints[b + l] as u32);
                        }
                    }
                    BinOp::And => {
                        for l in 0..n {
                            ints[a + l] &= ints[b + l];
                        }
                    }
                    BinOp::Or => {
                        for l in 0..n {
                            ints[a + l] |= ints[b + l];
                        }
                    }
                    BinOp::Xor => {
                        for l in 0..n {
                            ints[a + l] ^= ints[b + l];
                        }
                    }
                    BinOp::Min => {
                        for l in 0..n {
                            ints[a + l] = ints[a + l].min(ints[b + l]);
                        }
                    }
                    BinOp::Max => {
                        for l in 0..n {
                            ints[a + l] = ints[a + l].max(ints[b + l]);
                        }
                    }
                }
                sp -= 1;
            }
            TOp::BinFF {
                op,
                promote_a,
                promote_b,
            } => {
                let (a, b) = ((sp - 2) * MAX_LANES, (sp - 1) * MAX_LANES);
                for l in 0..n {
                    let x = if *promote_a {
                        ints[a + l] as f64
                    } else {
                        floats[a + l]
                    };
                    let y = if *promote_b {
                        ints[b + l] as f64
                    } else {
                        floats[b + l]
                    };
                    floats[a + l] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Mod => x % y,
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                        _ => unreachable!("bitwise float ops use BinBitFF"),
                    };
                }
                sp -= 1;
            }
            TOp::BinBitFF {
                op,
                promote_a,
                promote_b,
            } => {
                let (a, b) = ((sp - 2) * MAX_LANES, (sp - 1) * MAX_LANES);
                for l in 0..n {
                    let x = if *promote_a {
                        ints[a + l] as f64
                    } else {
                        floats[a + l]
                    };
                    let y = if *promote_b {
                        ints[b + l] as f64
                    } else {
                        floats[b + l]
                    };
                    // Exact `eval_binop` float-branch semantics.
                    ints[a + l] = match op {
                        BinOp::Shr => (x as i64) >> (y as i64),
                        BinOp::Shl => (x as i64) << (y as i64),
                        BinOp::And => (x as i64) & (y as i64),
                        BinOp::Or => (x as i64) | (y as i64),
                        BinOp::Xor => (x as i64) ^ (y as i64),
                        _ => unreachable!("arithmetic float ops use BinFF"),
                    };
                }
                sp -= 1;
            }
            TOp::CmpII(op) => {
                let (a, b) = ((sp - 2) * MAX_LANES, (sp - 1) * MAX_LANES);
                for l in 0..n {
                    let (x, y) = (ints[a + l], ints[b + l]);
                    ints[a + l] = match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    } as i64;
                }
                sp -= 1;
            }
            TOp::CmpFF {
                op,
                promote_a,
                promote_b,
            } => {
                let (a, b) = ((sp - 2) * MAX_LANES, (sp - 1) * MAX_LANES);
                for l in 0..n {
                    let x = if *promote_a {
                        ints[a + l] as f64
                    } else {
                        floats[a + l]
                    };
                    let y = if *promote_b {
                        ints[b + l] as f64
                    } else {
                        floats[b + l]
                    };
                    ints[a + l] = match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    } as i64;
                }
                sp -= 1;
            }
            TOp::CastI(ty) => {
                let s = (sp - 1) * MAX_LANES;
                match ty {
                    ScalarType::UInt8 => {
                        for l in 0..n {
                            ints[s + l] = (ints[s + l] as u8) as i64;
                        }
                    }
                    ScalarType::UInt16 => {
                        for l in 0..n {
                            ints[s + l] = (ints[s + l] as u16) as i64;
                        }
                    }
                    ScalarType::UInt32 => {
                        for l in 0..n {
                            ints[s + l] = (ints[s + l] as u32) as i64;
                        }
                    }
                    ScalarType::UInt64 => {} // Value::cast keeps the i64 bits
                    ScalarType::Int32 => {
                        for l in 0..n {
                            ints[s + l] = (ints[s + l] as i32) as i64;
                        }
                    }
                    ScalarType::Float32 => {
                        for l in 0..n {
                            floats[s + l] = (ints[s + l] as f64) as f32 as f64;
                        }
                    }
                    ScalarType::Float64 => {
                        for l in 0..n {
                            floats[s + l] = ints[s + l] as f64;
                        }
                    }
                }
            }
            TOp::CastF(ty) => {
                let s = (sp - 1) * MAX_LANES;
                match ty {
                    ScalarType::UInt8 => {
                        for l in 0..n {
                            ints[s + l] = ((floats[s + l] as i64) as u8) as i64;
                        }
                    }
                    ScalarType::UInt16 => {
                        for l in 0..n {
                            ints[s + l] = ((floats[s + l] as i64) as u16) as i64;
                        }
                    }
                    ScalarType::UInt32 => {
                        for l in 0..n {
                            ints[s + l] = ((floats[s + l] as i64) as u32) as i64;
                        }
                    }
                    ScalarType::UInt64 => {
                        for l in 0..n {
                            ints[s + l] = floats[s + l] as i64;
                        }
                    }
                    ScalarType::Int32 => {
                        for l in 0..n {
                            ints[s + l] = ((floats[s + l] as i64) as i32) as i64;
                        }
                    }
                    ScalarType::Float32 => {
                        for l in 0..n {
                            floats[s + l] = (floats[s + l] as f32) as f64;
                        }
                    }
                    ScalarType::Float64 => {}
                }
            }
            TOp::Sel {
                cond_float,
                branches_float,
            } => {
                let (c, t, f) = (
                    (sp - 3) * MAX_LANES,
                    (sp - 2) * MAX_LANES,
                    (sp - 1) * MAX_LANES,
                );
                for l in 0..n {
                    let cond = if *cond_float {
                        floats[c + l] != 0.0
                    } else {
                        ints[c + l] != 0
                    };
                    if *branches_float {
                        floats[c + l] = if cond { floats[t + l] } else { floats[f + l] };
                    } else {
                        ints[c + l] = if cond { ints[t + l] } else { ints[f + l] };
                    }
                }
                sp -= 2;
            }
            TOp::Call(call, arity) => {
                let base = (sp - arity) * MAX_LANES;
                for l in 0..n {
                    let a0 = floats[base + l];
                    floats[base + l] = match call {
                        ExternCall::Sqrt => a0.sqrt(),
                        ExternCall::Floor => a0.floor(),
                        ExternCall::Ceil => a0.ceil(),
                        ExternCall::Abs => a0.abs(),
                        ExternCall::Exp => a0.exp(),
                        ExternCall::Log => a0.ln(),
                        ExternCall::Pow => a0.powf(floats[base + MAX_LANES + l]),
                    };
                }
                sp = sp - arity + 1;
            }
            TOp::Load { slot, arity, ty } => {
                let bind = binds.0[*slot].as_ref().expect("load source bound");
                let base = sp - arity;
                for l in 0..n {
                    let mut off = 0usize;
                    for d in 0..*arity {
                        let i = ints[(base + d) * MAX_LANES + l]
                            .clamp(0, bind.extents[d] as i64 - 1)
                            as usize;
                        off += i * bind.strides[d];
                    }
                    offs[l] = off;
                }
                let data = bind.data();
                let out = base * MAX_LANES;
                // Monomorphized load loops, mirroring `read_scalar`.
                match ty {
                    ScalarType::UInt8 => {
                        for l in 0..n {
                            ints[out + l] = data[offs[l]] as i64;
                        }
                    }
                    ScalarType::UInt16 => {
                        for l in 0..n {
                            let o = offs[l] * 2;
                            ints[out + l] = u16::from_le_bytes([data[o], data[o + 1]]) as i64;
                        }
                    }
                    ScalarType::UInt32 => {
                        for l in 0..n {
                            let o = offs[l] * 4;
                            ints[out + l] =
                                u32::from_le_bytes(data[o..o + 4].try_into().expect("4 bytes"))
                                    as i64;
                        }
                    }
                    ScalarType::UInt64 => {
                        for l in 0..n {
                            let o = offs[l] * 8;
                            ints[out + l] =
                                u64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"))
                                    as i64;
                        }
                    }
                    ScalarType::Int32 => {
                        for l in 0..n {
                            let o = offs[l] * 4;
                            ints[out + l] =
                                i32::from_le_bytes(data[o..o + 4].try_into().expect("4 bytes"))
                                    as i64;
                        }
                    }
                    ScalarType::Float32 => {
                        for l in 0..n {
                            let o = offs[l] * 4;
                            floats[out + l] =
                                f32::from_le_bytes(data[o..o + 4].try_into().expect("4 bytes"))
                                    as f64;
                        }
                    }
                    ScalarType::Float64 => {
                        for l in 0..n {
                            let o = offs[l] * 8;
                            floats[out + l] =
                                f64::from_le_bytes(data[o..o + 8].try_into().expect("8 bytes"));
                        }
                    }
                }
                sp = base + 1;
            }
        }
    }
    debug_assert_eq!(sp, 1, "program must leave exactly one register");
}

// ---------------------------------------------------------------------------
// Fused-kernel execution
// ---------------------------------------------------------------------------

/// Load one tap's lanes for the chunk at lane-variable value `x`, each
/// element converted to the lane type as [`LaneConst`] describes. `n` is the
/// number of in-range lanes (in bounds by the interior derivation in
/// `run_fused_loop`): full chunks (`n == W`) use constant-trip slice loops
/// LLVM turns into vector loads; masked tails (`n < W`) read only the
/// in-range prefix and zero-fill the rest (the lanes are discarded at the
/// store).
#[inline]
fn load_tap<L: LaneConst, const W: usize>(
    tap: &TapAccess,
    base: i64,
    x: i64,
    n: usize,
    binds: &BindTable,
) -> [L; W] {
    let data = binds.0[tap.slot].as_ref().expect("tap source bound").data();
    let mut out = [L::default(); W];
    let off = (base + x) as usize;
    match tap.lane {
        TapLane::Broadcast => out = [read_elem(tap.ty, data, base as usize); W],
        // Each arm slices with its constant element size, so LLVM sees the
        // slice length and drops the per-lane bounds checks.
        TapLane::Contiguous if n >= W => match tap.ty {
            ScalarType::UInt8 => {
                let src = &data[off..off + W];
                for l in 0..W {
                    out[l] = L::from_i64(src[l] as i64);
                }
            }
            ScalarType::UInt16 => {
                let src = &data[off * 2..off * 2 + W * 2];
                for l in 0..W {
                    out[l] = L::from_i64(u16::from_le_bytes([src[2 * l], src[2 * l + 1]]) as i64);
                }
            }
            ScalarType::UInt32 => {
                let src = &data[off * 4..off * 4 + W * 4];
                for l in 0..W {
                    let b = src[4 * l..4 * l + 4].try_into().expect("4 bytes");
                    out[l] = L::from_i64(u32::from_le_bytes(b) as i64);
                }
            }
            ScalarType::Int32 => {
                let src = &data[off * 4..off * 4 + W * 4];
                for l in 0..W {
                    let b = src[4 * l..4 * l + 4].try_into().expect("4 bytes");
                    out[l] = L::from_i64(i32::from_le_bytes(b) as i64);
                }
            }
            ScalarType::UInt64 => {
                let src = &data[off * 8..off * 8 + W * 8];
                for l in 0..W {
                    let b = src[8 * l..8 * l + 8].try_into().expect("8 bytes");
                    out[l] = L::from_i64(u64::from_le_bytes(b) as i64);
                }
            }
            ScalarType::Float32 => {
                let src = &data[off * 4..off * 4 + W * 4];
                for l in 0..W {
                    let b = src[4 * l..4 * l + 4].try_into().expect("4 bytes");
                    out[l] = L::from_f32(f32::from_le_bytes(b));
                }
            }
            ScalarType::Float64 => {
                let src = &data[off * 8..off * 8 + W * 8];
                for l in 0..W {
                    let b = src[8 * l..8 * l + 8].try_into().expect("8 bytes");
                    out[l] = L::from_f64(f64::from_le_bytes(b));
                }
            }
        },
        TapLane::Contiguous => {
            for (l, lane) in out.iter_mut().enumerate().take(n) {
                *lane = read_elem(tap.ty, data, off + l);
            }
        }
    }
    out
}

/// Element `i` of a `ty` buffer as a lane value (see [`load_tap`]).
#[inline]
fn read_elem<L: LaneConst>(ty: ScalarType, data: &[u8], i: usize) -> L {
    let eb = ty.bytes();
    let b = &data[i * eb..(i + 1) * eb];
    match ty {
        ScalarType::UInt8 => L::from_i64(b[0] as i64),
        ScalarType::UInt16 => L::from_i64(u16::from_le_bytes([b[0], b[1]]) as i64),
        ScalarType::UInt32 => {
            L::from_i64(u32::from_le_bytes(b.try_into().expect("4 bytes")) as i64)
        }
        ScalarType::Int32 => L::from_i64(i32::from_le_bytes(b.try_into().expect("4 bytes")) as i64),
        ScalarType::UInt64 => {
            L::from_i64(u64::from_le_bytes(b.try_into().expect("8 bytes")) as i64)
        }
        ScalarType::Float32 => L::from_f32(f32::from_le_bytes(b.try_into().expect("4 bytes"))),
        ScalarType::Float64 => L::from_f64(f64::from_le_bytes(b.try_into().expect("8 bytes"))),
    }
}

/// Store the first `n` lanes of a chunk contiguously: each lane keeps the
/// low bytes of its [`LaneConst::to_bits`], which truncates integer lanes
/// to the output type (wrapping, like the per-op tier) and writes float
/// lanes bit-exactly.
#[inline]
fn store_chunk<L: LaneConst, const W: usize>(
    fused: &FusedKernel,
    out_base: i64,
    x: i64,
    n: usize,
    vals: &[L; W],
    binds: &BindTable,
) {
    let bind = binds.0[fused.out_slot]
        .as_ref()
        .expect("store target bound");
    let eb = fused.out_ty.bytes();
    let n = n.min(W);
    let mut tmp = [0u8; MAX_CHUNK * 8];
    match eb {
        1 => {
            for l in 0..n {
                tmp[l] = vals[l].to_bits() as u8;
            }
        }
        2 => {
            for l in 0..n {
                tmp[2 * l..2 * l + 2].copy_from_slice(&(vals[l].to_bits() as u16).to_le_bytes());
            }
        }
        4 => {
            for l in 0..n {
                tmp[4 * l..4 * l + 4].copy_from_slice(&(vals[l].to_bits() as u32).to_le_bytes());
            }
        }
        _ => {
            for l in 0..n {
                tmp[8 * l..8 * l + 8].copy_from_slice(&vals[l].to_bits().to_le_bytes());
            }
        }
    }
    bind.write((out_base + x) as usize * eb, &tmp[..n * eb]);
}

/// Most taps the AVX2 plan evaluators stage per chunk (the length of their
/// per-tap pointer and array tables).
const A_TAPS: usize = 16;

/// The ISA one kernel's chunks execute on, given the run's
/// [`Target::effective_isa`] — the per-family rule of the module docs: AVX2
/// only for i64 kernels and for f32/f64 kernels of at most [`A_TAPS`] taps,
/// the families whose hand-written evaluators measured faster than the
/// portable lanes. This is the one decision point: the fused and reduce
/// dispatchers, the [`arch_rows_executed`] counter and
/// [`StoreProfile::selected_isa`] all read it, so they cannot disagree.
fn kernel_isa(family: LaneFamily, taps: usize, target_isa: Isa) -> Isa {
    match family {
        LaneFamily::I64 => target_isa,
        LaneFamily::F32 | LaneFamily::F64 if taps <= A_TAPS => target_isa,
        _ => Isa::Portable,
    }
}

/// Route one chunk to the monomorphized evaluator of the kernel's lane
/// family and chunk width, then store it. `w` is the chunk width
/// (`fused.chunk_width`); `n ≤ w` is the number of lanes to load and store
/// (`n < w` only for masked tails). `isa` is the kernel's [`kernel_isa`]:
/// [`Isa::Avx2`] routes the chunk through the `arch` module (bit-identical
/// to the portable evaluators; see the module docs).
#[allow(clippy::too_many_arguments)]
fn dispatch_fused_chunk(
    fused: &FusedKernel,
    x: i64,
    w: usize,
    n: usize,
    tap_bases: &[i64],
    out_base: i64,
    lane_depth: usize,
    binds: &BindTable,
    vars: &[i64],
    isa: Isa,
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: `Isa::Avx2` is only produced by `Target::effective_isa`
        // after `is_x86_feature_detected!("avx2")` succeeded on this CPU,
        // and `kernel_isa` passes it on only for the families `arch` serves.
        unsafe {
            return arch::dispatch_fused_chunk_avx2(
                fused, x, w, n, tap_bases, out_base, lane_depth, binds, vars,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    macro_rules! run {
        ($eval:expr, $ops:expr) => {{
            let lanes = $eval($ops, &fused.taps, x, n, tap_bases, lane_depth, binds, vars);
            store_chunk(fused, out_base, x, n, &lanes, binds);
        }};
    }
    match (&fused.prog, w) {
        (LaneProgram::I32(ops), 32) => run!(eval_chunk_i32::<32>, ops),
        (LaneProgram::I32(ops), 16) => run!(eval_chunk_i32::<16>, ops),
        (LaneProgram::I32(ops), _) => run!(eval_chunk_i32::<8>, ops),
        (LaneProgram::I64(ops), 16) => run!(eval_chunk_i64::<16>, ops),
        (LaneProgram::I64(ops), 8) => run!(eval_chunk_i64::<8>, ops),
        (LaneProgram::I64(ops), _) => run!(eval_chunk_i64::<4>, ops),
        (LaneProgram::F32(ops), 32) => run!(eval_chunk_float::<f32, 32>, ops),
        (LaneProgram::F32(ops), 16) => run!(eval_chunk_float::<f32, 16>, ops),
        (LaneProgram::F32(ops), _) => run!(eval_chunk_float::<f32, 8>, ops),
        (LaneProgram::F64(ops), 16) => run!(eval_chunk_float::<f64, 16>, ops),
        (LaneProgram::F64(ops), 8) => run!(eval_chunk_float::<f64, 8>, ops),
        (LaneProgram::F64(ops), _) => run!(eval_chunk_float::<f64, 4>, ops),
    }
}

/// Generate the chunk *evaluator* of one integer lane family: a stack
/// machine over `[$lane; W]` chunks with constant trip counts LLVM
/// auto-vectorizes, returning the final chunk. `n` lanes are loaded
/// (`n == W` except for masked tails; lanes beyond `n` are unspecified and
/// must be masked by the consumer — the fused store writes only `n` lanes,
/// the reduction epilogue zeroes them before summing).
macro_rules! int_chunk_eval {
    ($name:ident, $lane:ty, $ulane:ty) => {
        #[allow(clippy::too_many_arguments)]
        fn $name<const W: usize>(
            ops: &[VOp<$lane>],
            taps: &[TapAccess],
            x: i64,
            n: usize,
            tap_bases: &[i64],
            lane_depth: usize,
            binds: &BindTable,
            vars: &[i64],
        ) -> [$lane; W] {
            let mut st = [[0 as $lane; W]; V_STACK];
            let mut sp = 0usize;
            for op in ops {
                match op {
                    VOp::Const(v) => {
                        st[sp] = [*v; W];
                        sp += 1;
                    }
                    VOp::Var(depth) => {
                        if *depth == lane_depth {
                            let base = x as $lane;
                            for (l, lane) in st[sp].iter_mut().enumerate() {
                                *lane = base + l as $lane;
                            }
                        } else {
                            st[sp] = [vars[*depth] as $lane; W];
                        }
                        sp += 1;
                    }
                    VOp::Load(t) => {
                        st[sp] = load_tap::<$lane, W>(&taps[*t], tap_bases[*t], x, n, binds);
                        sp += 1;
                    }
                    VOp::Axpy { tap, coeff } => {
                        let v = load_tap::<$lane, W>(&taps[*tap], tap_bases[*tap], x, n, binds);
                        let dst = &mut st[sp - 1];
                        for l in 0..W {
                            dst[l] = dst[l].wrapping_add(coeff.wrapping_mul(v[l]));
                        }
                    }
                    VOp::AddC(c) => {
                        for l in &mut st[sp - 1] {
                            *l = l.wrapping_add(*c);
                        }
                    }
                    VOp::MulC(c) => {
                        for l in &mut st[sp - 1] {
                            *l = l.wrapping_mul(*c);
                        }
                    }
                    VOp::AndC(c) => {
                        for l in &mut st[sp - 1] {
                            *l &= *c;
                        }
                    }
                    VOp::OrC(c) => {
                        for l in &mut st[sp - 1] {
                            *l |= *c;
                        }
                    }
                    VOp::XorC(c) => {
                        for l in &mut st[sp - 1] {
                            *l ^= *c;
                        }
                    }
                    VOp::Mask(m) => {
                        for l in &mut st[sp - 1] {
                            *l &= *m;
                        }
                    }
                    VOp::ShrU(s) => {
                        for l in &mut st[sp - 1] {
                            *l = ((*l as $ulane) >> *s) as $lane;
                        }
                    }
                    VOp::Shl(s) => {
                        for l in &mut st[sp - 1] {
                            *l = l.wrapping_shl(*s);
                        }
                    }
                    VOp::Sext32 => {
                        // The Int32 cast on i64 lanes; the identity on i32.
                        for l in &mut st[sp - 1] {
                            *l = (*l as i32) as $lane;
                        }
                    }
                    VOp::Add
                    | VOp::Sub
                    | VOp::Mul
                    | VOp::And
                    | VOp::Or
                    | VOp::Xor
                    | VOp::MinS
                    | VOp::MaxS
                    | VOp::MinU
                    | VOp::MaxU => {
                        let (head, tail) = st.split_at_mut(sp - 1);
                        let a = &mut head[sp - 2];
                        let b = &tail[0];
                        match op {
                            VOp::Add => {
                                for l in 0..W {
                                    a[l] = a[l].wrapping_add(b[l]);
                                }
                            }
                            VOp::Sub => {
                                for l in 0..W {
                                    a[l] = a[l].wrapping_sub(b[l]);
                                }
                            }
                            VOp::Mul => {
                                for l in 0..W {
                                    a[l] = a[l].wrapping_mul(b[l]);
                                }
                            }
                            VOp::And => {
                                for l in 0..W {
                                    a[l] &= b[l];
                                }
                            }
                            VOp::Or => {
                                for l in 0..W {
                                    a[l] |= b[l];
                                }
                            }
                            VOp::Xor => {
                                for l in 0..W {
                                    a[l] ^= b[l];
                                }
                            }
                            VOp::MinS => {
                                for l in 0..W {
                                    a[l] = a[l].min(b[l]);
                                }
                            }
                            VOp::MaxS => {
                                for l in 0..W {
                                    a[l] = a[l].max(b[l]);
                                }
                            }
                            VOp::MinU => {
                                for l in 0..W {
                                    a[l] = (a[l] as $ulane).min(b[l] as $ulane) as $lane;
                                }
                            }
                            VOp::MaxU => {
                                for l in 0..W {
                                    a[l] = (a[l] as $ulane).max(b[l] as $ulane) as $lane;
                                }
                            }
                            _ => unreachable!("binary group"),
                        }
                        sp -= 1;
                    }
                    VOp::CmpS(cmp) => {
                        let (head, tail) = st.split_at_mut(sp - 1);
                        let a = &mut head[sp - 2];
                        let b = &tail[0];
                        for l in 0..W {
                            let (x, y) = (a[l], b[l]);
                            a[l] = cmp_lanes(*cmp, x, y) as $lane;
                        }
                        sp -= 1;
                    }
                    VOp::CmpU(cmp) => {
                        let (head, tail) = st.split_at_mut(sp - 1);
                        let a = &mut head[sp - 2];
                        let b = &tail[0];
                        for l in 0..W {
                            let (x, y) = (a[l] as $ulane, b[l] as $ulane);
                            a[l] = cmp_lanes(*cmp, x, y) as $lane;
                        }
                        sp -= 1;
                    }
                    VOp::Sel => {
                        let (head, tail) = st.split_at_mut(sp - 2);
                        let c = &mut head[sp - 3];
                        let (t, f) = (&tail[0], &tail[1]);
                        for l in 0..W {
                            c[l] = if c[l] != 0 { t[l] } else { f[l] };
                        }
                        sp -= 2;
                    }
                }
            }
            debug_assert_eq!(sp, 1, "fused kernel must leave exactly one chunk");
            st[0]
        }
    };
}

int_chunk_eval!(eval_chunk_i32, i32, u32);
int_chunk_eval!(eval_chunk_i64, i64, u64);

/// Wrapping in-lane tree reduce of the first `n` lanes of a chunk. Exact for
/// any summation order because wrapping integer addition is commutative and
/// associative; the halving tree is the shape LLVM turns into vector
/// reductions.
macro_rules! tree_sum {
    ($name:ident, $lane:ty) => {
        fn $name<const W: usize>(mut lanes: [$lane; W], n: usize) -> $lane {
            for lane in lanes.iter_mut().skip(n) {
                *lane = 0;
            }
            let mut width = W;
            while width > 1 {
                width /= 2;
                for l in 0..width {
                    lanes[l] = lanes[l].wrapping_add(lanes[l + width]);
                }
            }
            lanes[0]
        }
    };
}

tree_sum!(tree_sum_i32, i32);
tree_sum!(tree_sum_i64, i64);

/// Evaluate one chunk of a reduction kernel's `g` and tree-reduce its first
/// `n` lanes, returning the partial sum as an `i64` (for the i32 family the
/// value is the sum mod `2^32`, which is all its ≤ 32-bit accumulator needs).
/// `isa` is the kernel's [`kernel_isa`].
#[allow(clippy::too_many_arguments)]
fn dispatch_reduce_chunk(
    rk: &ReduceKernel,
    x: i64,
    n: usize,
    tap_bases: &[i64],
    lane_depth: usize,
    binds: &BindTable,
    vars: &[i64],
    isa: Isa,
) -> i64 {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        // SAFETY: `Isa::Avx2` is only produced by `Target::effective_isa`
        // after `is_x86_feature_detected!("avx2")` succeeded on this CPU,
        // and `kernel_isa` passes it on only for i64 reductions.
        unsafe {
            return arch::dispatch_reduce_chunk_avx2(rk, x, n, tap_bases, lane_depth, binds, vars);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    match &rk.prog {
        LaneProgram::I32(ops) => {
            let lanes = eval_chunk_i32::<MAX_CHUNK>(
                ops, &rk.taps, x, n, tap_bases, lane_depth, binds, vars,
            );
            tree_sum_i32(lanes, n) as i64
        }
        LaneProgram::I64(ops) => {
            let lanes = eval_chunk_i64::<{ MAX_CHUNK / 2 }>(
                ops, &rk.taps, x, n, tap_bases, lane_depth, binds, vars,
            );
            tree_sum_i64(lanes, n)
        }
        LaneProgram::F32(_) | LaneProgram::F64(_) => {
            unreachable!("reduce kernels are integer-only")
        }
    }
}

/// Evaluate one float kernel chunk on `[f32; W]` or `[f64; W/2]` lanes.
/// Arithmetic ops round once in the lane type (on f32 lanes they are only
/// emitted at reference rounding points; on f64 lanes they are the reference
/// ops), and Min/Max evaluate through f64 per lane to replicate
/// [`eval_binop`]'s float branch bit-for-bit (a no-op widening on f64
/// lanes). Lanes beyond `n` are unspecified, as for the integer families.
#[allow(clippy::too_many_arguments)]
fn eval_chunk_float<L, const W: usize>(
    ops: &[FOp<L>],
    taps: &[TapAccess],
    x: i64,
    n: usize,
    tap_bases: &[i64],
    lane_depth: usize,
    binds: &BindTable,
    vars: &[i64],
) -> [L; W]
where
    L: LaneConst + AddAssign + SubAssign + MulAssign + DivAssign,
{
    let mut st = [[L::default(); W]; V_STACK];
    let mut sp = 0usize;
    for op in ops {
        match op {
            FOp::Const(v) => {
                st[sp] = [*v; W];
                sp += 1;
            }
            FOp::Var(depth) => {
                if *depth == lane_depth {
                    for (l, lane) in st[sp].iter_mut().enumerate() {
                        // Exact: the variable's interval was proven within
                        // the lane type's exact integer range.
                        *lane = L::from_i64(x + l as i64);
                    }
                } else {
                    st[sp] = [L::from_i64(vars[*depth]); W];
                }
                sp += 1;
            }
            FOp::Load(t) => {
                st[sp] = load_tap::<L, W>(&taps[*t], tap_bases[*t], x, n, binds);
                sp += 1;
            }
            FOp::Sqrt => {
                for l in &mut st[sp - 1] {
                    *l = l.sqrt();
                }
            }
            FOp::Add | FOp::Sub | FOp::Mul | FOp::Div | FOp::Min | FOp::Max | FOp::Cmp(_) => {
                let (head, tail) = st.split_at_mut(sp - 1);
                let a = &mut head[sp - 2];
                let b = &tail[0];
                match op {
                    FOp::Add => {
                        for l in 0..W {
                            a[l] += b[l];
                        }
                    }
                    FOp::Sub => {
                        for l in 0..W {
                            a[l] -= b[l];
                        }
                    }
                    FOp::Mul => {
                        for l in 0..W {
                            a[l] *= b[l];
                        }
                    }
                    FOp::Div => {
                        for l in 0..W {
                            a[l] /= b[l];
                        }
                    }
                    FOp::Min => {
                        for l in 0..W {
                            a[l] = L::from_f64(a[l].to_f64().min(b[l].to_f64()));
                        }
                    }
                    FOp::Max => {
                        for l in 0..W {
                            a[l] = L::from_f64(a[l].to_f64().max(b[l].to_f64()));
                        }
                    }
                    FOp::Cmp(cmp) => {
                        for l in 0..W {
                            a[l] = L::from_i64(cmp_lanes(*cmp, a[l], b[l]) as i64);
                        }
                    }
                    _ => unreachable!("binary group"),
                }
                sp -= 1;
            }
            FOp::Sel => {
                let (head, tail) = st.split_at_mut(sp - 2);
                let c = &mut head[sp - 3];
                let (t, f) = (&tail[0], &tail[1]);
                for l in 0..W {
                    c[l] = if c[l] != L::default() { t[l] } else { f[l] };
                }
                sp -= 2;
            }
        }
    }
    debug_assert_eq!(sp, 1, "fused kernel must leave exactly one chunk");
    st[0]
}

#[inline]
fn cmp_lanes<T: PartialOrd>(op: CmpOp, x: T, y: T) -> i32 {
    (match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }) as i32
}

// ---------------------------------------------------------------------------
// Hand-written AVX2 chunk evaluators (`core::arch::x86_64`)
// ---------------------------------------------------------------------------

/// Explicit AVX2 chunk evaluators for the lane families that measured faster
/// than the portable lanes: the `[i64; W/2]` evaluator and tree-reduce, and
/// the f32/f64 plan evaluators for kernels of at most [`A_TAPS`] taps.
/// [`dispatch_fused_chunk`] / [`dispatch_reduce_chunk`] route a kernel here
/// when [`kernel_isa`] selects [`Isa::Avx2`] for it. On a 2-core AVX2 Xeon
/// (medians of 15, AVX2-pinned vs portable-pinned targets) the plan
/// evaluators ran 1.07–2.10× on a 7-tap stencil; i32 kernels and wider float
/// kernels run the portable lanes, which AVX2 evaluators for them did not
/// beat (0.76–1.02× on a u8 7-tap stencil, 0.55–0.98× on a 25-tap one); the
/// i64 evaluator awaits a re-measurement. The portable lane loops above
/// remain the oracle; everything here must be — and per
/// `tests/prop_simd.rs` is — **bit-identical** to them:
///
/// - i64 ops wrap in two's complement on both paths, so every `VOp` has an
///   exact vector form: `Axpy`/`MulC`/`Mul` via the `mul_epu32` cross-term
///   emulation (AVX2 has no 64-bit mullo), shifts via `_mm256_srl/sll_epi64`
///   with the count register, signed clamp via `cmpgt_epi64` + `blendv`.
///   Ops with no profitable AVX2 form (comparisons-to-0/1, selects, unsigned
///   min/max and `Sext32`) run the same scalar lane loops as the portable
///   evaluator — trivially identical, and still compiled with AVX2 enabled.
/// - The float plan evaluators vectorize exactly the IEEE-exact
///   single-rounding ops (`Add`/`Sub`/`Mul`/`Div`/`Sqrt` — one rounding per
///   op on both paths, so `_mm256_*_ps/pd` are bit-identical by IEEE 754).
///   `Min`/`Max`/`Cmp`/`Sel` keep the portable scalar bodies:
///   `_mm256_min_ps` resolves NaN and ±0 operands differently from the
///   reference's `f64::min`, and the differential matrix includes NaN inputs.
/// - The i64 tree-reduce epilogue halves with `_mm256_add_epi64` — the same
///   reduction shape, wrapping addition, any order exact.
///
/// Tap loading and chunk stores reuse the portable [`load_tap`] and
/// [`store_chunk`]: they fill stack arrays, which keeps masked tails from
/// ever issuing an out-of-bounds vector load, and the vector ops read the
/// arrays with unaligned loads.
///
/// SAFETY: every `#[target_feature(enable = "avx2")]` fn below must only be
/// reached via [`Isa::Avx2`], which `Target::effective_isa` returns only
/// after `is_x86_feature_detected!("avx2")` succeeded in this process.
#[cfg(target_arch = "x86_64")]
mod arch {
    use super::*;
    use std::arch::x86_64::*;

    // -- 256-bit block helpers over `[i64; W]` stack arrays -----------------
    // W is a multiple of 4 for i64 chunks, so the block loops cover the
    // arrays exactly.

    macro_rules! avx2_bin_i64 {
        ($name:ident, $intr:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $name<const W: usize>(a: &mut [i64; W], b: &[i64; W]) {
                let mut i = 0;
                while i + 4 <= W {
                    let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                    let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
                    _mm256_storeu_si256(a.as_mut_ptr().add(i) as *mut __m256i, $intr(va, vb));
                    i += 4;
                }
            }
        };
    }

    avx2_bin_i64!(add_i64, _mm256_add_epi64);
    avx2_bin_i64!(sub_i64, _mm256_sub_epi64);
    avx2_bin_i64!(and_i64, _mm256_and_si256);
    avx2_bin_i64!(or_i64, _mm256_or_si256);
    avx2_bin_i64!(xor_i64, _mm256_xor_si256);

    /// 64-bit wrapping mullo — AVX2 has no `_mm256_mullo_epi64`, so build it
    /// from 32×32→64 partial products: `lo(a)·lo(b) + ((hi(a)·lo(b) +
    /// lo(a)·hi(b)) << 32)`, which is exactly `a·b mod 2^64`.
    #[target_feature(enable = "avx2")]
    unsafe fn mullo64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let lo = _mm256_mul_epu32(a, b);
        let cross1 = _mm256_mul_epu32(a_hi, b);
        let cross2 = _mm256_mul_epu32(a, b_hi);
        let cross = _mm256_slli_epi64(_mm256_add_epi64(cross1, cross2), 32);
        _mm256_add_epi64(lo, cross)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mul_i64<const W: usize>(a: &mut [i64; W], b: &[i64; W]) {
        let mut i = 0;
        while i + 4 <= W {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(a.as_mut_ptr().add(i) as *mut __m256i, mullo64(va, vb));
            i += 4;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_i64<const W: usize>(a: &mut [i64; W], v: &[i64; W], coeff: i64) {
        let vc = _mm256_set1_epi64x(coeff);
        let mut i = 0;
        while i + 4 <= W {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vv = _mm256_loadu_si256(v.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                a.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_add_epi64(va, mullo64(vv, vc)),
            );
            i += 4;
        }
    }

    /// `a[l] = a[l] OP set1(c)` on i64 lanes, routed through `$apply`.
    macro_rules! avx2_binc_i64 {
        ($name:ident, $apply:expr) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $name<const W: usize>(a: &mut [i64; W], c: i64) {
                let vc = _mm256_set1_epi64x(c);
                let mut i = 0;
                while i + 4 <= W {
                    let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                    #[allow(clippy::redundant_closure_call)]
                    let r = $apply(va, vc);
                    _mm256_storeu_si256(a.as_mut_ptr().add(i) as *mut __m256i, r);
                    i += 4;
                }
            }
        };
    }

    avx2_binc_i64!(addc_i64, |a, c| _mm256_add_epi64(a, c));
    avx2_binc_i64!(mulc_i64, |a, c| mullo64(a, c));
    avx2_binc_i64!(andc_i64, |a, c| _mm256_and_si256(a, c));
    avx2_binc_i64!(orc_i64, |a, c| _mm256_or_si256(a, c));
    avx2_binc_i64!(xorc_i64, |a, c| _mm256_xor_si256(a, c));

    #[target_feature(enable = "avx2")]
    unsafe fn shru_i64<const W: usize>(a: &mut [i64; W], s: u32) {
        let count = _mm_cvtsi32_si128(s as i32);
        let mut i = 0;
        while i + 4 <= W {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                a.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_srl_epi64(va, count),
            );
            i += 4;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn shl_i64<const W: usize>(a: &mut [i64; W], s: u32) {
        let count = _mm_cvtsi32_si128((s & 63) as i32);
        let mut i = 0;
        while i + 4 <= W {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            _mm256_storeu_si256(
                a.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_sll_epi64(va, count),
            );
            i += 4;
        }
    }

    /// Signed 64-bit min/max via `cmpgt` + byte blend (AVX2 has no
    /// `min/max_epi64`): `blendv(b, a, a OP b)` keeps `a` where the mask is
    /// set. Ties (equal lanes) pick either operand — identical values.
    #[target_feature(enable = "avx2")]
    unsafe fn mins_i64<const W: usize>(a: &mut [i64; W], b: &[i64; W]) {
        let mut i = 0;
        while i + 4 <= W {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let b_gt_a = _mm256_cmpgt_epi64(vb, va);
            _mm256_storeu_si256(
                a.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_blendv_epi8(vb, va, b_gt_a),
            );
            i += 4;
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn maxs_i64<const W: usize>(a: &mut [i64; W], b: &[i64; W]) {
        let mut i = 0;
        while i + 4 <= W {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let a_gt_b = _mm256_cmpgt_epi64(va, vb);
            _mm256_storeu_si256(
                a.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_blendv_epi8(vb, va, a_gt_b),
            );
            i += 4;
        }
    }

    // -- Chunk evaluators ---------------------------------------------------

    /// AVX2 `[i64; W/2]` chunk evaluator. Multiplies use the `mullo64`
    /// emulation; `MinU`/`MaxU`, comparisons, selects and `Sext32` keep the
    /// scalar lane loops.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn eval_chunk_i64_avx2<const W: usize>(
        ops: &[VOp<i64>],
        taps: &[TapAccess],
        x: i64,
        n: usize,
        tap_bases: &[i64],
        lane_depth: usize,
        binds: &BindTable,
        vars: &[i64],
    ) -> [i64; W] {
        let mut st = [[0i64; W]; V_STACK];
        let mut sp = 0usize;
        for op in ops {
            match op {
                VOp::Const(v) => {
                    st[sp] = [*v; W];
                    sp += 1;
                }
                VOp::Var(depth) => {
                    if *depth == lane_depth {
                        for (l, lane) in st[sp].iter_mut().enumerate() {
                            *lane = x + l as i64;
                        }
                    } else {
                        st[sp] = [vars[*depth]; W];
                    }
                    sp += 1;
                }
                VOp::Load(t) => {
                    st[sp] = load_tap::<i64, W>(&taps[*t], tap_bases[*t], x, n, binds);
                    sp += 1;
                }
                VOp::Axpy { tap, coeff } => {
                    let v = load_tap::<i64, W>(&taps[*tap], tap_bases[*tap], x, n, binds);
                    axpy_i64(&mut st[sp - 1], &v, *coeff);
                }
                VOp::AddC(c) => addc_i64(&mut st[sp - 1], *c),
                VOp::MulC(c) => mulc_i64(&mut st[sp - 1], *c),
                VOp::AndC(c) => andc_i64(&mut st[sp - 1], *c),
                VOp::OrC(c) => orc_i64(&mut st[sp - 1], *c),
                VOp::XorC(c) => xorc_i64(&mut st[sp - 1], *c),
                VOp::Mask(m) => andc_i64(&mut st[sp - 1], *m),
                VOp::ShrU(s) => shru_i64(&mut st[sp - 1], *s),
                VOp::Shl(s) => shl_i64(&mut st[sp - 1], *s),
                VOp::Sext32 => {
                    for l in &mut st[sp - 1] {
                        *l = (*l as i32) as i64;
                    }
                }
                VOp::Add
                | VOp::Sub
                | VOp::Mul
                | VOp::And
                | VOp::Or
                | VOp::Xor
                | VOp::MinS
                | VOp::MaxS => {
                    let (head, tail) = st.split_at_mut(sp - 1);
                    let a = &mut head[sp - 2];
                    let b = &tail[0];
                    match op {
                        VOp::Add => add_i64(a, b),
                        VOp::Sub => sub_i64(a, b),
                        VOp::Mul => mul_i64(a, b),
                        VOp::And => and_i64(a, b),
                        VOp::Or => or_i64(a, b),
                        VOp::Xor => xor_i64(a, b),
                        VOp::MinS => mins_i64(a, b),
                        VOp::MaxS => maxs_i64(a, b),
                        _ => unreachable!("binary group"),
                    }
                    sp -= 1;
                }
                VOp::MinU | VOp::MaxU => {
                    let (head, tail) = st.split_at_mut(sp - 1);
                    let a = &mut head[sp - 2];
                    let b = &tail[0];
                    for l in 0..W {
                        let (x, y) = (a[l] as u64, b[l] as u64);
                        a[l] = if matches!(op, VOp::MinU) {
                            x.min(y)
                        } else {
                            x.max(y)
                        } as i64;
                    }
                    sp -= 1;
                }
                VOp::CmpS(cmp) => {
                    let (head, tail) = st.split_at_mut(sp - 1);
                    let a = &mut head[sp - 2];
                    let b = &tail[0];
                    for l in 0..W {
                        let (x, y) = (a[l], b[l]);
                        a[l] = cmp_lanes(*cmp, x, y) as i64;
                    }
                    sp -= 1;
                }
                VOp::CmpU(cmp) => {
                    let (head, tail) = st.split_at_mut(sp - 1);
                    let a = &mut head[sp - 2];
                    let b = &tail[0];
                    for l in 0..W {
                        let (x, y) = (a[l] as u64, b[l] as u64);
                        a[l] = cmp_lanes(*cmp, x, y) as i64;
                    }
                    sp -= 1;
                }
                VOp::Sel => {
                    let (head, tail) = st.split_at_mut(sp - 2);
                    let c = &mut head[sp - 3];
                    let (t, f) = (&tail[0], &tail[1]);
                    for l in 0..W {
                        c[l] = if c[l] != 0 { t[l] } else { f[l] };
                    }
                    sp -= 2;
                }
            }
        }
        debug_assert_eq!(sp, 1, "fused kernel must leave exactly one chunk");
        st[0]
    }

    /// One register-width tap load for the plan evaluators: streamed straight
    /// from the buffer when the chunk staging proved the direct pointer, else
    /// from the materialized array (written by the staging loop exactly when
    /// the pointer is null — the `MaybeUninit` is initialized on that path).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tap_vec_f32<const W: usize>(
        ptrs: &[*const f32; A_TAPS],
        arrs: &[core::mem::MaybeUninit<[f32; W]>; A_TAPS],
        t: usize,
        o: usize,
    ) -> __m256 {
        if ptrs[t].is_null() {
            _mm256_loadu_ps(arrs[t].assume_init_ref().as_ptr().add(o))
        } else {
            _mm256_loadu_ps(ptrs[t].add(o))
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tap_vec_f64<const W: usize>(
        ptrs: &[*const f64; A_TAPS],
        arrs: &[core::mem::MaybeUninit<[f64; W]>; A_TAPS],
        t: usize,
        o: usize,
    ) -> __m256d {
        if ptrs[t].is_null() {
            _mm256_loadu_pd(arrs[t].assume_init_ref().as_ptr().add(o))
        } else {
            _mm256_loadu_pd(ptrs[t].add(o))
        }
    }

    /// Generate one plan evaluator (see [`AOp`]): the float fused kernel as
    /// a register-resident stack machine. Taps are staged once per chunk —
    /// full-width contiguous taps of the native element type stream straight
    /// from the bound buffer, everything else materializes through the shared
    /// tap loader — then each register-width block runs the whole pre-fused
    /// plan in `__m256` registers, touching memory only for tap loads and the
    /// final store. This is where the arch tier earns its keep over the
    /// portable lane programs: a k-tap stencil does k loads and ~2k register
    /// ops per block instead of ~2k full-chunk passes through stack arrays.
    ///
    /// Exactness: every body performs the identical roundings in the
    /// identical operand order as the portable evaluator (`AOp`'s contract);
    /// `Min`/`Max`/`Cmp`/`Sel` spill to lanes and reuse the scalar bodies.
    macro_rules! plan_eval {
        ($name:ident, $elem:ty, $vec:ty, $vw:literal, $set1:ident, $loadu:ident,
         $storeu:ident, $zero:ident, $add:ident, $sub:ident, $mul:ident,
         $div:ident, $sqrt:ident, $direct_ty:pat, $esize:literal,
         $minmax:expr, $tap_vec:ident) => {
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $name<const W: usize>(
                plan: &[AOp<$elem>],
                taps: &[TapAccess],
                x: i64,
                n: usize,
                tap_bases: &[i64],
                lane_depth: usize,
                binds: &BindTable,
                vars: &[i64],
            ) -> [$elem; W] {
                // Stage every tap once. A null pointer means "use the
                // materialized array"; a non-null one streams loads directly
                // from the bound buffer bytes (valid: the `get` proved
                // `W * size` bytes in range, and x86 loads are little-endian
                // like the portable byte decoder). The arrays stay
                // uninitialized unless their tap actually materializes —
                // zero-filling A_TAPS chunk-wide arrays per chunk would cost
                // more than the kernel itself.
                let mut ptrs = [core::ptr::null::<$elem>(); A_TAPS];
                let mut arrs = [const { core::mem::MaybeUninit::<[$elem; W]>::uninit() }; A_TAPS];
                for (t, tap) in taps.iter().enumerate() {
                    let mut direct = None;
                    if matches!(tap.lane, TapLane::Contiguous)
                        && matches!(tap.ty, $direct_ty)
                        && n >= W
                    {
                        let bind = binds.0[tap.slot].as_ref().expect("tap source bound");
                        let data = bind.data();
                        direct = usize::try_from(tap_bases[t] + x)
                            .ok()
                            .and_then(|o| o.checked_mul($esize))
                            .and_then(|b| Some((b, b.checked_add(W * $esize)?)))
                            .and_then(|(b, e)| data.get(b..e))
                            .map(|s| s.as_ptr() as *const $elem);
                    }
                    match direct {
                        Some(p) => ptrs[t] = p,
                        None => {
                            arrs[t].write(load_tap::<$elem, W>(tap, tap_bases[t], x, n, binds));
                        }
                    }
                }
                // Accumulator-shaped plans — one push, then only in-place
                // accumulate/unary ops, i.e. every sum-of-products stencil —
                // skip the block stack machine entirely: the running value
                // lives in one register per block, the plan is walked once,
                // and each op applies to every block, so op dispatch
                // amortizes over the whole chunk and the accumulate chain
                // gains cross-block ILP.
                let acc_shaped = matches!(
                    plan.first(),
                    Some(
                        AOp::Op(FOp::Const(_) | FOp::Var(_) | FOp::Load(_))
                            | AOp::PushCMulLoad { .. }
                            | AOp::PushLoadMulC { .. }
                    )
                ) && plan[1..].iter().all(|op| {
                    matches!(
                        op,
                        AOp::Op(FOp::Sqrt)
                            | AOp::AccAddLoad(_)
                            | AOp::AccSubLoad(_)
                            | AOp::AccMulLoad(_)
                            | AOp::AccDivLoad(_)
                            | AOp::AccAddC(_)
                            | AOp::AccSubC(_)
                            | AOp::AccMulC(_)
                            | AOp::AccDivC(_)
                            | AOp::AccAddCMulLoad { .. }
                            | AOp::AccAddLoadMulC { .. }
                    )
                });
                if acc_shaped {
                    let blk = W / $vw;
                    let mut acc = [$zero(); MAX_CHUNK / $vw];
                    match &plan[0] {
                        AOp::Op(FOp::Const(v)) => {
                            let s = $set1(*v);
                            for a in acc.iter_mut().take(blk) {
                                *a = s;
                            }
                        }
                        AOp::Op(FOp::Var(depth)) => {
                            if *depth == lane_depth {
                                let mut tmp = [0.0 as $elem; MAX_CHUNK];
                                for (l, lane) in tmp.iter_mut().enumerate().take(W) {
                                    *lane = (x + l as i64) as $elem;
                                }
                                for b in 0..blk {
                                    acc[b] = $loadu(tmp.as_ptr().add(b * $vw));
                                }
                            } else {
                                let s = $set1(vars[*depth] as $elem);
                                for a in acc.iter_mut().take(blk) {
                                    *a = s;
                                }
                            }
                        }
                        AOp::Op(FOp::Load(t)) => {
                            for b in 0..blk {
                                acc[b] = $tap_vec(&ptrs, &arrs, *t, b * $vw);
                            }
                        }
                        AOp::PushCMulLoad { tap, c } => {
                            let s = $set1(*c);
                            for b in 0..blk {
                                acc[b] = $mul(s, $tap_vec(&ptrs, &arrs, *tap, b * $vw));
                            }
                        }
                        AOp::PushLoadMulC { tap, c } => {
                            let s = $set1(*c);
                            for b in 0..blk {
                                acc[b] = $mul($tap_vec(&ptrs, &arrs, *tap, b * $vw), s);
                            }
                        }
                        _ => unreachable!("acc-shaped plan starts with a push"),
                    }
                    for op in &plan[1..] {
                        match op {
                            AOp::Op(FOp::Sqrt) => {
                                for a in acc.iter_mut().take(blk) {
                                    *a = $sqrt(*a);
                                }
                            }
                            AOp::AccAddLoad(t) => {
                                for b in 0..blk {
                                    acc[b] = $add(acc[b], $tap_vec(&ptrs, &arrs, *t, b * $vw));
                                }
                            }
                            AOp::AccSubLoad(t) => {
                                for b in 0..blk {
                                    acc[b] = $sub(acc[b], $tap_vec(&ptrs, &arrs, *t, b * $vw));
                                }
                            }
                            AOp::AccMulLoad(t) => {
                                for b in 0..blk {
                                    acc[b] = $mul(acc[b], $tap_vec(&ptrs, &arrs, *t, b * $vw));
                                }
                            }
                            AOp::AccDivLoad(t) => {
                                for b in 0..blk {
                                    acc[b] = $div(acc[b], $tap_vec(&ptrs, &arrs, *t, b * $vw));
                                }
                            }
                            AOp::AccAddC(c) => {
                                let s = $set1(*c);
                                for a in acc.iter_mut().take(blk) {
                                    *a = $add(*a, s);
                                }
                            }
                            AOp::AccSubC(c) => {
                                let s = $set1(*c);
                                for a in acc.iter_mut().take(blk) {
                                    *a = $sub(*a, s);
                                }
                            }
                            AOp::AccMulC(c) => {
                                let s = $set1(*c);
                                for a in acc.iter_mut().take(blk) {
                                    *a = $mul(*a, s);
                                }
                            }
                            AOp::AccDivC(c) => {
                                let s = $set1(*c);
                                for a in acc.iter_mut().take(blk) {
                                    *a = $div(*a, s);
                                }
                            }
                            AOp::AccAddCMulLoad { tap, c } => {
                                let s = $set1(*c);
                                for b in 0..blk {
                                    let v = $mul(s, $tap_vec(&ptrs, &arrs, *tap, b * $vw));
                                    acc[b] = $add(acc[b], v);
                                }
                            }
                            AOp::AccAddLoadMulC { tap, c } => {
                                let s = $set1(*c);
                                for b in 0..blk {
                                    let v = $mul($tap_vec(&ptrs, &arrs, *tap, b * $vw), s);
                                    acc[b] = $add(acc[b], v);
                                }
                            }
                            _ => unreachable!("acc-shaped plan body"),
                        }
                    }
                    let mut out = [0.0 as $elem; W];
                    for b in 0..blk {
                        $storeu(out.as_mut_ptr().add(b * $vw), acc[b]);
                    }
                    return out;
                }
                let mut out = [0.0 as $elem; W];
                let mut o = 0usize;
                while o < W {
                    let mut st = [$zero(); V_STACK];
                    let mut sp = 0usize;
                    for op in plan {
                        match op {
                            AOp::Op(FOp::Const(v)) => {
                                st[sp] = $set1(*v);
                                sp += 1;
                            }
                            AOp::Op(FOp::Var(depth)) => {
                                if *depth == lane_depth {
                                    let mut tmp = [0.0 as $elem; $vw];
                                    for (l, lane) in tmp.iter_mut().enumerate() {
                                        *lane = (x + (o + l) as i64) as $elem;
                                    }
                                    st[sp] = $loadu(tmp.as_ptr());
                                } else {
                                    st[sp] = $set1(vars[*depth] as $elem);
                                }
                                sp += 1;
                            }
                            AOp::Op(FOp::Load(t)) => {
                                st[sp] = $tap_vec(&ptrs, &arrs, *t, o);
                                sp += 1;
                            }
                            AOp::Op(FOp::Sqrt) => st[sp - 1] = $sqrt(st[sp - 1]),
                            AOp::Op(FOp::Add) => {
                                st[sp - 2] = $add(st[sp - 2], st[sp - 1]);
                                sp -= 1;
                            }
                            AOp::Op(FOp::Sub) => {
                                st[sp - 2] = $sub(st[sp - 2], st[sp - 1]);
                                sp -= 1;
                            }
                            AOp::Op(FOp::Mul) => {
                                st[sp - 2] = $mul(st[sp - 2], st[sp - 1]);
                                sp -= 1;
                            }
                            AOp::Op(FOp::Div) => {
                                st[sp - 2] = $div(st[sp - 2], st[sp - 1]);
                                sp -= 1;
                            }
                            AOp::Op(op @ (FOp::Min | FOp::Max | FOp::Cmp(_))) => {
                                let mut a = [0.0 as $elem; $vw];
                                let mut b = [0.0 as $elem; $vw];
                                $storeu(a.as_mut_ptr(), st[sp - 2]);
                                $storeu(b.as_mut_ptr(), st[sp - 1]);
                                match op {
                                    FOp::Min | FOp::Max => {
                                        #[allow(clippy::redundant_closure_call)]
                                        ($minmax)(&mut a, &b, matches!(op, FOp::Min));
                                    }
                                    FOp::Cmp(cmp) => {
                                        for l in 0..$vw {
                                            let (x, y) = (a[l], b[l]);
                                            a[l] = cmp_lanes(*cmp, x, y) as $elem;
                                        }
                                    }
                                    _ => unreachable!("scalar-body group"),
                                }
                                st[sp - 2] = $loadu(a.as_ptr());
                                sp -= 1;
                            }
                            AOp::Op(FOp::Sel) => {
                                let mut c = [0.0 as $elem; $vw];
                                let mut t = [0.0 as $elem; $vw];
                                let mut f = [0.0 as $elem; $vw];
                                $storeu(c.as_mut_ptr(), st[sp - 3]);
                                $storeu(t.as_mut_ptr(), st[sp - 2]);
                                $storeu(f.as_mut_ptr(), st[sp - 1]);
                                for l in 0..$vw {
                                    c[l] = if c[l] != 0.0 { t[l] } else { f[l] };
                                }
                                st[sp - 3] = $loadu(c.as_ptr());
                                sp -= 2;
                            }
                            AOp::PushCMulLoad { tap, c } => {
                                st[sp] = $mul($set1(*c), $tap_vec(&ptrs, &arrs, *tap, o));
                                sp += 1;
                            }
                            AOp::PushLoadMulC { tap, c } => {
                                st[sp] = $mul($tap_vec(&ptrs, &arrs, *tap, o), $set1(*c));
                                sp += 1;
                            }
                            AOp::AccAddCMulLoad { tap, c } => {
                                let v = $mul($set1(*c), $tap_vec(&ptrs, &arrs, *tap, o));
                                st[sp - 1] = $add(st[sp - 1], v);
                            }
                            AOp::AccAddLoadMulC { tap, c } => {
                                let v = $mul($tap_vec(&ptrs, &arrs, *tap, o), $set1(*c));
                                st[sp - 1] = $add(st[sp - 1], v);
                            }
                            AOp::AccAddLoad(t) => {
                                st[sp - 1] = $add(st[sp - 1], $tap_vec(&ptrs, &arrs, *t, o));
                            }
                            AOp::AccSubLoad(t) => {
                                st[sp - 1] = $sub(st[sp - 1], $tap_vec(&ptrs, &arrs, *t, o));
                            }
                            AOp::AccMulLoad(t) => {
                                st[sp - 1] = $mul(st[sp - 1], $tap_vec(&ptrs, &arrs, *t, o));
                            }
                            AOp::AccDivLoad(t) => {
                                st[sp - 1] = $div(st[sp - 1], $tap_vec(&ptrs, &arrs, *t, o));
                            }
                            AOp::AccAddC(c) => st[sp - 1] = $add(st[sp - 1], $set1(*c)),
                            AOp::AccSubC(c) => st[sp - 1] = $sub(st[sp - 1], $set1(*c)),
                            AOp::AccMulC(c) => st[sp - 1] = $mul(st[sp - 1], $set1(*c)),
                            AOp::AccDivC(c) => st[sp - 1] = $div(st[sp - 1], $set1(*c)),
                        }
                    }
                    debug_assert_eq!(sp, 1, "fused kernel must leave exactly one chunk");
                    $storeu(out.as_mut_ptr().add(o), st[0]);
                    o += $vw;
                }
                out
            }
        };
    }

    plan_eval!(
        eval_plan_f32_avx2,
        f32,
        __m256,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_setzero_ps,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_mul_ps,
        _mm256_div_ps,
        _mm256_sqrt_ps,
        ScalarType::Float32,
        4,
        // Portable f32 Min/Max evaluates in f64 per lane (see FOp::Min).
        |a: &mut [f32; 8], b: &[f32; 8], is_min: bool| {
            for l in 0..8 {
                a[l] = if is_min {
                    (a[l] as f64).min(b[l] as f64) as f32
                } else {
                    (a[l] as f64).max(b[l] as f64) as f32
                };
            }
        },
        tap_vec_f32
    );

    plan_eval!(
        eval_plan_f64_avx2,
        f64,
        __m256d,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_setzero_pd,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_mul_pd,
        _mm256_div_pd,
        _mm256_sqrt_pd,
        ScalarType::Float64,
        8,
        |a: &mut [f64; 4], b: &[f64; 4], is_min: bool| {
            for l in 0..4 {
                a[l] = if is_min {
                    a[l].min(b[l])
                } else {
                    a[l].max(b[l])
                };
            }
        },
        tap_vec_f64
    );

    #[target_feature(enable = "avx2")]
    unsafe fn tree_sum_i64_avx2<const W: usize>(mut lanes: [i64; W], n: usize) -> i64 {
        for lane in lanes.iter_mut().skip(n) {
            *lane = 0;
        }
        let mut width = W;
        while width > 4 {
            width /= 2;
            let mut i = 0;
            while i + 4 <= width {
                let lo = _mm256_loadu_si256(lanes.as_ptr().add(i) as *const __m256i);
                let hi = _mm256_loadu_si256(lanes.as_ptr().add(i + width) as *const __m256i);
                _mm256_storeu_si256(
                    lanes.as_mut_ptr().add(i) as *mut __m256i,
                    _mm256_add_epi64(lo, hi),
                );
                i += 4;
            }
        }
        while width > 1 {
            width /= 2;
            for l in 0..width {
                lanes[l] = lanes[l].wrapping_add(lanes[l + width]);
            }
        }
        lanes[0]
    }

    // -- Dispatch (the `arch` twins of the portable dispatchers) ------------

    /// SAFETY: caller must have verified AVX2 support (the `Isa::Avx2` gate).
    /// Only kernels [`kernel_isa`] selects AVX2 for reach here: i64 programs
    /// and float programs whose plan stages at most [`A_TAPS`] taps.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dispatch_fused_chunk_avx2(
        fused: &FusedKernel,
        x: i64,
        w: usize,
        n: usize,
        tap_bases: &[i64],
        out_base: i64,
        lane_depth: usize,
        binds: &BindTable,
        vars: &[i64],
    ) {
        macro_rules! run {
            ($eval:ident, $ops:expr, $w:literal) => {{
                let lanes =
                    $eval::<$w>($ops, &fused.taps, x, n, tap_bases, lane_depth, binds, vars);
                store_chunk(fused, out_base, x, n, &lanes, binds);
            }};
        }
        match (&fused.prog, &fused.arch_plan, w) {
            (LaneProgram::I64(ops), _, 16) => run!(eval_chunk_i64_avx2, ops, 16),
            (LaneProgram::I64(ops), _, 8) => run!(eval_chunk_i64_avx2, ops, 8),
            (LaneProgram::I64(ops), _, _) => run!(eval_chunk_i64_avx2, ops, 4),
            (_, ArchPlan::F32(plan), 32) => run!(eval_plan_f32_avx2, plan, 32),
            (_, ArchPlan::F32(plan), 16) => run!(eval_plan_f32_avx2, plan, 16),
            (_, ArchPlan::F32(plan), _) => run!(eval_plan_f32_avx2, plan, 8),
            (_, ArchPlan::F64(plan), 16) => run!(eval_plan_f64_avx2, plan, 16),
            (_, ArchPlan::F64(plan), 8) => run!(eval_plan_f64_avx2, plan, 8),
            (_, ArchPlan::F64(plan), _) => run!(eval_plan_f64_avx2, plan, 4),
            (_, ArchPlan::Int, _) => unreachable!("i32 kernels run the portable lanes"),
        }
    }

    /// SAFETY: caller must have verified AVX2 support (the `Isa::Avx2` gate).
    /// Only i64 reductions reach here (see [`kernel_isa`]).
    pub(super) unsafe fn dispatch_reduce_chunk_avx2(
        rk: &ReduceKernel,
        x: i64,
        n: usize,
        tap_bases: &[i64],
        lane_depth: usize,
        binds: &BindTable,
        vars: &[i64],
    ) -> i64 {
        let LaneProgram::I64(ops) = &rk.prog else {
            unreachable!("only i64 reductions run on AVX2")
        };
        let lanes = eval_chunk_i64_avx2::<{ MAX_CHUNK / 2 }>(
            ops, &rk.taps, x, n, tap_bases, lane_depth, binds, vars,
        );
        tree_sum_i64_avx2(lanes, n)
    }
}

// ---------------------------------------------------------------------------
// Entry points: prepare (compile once) / run (execute many)
// ---------------------------------------------------------------------------

/// A lowered statement compiled for repeated execution: every store's typed
/// lane programs, the slot table (output, images, roots, scoped allocations)
/// and the loop-nest metadata. Building the plan is the expensive step;
/// [`run`] only binds buffers and walks the loops.
///
/// The plan bakes scalar-parameter values and buffer element types into its
/// programs, so it is only valid for the binding signature it was prepared
/// against — [`crate::cache::CacheKey`] enforces this for cached plans.
#[derive(Debug)]
pub struct ExecPlan {
    stmt: Stmt,
    prepared: Prepared,
    /// Element type of each output buffer, in slot order (slot `i` is output
    /// `i`). Single-output plans have exactly one entry; multi-output fused
    /// nests ([`prepare_multi`]) have one per produced stage.
    output_tys: Vec<ScalarType>,
    image_names: Vec<String>,
    root_names: Vec<String>,
}

impl ExecPlan {
    /// Number of stores compiled with a fused SIMD lane kernel (tier 1),
    /// across all lane families. The kernel selection is part of the plan,
    /// so cached plans keep it.
    pub fn fused_store_count(&self) -> usize {
        self.fused_store_counts().total()
    }

    /// Per-lane-family fused-kernel counts (see [`FusedStoreCounts`]): which
    /// of the plan's stores run `[i32; W]`, `[i64; W/2]`, `[f32; W]` or
    /// `[f64; W/2]` chunks on tier 1.
    pub fn fused_store_counts(&self) -> FusedStoreCounts {
        let mut counts = FusedStoreCounts::default();
        for store in self.prepared.stores.iter().flatten() {
            match store.fused.as_ref().map(|f| f.family()) {
                Some(LaneFamily::I32) => counts.lanes_i32 += 1,
                Some(LaneFamily::I64) => counts.lanes_i64 += 1,
                Some(LaneFamily::F32) => counts.lanes_f32 += 1,
                Some(LaneFamily::F64) => counts.lanes_f64 += 1,
                None => {}
            }
        }
        counts
    }

    /// Number of compiled stores in the plan.
    pub fn store_count(&self) -> usize {
        self.prepared.stores.iter().filter(|s| s.is_some()).count()
    }

    /// Number of output buffers the plan produces (1 for ordinary plans,
    /// more for multi-output fused nests built via [`prepare_multi`]).
    pub fn output_count(&self) -> usize {
        self.output_tys.len()
    }

    /// Number of [`Stmt::SlideWindow`] nodes in the plan's loop nest — the
    /// sliding-window `compute_at` allocations the locality tier manages.
    pub fn sliding_window_count(&self) -> usize {
        self.stmt.sliding_window_count()
    }

    /// Window extents (rows of the slid dimension) of every
    /// [`Stmt::SlideWindow`] node in the plan, in visit order. A window of
    /// extent `E` re-uses `E - 1` rows per warm attach iteration.
    pub fn sliding_window_extents(&self) -> Vec<usize> {
        self.stmt.sliding_window_extents()
    }

    /// Number of guarded (reduction) stores in the plan — the lowered update
    /// definitions executing through the compiled engine.
    pub fn guarded_store_count(&self) -> usize {
        self.prepared
            .stores
            .iter()
            .flatten()
            .filter(|s| s.clamp)
            .count()
    }

    /// Number of guarded stores that compiled a fused accumulation kernel
    /// (the lane tree-reduce path), by lane family.
    pub fn reduce_store_counts(&self) -> FusedStoreCounts {
        let mut counts = FusedStoreCounts::default();
        for store in self.prepared.stores.iter().flatten() {
            match store.reduce.as_ref().map(|r| r.family()) {
                Some(LaneFamily::I32) => counts.lanes_i32 += 1,
                Some(LaneFamily::I64) => counts.lanes_i64 += 1,
                Some(LaneFamily::F32) | Some(LaneFamily::F64) | None => {}
            }
        }
        counts
    }

    /// Per-store compile-time profiles (see [`StoreProfile`]): the tier each
    /// store selected plus the shape facts — tap count, stencil halo radius,
    /// guarded/reduce/merge admissibility — that a cost model needs to
    /// predict the plan's run time without executing it. Kernel selection is
    /// part of the plan, so cached plans report the same profiles.
    ///
    /// `target` is the resolved [`Target`] the plan will execute under; each
    /// store with a fused or reduce kernel reports the lane ISA
    /// ([`StoreProfile::selected_isa`]) its kernel resolves to under that
    /// target on this host — the same per-family rule the executing path
    /// dispatches and counts by, so a dry run predicts exactly what it runs.
    pub fn store_profiles(&self, target: Target) -> Vec<StoreProfile> {
        let isa = target.effective_isa();
        self.prepared
            .stores
            .iter()
            .flatten()
            .map(|store| {
                let (taps, max_tap_offset) = match &store.fused {
                    Some(f) => (
                        f.taps.len(),
                        f.taps
                            .iter()
                            .flat_map(|t| t.dims.iter())
                            .map(|d| d.konst.abs())
                            .max()
                            .unwrap_or(0),
                    ),
                    None => (0, 0),
                };
                let selected_isa = match (&store.fused, &store.reduce) {
                    (Some(f), _) => kernel_isa(f.family(), f.taps.len(), isa),
                    (None, Some(r)) => kernel_isa(r.family(), r.taps.len(), isa),
                    (None, None) => Isa::Portable,
                };
                StoreProfile {
                    fused: store.fused.as_ref().map(|f| f.family()),
                    taps,
                    max_tap_offset,
                    guarded: store.clamp,
                    reduce: store.reduce.as_ref().map(|r| r.family()),
                    parallel_reduce: store.merge.is_some(),
                    selected_isa,
                }
            })
            .collect()
    }
}

/// Compile a lowered statement into an [`ExecPlan`].
///
/// `images` and `roots` declare the read-only source buffers by name and
/// element type, in the exact order [`run`] will bind them; `output_name` is
/// bound writable with element type `output_ty`. Slot registration order
/// mirrors the interpreter's source resolution: images first, then roots
/// (which shadow same-named images), with the output always addressable under
/// its own name.
///
/// # Errors
/// Returns an error if a referenced buffer or parameter is missing.
pub fn prepare(
    stmt: Stmt,
    output_name: &str,
    output_ty: ScalarType,
    images: &[(String, ScalarType)],
    roots: &[(String, ScalarType)],
    params: &BTreeMap<String, Value>,
) -> Result<ExecPlan, RealizeError> {
    prepare_multi(
        stmt,
        &[(output_name.to_string(), output_ty)],
        images,
        roots,
        params,
    )
}

/// Compile a lowered statement producing several output buffers (a
/// multi-output fused nest) into an [`ExecPlan`]. The outputs occupy slots
/// `0..outputs.len()` writable, in order, followed by the images and roots —
/// [`run_multi_with_target`] binds output buffers in the same order. With a
/// single output this is exactly [`prepare`].
///
/// # Errors
/// Returns an error if a referenced buffer or parameter is missing.
pub fn prepare_multi(
    stmt: Stmt,
    outputs: &[(String, ScalarType)],
    images: &[(String, ScalarType)],
    roots: &[(String, ScalarType)],
    params: &BTreeMap<String, Value>,
) -> Result<ExecPlan, RealizeError> {
    let mut ctx = PrepareCtx {
        params,
        decls: Vec::new(),
        slot_ids: BTreeMap::new(),
        alloc_slots: BTreeMap::new(),
        stores: Vec::new(),
        var_depths: BTreeMap::new(),
        var_bounds: BTreeMap::new(),
        depth: 0,
        max_depth: 0,
        max_stack: 1,
        max_arity: 1,
    };
    for (name, ty) in outputs {
        ctx.add_slot(name, *ty, true);
    }
    for (name, ty) in images {
        ctx.add_slot(name, *ty, false);
    }
    for (name, ty) in roots {
        ctx.add_slot(name, *ty, false);
    }
    ctx.walk(&stmt)?;
    Ok(ExecPlan {
        stmt,
        prepared: Prepared {
            decls: ctx.decls,
            alloc_slots: ctx.alloc_slots,
            stores: ctx.stores,
            max_depth: ctx.max_depth,
            max_stack: ctx.max_stack,
            max_arity: ctx.max_arity,
        },
        output_tys: outputs.iter().map(|(_, ty)| *ty).collect(),
        image_names: images.iter().map(|(n, _)| n.clone()).collect(),
        root_names: roots.iter().map(|(n, _)| n.clone()).collect(),
    })
}

/// Execute a prepared plan against the given buffers with the process-wide
/// [`Target::current`]. See [`run_with_target`].
///
/// # Errors
/// Returns an error if a declared image or root buffer is not provided.
pub fn run(
    plan: &ExecPlan,
    output: &mut Buffer,
    images: &BTreeMap<String, &Buffer>,
    roots: &BTreeMap<String, Buffer>,
    params: &BTreeMap<String, Value>,
) -> Result<(), RealizeError> {
    run_with_target(plan, output, images, roots, params, Target::current())
}

/// Execute a prepared plan against the given buffers: the per-call half of
/// the compile/run split. Binds the output writable plus the declared images
/// and roots read-only (`Allocate` nodes bind their scratch buffers during
/// execution), then walks the loop nest. `target` selects which execution
/// tiers fused stores may use and which lane ISA the fused chunks execute on
/// (its features resolve through [`Target::effective_isa`] once per run);
/// every target produces bit-identical buffers.
///
/// # Errors
/// Returns an error if a declared image or root buffer is not provided.
pub fn run_with_target(
    plan: &ExecPlan,
    output: &mut Buffer,
    images: &BTreeMap<String, &Buffer>,
    roots: &BTreeMap<String, Buffer>,
    params: &BTreeMap<String, Value>,
    target: Target,
) -> Result<(), RealizeError> {
    run_multi_with_target(plan, &mut [output], images, roots, params, target)
}

/// Execute a prepared multi-output plan: binds `outputs` writable to slots
/// `0..outputs.len()` in the order [`prepare_multi`] declared them, then runs
/// like [`run_with_target`]. Increments the [`multi_output_nests_executed`]
/// counter when more than one output is produced.
///
/// # Errors
/// Returns an error if a declared image or root buffer is not provided.
pub fn run_multi_with_target(
    plan: &ExecPlan,
    outputs: &mut [&mut Buffer],
    images: &BTreeMap<String, &Buffer>,
    roots: &BTreeMap<String, Buffer>,
    params: &BTreeMap<String, Value>,
    target: Target,
) -> Result<(), RealizeError> {
    debug_assert_eq!(
        outputs.len(),
        plan.output_tys.len(),
        "output buffer count must match the prepared plan"
    );
    let bind_of = |b: &Buffer| SlotBind {
        ptr: b.bytes().as_ptr() as *mut u8,
        byte_len: b.bytes().len(),
        extents: b.extents().to_vec(),
        strides: b.strides().to_vec(),
    };
    let mut binds: Vec<Option<SlotBind>> = Vec::with_capacity(plan.prepared.decls.len());
    for (output, ty) in outputs.iter_mut().zip(&plan.output_tys) {
        debug_assert_eq!(
            output.scalar_type(),
            *ty,
            "output buffer type must match the prepared plan"
        );
        binds.push(Some(SlotBind {
            ptr: output.bytes_mut().as_mut_ptr(),
            byte_len: output.bytes().len(),
            extents: output.extents().to_vec(),
            strides: output.strides().to_vec(),
        }));
    }
    if outputs.len() > 1 {
        MULTI_OUTPUT_NESTS.fetch_add(1, Ordering::Relaxed);
    }
    for name in &plan.image_names {
        let buf = images
            .get(name)
            .ok_or_else(|| RealizeError::MissingInput(name.clone()))?;
        binds.push(Some(bind_of(buf)));
    }
    for name in &plan.root_names {
        let buf = roots
            .get(name)
            .ok_or_else(|| RealizeError::UndefinedFunc(name.clone()))?;
        binds.push(Some(bind_of(buf)));
    }
    // Allocate slots bind at runtime.
    binds.resize(plan.prepared.decls.len(), None);

    let runner = Runner {
        prepared: &plan.prepared,
        params,
        tier: target.tier(),
        isa: target.effective_isa(),
    };
    let mut binds = BindTable(binds);
    let mut env: Vec<(String, i64)> = Vec::new();
    let mut vars = vec![0i64; plan.prepared.max_depth.max(1)];
    let mut scratch = Scratch::new(&plan.prepared);
    runner.run(
        &plan.stmt,
        &mut binds,
        &mut env,
        &mut vars,
        &mut scratch,
        false,
    )
}

/// One-shot convenience: [`prepare`] + [`run`] against the given buffers.
///
/// # Errors
/// Returns an error if a referenced buffer or parameter is missing.
pub fn execute(
    stmt: &Stmt,
    output_name: &str,
    output: &mut Buffer,
    images: &BTreeMap<String, &Buffer>,
    roots: &BTreeMap<String, Buffer>,
    params: &BTreeMap<String, Value>,
) -> Result<(), RealizeError> {
    let image_decls: Vec<(String, ScalarType)> = images
        .iter()
        .map(|(n, b)| (n.clone(), b.scalar_type()))
        .collect();
    let root_decls: Vec<(String, ScalarType)> = roots
        .iter()
        .map(|(n, b)| (n.clone(), b.scalar_type()))
        .collect();
    let plan = prepare(
        stmt.clone(),
        output_name,
        output.scalar_type(),
        &image_decls,
        &root_decls,
        params,
    )?;
    run(&plan, output, images, roots, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn u32c(e: Expr) -> Expr {
        Expr::cast(ScalarType::UInt32, e)
    }

    fn tap(dx: i64, dy: i64) -> Expr {
        u32c(Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x"), Expr::int(dx)),
                Expr::add(Expr::var("y"), Expr::int(dy)),
            ],
        ))
    }

    /// `for y: for[vectorized(width)] x: out[x, y] = value`
    fn nest(w: i64, h: i64, width: usize, value: Expr) -> Stmt {
        Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "y".into(),
                min: Expr::int(0),
                extent: Expr::int(h),
                kind: LoopKind::Serial,
                body: Box::new(Stmt::For {
                    var: "x".into(),
                    min: Expr::int(0),
                    extent: Expr::int(w),
                    kind: LoopKind::Vectorized { width },
                    body: Box::new(Stmt::Store {
                        id: 0,
                        buffer: "out".into(),
                        indices: vec![Expr::var("x"), Expr::var("y")],
                        value,
                    }),
                }),
            }),
        }
    }

    fn input(w: usize, h: usize, seed: u64) -> Buffer {
        let mut b = Buffer::new(ScalarType::UInt8, &[w, h]);
        let mut s = seed | 1;
        for c in b.coords().collect::<Vec<_>>() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.set(&c, Value::Int(((s >> 33) % 256) as i64));
        }
        b
    }

    fn plan_for(stmt: Stmt, out_ty: ScalarType) -> ExecPlan {
        prepare(
            stmt,
            "out",
            out_ty,
            &[("in".to_string(), ScalarType::UInt8)],
            &[],
            &BTreeMap::new(),
        )
        .expect("prepare")
    }

    /// Run the plan under both forced modes and assert bit-identical outputs
    /// (the per-op tier is the established oracle).
    fn assert_modes_agree(plan: &ExecPlan, extents: &[usize], img: &Buffer) {
        let images: BTreeMap<String, &Buffer> = [("in".to_string(), img)].into_iter().collect();
        let mut scalar = Buffer::new(plan.output_tys[0], extents);
        let mut simd = Buffer::new(plan.output_tys[0], extents);
        let params = BTreeMap::new();
        run_with_target(
            plan,
            &mut scalar,
            &images,
            &BTreeMap::new(),
            &params,
            Target::detect().with_tier(Tier::Scalar),
        )
        .expect("scalar run");
        run_with_target(
            plan,
            &mut simd,
            &images,
            &BTreeMap::new(),
            &params,
            Target::detect().with_tier(Tier::Simd),
        )
        .expect("simd run");
        assert_eq!(scalar, simd, "tiers diverged");
    }

    /// The lifted sharpen shape: negative taps encoded as `4294967295 * x`
    /// relying on u32 wrap-around, then a logical shift of the wrapped sum.
    #[test]
    fn fused_kernel_covers_u32_wraparound_shapes() {
        let neg = |e: Expr| u32c(Expr::mul(Expr::int(4294967295), e));
        let sum = u32c(Expr::add(
            u32c(Expr::add(
                u32c(Expr::add(
                    Expr::int(2),
                    u32c(Expr::mul(Expr::int(8), tap(1, 1))),
                )),
                neg(tap(0, 1)),
            )),
            neg(tap(2, 1)),
        ));
        let value = Expr::cast(
            ScalarType::UInt8,
            u32c(Expr::bin(BinOp::Shr, sum, Expr::uint(2))),
        );
        for (w, h) in [(13i64, 7i64), (31, 5), (8, 8)] {
            let plan = plan_for(nest(w, h, 8, value.clone()), ScalarType::UInt8);
            assert_eq!(plan.fused_store_count(), 1, "sharpen shape must fuse");
            for seed in [1u64, 99] {
                assert_modes_agree(&plan, &[w as usize, h as usize], &input(17, 11, seed));
            }
        }
    }

    /// The peephole collapses load/scale/accumulate chains into Axpy superops.
    #[test]
    fn peephole_fuses_multiply_accumulate_taps() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Shr,
                Expr::add(
                    Expr::add(Expr::int(2), Expr::mul(Expr::int(2), tap(1, 1))),
                    Expr::add(tap(0, 1), tap(2, 1)),
                ),
                Expr::uint(2),
            ),
        );
        let plan = plan_for(nest(16, 8, 8, value), ScalarType::UInt8);
        let fused = plan.prepared.stores[0]
            .as_ref()
            .and_then(|s| s.fused.as_ref())
            .expect("blur shape must fuse");
        let LaneProgram::I32(ops) = &fused.prog else {
            panic!("blur shape must fuse on i32 lanes, got {:?}", fused.prog);
        };
        let axpys = ops
            .iter()
            .filter(|op| matches!(op, VOp::Axpy { .. }))
            .count();
        assert!(axpys >= 2, "expected fused taps, got ops {ops:?}");
        assert_eq!(fused.taps.len(), 3, "distinct taps deduplicated");
    }

    /// Boundary clamping (negative and past-the-end offsets) is preserved by
    /// the interior/boundary split on odd/prime extents.
    #[test]
    fn interior_split_preserves_boundary_clamping() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Shr,
                Expr::add(tap(-2, -1), Expr::add(tap(0, 0), tap(3, 2))),
                Expr::uint(1),
            ),
        );
        for width in [8usize, 16, 32] {
            for (w, h) in [(7i64, 5i64), (13, 11), (37, 3), (4, 4)] {
                let plan = plan_for(nest(w, h, width, value.clone()), ScalarType::UInt8);
                assert_eq!(plan.fused_store_count(), 1);
                assert_modes_agree(
                    &plan,
                    &[w as usize, h as usize],
                    &input(w as usize, h as usize, 7),
                );
            }
        }
    }

    /// Lane ramps (the loop variable in the value) and broadcast taps
    /// (lane-invariant loads) both fuse and agree with the per-op tier.
    #[test]
    fn ramp_and_broadcast_taps_fuse() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::add(
                Expr::mul(Expr::var("x"), Expr::int(3)),
                u32c(Expr::Image("in".into(), vec![Expr::int(0), Expr::var("y")])),
            ),
        );
        let plan = plan_for(nest(19, 5, 16, value), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 1);
        assert_modes_agree(&plan, &[19, 5], &input(19, 5, 3));
    }

    /// Scheduled widths beyond MAX_LANES batch rather than truncate: a
    /// vectorize(32) loop produces the same buffer as vectorize(1), on the
    /// per-op tier (forced scalar) as well as the fused tier.
    #[test]
    fn wide_vector_widths_batch_rather_than_truncate() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::add(Expr::mul(Expr::var("x"), Expr::int(7)), tap(1, 0)),
        );
        let baseline_plan = plan_for(nest(45, 3, 1, value.clone()), ScalarType::UInt8);
        let wide_plan = plan_for(nest(45, 3, 32, value), ScalarType::UInt8);
        let img = input(45, 3, 11);
        let images: BTreeMap<String, &Buffer> = [("in".to_string(), &img)].into_iter().collect();
        let params = BTreeMap::new();
        let mut baseline = Buffer::new(ScalarType::UInt8, &[45, 3]);
        run_with_target(
            &baseline_plan,
            &mut baseline,
            &images,
            &BTreeMap::new(),
            &params,
            Target::detect().with_tier(Tier::Scalar),
        )
        .expect("baseline");
        for mode in [
            Target::detect().with_tier(Tier::Scalar),
            Target::detect(),
            Target::detect().with_tier(Tier::Simd),
        ] {
            let mut out = Buffer::new(ScalarType::UInt8, &[45, 3]);
            run_with_target(
                &wide_plan,
                &mut out,
                &images,
                &BTreeMap::new(),
                &params,
                mode,
            )
            .expect("wide");
            assert_eq!(out, baseline, "vectorize(32) diverged under {mode:?}");
        }
    }

    /// Shapes the 32-bit lane invariant cannot cover stay on the per-op tier:
    /// float outputs, float math, u64-typed loads, strided lane access.
    #[test]
    fn unfusable_shapes_keep_per_op_tier() {
        // Float output type.
        let plan = plan_for(nest(8, 4, 8, tap(0, 0)), ScalarType::Float32);
        assert_eq!(plan.fused_store_count(), 0);
        // Float arithmetic in the value.
        let fvalue = Expr::cast(
            ScalarType::UInt8,
            Expr::mul(tap(0, 0), Expr::ConstFloat(0.5, ScalarType::Float32)),
        );
        let plan = plan_for(nest(8, 4, 8, fvalue), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 0);
        // Strided (non-contiguous, non-broadcast) lane access.
        let strided = Expr::cast(
            ScalarType::UInt8,
            Expr::Image(
                "in".into(),
                vec![Expr::mul(Expr::var("x"), Expr::int(2)), Expr::var("y")],
            ),
        );
        let plan = plan_for(nest(8, 4, 8, strided), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 0);
        // And the per-op tier still executes them correctly (smoke).
        assert_modes_agree(&plan, &[8, 4], &input(16, 4, 5));
    }

    /// The fused-rows counter observes tier-1 execution.
    #[test]
    fn fused_rows_counter_advances_under_force_simd() {
        let plan = plan_for(nest(64, 16, 16, tap(0, 0)), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 1);
        let img = input(64, 16, 23);
        let images: BTreeMap<String, &Buffer> = [("in".to_string(), &img)].into_iter().collect();
        let params = BTreeMap::new();
        let mut out = Buffer::new(ScalarType::UInt8, &[64, 16]);
        let before = fused_rows_executed();
        run_with_target(
            &plan,
            &mut out,
            &images,
            &BTreeMap::new(),
            &params,
            Target::detect().with_tier(Tier::Simd),
        )
        .expect("run");
        assert!(
            fused_rows_executed() > before,
            "fused interior must have executed"
        );
    }

    /// Min/max and select shapes fuse when intervals prove them exact.
    #[test]
    fn min_max_select_shapes_fuse_and_agree() {
        let clamped = Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Min,
                Expr::bin(
                    BinOp::Max,
                    Expr::bin(BinOp::Sub, tap(1, 0), tap(0, 1)),
                    Expr::int(0),
                ),
                Expr::int(200),
            ),
        );
        let plan = plan_for(nest(23, 9, 8, clamped), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 1, "clamp shape must fuse");
        assert_modes_agree(&plan, &[23, 9], &input(23, 9, 13));

        let select = Expr::cast(
            ScalarType::UInt8,
            Expr::select(
                Expr::cmp(CmpOp::Lt, tap(0, 0), Expr::int(128)),
                Expr::int(255),
                tap(1, 1),
            ),
        );
        let plan = plan_for(nest(23, 9, 8, select), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 1, "select shape must fuse");
        assert_modes_agree(&plan, &[23, 9], &input(23, 9, 17));
    }

    /// UInt16 outputs (narrow but not byte-wide) stay narrow end-to-end.
    #[test]
    fn u16_outputs_fuse() {
        let value = Expr::cast(
            ScalarType::UInt16,
            Expr::add(Expr::mul(tap(0, 0), Expr::int(257)), Expr::int(1)),
        );
        let plan = plan_for(nest(29, 6, 16, value), ScalarType::UInt16);
        assert_eq!(plan.fused_store_count(), 1);
        assert_modes_agree(&plan, &[29, 6], &input(29, 6, 29));
    }

    // -- The `[i64; W/2]` and `[f32; W]` lane families and masked tails -----

    fn plan_with_input(stmt: Stmt, out_ty: ScalarType, in_ty: ScalarType) -> ExecPlan {
        prepare(
            stmt,
            "out",
            out_ty,
            &[("in".to_string(), in_ty)],
            &[],
            &BTreeMap::new(),
        )
        .expect("prepare")
    }

    /// A Float32 input with NaN, infinities, a subnormal and
    /// rounding-sensitive values sprinkled among ordinary data.
    fn finput(w: usize, h: usize, seed: u64) -> Buffer {
        let mut b = Buffer::new(ScalarType::Float32, &[w, h]);
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-40, // f32 subnormal after the store's narrowing
            -0.0,
            0.1,
            1.0 / 3.0,
        ];
        let mut s = seed | 1;
        for (i, c) in b.coords().collect::<Vec<_>>().into_iter().enumerate() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = if i % 5 == 3 {
                specials[(s >> 33) as usize % specials.len()]
            } else {
                ((s >> 29) as i64 % 4096) as f64 / 8.0 - 128.0
            };
            b.set(&c, Value::Float(v));
        }
        b
    }

    /// A raw Float32 tap (bit-exact load, no widening cast in the AST).
    fn ftap(dx: i64, dy: i64) -> Expr {
        Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x"), Expr::int(dx)),
                Expr::add(Expr::var("y"), Expr::int(dy)),
            ],
        )
    }

    fn f32c(e: Expr) -> Expr {
        Expr::cast(ScalarType::Float32, e)
    }

    /// The f32 lane family fuses rounding-disciplined float stencils (every
    /// op under a `cast<float>`, as lifted single-precision SSE code is) and
    /// matches the per-op tier bit-for-bit — including NaN/Inf/subnormal
    /// inputs.
    #[test]
    fn f32_lane_family_fuses_and_agrees() {
        // smooth-like: ((a + b) rounded) * w rounded, + center * w2 rounded.
        let value = f32c(Expr::add(
            f32c(Expr::mul(
                f32c(Expr::add(ftap(-1, 0), ftap(1, 0))),
                Expr::ConstFloat((1.0f32 / 12.0) as f64, ScalarType::Float32),
            )),
            f32c(Expr::mul(
                ftap(0, 0),
                Expr::ConstFloat(0.5, ScalarType::Float32),
            )),
        ));
        for width in [8usize, 16, 32] {
            for (w, h) in [(13i64, 7i64), (31, 5), (8, 8), (5, 3)] {
                let plan = plan_with_input(
                    nest(w, h, width, value.clone()),
                    ScalarType::Float32,
                    ScalarType::Float32,
                );
                assert_eq!(plan.fused_store_counts().lanes_f32, 1, "must fuse on f32");
                for seed in [1u64, 77] {
                    assert_modes_agree(
                        &plan,
                        &[w as usize, h as usize],
                        &finput(w as usize + 2, h as usize + 2, seed),
                    );
                }
            }
        }
    }

    /// Min/max, compares, selects, division and sqrt fuse on f32 lanes under
    /// rounding discipline and agree bit-for-bit (NaN propagation and ±0.0
    /// selection included).
    #[test]
    fn f32_value_sensitive_shapes_fuse_and_agree() {
        let value = Expr::select(
            Expr::cmp(
                CmpOp::Lt,
                ftap(0, 0),
                Expr::ConstFloat(0.0, ScalarType::Float32),
            ),
            f32c(Expr::Call(ExternCall::Sqrt, vec![ftap(1, 1)])),
            Expr::bin(
                BinOp::Min,
                f32c(Expr::bin(BinOp::Div, ftap(1, 0), ftap(0, 1))),
                Expr::bin(
                    BinOp::Max,
                    ftap(0, 0),
                    Expr::ConstFloat(-2.5, ScalarType::Float32),
                ),
            ),
        );
        let plan = plan_with_input(
            nest(23, 9, 8, value),
            ScalarType::Float32,
            ScalarType::Float32,
        );
        assert_eq!(plan.fused_store_counts().lanes_f32, 1);
        assert_modes_agree(&plan, &[23, 9], &finput(25, 11, 9));
    }

    /// Float shapes outside the rounding discipline must not fuse: unrounded
    /// arithmetic (the reference computes it in f64), f64-only constants, and
    /// Float64 outputs.
    #[test]
    fn f32_family_rejects_unrounded_shapes() {
        // An inner a + b with no cast<float> between it and the enclosing
        // multiply: the reference keeps the unrounded f64 sum as the multiply
        // operand, which no f32 lane can carry. (A top-level a + b *does*
        // fuse — the Float32 store itself is the rounding point.)
        let unrounded = f32c(Expr::mul(
            Expr::add(ftap(-1, 0), ftap(1, 0)),
            Expr::ConstFloat(0.5, ScalarType::Float32),
        ));
        let plan = plan_with_input(
            nest(8, 4, 8, unrounded.clone()),
            ScalarType::Float32,
            ScalarType::Float32,
        );
        assert_eq!(plan.fused_store_count(), 0, "unrounded add must not fuse");
        // A constant that needs f64 precision.
        let f64_const = f32c(Expr::mul(
            ftap(0, 0),
            Expr::ConstFloat(0.1, ScalarType::Float64),
        ));
        let plan = plan_with_input(
            nest(8, 4, 8, f64_const),
            ScalarType::Float32,
            ScalarType::Float32,
        );
        assert_eq!(
            plan.fused_store_count(),
            0,
            "f64-only constant must not fuse"
        );
        // Float64 output: the reference representation itself, no shortcut.
        let plan = plan_with_input(
            nest(
                8,
                4,
                8,
                f32c(Expr::mul(
                    ftap(0, 0),
                    Expr::ConstFloat(0.5, ScalarType::Float32),
                )),
            ),
            ScalarType::Float64,
            ScalarType::Float32,
        );
        assert_eq!(plan.fused_store_count(), 0, "f64 output must not fuse");
        // And the per-op tier still executes them correctly (smoke).
        let plan = plan_with_input(
            nest(8, 4, 8, unrounded),
            ScalarType::Float32,
            ScalarType::Float32,
        );
        assert_modes_agree(&plan, &[8, 4], &finput(10, 6, 5));
    }

    /// UInt64 outputs — where the 32-bit wrap proofs are vacuous — fuse on
    /// the i64 family, whose lanes are the exact reference values.
    #[test]
    fn i64_lane_family_covers_u64_outputs() {
        let value = Expr::cast(
            ScalarType::UInt64,
            Expr::add(
                Expr::mul(tap(0, 0), Expr::int(0x1_0000_0001)),
                Expr::bin(
                    BinOp::Shl,
                    Expr::cast(ScalarType::UInt64, tap(1, 1)),
                    Expr::int(33),
                ),
            ),
        );
        for width in [8usize, 16, 32] {
            let plan = plan_for(nest(21, 6, width, value.clone()), ScalarType::UInt64);
            assert_eq!(plan.fused_store_counts().lanes_i64, 1, "must fuse on i64");
            assert_modes_agree(&plan, &[21, 6], &input(23, 8, 3));
        }
    }

    /// A ≤32-bit output whose interval proofs fail falls back from the i32
    /// family to the i64 family rather than to the per-op tier.
    #[test]
    fn i64_family_rescues_unprovable_narrow_outputs() {
        // min over values far outside u32: the i32 family cannot prove MinS
        // or MinU exact, the i64 family needs no proof.
        let value = Expr::cast(
            ScalarType::UInt32,
            Expr::bin(
                BinOp::Min,
                Expr::mul(tap(0, 0), Expr::int(1 << 40)),
                Expr::int(1 << 41),
            ),
        );
        let plan = plan_for(nest(19, 5, 8, value), ScalarType::UInt32);
        let counts = plan.fused_store_counts();
        assert_eq!(
            (counts.lanes_i32, counts.lanes_i64),
            (0, 1),
            "unprovable narrow output must ride the i64 family"
        );
        assert_modes_agree(&plan, &[19, 5], &input(21, 7, 11));
    }

    // -- The `[f64; W/2]` lane family and the arch (AVX2) dispatch ----------

    /// A Float64 input with NaN, infinities, ±0 and irrationals sprinkled
    /// among ordinary data — f64 lanes carry the reference values, so even
    /// the specials must survive every path bit-for-bit.
    fn dinput(w: usize, h: usize, seed: u64) -> Buffer {
        let mut b = Buffer::new(ScalarType::Float64, &[w, h]);
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.1,
            1.0 / 3.0,
            std::f64::consts::PI,
        ];
        let mut s = seed | 1;
        for (i, c) in b.coords().collect::<Vec<_>>().into_iter().enumerate() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = if i % 5 == 3 {
                specials[(s >> 33) as usize % specials.len()]
            } else {
                ((s >> 29) as i64 % 4096) as f64 / 8.0 - 128.0
            };
            b.set(&c, Value::Float(v));
        }
        b
    }

    fn dconst(v: f64) -> Expr {
        Expr::ConstFloat(v, ScalarType::Float64)
    }

    /// The f64 family needs no rounding discipline: unrounded smooth-style
    /// arithmetic (the exact shape the f32 family must reject) fuses directly
    /// because the lanes are the reference representation. This is the
    /// original double-precision miniGMG smooth shape.
    #[test]
    fn f64_lane_family_fuses_and_agrees() {
        let value = Expr::add(
            Expr::mul(Expr::add(ftap(-1, 0), ftap(1, 0)), dconst(1.0 / 12.0)),
            Expr::mul(ftap(0, 0), dconst(0.5)),
        );
        for width in [8usize, 16, 32] {
            for (w, h) in [(13i64, 7i64), (31, 5), (8, 8), (5, 3)] {
                let plan = plan_with_input(
                    nest(w, h, width, value.clone()),
                    ScalarType::Float64,
                    ScalarType::Float64,
                );
                assert_eq!(plan.fused_store_counts().lanes_f64, 1, "must fuse on f64");
                for seed in [1u64, 77] {
                    assert_modes_agree(
                        &plan,
                        &[w as usize, h as usize],
                        &dinput(w as usize + 2, h as usize + 2, seed),
                    );
                }
            }
        }
    }

    /// Min/max, compares, selects, division and sqrt on f64 lanes are the
    /// reference ops verbatim and agree bit-for-bit (NaN propagation and
    /// ±0.0 selection included).
    #[test]
    fn f64_value_sensitive_shapes_fuse_and_agree() {
        let value = Expr::select(
            Expr::cmp(CmpOp::Lt, ftap(0, 0), dconst(0.0)),
            Expr::Call(ExternCall::Sqrt, vec![ftap(1, 1)]),
            Expr::bin(
                BinOp::Min,
                Expr::bin(BinOp::Div, ftap(1, 0), ftap(0, 1)),
                Expr::bin(BinOp::Max, ftap(0, 0), dconst(-2.5)),
            ),
        );
        let plan = plan_with_input(
            nest(23, 9, 8, value),
            ScalarType::Float64,
            ScalarType::Float64,
        );
        assert_eq!(plan.fused_store_counts().lanes_f64, 1);
        assert_modes_agree(&plan, &[23, 9], &dinput(25, 11, 9));
    }

    /// Integer taps and the loop variable mix into f64 arithmetic: within
    /// ±2^53 their promotion is exact, so narrow integer inputs ride the f64
    /// family. All-integer arithmetic must still reject (the reference wraps
    /// on i64), as must UInt64 taps (outside the exact range).
    #[test]
    fn f64_family_admits_exact_int_leaves_only() {
        // Raw u8 tap × f64 weight + the lane variable: mixed, fuses. (A
        // `cast<u32>`-wrapped tap would not — integer casts leave the exact
        // domain, so only raw integer loads are admissible leaves.)
        let mixed = Expr::add(
            Expr::mul(ftap(0, 0), dconst(0.25)),
            Expr::mul(Expr::var("x"), dconst(1.5)),
        );
        let plan = plan_with_input(
            nest(19, 5, 8, mixed),
            ScalarType::Float64,
            ScalarType::UInt8,
        );
        assert_eq!(plan.fused_store_counts().lanes_f64, 1, "mixed must fuse");
        assert_modes_agree(&plan, &[19, 5], &input(21, 7, 5));

        // All-integer arithmetic under a Float64 output: must not fuse on
        // f64 lanes (reference wraps on i64 before the final promotion).
        let all_int = Expr::add(ftap(0, 0), ftap(1, 1));
        let plan = plan_with_input(
            nest(8, 4, 8, all_int),
            ScalarType::Float64,
            ScalarType::UInt8,
        );
        assert_eq!(
            plan.fused_store_counts().lanes_f64,
            0,
            "all-int arithmetic must not ride f64 lanes"
        );

        // UInt64 taps exceed ±2^53: reject.
        let u64_tap = Expr::mul(ftap(0, 0), dconst(0.5));
        let plan = plan_with_input(
            nest(8, 4, 8, u64_tap),
            ScalarType::Float64,
            ScalarType::UInt64,
        );
        assert_eq!(
            plan.fused_store_counts().lanes_f64,
            0,
            "u64 taps must not ride f64 lanes"
        );
    }

    /// Whether `run` can execute without advancing [`arch_rows_executed`].
    /// The counter is process-wide and other tests run concurrently, so one
    /// quiet run out of several suffices: a kernel whose chunks run on AVX2
    /// advances it on every run.
    fn runs_portable(mut run: impl FnMut()) -> bool {
        (0..32).any(|_| {
            let before = arch_rows_executed();
            run();
            arch_rows_executed() == before
        })
    }

    /// [`kernel_isa`]'s rule, executed: under an AVX2 target an f64 kernel
    /// runs the arch plan evaluator (the [`arch_rows_executed`] counter
    /// advances) while an i32 kernel stays on the portable lanes, both
    /// bit-identical to a portable target, which never touches the arch
    /// path. Skipped with a notice on hosts without AVX2.
    #[test]
    fn arch_dispatch_agrees_with_portable_and_counts_rows() {
        use crate::target::Feature;
        if !Target::detect().has(Feature::Avx2) {
            eprintln!("skipping arch_dispatch test: host has no AVX2");
            return;
        }
        let int_value = Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Shr,
                Expr::add(
                    Expr::add(Expr::int(2), Expr::mul(Expr::int(2), tap(1, 1))),
                    Expr::add(tap(0, 1), tap(2, 1)),
                ),
                Expr::uint(2),
            ),
        );
        let f64_value = Expr::add(
            Expr::mul(Expr::add(ftap(-1, 0), ftap(1, 0)), dconst(1.0 / 12.0)),
            Expr::mul(ftap(0, 0), dconst(0.5)),
        );
        let arch = Target::with_features(&[Feature::Avx2]).with_tier(Tier::Simd);
        let portable = Target::portable().with_tier(Tier::Simd);
        let run = |plan: &ExecPlan, img: &Buffer, target: Target| {
            let images: BTreeMap<String, &Buffer> = [("in".to_string(), img)].into_iter().collect();
            let mut out = Buffer::new(plan.output_tys[0], &[37, 9]);
            run_with_target(
                plan,
                &mut out,
                &images,
                &BTreeMap::new(),
                &BTreeMap::new(),
                target,
            )
            .expect("run");
            out
        };

        let int_plan = plan_for(nest(37, 9, 16, int_value), ScalarType::UInt8);
        assert_eq!(int_plan.fused_store_counts().lanes_i32, 1);
        let img = input(39, 11, 3);
        let expect = run(&int_plan, &img, portable);
        let before = fused_rows_executed();
        assert!(
            runs_portable(|| assert_eq!(run(&int_plan, &img, arch), expect, "i32 lanes diverged")),
            "an AVX2 target must run i32 kernels on the portable lanes"
        );
        assert!(
            fused_rows_executed() > before,
            "the i32 kernel must run fused"
        );

        let f64_plan = plan_with_input(
            nest(37, 9, 16, f64_value),
            ScalarType::Float64,
            ScalarType::Float64,
        );
        assert_eq!(f64_plan.fused_store_counts().lanes_f64, 1);
        let img = dinput(39, 11, 7);
        let expect = run(&f64_plan, &img, portable);
        assert!(
            runs_portable(|| {
                run(&f64_plan, &img, portable);
            }),
            "portable target must not touch the arch path"
        );
        let before = arch_rows_executed();
        assert_eq!(
            run(&f64_plan, &img, arch),
            expect,
            "f64 arch lanes diverged from portable"
        );
        assert!(
            arch_rows_executed() > before,
            "AVX2 target must execute arch rows for f64 kernels"
        );
    }

    /// [`ExecPlan::store_profiles`] reports [`kernel_isa`]'s choice under the
    /// given target on this host: portable targets always report portable,
    /// and an AVX2 target reports AVX2 for an f64 kernel (on AVX2 hosts) but
    /// portable for an i32 one.
    #[test]
    fn store_profiles_report_selected_isa() {
        use crate::target::Feature;
        let int_plan = plan_for(nest(16, 4, 8, tap(0, 0)), ScalarType::UInt8);
        assert_eq!(int_plan.fused_store_counts().lanes_i32, 1);
        let f64_plan = plan_with_input(
            nest(16, 4, 8, Expr::add(ftap(0, 0), ftap(1, 0))),
            ScalarType::Float64,
            ScalarType::Float64,
        );
        assert_eq!(f64_plan.fused_store_counts().lanes_f64, 1);
        let avx2 = Target::with_features(&[Feature::Avx2]);
        // Avx2 on AVX2 hosts, else Portable.
        for (plan, expect) in [
            (&int_plan, Isa::Portable),
            (&f64_plan, avx2.effective_isa()),
        ] {
            for p in plan.store_profiles(Target::portable()) {
                assert_eq!(p.selected_isa, Isa::Portable);
            }
            for p in plan.store_profiles(avx2) {
                assert_eq!(p.selected_isa, expect, "store must report the kernel's ISA");
            }
        }
        // The float tap cap is the plan evaluators' table length.
        assert_eq!(kernel_isa(LaneFamily::F32, A_TAPS, Isa::Avx2), Isa::Avx2);
        assert_eq!(
            kernel_isa(LaneFamily::F64, A_TAPS + 1, Isa::Avx2),
            Isa::Portable
        );
    }

    /// Sub-width interior tails run as fused chunks (masked below one chunk,
    /// overlapping above) instead of peeling onto the per-op tier: extents
    /// below, at and around the chunk width all stay bit-exact and the tail
    /// counter advances for the non-dividing ones.
    #[test]
    fn masked_and_overlapping_tails_keep_small_extents_on_tier1() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::bin(
                BinOp::Shr,
                Expr::add(tap(0, 0), Expr::add(tap(1, 0), tap(2, 0))),
                Expr::uint(1),
            ),
        );
        // Chunk width is 8 (vectorize(8)); input is wide enough that the
        // interior spans the whole row for every extent.
        for w in [3i64, 5, 7, 8, 9, 15, 16, 17] {
            let plan = plan_for(nest(w, 4, 8, value.clone()), ScalarType::UInt8);
            assert_eq!(plan.fused_store_count(), 1);
            let rows_before = fused_rows_executed();
            let tails_before = fused_tail_chunks_executed();
            assert_modes_agree(&plan, &[w as usize, 4], &input(24, 6, 13));
            assert!(
                fused_rows_executed() > rows_before,
                "extent {w}: fused interior must have executed"
            );
            if w % 8 != 0 {
                assert!(
                    fused_tail_chunks_executed() > tails_before,
                    "extent {w}: the sub-width tail must run as a fused chunk"
                );
            }
        }
    }

    /// A store whose value reads its own buffer must refuse fusion entirely
    /// (chunked evaluation would observe its own writes) — and therefore
    /// also the overlapping-chunk tail variant.
    #[test]
    fn self_aliasing_store_refuses_fusion() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::add(
                Expr::FuncRef(
                    "out".into(),
                    vec![Expr::add(Expr::var("x"), Expr::int(-1)), Expr::var("y")],
                ),
                tap(0, 0),
            ),
        );
        let plan = plan_for(nest(16, 4, 8, value), ScalarType::UInt8);
        assert_eq!(
            plan.fused_store_count(),
            0,
            "self-aliasing store must stay on the per-op tier"
        );
    }

    /// `for r: reduce out[0] = out(0) + in(r)` — the canonical accumulator
    /// nest a lowered update produces.
    fn reduce_nest(extent: i64, value: Expr) -> Stmt {
        Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "r_0.x".into(),
                min: Expr::int(0),
                extent: Expr::int(extent),
                kind: LoopKind::Serial,
                body: Box::new(Stmt::ReduceStore {
                    id: 0,
                    buffer: "out".into(),
                    indices: vec![Expr::int(0)],
                    value,
                }),
            }),
        }
    }

    fn accum_value(g: Expr) -> Expr {
        Expr::cast(
            ScalarType::UInt64,
            Expr::add(Expr::FuncRef("out".into(), vec![Expr::int(0)]), g),
        )
    }

    #[test]
    fn reduce_kernel_compiles_and_matches_per_op_tier() {
        let g = Expr::cast(
            ScalarType::UInt64,
            Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into()), Expr::int(0)]),
        );
        for extent in [1i64, 7, 15, 16, 17, 100, 257] {
            let plan = plan_for(
                reduce_nest(extent, accum_value(g.clone())),
                ScalarType::UInt64,
            );
            assert_eq!(plan.guarded_store_count(), 1);
            assert_eq!(
                plan.reduce_store_counts().lanes_i64,
                1,
                "u64 accumulator rides exact i64 lanes"
            );
            let img = input(300, 1, 99);
            let images: BTreeMap<String, &Buffer> =
                [("in".to_string(), &img)].into_iter().collect();
            let expect: u64 = (0..extent as usize)
                .map(|i| img.get(&[i as i64, 0]).as_i64() as u64)
                .fold(0, u64::wrapping_add);
            for mode in [
                Target::detect().with_tier(Tier::Scalar),
                Target::detect(),
                Target::detect().with_tier(Tier::Simd),
            ] {
                let mut out = Buffer::new(ScalarType::UInt64, &[1]);
                run_with_target(
                    &plan,
                    &mut out,
                    &images,
                    &BTreeMap::new(),
                    &BTreeMap::new(),
                    mode,
                )
                .expect("run");
                assert_eq!(
                    out.get(&[0]).as_i64() as u64,
                    expect,
                    "extent {extent} mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn reduce_kernel_rejects_unsupported_shapes() {
        // g reading the accumulator buffer itself: must not chunk.
        let self_g = Expr::cast(
            ScalarType::UInt64,
            Expr::FuncRef("out".into(), vec![Expr::RVar("r_0.x".into())]),
        );
        let plan = plan_for(reduce_nest(16, accum_value(self_g)), ScalarType::UInt64);
        assert_eq!(plan.reduce_store_counts().total(), 0);
        // A data-dependent LHS (histogram) is not loop-invariant: no kernel,
        // but the guarded store still compiles onto the per-op tier.
        let lhs = Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into()), Expr::int(0)]);
        let hist = Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "r_0.x".into(),
                min: Expr::int(0),
                extent: Expr::int(32),
                kind: LoopKind::Serial,
                body: Box::new(Stmt::ReduceStore {
                    id: 0,
                    buffer: "out".into(),
                    indices: vec![lhs.clone()],
                    value: Expr::cast(
                        ScalarType::UInt64,
                        Expr::add(Expr::FuncRef("out".into(), vec![lhs]), Expr::int(1)),
                    ),
                }),
            }),
        };
        let plan = plan_for(hist, ScalarType::UInt64);
        assert_eq!(plan.guarded_store_count(), 1);
        assert_eq!(plan.reduce_store_counts().total(), 0);
        // Float accumulators never fuse (f32/f64 addition is not associative).
        let fplan = prepare(
            reduce_nest(
                16,
                Expr::add(
                    Expr::FuncRef("out".into(), vec![Expr::int(0)]),
                    Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into()), Expr::int(0)]),
                ),
            ),
            "out",
            ScalarType::Float64,
            &[("in".to_string(), ScalarType::UInt8)],
            &[],
            &BTreeMap::new(),
        )
        .expect("prepare");
        assert_eq!(fplan.reduce_store_counts().total(), 0);
    }

    #[test]
    fn guarded_store_clamps_destination_indices() {
        // reduce out[r - 2] = out(r - 2) + 1 over r in [0, 8): indices -2..5
        // clamp to [0, 3] exactly like Buffer::set.
        let idx = Expr::add(Expr::RVar("r_0.x".into()), Expr::int(-2));
        let nest = Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "r_0.x".into(),
                min: Expr::int(0),
                extent: Expr::int(8),
                kind: LoopKind::Serial,
                body: Box::new(Stmt::ReduceStore {
                    id: 0,
                    buffer: "out".into(),
                    indices: vec![idx.clone()],
                    value: Expr::cast(
                        ScalarType::UInt32,
                        Expr::add(Expr::FuncRef("out".into(), vec![idx]), Expr::int(1)),
                    ),
                }),
            }),
        };
        let plan =
            prepare(nest, "out", ScalarType::UInt32, &[], &[], &BTreeMap::new()).expect("prepare");
        let mut out = Buffer::new(ScalarType::UInt32, &[4]);
        run(
            &plan,
            &mut out,
            &BTreeMap::new(),
            &BTreeMap::new(),
            &BTreeMap::new(),
        )
        .expect("run");
        // Indices -2, -1, 0 clamp onto element 0 (three hits); 3, 4, 5 clamp
        // onto element 3 (three hits, reads clamping identically).
        assert_eq!(out.get(&[0]).as_i64(), 3);
        assert_eq!(out.get(&[1]).as_i64(), 1);
        assert_eq!(out.get(&[2]).as_i64(), 1);
        assert_eq!(out.get(&[3]).as_i64(), 3);
    }

    /// 2-D histogram nest with a [`LoopKind::ParallelReduce`] outer loop, the
    /// shape `lower_update` tags for `reduce hist[in(r.x, r.y)] += 1`.
    fn parallel_hist_nest(w: i64, h: i64, threads: usize) -> Stmt {
        let lhs = Expr::Image(
            "in".into(),
            vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
        );
        Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "r_0.y".into(),
                min: Expr::int(0),
                extent: Expr::int(h),
                kind: LoopKind::ParallelReduce { threads },
                body: Box::new(Stmt::For {
                    var: "r_0.x".into(),
                    min: Expr::int(0),
                    extent: Expr::int(w),
                    kind: LoopKind::Serial,
                    body: Box::new(Stmt::ReduceStore {
                        id: 0,
                        buffer: "out".into(),
                        indices: vec![lhs.clone()],
                        value: Expr::cast(
                            ScalarType::UInt64,
                            Expr::add(Expr::FuncRef("out".into(), vec![lhs]), Expr::int(1)),
                        ),
                    }),
                }),
            }),
        }
    }

    #[test]
    fn parallel_reduce_histogram_matches_serial_reference() {
        for threads in [1usize, 4] {
            let plan = plan_for(parallel_hist_nest(23, 9, threads), ScalarType::UInt64);
            let img = input(23, 9, 0xB16B);
            let images: BTreeMap<String, &Buffer> =
                [("in".to_string(), &img)].into_iter().collect();
            // ForceScalar degrades the tagged loop to the serial reference
            // path — the oracle for the deferred run.
            let mut reference = Buffer::new(ScalarType::UInt64, &[64]);
            run_with_target(
                &plan,
                &mut reference,
                &images,
                &BTreeMap::new(),
                &BTreeMap::new(),
                Target::detect().with_tier(Tier::Scalar),
            )
            .expect("scalar run");
            let before = CounterSnapshot::take();
            let mut deferred = Buffer::new(ScalarType::UInt64, &[64]);
            run_with_target(
                &plan,
                &mut deferred,
                &images,
                &BTreeMap::new(),
                &BTreeMap::new(),
                Target::detect(),
            )
            .expect("deferred run");
            assert_eq!(reference, deferred, "threads {threads}");
            assert!(
                before.delta().parallel_reduce_merges >= 1,
                "deferred path must have merged (threads {threads})"
            );
        }
    }

    #[test]
    fn parallel_reduce_accumulator_rides_fused_chunks() {
        // A loop-invariant accumulator under a ParallelReduce loop: the
        // deferred path routes the interior through the existing fused
        // tree-reduce chunks, accumulating into the side-buffer cell.
        let g = Expr::cast(
            ScalarType::UInt64,
            Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into()), Expr::int(0)]),
        );
        let extent = 257i64;
        let nest = Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "r_0.x".into(),
                min: Expr::int(0),
                extent: Expr::int(extent),
                kind: LoopKind::ParallelReduce { threads: 2 },
                body: Box::new(Stmt::ReduceStore {
                    id: 0,
                    buffer: "out".into(),
                    indices: vec![Expr::int(0)],
                    value: accum_value(g),
                }),
            }),
        };
        let plan = plan_for(nest, ScalarType::UInt64);
        assert_eq!(
            plan.reduce_store_counts().lanes_i64,
            1,
            "the reduce kernel must still compile under ParallelReduce"
        );
        let img = input(300, 1, 99);
        let images: BTreeMap<String, &Buffer> = [("in".to_string(), &img)].into_iter().collect();
        let expect: u64 = (0..extent as usize)
            .map(|i| img.get(&[i as i64, 0]).as_i64() as u64)
            .fold(0, u64::wrapping_add);
        let before = CounterSnapshot::take();
        let mut out = Buffer::new(ScalarType::UInt64, &[1]);
        run_with_target(
            &plan,
            &mut out,
            &images,
            &BTreeMap::new(),
            &BTreeMap::new(),
            Target::detect(),
        )
        .expect("run");
        assert_eq!(out.get(&[0]).as_i64() as u64, expect);
        let delta = before.delta();
        assert!(delta.parallel_reduce_merges >= 1, "merge must have run");
        assert!(delta.reduce_chunks >= 1, "interior must ride fused chunks");
    }

    #[test]
    fn parallel_reduce_degrades_to_serial_when_merge_inadmissible() {
        // g reads the accumulator buffer, so no deferred plan compiles and
        // the tagged nest must fall back to the serial reference order
        // (which this order-dependent recurrence detects exactly).
        let lhs = Expr::RVar("r_0.x".into());
        let nest = Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "r_0.x".into(),
                min: Expr::int(0),
                extent: Expr::int(8),
                kind: LoopKind::ParallelReduce { threads: 4 },
                body: Box::new(Stmt::ReduceStore {
                    id: 0,
                    buffer: "out".into(),
                    indices: vec![lhs.clone()],
                    value: Expr::cast(
                        ScalarType::UInt64,
                        Expr::add(
                            Expr::FuncRef("out".into(), vec![lhs]),
                            Expr::add(
                                Expr::FuncRef("out".into(), vec![Expr::int(0)]),
                                Expr::int(1),
                            ),
                        ),
                    ),
                }),
            }),
        };
        let plan =
            prepare(nest, "out", ScalarType::UInt64, &[], &[], &BTreeMap::new()).expect("prepare");
        let mut out = Buffer::new(ScalarType::UInt64, &[8]);
        run_with_target(
            &plan,
            &mut out,
            &BTreeMap::new(),
            &BTreeMap::new(),
            &BTreeMap::new(),
            Target::detect(),
        )
        .expect("run");
        // Serial order: out[0] = 0 + (0 + 1) = 1, then every later element
        // reads the updated out[0]: out[r] = 0 + (1 + 1) = 2.
        assert_eq!(out.get(&[0]).as_i64(), 1);
        for r in 1..8 {
            assert_eq!(out.get(&[r]).as_i64(), 2, "element {r}");
        }
    }

    #[test]
    fn counter_snapshot_delta_is_scoped() {
        // Deltas are computed against the live counters, so concurrent work
        // only ever grows them — a snapshot scope sees at least its own
        // activity and never a negative (saturating) difference.
        let before = CounterSnapshot::take();
        let plan = plan_for(parallel_hist_nest(16, 4, 1), ScalarType::UInt64);
        let img = input(16, 4, 7);
        let images: BTreeMap<String, &Buffer> = [("in".to_string(), &img)].into_iter().collect();
        let mut out = Buffer::new(ScalarType::UInt64, &[32]);
        run_with_target(
            &plan,
            &mut out,
            &images,
            &BTreeMap::new(),
            &BTreeMap::new(),
            Target::detect(),
        )
        .expect("run");
        let mid = before.delta();
        assert!(mid.parallel_reduce_merges >= 1);
        let later = before.delta();
        assert!(later.parallel_reduce_merges >= mid.parallel_reduce_merges);
        assert!(later.fused_rows >= mid.fused_rows);
        assert!(later.fused_tails >= mid.fused_tails);
        assert!(later.reduce_chunks >= mid.reduce_chunks);
    }
}
