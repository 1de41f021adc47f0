//! The compiled executor for lowered loop-nest IR.
//!
//! Execution has three tiers, fastest first; every store is compiled to the
//! best tier its shape admits and the others remain as fallbacks:
//!
//! 1. **Fused SIMD lane kernels.** At [`prepare`] time each store under a
//!    vectorized innermost loop is additionally compiled — when its loads
//!    are affine in the loop variables and contiguous (or invariant) along
//!    the lane dimension — into a single fused kernel over one of four
//!    *lane families*, each with its own bit-exactness invariant:
//!
//!    | family      | lanes per chunk  | outputs            | exactness invariant |
//!    |-------------|------------------|--------------------|---------------------|
//!    | `[i32; W]`  | `W` ∈ {8,…,64}   | ≤ 32-bit integers  | lanes hold the low 32 bits of the reference `i64` value; wrapping/bitwise ops are low-bit homomorphic, value-sensitive ops (shifts, min/max, compares, selects) only emitted when interval analysis proves the 32-bit result exact |
//!    | `[i64; W/2]`| `W/2` ∈ {4,…,32} | any integer (incl. `UInt64`) | lanes *are* the reference `i64` value — every emitted op replicates [`eval_binop`](crate::expr::eval_binop) integer semantics verbatim, so no wrap proofs are needed (they would be vacuous) |
//!    | `[f32; W]`  | `W` ∈ {8,…,64}   | `Float32`          | lanes hold values bit-exactly representable in `f32`; arithmetic is only emitted at *rounding points* (an enclosing `cast<float>` or the store's own narrowing), where a single `f32` rounding of exact-`f32` operands equals the reference's compute-in-`f64`-then-round (innocuous double rounding: 53 ≥ 2·24 + 2 significant bits, for +, −, ×, ÷ and sqrt) |
//!    | `[f64; W/2]`| `W/2` ∈ {4,…,32} | `Float64`          | lanes *are* the reference `f64` value — every emitted op mirrors the reference op, so every position is a rounding point; only integer leaves need a proof (within ±2^53 their promotion is exact), and `cast<float>` is rejected |
//!
//!    Integer stores try the `[i32; W]` family first and fall back to
//!    `[i64; W/2]` when the 32-bit proofs fail, so wide-valued idioms (64-bit
//!    histogram bins, unprovable shifts) still fuse at half throughput.
//!
//!    Two compiler walks build the four families' lane programs, each
//!    generic over the lane carrier (`LaneConst`): `FusedBuilder::fuse_int`
//!    for the integer lanes and `FusedBuilder::fuse_float`, which carries a
//!    rounding-context flag, for the float lanes. Where two families'
//!    exactness arguments differ, the lane type decides. `LaneConst::EXACT`
//!    separates the exact-value families (`i64`, `f64`) from the proven ones:
//!    `i32` gates value-sensitive ops on intervals and reads 32-bit casts as
//!    reinterpretations, while `i64` replays casts as `Mask` / `Sext32` and
//!    compares signed; `f32` emits arithmetic only at rounding points. The
//!    lane type's exact integer range, constant round trip and width decide
//!    which constants, loop variables and loads a family admits.
//!    The kernels evaluate fixed-width chunks with constant trip counts that
//!    LLVM reliably turns into SIMD, loading taps as straight slices with
//!    *no per-lane clamping* and storing whole chunks contiguously. The
//!    chunk length comes from the row, not the schedule: each row's interior
//!    runs the widest chunk that fits it (`LaneFamily::chunk_lanes`, up to
//!    [`MAX_CHUNK`] lanes), so a 64-lane tile row costs one dispatch of the
//!    op stream. The chunk stack lives in the worker's `Scratch` and the
//!    result goes straight into the output.
//!    Narrow types stay narrow end-to-end: a `UInt8` blur runs as u8 loads →
//!    i32 arithmetic → u8 stores, never widening to `i64`/`f64`.
//! 2. **Per-op typed lane dispatch.** Every store compiles to typed stack
//!    programs (`TOp`) whose int lanes are `i64` and float lanes `f64`,
//!    with clamped, gather-style loads — the general path, and the one the
//!    fused tier's boundary peels run on. A dispatch evaluates [`MAX_LANES`]
//!    lanes under a vectorized loop and one lane otherwise.
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
//!   with a wrapping in-lane tree-reduce (`ReduceKernel` documents the
//!   congruence-mod-`2^k` argument that makes reassociation exact; float
//!   accumulators never take this path because float addition is not
//!   associative). `Auto` mode always uses a compiled reduce kernel —
//!   rdom loops are serial, so there is no vectorized loop to gate on —
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
//! in full chunks of the widest width that fits it; the border lanes before
//! and after it run the clamped per-op tier — so boundary clamping semantics
//! are preserved exactly while the hot interior pays for none of it. A
//! sub-width interior tail does not peel onto the per-op tier: after at
//! least one full chunk, the final chunk simply *overlaps* the previous one
//! (re-storing identical lanes — sound because the kernel is deterministic
//! and reads nothing it wrote; stores that read their own buffer are refused
//! fusion outright, at build time, via [`crate::stmt::value_reads_buffer`]
//! and the tap-slot check); an interior shorter than the narrowest chunk
//! instead runs a single *masked* chunk that loads and stores only the
//! provably in-range lane prefix (the other lanes hold stale values and are
//! never stored). Either way small tiles stay on tier 1 —
//! [`fused_tail_chunks_executed`] counts these tail chunks.
//!
//! **Sliding windows.** [`Stmt::SlideWindow`] manages a `compute_at`
//! allocation as a rolling window: at each attach iteration it compares the
//! region minimum against the previous iteration's (tracked per-thread in
//! the worker's `Scratch`, so parallel chunks just start cold), shifts the
//! surviving rows down in place with one `memmove`, and binds the warm-row
//! count to a pseudo-variable the producer nest's sliding loop starts at —
//! only newly exposed rows are recomputed. Exactness: region inference proved the
//! window's content is a pure function of the sliding minimum, so a shifted
//! row is bit-identical to a recomputed one. [`window_rows_reused`] counts
//! the rows saved.
//!
//! **Bit-exactness.** Every tier replicates [`Value`] semantics exactly:
//! integer arithmetic wraps, division by zero yields zero, right shifts are
//! logical on `i64`, casts truncate like C casts, and out-of-range loads
//! clamp per [`Buffer::get`]. Floats are carried as `f64` and round at
//! `cast<float>` points and `Float32` stores. Each fused lane family carries
//! its own proof obligation (see the table above): the `[i32; W]` family's
//! interval proofs are what make lifted u32 wrap-around idioms like
//! PhotoFlow's `4294967295 * x` negative taps fusable; the `[i64; W/2]`
//! and `[f64; W/2]` families need no proofs because their lanes are the
//! reference values; the `[f32; W]` family's rounding-point discipline makes
//! lifted single-precision SSE code (every instruction rounds at `f32`) fuse
//! while expressions that genuinely accumulate in `f64` fall back a tier.
//! Anything unprovable falls back a tier. The differential property suites
//! in `tests/prop_halide.rs` and `tests/prop_simd.rs` enforce equality
//! against the interpreter across all tiers, element types (including NaN,
//! ±Inf and subnormal float inputs) and extents.
//!
//! Backend selection is a [`Target`]: an execution [`Tier`] (pin the fused
//! tier on or off, or let the runner choose), resolved once at compile time
//! ([`crate::compile::CompileOptions::target`], defaulting to
//! [`Target::current`] — env pins live in [`Target::from_env`]). The ISA is
//! no knob: every fused chunk runs the portable constant-trip lane loops —
//! one generic tap decoder, chunk store and float evaluator over the lane
//! type (`LaneConst`), plus the integer evaluator — and the compiler builds
//! each row of them twice. `fused_rows` is one always-inlined body per lane
//! family and chunk width (the chunk loop, the evaluator and the store, with
//! no closure between them); `fused_rows_base` builds it for the baseline
//! (SSE2 on x86-64) and `fused_rows_avx2` under
//! `#[target_feature(enable = "avx2")]`. [`prepare`] records
//! [`Target::effective_isa`] in the plan, and each batch of fused rows calls
//! the matching build, so the AVX2 one runs only where the CPU reports AVX2
//! and no caller can ask for it. Both builds write the same bytes. A family
//! keeps the second build only where it pays (`LaneConst::AVX2`): the
//! `i32`, `i64` and `f32` rows have it, the `f64` rows and the tree-reduce
//! run the baseline build alone (README's "ISA selection" has the numbers).
//!
//! **Fused float ops.** The float lanes have their own peephole
//! (`float_peephole`, beside the integer one): a tap or constant that is the
//! right operand of an arithmetic op fuses into it, a constant × tap product
//! becomes one push, and adding such a product one accumulate — the float
//! counterpart of the integer `Axpy`. A sum-of-products stencil thus becomes
//! one push plus in-place ops, each tap streaming from its slice straight
//! into the running chunk. Every fused op keeps the roundings and operand
//! order of the ops it replaces (no fused multiply-add), so the bytes are
//! unchanged.
//!
//! Since the compile/run split, store compilation happens once in [`prepare`]
//! (producing an [`ExecPlan`] that the program cache retains — including the
//! per-store fused-kernel selection) and [`run`] only binds buffers and
//! walks the loop nest. The loop control is compiled too: `prepare` resolves
//! every loop variable to a slot of the runner's `vars` and every loop bound
//! to a `Bound` program (affine terms over those slots, `min`/`max` tail
//! clamps), so no loop entry looks up a name. The rows of a fused store step
//! their tap and output indices by the row variable's coefficients instead
//! of re-evaluating them, and each worker counts its rows in its `Scratch`,
//! adding them to the process-wide counters once when it finishes.
//!
//! **Safety.** Worker threads share buffers through raw pointers; a `&mut`
//! is only ever formed over the bytes one store writes, which no other
//! thread touches. This is sound because (a) loads only ever
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
//! The other `unsafe` call runs `fused_rows_avx2`, whose AVX2 instructions
//! need a CPU that has them: a plan selects that build only from
//! [`Target::effective_isa`], that is from runtime detection.

use crate::bounds::{combine, expr_interval, Interval};
use crate::buffer::Buffer;
use crate::eval::{eval_expr, EvalSources};
use crate::expr::{BinOp, CmpOp, Expr, ExternCall};
use crate::realize::RealizeError;
use crate::stmt::{
    access_contiguous_in, access_invariant_in, value_reads_buffer, AffineIndex, LoopKind, Stmt,
};
use crate::target::{Isa, Target, Tier};
use crate::types::{ScalarType, Value};
use std::collections::BTreeMap;
use std::ops::{AddAssign, DivAssign, MulAssign, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of lanes evaluated per dispatch of the per-op typed tier under a
/// [`LoopKind::Vectorized`] loop (other loops dispatch one lane at a time),
/// and the width of the scratch register files. Fused SIMD kernels choose
/// their own chunk width (up to [`MAX_CHUNK`]) from each row.
pub const MAX_LANES: usize = 16;

/// Widest fused-kernel chunk (lanes of `i32`/`f32` per kernel invocation;
/// the 64-bit lane families run half as many).
pub const MAX_CHUNK: usize = 64;

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
/// observability and tests — the proof that a sliding window fires.
static WINDOW_ROWS_REUSED: AtomicU64 = AtomicU64::new(0);

/// Fused rows (counted in [`FUSED_ROWS`] too) that ran the AVX2 build of
/// their row loop, for observability and tests.
static ARCH_ROWS: AtomicU64 = AtomicU64::new(0);

/// One worker's share of the per-row counters above, kept in its [`Scratch`]
/// off the shared cache lines and added to the process-wide totals once,
/// when the scratch drops at the end of the worker's run.
#[derive(Debug, Default, Clone)]
struct Counts {
    fused_rows: u64,
    fused_tails: u64,
    reduce_chunks: u64,
    window_rows: u64,
    arch_rows: u64,
}

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
    /// Fused rows (counted in `fused_rows` too) that ran the AVX2 build of
    /// their row loop at snapshot time: on a host with AVX2 every fused row
    /// of the `i32`, `i64` and `f32` lane families, elsewhere none.
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
            arch_rows: ARCH_ROWS.load(Ordering::Relaxed),
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

    /// Write `bytes` at `byte_off` (see [`SlotBind::write_with`]).
    #[inline]
    fn write(&self, byte_off: usize, bytes: &[u8]) {
        self.write_with(byte_off, bytes.len(), |dst| dst.copy_from_slice(bytes));
    }

    /// Let `fill` write the `len` bytes at `byte_off`, forming a `&mut` over
    /// those bytes only.
    ///
    /// # Panics
    /// If the write would reach past the buffer's end (store indices are in
    /// range by loop construction, so this is a bug, never data).
    #[inline(always)]
    fn write_with(&self, byte_off: usize, len: usize, fill: impl FnOnce(&mut [u8])) {
        assert!(
            byte_off <= self.byte_len && len <= self.byte_len - byte_off,
            "raw store of {len} bytes at {byte_off} overruns a {}-byte buffer",
            self.byte_len
        );
        // SAFETY: in bounds per the assert; concurrent writers target
        // disjoint ranges and nothing reads the stored bytes meanwhile, per
        // the module-level invariant.
        fill(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(byte_off), len) });
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

/// Rounding-point arithmetic of the float lanes: `a ∘ b` with one rounding
/// in the lane type, the left operand first (operand order decides which
/// NaN payload survives, so every op keeps the reference's order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
}

impl Arith {
    /// `a[l] = a[l] ∘ b[l]` on every lane.
    #[inline(always)]
    fn lanes<L: FloatLane, const W: usize>(self, a: &mut [L; W], b: &[L; W]) {
        match self {
            Arith::Add => {
                for l in 0..W {
                    a[l] += b[l];
                }
            }
            Arith::Sub => {
                for l in 0..W {
                    a[l] -= b[l];
                }
            }
            Arith::Mul => {
                for l in 0..W {
                    a[l] *= b[l];
                }
            }
            Arith::Div => {
                for l in 0..W {
                    a[l] /= b[l];
                }
            }
        }
    }
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
///
/// The last four ops are [`float_peephole`]'s fusions of adjacent
/// const/load/arithmetic ops, the float counterpart of [`VOp::Axpy`]: a
/// stencil's taps stream from their slices straight into the running value
/// instead of each taking a full-chunk pass through the stack. Each fused
/// op performs the same roundings in the same operand order as the ops it
/// replaces (no fused multiply-add), so the results are bit-identical,
/// NaN payloads included — except where two NaNs with different payloads
/// meet in one op: IEEE 754 leaves that payload unspecified, and the
/// compiler may commute the operands of `+` and `×` on any tier.
#[derive(Debug, Clone, PartialEq)]
enum FOp<C> {
    /// Push a broadcast constant (proven lane-exact at compile time).
    Const(C),
    /// Push the loop variable at `depth` as float lanes (a lane ramp at the
    /// lane depth; the variable's interval is proven lane-exact).
    Var(usize),
    /// Push tap `tap`'s lanes (float loads, or integer loads converted —
    /// exactly — to the lane type).
    Load(usize),
    /// Rounding-point arithmetic on the top two values.
    Arith(Arith),
    /// Exact selection ops, evaluated in f64 per lane to mirror
    /// [`eval_binop`](crate::expr::eval_binop)'s float branch bit-for-bit
    /// (NaN and ±0.0 included).
    Min,
    Max,
    /// Rounding-point square root.
    Sqrt,
    /// Comparison, yielding 1.0/0.0 mask lanes (the reference's 0/1 integers
    /// are lane-exact).
    Cmp(CmpOp),
    /// `select(cond, t, f)` on three stack values; the condition tests
    /// `lane != 0.0`, which matches `Value::is_true` on the exact value.
    Sel,
    /// Push the product of tap `tap` and `c`: `c · tap` when `c_first`
    /// (from `Const(c), Load(tap), Arith(Mul)`), else `tap · c` (from
    /// `Load(tap), Const(c), Arith(Mul)`).
    PushMul {
        tap: usize,
        c: C,
        c_first: bool,
    },
    /// `top + product`, from `PushMul` then `Arith(Add)`.
    AccAddMul {
        tap: usize,
        c: C,
        c_first: bool,
    },
    /// `top ∘ tap`, from `Load(tap), Arith(∘)`.
    AccLoad(Arith, usize),
    /// `top ∘ c`, from `Const(c), Arith(∘)`.
    AccConst(Arith, C),
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

impl LaneProgram {
    /// The lane family the program runs on.
    fn family(&self) -> LaneFamily {
        match self {
            LaneProgram::I32(_) => LaneFamily::I32,
            LaneProgram::I64(_) => LaneFamily::I64,
            LaneProgram::F32(_) => LaneFamily::F32,
            LaneProgram::F64(_) => LaneFamily::F64,
        }
    }
}

impl LaneFamily {
    /// Lanes per chunk of a fused row whose interior spans `row` lanes: the
    /// widest chunk that fits the row — {8, 16, 32, 64} lanes of `i32` and
    /// `f32`, half as many of the 64-bit `i64` and `f64`, so one chunk
    /// covers the same bytes — or the narrowest one (run masked) when none
    /// fits. The schedule plays no part.
    pub fn chunk_lanes(self, row: usize) -> usize {
        let widest = match self {
            LaneFamily::I32 | LaneFamily::F32 => MAX_CHUNK,
            LaneFamily::I64 | LaneFamily::F64 => MAX_CHUNK / 2,
        };
        let mut w = widest;
        while w > widest / 8 && w > row {
            w /= 2;
        }
        w
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
            ScalarType::UInt8 | ScalarType::UInt16 | ScalarType::UInt32 | ScalarType::Int32 => self
                .build_lanes::<i32>(value)
                .or_else(|| self.build_lanes::<i64>(value)),
            ScalarType::UInt64 => self.build_lanes::<i64>(value),
            ScalarType::Float32 => self.build_lanes::<f32>(value),
            // Float64 values are the reference representation itself, so the
            // `[f64; W/2]` family is exact by construction (no rounding
            // discipline needed — every FOp mirrors the reference op).
            ScalarType::Float64 => self.build_lanes::<f64>(value),
        };
        let (prog, taps) = built?;
        // A tap aliasing the output would read lanes the kernel just wrote
        // (slot-level check; `self_alias` already covered the name level).
        if taps.iter().any(|t| t.slot == self.out_slot) {
            return None;
        }
        Some(FusedKernel {
            prog,
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
            ScalarType::UInt8 | ScalarType::UInt16 | ScalarType::UInt32 | ScalarType::Int32 => self
                .build_lanes::<i32>(g)
                .or_else(|| self.build_lanes::<i64>(g)),
            ScalarType::UInt64 => self.build_lanes::<i64>(g),
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

    /// Compile `value` onto the lanes of family `L` with its walk
    /// ([`LaneConst::fuse`]), within the kernels' stack-depth cap.
    fn build_lanes<L: LaneConst>(&self, value: &Expr) -> Option<(LaneProgram, Vec<TapAccess>)> {
        let mut emit = VEmit::new();
        L::fuse(self, value, &mut emit)?;
        (emit.max <= V_STACK).then(|| (L::program(emit.ops), emit.taps))
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

    /// Register the load `name(args)` as a tap of `out` (deduplicated),
    /// returning the tap index and the buffer's element type.
    fn tap<Op>(
        &self,
        name: &str,
        args: &[Expr],
        out: &mut VEmit<Op>,
    ) -> Option<(usize, ScalarType)> {
        let slot = *self.slot_ids.get(name)?;
        let ty = self.decls[slot].ty;
        let (dims, lane) = self.tap_dims(args)?;
        Some((
            out.tap(TapAccess {
                slot,
                ty,
                dims,
                lane,
            }),
            ty,
        ))
    }

    // -- The integer walk: `[i32; W]` and `[i64; W/2]` lanes ----------------

    /// Compile `e` onto integer lanes `C`, pushing ops that leave its lanes
    /// on the stack, and return a sound interval of the reference `i64`
    /// value. `None` aborts fusion.
    ///
    /// Wrapping and bitwise ops are homomorphic in the low bits, so both
    /// families emit them unconditionally. The families part at
    /// value-sensitive ops, by [`LaneConst::EXACT`]. `i64` lanes *are* the
    /// reference value: every op replicates
    /// [`eval_binop`](crate::expr::eval_binop) /
    /// [`eval_cmp`](crate::expr::eval_cmp) /
    /// [`Value::cast`] verbatim (casts replay as `Mask` / `Sext32`, min/max
    /// and comparisons are signed), so nothing needs a proof. `i32` lanes
    /// hold its low 32 bits: shifts, min/max, comparisons and selects are
    /// emitted only where the intervals prove the 32-bit result exact, and
    /// 32-bit casts are reinterpretations that only narrow the interval.
    fn fuse_int<C: LaneConst>(&self, e: &Expr, out: &mut VEmit<VOp<C>>) -> Option<Interval> {
        // Whether a value-sensitive op is exact on these lanes: always on
        // exact lanes, else when every operand lies within `range`.
        let exact_in =
            |range: Interval, ivs: &[Interval]| C::EXACT || ivs.iter().all(|iv| iv.within(range));
        match e {
            Expr::ConstInt(v, ty) if !ty.is_float() => {
                out.push(VOp::Const(C::from_i64(*v)), 1);
                Some(Interval::point(*v))
            }
            Expr::ConstInt(..) | Expr::ConstFloat(..) | Expr::Call(..) => None,
            Expr::Param(name, _) => match self.params.get(name) {
                Some(Value::Int(v)) => {
                    out.push(VOp::Const(C::from_i64(*v)), 1);
                    Some(Interval::point(*v))
                }
                _ => None,
            },
            Expr::Var(name) | Expr::RVar(name) => {
                let depth = *self.var_depths.get(name)?;
                let iv = *self.var_bounds.get(name)?;
                // Lane ramps compute `x + l` in the lane type.
                if !iv.within(C::exact_ints()) {
                    return None;
                }
                out.push(VOp::Var(depth), 1);
                Some(iv)
            }
            Expr::Cast(ty, inner) => {
                let iv = self.fuse_int(inner, out)?;
                if ty.is_float() {
                    return None;
                }
                // `UInt64` keeps the i64 value.
                let Some(range) = Interval::of_type(*ty) else {
                    return Some(iv);
                };
                let within = iv.within(range);
                if C::EXACT && *ty == ScalarType::Int32 {
                    out.push(VOp::Sext32, 0);
                } else if (C::EXACT || !within) && (ty.bytes() as u32) * 8 < C::BITS {
                    // Unsigned types narrower than the lanes mask; on i32
                    // lanes an in-range value needs no mask.
                    out.push(VOp::Mask(C::from_i64(range.max)), 0);
                }
                Some(if within { iv } else { range })
            }
            // Quotient/remainder lanes would have to replicate the
            // divide-by-zero and i64::MIN / -1 edge cases per lane — rare in
            // stencils; keep them on the per-op tier.
            Expr::Binary(BinOp::Div | BinOp::Mod, ..) => None,
            Expr::Binary(BinOp::Shr, a, b) => {
                // eval_binop: `(x as u64) >> (y as u64 & 63)`, a logical
                // shift; on i32 lanes it agrees with the 32-bit unsigned
                // shift only for operands within [0, 2^32).
                let s = (const_int_of(b, self.params)? as u64 & 63) as u32;
                let ia = self.fuse_int(a, out)?;
                if !exact_in(Interval::u32_range(), &[ia]) {
                    return None;
                }
                if s >= C::BITS {
                    out.push(VOp::Mask(C::default()), 0);
                } else if s > 0 {
                    out.push(VOp::ShrU(s), 0);
                }
                Some(if ia.min >= 0 {
                    Interval {
                        min: ia.min >> s,
                        max: ia.max >> s,
                    }
                } else {
                    Interval::everything()
                })
            }
            Expr::Binary(BinOp::Shl, a, b) => {
                // eval_binop: `wrapping_shl(y as u32)`, which masks by 63.
                let s_raw = const_int_of(b, self.params)?;
                let s = (s_raw as u32) & 63;
                let ia = self.fuse_int(a, out)?;
                if s >= C::BITS {
                    // The low lane bits of `v << s` are all zero.
                    out.push(VOp::Mask(C::default()), 0);
                } else if s > 0 {
                    out.push(VOp::Shl(s), 0);
                }
                Some(combine(BinOp::Shl, ia, Interval::point(s_raw)))
            }
            Expr::Binary(op @ (BinOp::Min | BinOp::Max), a, b) => {
                let ia = self.fuse_int(a, out)?;
                let ib = self.fuse_int(b, out)?;
                let signed = exact_in(Interval::i32_range(), &[ia, ib]);
                let unsigned = exact_in(Interval::u32_range(), &[ia, ib]);
                let vop = match (op, signed, unsigned) {
                    (BinOp::Min, true, _) => VOp::MinS,
                    (BinOp::Max, true, _) => VOp::MaxS,
                    (BinOp::Min, false, true) => VOp::MinU,
                    (BinOp::Max, false, true) => VOp::MaxU,
                    _ => return None,
                };
                out.push(vop, -1);
                Some(combine(*op, ia, ib))
            }
            Expr::Binary(op, a, b) => {
                // Add/Sub/Mul/And/Or/Xor. The interval (saturating to
                // "everything" on potential i64 wrap) is what downstream
                // value-sensitive ops validate against.
                let vop = match op {
                    BinOp::Add => VOp::Add,
                    BinOp::Sub => VOp::Sub,
                    BinOp::Mul => VOp::Mul,
                    BinOp::And => VOp::And,
                    BinOp::Or => VOp::Or,
                    BinOp::Xor => VOp::Xor,
                    _ => unreachable!("matched above"),
                };
                // The op with a constant operand folded in.
                let fold = |k: i64| {
                    let k = C::from_i64(k);
                    match vop {
                        VOp::Add => VOp::AddC(k),
                        VOp::Sub => VOp::AddC(k.wneg()),
                        VOp::Mul => VOp::MulC(k),
                        VOp::And => VOp::AndC(k),
                        VOp::Or => VOp::OrC(k),
                        _ => VOp::XorC(k),
                    }
                };
                if let Some(k) = const_int_of(b, self.params) {
                    let ia = self.fuse_int(a, out)?;
                    if !(k == 0 && matches!(op, BinOp::Add | BinOp::Sub)) {
                        out.push(fold(k), 0);
                    }
                    return Some(combine(*op, ia, Interval::point(k)));
                }
                if let (Some(k), true) = (const_int_of(a, self.params), *op != BinOp::Sub) {
                    let ib = self.fuse_int(b, out)?;
                    if !(k == 0 && *op == BinOp::Add) {
                        out.push(fold(k), 0);
                    }
                    return Some(combine(*op, Interval::point(k), ib));
                }
                let ia = self.fuse_int(a, out)?;
                let ib = self.fuse_int(b, out)?;
                out.push(vop, -1);
                Some(combine(*op, ia, ib))
            }
            Expr::Cmp(op, a, b) => {
                // eval_cmp's integer branch compares signed i64 regardless
                // of the operands' nominal unsigned types.
                let ia = self.fuse_int(a, out)?;
                let ib = self.fuse_int(b, out)?;
                let vop = if exact_in(Interval::i32_range(), &[ia, ib]) {
                    VOp::CmpS(*op)
                } else if exact_in(Interval::u32_range(), &[ia, ib]) {
                    VOp::CmpU(*op)
                } else {
                    return None;
                };
                out.push(vop, -1);
                Some(Interval { min: 0, max: 1 })
            }
            Expr::Select(c, t, f) => {
                let ic = self.fuse_int(c, out)?;
                // The truth test is on lanes. On i32 lanes it is sound iff
                // zero-faithful: within [i32::MIN, u32::MAX] the value is 0
                // exactly when its low 32 bits are.
                let faithful = Interval {
                    min: i32::MIN as i64,
                    max: u32::MAX as i64,
                };
                if !exact_in(faithful, &[ic]) {
                    return None;
                }
                let it = self.fuse_int(t, out)?;
                let if_ = self.fuse_int(f, out)?;
                out.push(VOp::Sel, -2);
                Some(it.union(if_))
            }
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let (idx, ty) = self.tap(name, args, out)?;
                // Integer elements no wider than the lanes.
                if ty.is_float() || (ty.bytes() as u32) * 8 > C::BITS {
                    return None;
                }
                out.push(VOp::Load(idx), 1);
                Some(Interval::of_type(ty).unwrap_or_else(Interval::everything))
            }
        }
    }

    // -- The float walk: `[f32; W]` and `[f64; W/2]` lanes ------------------

    /// Compile `e` onto float lanes `C` under the invariant that the lanes
    /// hold the reference `f64` value bit-exactly. Returns the expression's
    /// reference kind: integer leaves stay `Kind::Int` (carried as exact
    /// float lanes), and all-integer arithmetic is rejected because the
    /// reference would evaluate it on i64.
    ///
    /// `rounding` marks a *rounding context*: the caller (a `cast<float>` or
    /// the `Float32` store itself) rounds the reference value to `f32`. On
    /// `f32` lanes arithmetic may be emitted only there — one f32 rounding of
    /// exact operands equals the reference's f64 op followed by the cast for
    /// +, −, ×, ÷ and sqrt (f64's 53 significant bits ≥ 2·24 + 2, so the
    /// double rounding is innocuous). Exact (`f64`) lanes replay the
    /// reference's own f64 ops, so every position rounds for them, and they
    /// reject `cast<float>`, whose f32 rounding they cannot replay. Constants,
    /// loop variables and loads are admitted only where the lanes hold them
    /// exactly ([`LaneConst::exact_f64`], [`LaneConst::exact_ints`], loads no
    /// wider than the lanes).
    fn fuse_float<C: LaneConst>(
        &self,
        e: &Expr,
        rounding: bool,
        out: &mut VEmit<FOp<C>>,
    ) -> Option<Kind> {
        let rounding = rounding || C::EXACT;
        let mut push_const = |c: Option<C>, kind: Kind| {
            out.push(FOp::Const(c?), 1);
            Some(kind)
        };
        match e {
            Expr::ConstFloat(v, _) => push_const(C::exact_f64(*v), Kind::Float),
            // `v as f64` is the promotion the reference applies to a
            // float-typed integer constant.
            Expr::ConstInt(v, ty) if ty.is_float() => {
                push_const(C::exact_f64(*v as f64), Kind::Float)
            }
            Expr::ConstInt(v, _) => push_const(C::exact_i64(*v), Kind::Int),
            Expr::Param(name, _) => match self.params.get(name)? {
                Value::Int(v) => push_const(C::exact_i64(*v), Kind::Int),
                Value::Float(f) => push_const(C::exact_f64(*f), Kind::Float),
            },
            Expr::Var(name) | Expr::RVar(name) => {
                let depth = *self.var_depths.get(name)?;
                if !self.var_bounds.get(name)?.within(C::exact_ints()) {
                    return None;
                }
                out.push(FOp::Var(depth), 1);
                Some(Kind::Int)
            }
            // The explicit rounding point: exactly where lifted
            // single-precision code rounds after every SSE instruction.
            Expr::Cast(ScalarType::Float32, inner) if !C::EXACT => {
                self.fuse_float(inner, true, out)?;
                Some(Kind::Float)
            }
            // Widening to the reference representation is the identity on
            // the carried lanes.
            Expr::Cast(ScalarType::Float64, inner) => {
                self.fuse_float(inner, false, out)?;
                Some(Kind::Float)
            }
            // Integer casts leave the float-exact domain.
            Expr::Cast(..) => None,
            Expr::Binary(op, a, b) => {
                let fop = match op {
                    BinOp::Add if rounding => FOp::Arith(Arith::Add),
                    BinOp::Sub if rounding => FOp::Arith(Arith::Sub),
                    BinOp::Mul if rounding => FOp::Arith(Arith::Mul),
                    BinOp::Div if rounding => FOp::Arith(Arith::Div),
                    // Selection of one exact operand needs no rounding
                    // point (evaluated in f64 per lane to match eval_binop
                    // on NaN and ±0.0).
                    BinOp::Min => FOp::Min,
                    BinOp::Max => FOp::Max,
                    // Arithmetic outside a rounding context, and ops the
                    // reference defines on integers only.
                    _ => return None,
                };
                let ka = self.fuse_float(a, false, out)?;
                let kb = self.fuse_float(b, false, out)?;
                if ka == Kind::Int && kb == Kind::Int {
                    // The reference would wrap (or min/max) on i64; leave
                    // all-integer shapes to the integer families.
                    return None;
                }
                out.push(fop, -1);
                Some(Kind::Float)
            }
            Expr::Cmp(op, a, b) => {
                // Comparison of exact values is order-preserving across
                // widths (NaN unordered in both), and the 0/1 result is
                // exact.
                self.fuse_float(a, false, out)?;
                self.fuse_float(b, false, out)?;
                out.push(FOp::Cmp(*op), -1);
                Some(Kind::Int)
            }
            Expr::Select(c, t, f) => {
                self.fuse_float(c, false, out)?;
                let kt = self.fuse_float(t, false, out)?;
                let kf = self.fuse_float(f, false, out)?;
                if kt != kf {
                    // Mirror the typed tier, which falls back on dynamically
                    // typed selects.
                    return None;
                }
                out.push(FOp::Sel, -2);
                Some(kt)
            }
            // The reference computes sqrt in f64 and rounds it like any
            // arithmetic op. Other extern calls stay on the per-op tier.
            Expr::Call(ExternCall::Sqrt, args) if rounding && args.len() == 1 => {
                self.fuse_float(&args[0], false, out)?;
                out.push(FOp::Sqrt, 0);
                Some(Kind::Float)
            }
            Expr::Call(..) => None,
            Expr::Image(name, args) | Expr::FuncRef(name, args) => {
                let (idx, ty) = self.tap(name, args, out)?;
                // Float elements no wider than the lanes are exact (f64
                // lanes widen `Float32` exactly); integer elements promote
                // exactly within the lanes' exact-integer range (`UInt64`
                // has no range and never fuses here).
                let kind = if ty.is_float() {
                    ((ty.bytes() as u32) * 8 <= C::BITS).then_some(Kind::Float)?
                } else {
                    let iv = Interval::of_type(ty)?;
                    iv.within(C::exact_ints()).then_some(Kind::Int)?
                };
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
/// constant type of its ops, the element type of its chunks, and the
/// family's exactness rules. The two compiler walks read the rules
/// ([`LaneConst::EXACT`], `BITS`, the exact ranges), the generic
/// [`peephole`] the wrapping negation, and the generic tap loader, chunk
/// store and float evaluator the conversions.
trait LaneConst: Copy + Default + PartialEq + PartialOrd {
    /// Lane width in bits: the widest element a lane loads, and the shift
    /// count from which integer lanes shift out to zero.
    const BITS: u32 = 8 * std::mem::size_of::<Self>() as u32;
    /// Whether the lanes carry the reference value itself (`i64`, `f64`),
    /// rather than an image of it that holds only under proof (`i32`'s low
    /// 32 bits, `f32` at rounding points).
    const EXACT: bool;
    /// Whether the family's fused rows run an AVX2 build on hosts that have
    /// AVX2: on the ledger's kernels it paid 1.4–1.9× on `i32` lanes,
    /// 1.14–1.26× on `i64` and 1.11–1.16× on `f32`, but 0.98–1.07× on
    /// `f64`, whose rows run the baseline build everywhere.
    const AVX2: bool;
    /// The family's kernel op: [`VOp`] on integer lanes, [`FOp`] on float
    /// lanes.
    type Op;
    /// Compile a store value onto these lanes: the integer walk
    /// ([`FusedBuilder::fuse_int`], then [`peephole`]), or the float walk
    /// ([`FusedBuilder::fuse_float`]) in a rounding context, because the
    /// store narrows like a `cast<float>`.
    fn fuse(b: &FusedBuilder<'_>, value: &Expr, out: &mut VEmit<Self::Op>) -> Option<()>;
    /// Tag a finished op stream with its family.
    fn program(ops: Vec<Self::Op>) -> LaneProgram;
    /// The integers a lane holds exactly, which a lane ramp reaches without
    /// overflow.
    fn exact_ints() -> Interval;
    /// `v` as a lane, when the lane holds the integer exactly.
    fn exact_i64(v: i64) -> Option<Self> {
        Self::exact_ints().contains(v).then(|| Self::from_i64(v))
    }
    /// `v` as a lane, when narrowing and re-widening reproduces its bits
    /// (on f32 lanes this is [`crate::bounds::f64_is_f32_exact`]; f64 lanes
    /// hold every value).
    fn exact_f64(v: f64) -> Option<Self> {
        let c = Self::from_f64(v);
        (c.to_f64().to_bits() == v.to_bits()).then_some(c)
    }
    /// Wrapping negation (two's complement).
    fn wneg(self) -> Self;
    /// The multiplicative identity (the implicit coefficient of a bare tap).
    fn one() -> Self {
        Self::from_i64(1)
    }
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
    /// This family's chunk-stack storage in a worker's [`LaneStacks`].
    fn stack(stacks: &mut LaneStacks) -> &mut Vec<Self>;
    /// Evaluate one chunk of a fused kernel at lane-variable value `x`
    /// (`n` lanes in range) into `st[0]`: [`eval_chunk_i32`],
    /// [`eval_chunk_i64`] or [`eval_chunk_float`].
    fn eval_chunk<const W: usize>(
        ops: &[Self::Op],
        ch: &Chunk,
        x: i64,
        n: usize,
        st: &mut [[Self; W]],
    );
}

// The conversions are always inlined so that unoptimized builds keep the
// generic lane loops close to hand-written speed.
macro_rules! lane_const {
    (@fuse VOp, $b:ident, $value:ident, $out:ident) => {{
        $b.fuse_int($value, $out)?;
        peephole(&mut $out.ops);
        Some(())
    }};
    (@fuse FOp, $b:ident, $value:ident, $out:ident) => {{
        $b.fuse_float($value, true, $out)?;
        float_peephole(&mut $out.ops);
        Some(())
    }};
    ($($t:ident: $family:ident $op:ident, exact $exact:literal, avx2 $avx2:literal,
       ints $ints:expr, wneg $wneg:expr, bits $to_bits:expr, sqrt $sqrt:expr,
       eval $eval:ident;)*) => {$(
        impl LaneConst for $t {
            const EXACT: bool = $exact;
            const AVX2: bool = $avx2;
            type Op = $op<$t>;
            fn fuse(b: &FusedBuilder<'_>, value: &Expr, out: &mut VEmit<$op<$t>>) -> Option<()> {
                lane_const!(@fuse $op, b, value, out)
            }
            fn program(ops: Vec<$op<$t>>) -> LaneProgram {
                LaneProgram::$family(ops)
            }
            fn exact_ints() -> Interval {
                $ints
            }
            #[inline(always)]
            fn wneg(self) -> Self {
                $wneg(self)
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
            fn stack(stacks: &mut LaneStacks) -> &mut Vec<Self> {
                &mut stacks.$t
            }
            #[inline(always)]
            fn eval_chunk<const W: usize>(
                ops: &[$op<$t>],
                ch: &Chunk,
                x: i64,
                n: usize,
                st: &mut [[$t; W]],
            ) {
                $eval(ops, ch, x, n, st)
            }
        }
    )*};
}

lane_const! {
    i32: I32 VOp, exact false, avx2 true, ints Interval::i32_range(),
        wneg i32::wrapping_neg, bits |v: i32| v as u64, sqrt |_| unreachable!("no integer sqrt"),
        eval eval_chunk_i32;
    i64: I64 VOp, exact true, avx2 true, ints Interval::everything(),
        wneg i64::wrapping_neg, bits |v: i64| v as u64, sqrt |_| unreachable!("no integer sqrt"),
        eval eval_chunk_i64;
    f32: F32 FOp, exact false, avx2 true, ints Interval::f32_exact_int_range(),
        wneg |v: f32| -v, bits |v: f32| u64::from(v.to_bits()), sqrt f32::sqrt,
        eval eval_chunk_float;
    f64: F64 FOp, exact true, avx2 false, ints Interval::f64_exact_int_range(),
        wneg |v: f64| -v, bits f64::to_bits, sqrt f64::sqrt,
        eval eval_chunk_float;
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

/// The float counterpart of [`peephole`]: fuse each constant or tap that
/// is the right operand of an arithmetic op into that op (see [`FOp`]).
/// Float lanes cannot reassociate, so unlike the integer fold this only
/// merges ops that are adjacent on the stack: a `Const`/`Load` pushed just
/// before the op that consumes it, and a tap product consumed by the `Add`
/// right after it. Each rewrite keeps the consumed ops' roundings and
/// operand order, and the net stack effect of the ops it replaces.
fn float_peephole<C: Copy>(ops: &mut Vec<FOp<C>>) {
    let mut out: Vec<FOp<C>> = Vec::with_capacity(ops.len());
    for op in ops.drain(..) {
        let fused = match (&op, &out[..]) {
            (FOp::Arith(Arith::Mul), [.., FOp::Const(c), FOp::Load(t)]) => Some((
                2,
                FOp::PushMul {
                    tap: *t,
                    c: *c,
                    c_first: true,
                },
            )),
            (FOp::Arith(Arith::Mul), [.., FOp::Load(t), FOp::Const(c)]) => Some((
                2,
                FOp::PushMul {
                    tap: *t,
                    c: *c,
                    c_first: false,
                },
            )),
            (FOp::Arith(Arith::Add), [.., FOp::PushMul { tap, c, c_first }]) => Some((
                1,
                FOp::AccAddMul {
                    tap: *tap,
                    c: *c,
                    c_first: *c_first,
                },
            )),
            (FOp::Arith(a), [.., FOp::Const(c)]) => Some((1, FOp::AccConst(*a, *c))),
            (FOp::Arith(a), [.., FOp::Load(t)]) => Some((1, FOp::AccLoad(*a, *t))),
            _ => None,
        };
        match fused {
            Some((consumed, f)) => {
                out.truncate(out.len() - consumed);
                out.push(f);
            }
            None => out.push(op),
        }
    }
    *ops = out;
}

// ---------------------------------------------------------------------------
// Preparation: walk the stmt, assign slots/depths, compile stores and bounds
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Prepared {
    decls: Vec<SlotDecl>,
    stores: Vec<Option<CompiledStore>>,
    max_depth: usize,
    max_stack: usize,
    max_arity: usize,
    /// Which build of the fused row loops runs: [`Target::effective_isa`]
    /// at prepare time, so the AVX2 build runs only where the CPU has it.
    isa: Isa,
}

/// A loop bound compiled at prepare time: an affine form over the loop
/// variables' `vars` slots, or the `min`/`max` of two bounds — all the
/// lowering pass emits (tile tails `min(64, w - 64·xo)`, clamped region
/// minima `max(…, 0)`, sliding extents `e - warm`).
#[derive(Debug, Clone, PartialEq)]
enum Bound {
    Affine(DepthAffine),
    Min(Box<Bound>, Box<Bound>),
    Max(Box<Bound>, Box<Bound>),
}

impl Bound {
    /// Compile `e` over the loop variables in scope (`var_depths`).
    ///
    /// # Errors
    /// A variable out of scope, or an expression outside the bound language.
    fn compile(
        e: &Expr,
        var_depths: &BTreeMap<String, usize>,
        params: &BTreeMap<String, Value>,
    ) -> Result<Bound, RealizeError> {
        let sub = |x: &Expr| Bound::compile(x, var_depths, params).map(Box::new);
        Ok(match e {
            Expr::Binary(BinOp::Min, a, b) => Bound::Min(sub(a)?, sub(b)?),
            Expr::Binary(BinOp::Max, a, b) => Bound::Max(sub(a)?, sub(b)?),
            _ => {
                let affine = AffineIndex::decompose(e, params).ok_or_else(|| {
                    RealizeError::MissingParam(format!("unsupported loop bound expression: {e}"))
                })?;
                let terms = affine
                    .coeffs
                    .iter()
                    .map(|(v, c)| {
                        let depth = var_depths.get(v).copied();
                        depth
                            .map(|d| (d, *c))
                            .ok_or_else(|| RealizeError::MissingParam(v.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                Bound::Affine(DepthAffine {
                    konst: affine.konst,
                    terms,
                })
            }
        })
    }

    /// Whether the bound reads the loop variable at `depth`.
    fn uses(&self, depth: usize) -> bool {
        match self {
            Bound::Affine(a) => a.terms.iter().any(|(at, _)| *at == depth),
            Bound::Min(a, b) | Bound::Max(a, b) => a.uses(depth) || b.uses(depth),
        }
    }

    fn eval(&self, vars: &[i64]) -> i64 {
        match self {
            Bound::Affine(a) => a.eval(vars),
            Bound::Min(a, b) => a.eval(vars).min(b.eval(vars)),
            Bound::Max(a, b) => a.eval(vars).max(b.eval(vars)),
        }
    }
}

/// The loop nest as the runner walks it: a [`Stmt`] with every name resolved
/// at prepare time — loop variables to `vars` depths, loop bounds to
/// [`Bound`] programs, buffers to slots. `Produce` markers are dropped.
#[derive(Debug)]
enum Node {
    Block(Vec<Node>),
    Allocate {
        slot: usize,
        bytes: usize,
        extents: Vec<usize>,
        strides: Vec<usize>,
        body: Box<Node>,
    },
    /// [`Stmt::SlideWindow`] over allocation `slot`, binding the warm-row
    /// count at `depth`.
    Window {
        slot: usize,
        dim: usize,
        extent: usize,
        min: Bound,
        depth: usize,
        body: Box<Node>,
    },
    Loop {
        depth: usize,
        min: Bound,
        extent: Bound,
        kind: LoopKind,
        body: Box<Node>,
    },
    /// A pure or guarded store, by id.
    Store(usize),
}

/// Restore `key` in a scoped map to its value before the scope (`prev`).
fn restore<V>(map: &mut BTreeMap<String, V>, key: &str, prev: Option<V>) {
    match prev {
        Some(p) => map.insert(key.to_string(), p),
        None => map.remove(key),
    };
}

struct PrepareCtx<'a> {
    params: &'a BTreeMap<String, Value>,
    decls: Vec<SlotDecl>,
    slot_ids: BTreeMap<String, usize>,
    stores: Vec<Option<CompiledStore>>,
    var_depths: BTreeMap<String, usize>,
    /// Sound interval of each in-scope loop variable (from its bound
    /// expressions), consumed by the fused-kernel compiler's proofs.
    var_bounds: BTreeMap<String, Interval>,
    /// Extents of the sliding windows, in visit order.
    windows: Vec<usize>,
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

    fn bound(&self, e: &Expr) -> Result<Bound, RealizeError> {
        Bound::compile(e, &self.var_depths, self.params)
    }

    /// Walk `body` with `var` bound to the next `vars` depth over the sound
    /// interval `range`, returning that depth and the body's node.
    fn walk_scoped(
        &mut self,
        var: &str,
        range: Interval,
        body: &Stmt,
    ) -> Result<(usize, Node), RealizeError> {
        let depth = self.depth;
        let prev = self.var_depths.insert(var.to_string(), depth);
        let prev_bounds = self.var_bounds.insert(var.to_string(), range);
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        let body = self.walk(body);
        self.depth -= 1;
        restore(&mut self.var_depths, var, prev);
        restore(&mut self.var_bounds, var, prev_bounds);
        Ok((depth, body?))
    }

    fn walk(&mut self, stmt: &Stmt) -> Result<Node, RealizeError> {
        Ok(match stmt {
            Stmt::Block(stmts) => Node::Block(
                stmts
                    .iter()
                    .map(|s| self.walk(s))
                    .collect::<Result<_, _>>()?,
            ),
            Stmt::Produce { body, .. } => self.walk(body)?,
            Stmt::Allocate {
                name,
                ty,
                extents,
                body,
            } => {
                let prev = self.slot_ids.get(name).copied();
                let slot = self.add_slot(name, *ty, true);
                let body = self.walk(body);
                restore(&mut self.slot_ids, name, prev);
                let strides = extents
                    .iter()
                    .scan(1usize, |stride, &e| {
                        Some(std::mem::replace(stride, *stride * e))
                    })
                    .collect();
                Node::Allocate {
                    slot,
                    bytes: extents.iter().product::<usize>() * ty.bytes(),
                    extents: extents.clone(),
                    strides,
                    body: Box::new(body?),
                }
            }
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                // A sound interval for the loop variable: symbolic bounds
                // (tile tails) resolve through the enclosing vars' intervals.
                let imin = expr_interval(min, &self.var_bounds, self.params);
                let iext = expr_interval(extent, &self.var_bounds, self.params);
                let hi = imin.max.saturating_add(iext.max.saturating_sub(1).max(0));
                let (min, extent) = (self.bound(min)?, self.bound(extent)?);
                let (depth, body) = self.walk_scoped(var, Interval::new(imin.min, hi), body)?;
                Node::Loop {
                    depth,
                    min,
                    extent,
                    kind: *kind,
                    body: Box::new(body),
                }
            }
            Stmt::SlideWindow {
                name,
                dim,
                extent,
                min,
                warm_var,
                body,
            } => {
                // The warm-row count behaves like a loop variable bound once
                // per attach iteration: it occupies a depth slot (so the
                // producer nest's sliding loop can start at it) with the
                // sound interval [0, extent].
                let slot = *self
                    .slot_ids
                    .get(name)
                    .ok_or_else(|| RealizeError::UndefinedFunc(name.clone()))?;
                let min = self.bound(min)?;
                self.windows.push(*extent);
                let range = Interval::new(0, *extent as i64);
                let (depth, body) = self.walk_scoped(warm_var, range, body)?;
                Node::Window {
                    slot,
                    dim: *dim,
                    extent: *extent,
                    min,
                    depth,
                    body: Box::new(body),
                }
            }
            Stmt::Store {
                id,
                buffer,
                indices,
                value,
            } => {
                self.compile_store(*id, buffer, indices, value, false)?;
                Node::Store(*id)
            }
            Stmt::ReduceStore {
                id,
                buffer,
                indices,
                value,
            } => {
                self.compile_store(*id, buffer, indices, value, true)?;
                Node::Store(*id)
            }
        })
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

/// The fused lane families' chunk stacks (`V_STACK` chunks each), grown on
/// first use and reused by every later chunk of the worker.
#[derive(Default)]
struct LaneStacks {
    i32: Vec<i32>,
    i64: Vec<i64>,
    f32: Vec<f32>,
    f64: Vec<f64>,
}

impl LaneStacks {
    /// The `V_STACK` chunks of `W` lanes of type `L`.
    fn stack<L: LaneConst, const W: usize>(&mut self) -> &mut [[L; W]] {
        let lanes = L::stack(self);
        if lanes.len() < V_STACK * W {
            lanes.resize(V_STACK * W, L::default());
        }
        lanes[..V_STACK * W].as_chunks_mut().0
    }
}

/// Per-thread scratch: lane register files, load offset buffers, fused chunk
/// stacks, execution counts, and reusable backing storage for `Allocate`
/// nodes (an attach loop re-enters its allocation once per iteration;
/// reusing the heap buffer keeps the allocator off the hot path).
struct Scratch {
    ints: Vec<i64>,
    floats: Vec<f64>,
    idx: Vec<i64>,
    offs: Vec<usize>,
    /// Per-row tap base offsets of the active fused kernel.
    tap_bases: Vec<i64>,
    /// Index values of the active fused kernel's row dimensions (see
    /// `FusedKernel::row_dims`) at the current row, and their steps from one
    /// row to the next.
    row_vals: Vec<i64>,
    row_steps: Vec<i64>,
    lanes: LaneStacks,
    counts: Counts,
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
            row_vals: Vec::new(),
            row_steps: Vec::new(),
            lanes: LaneStacks::default(),
            counts: Counts::default(),
            allocs: BTreeMap::new(),
            windows: BTreeMap::new(),
        }
    }
}

impl Drop for Scratch {
    /// The worker is done: add its counts to the process-wide counters.
    fn drop(&mut self) {
        let c = &self.counts;
        for (total, n) in [
            (&FUSED_ROWS, c.fused_rows),
            (&FUSED_TAILS, c.fused_tails),
            (&REDUCE_CHUNKS, c.reduce_chunks),
            (&WINDOW_ROWS_REUSED, c.window_rows),
            (&ARCH_ROWS, c.arch_rows),
        ] {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

struct Runner<'a> {
    prepared: &'a Prepared,
    params: &'a BTreeMap<String, Value>,
    /// The execution tier of the resolved [`Target`].
    tier: Tier,
}

impl FusedKernel {
    /// The index dimensions a row of the kernel addresses: every tap's, in
    /// tap order, then the output's.
    fn row_dims(&self) -> impl Iterator<Item = &DepthAffine> {
        self.taps.iter().flat_map(|t| &t.dims).chain(&self.out_dims)
    }
}

/// Evaluate `dims` at the current loop variables into `out`.
fn eval_dims<'a>(dims: impl Iterator<Item = &'a DepthAffine>, vars: &[i64], out: &mut Vec<i64>) {
    out.clear();
    out.extend(dims.map(|d| d.eval(vars)));
}

/// Workers of a parallel loop over `extent` iterations: the schedule's cap
/// (`threads`, 0 for every available core), at most one per iteration.
fn worker_count(threads: usize, extent: i64) -> usize {
    let avail = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    avail.min(extent as usize).max(1)
}

/// Derive the in-range interior `[lo, hi]` (inclusive) of one innermost-loop
/// entry over `[min, end)`: the sub-range of the loop variable where every
/// tap access is provably within its buffer, filling `tap_bases` with each
/// tap's per-row base offset. `vals` holds the row's index value of every
/// tap dimension (lane term excluded), taps in order. Shared by the
/// fused-kernel and fused-reduction runners — the pre/post peels cover
/// `[min, lo)` and `(hi, end)` with the clamped per-op tier. `lo > hi` means
/// no interior exists (e.g. a lane-invariant index out of range, which the
/// reference semantics clamp).
fn tap_interior(
    taps: &[TapAccess],
    binds: &BindTable,
    vals: &[i64],
    min: i64,
    end: i64,
    tap_bases: &mut Vec<i64>,
) -> (i64, i64) {
    let mut lo = min;
    let mut hi = end - 1;
    tap_bases.clear();
    let mut vals = vals.iter();
    for tap in taps {
        let bind = binds.0[tap.slot].as_ref().expect("tap source bound");
        let mut base = 0i64;
        for (d, &b) in vals.by_ref().take(tap.dims.len()).enumerate() {
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

impl Runner<'_> {
    fn run(
        &self,
        node: &Node,
        binds: &mut BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
        in_parallel: bool,
    ) -> Result<(), RealizeError> {
        match node {
            Node::Block(nodes) => {
                for n in nodes {
                    self.run(n, binds, vars, scratch, in_parallel)?;
                }
                Ok(())
            }
            Node::Allocate {
                slot,
                bytes,
                extents,
                strides,
                body,
            } => {
                // Reuse this thread's backing buffer across iterations of the
                // attach loop. Skipping the re-zero is sound because the
                // produce nest lowered into `body` stores every element of
                // the region before anything reads it.
                let data = scratch.allocs.entry(*slot).or_default();
                if data.len() != *bytes {
                    data.clear();
                    data.resize(*bytes, 0);
                }
                binds.0[*slot] = Some(SlotBind {
                    ptr: data.as_mut_ptr(),
                    byte_len: *bytes,
                    extents: extents.clone(),
                    strides: strides.clone(),
                });
                let result = self.run(body, binds, vars, scratch, in_parallel);
                binds.0[*slot] = None;
                result
            }
            Node::Window {
                slot,
                dim,
                extent,
                min,
                depth,
                body,
            } => {
                let cur = min.eval(vars);
                let ext = *extent as i64;
                // Warm rows: how much of the previous iteration's window
                // content is still in range after the region minimum advanced
                // from `prev` to `cur`. Content is a pure function of the
                // minimum (region inference proved every other dimension
                // stationary), so local row `p` must hold producer row
                // `p + cur`; the old buffer holds `p + prev` at row `p`, i.e.
                // the surviving rows sit `shift = cur - prev` higher — shift
                // them down in place and recompute only `[warm, extent)`.
                let warm = match scratch.windows.get(slot) {
                    Some(&prev) if cur >= prev && cur - prev < ext => {
                        let shift = (cur - prev) as usize;
                        let warm = *extent - shift;
                        if shift > 0 {
                            let bind = binds.0[*slot].as_ref().expect("window allocation bound");
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
                        scratch.counts.window_rows += warm as u64;
                        warm as i64
                    }
                    // Cold (first iteration, or the minimum moved backwards /
                    // jumped past the window): recompute every row.
                    _ => 0,
                };
                scratch.windows.insert(*slot, cur);
                vars[*depth] = warm;
                self.run(body, binds, vars, scratch, in_parallel)
            }
            Node::Loop {
                depth,
                min,
                extent,
                kind,
                body,
            } => {
                let min = min.eval(vars);
                let extent = extent.eval(vars).max(0);
                match kind {
                    LoopKind::Parallel { threads } if !in_parallel && extent > 1 => self
                        .run_parallel_loop(
                            *depth, min, extent, *threads, body, binds, vars, scratch,
                        ),
                    LoopKind::ParallelReduce { threads }
                        if !in_parallel && extent > 1 && self.tier != Tier::Scalar =>
                    {
                        self.run_parallel_reduce(
                            *depth, min, extent, *threads, body, binds, vars, scratch,
                        )
                    }
                    _ => self.run_serial_loop(
                        *depth,
                        min,
                        extent,
                        batch_width(kind),
                        body,
                        binds,
                        vars,
                        scratch,
                        in_parallel,
                    ),
                }
            }
            // A store not directly owned by a loop (e.g. beside an Allocate
            // in a Block, or an update over an empty reduction domain):
            // execute a single element at the current variables.
            Node::Store(id) => self.exec_store(*id, 1, binds, vars, scratch),
        }
    }

    /// Split a parallel loop's iterations into contiguous chunks, one worker
    /// thread each (see [`Runner::in_workers`]).
    #[allow(clippy::too_many_arguments)]
    fn run_parallel_loop(
        &self,
        depth: usize,
        min: i64,
        extent: i64,
        threads: usize,
        body: &Node,
        binds: &mut BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let workers = worker_count(threads, extent);
        if workers <= 1 {
            return self.run_serial_loop(depth, min, extent, 1, body, binds, vars, scratch, false);
        }
        self.in_workers(
            (min, extent),
            &mut vec![(); workers],
            binds,
            vars,
            |start, end, _, b, v, s| {
                self.run_serial_loop(depth, start, end - start, 1, body, b, v, s, true)
            },
        )
    }

    /// Split `[min, min + extent)` into contiguous chunks, one per entry of
    /// `states`, and run `work(start, end, state, binds, vars, scratch)` on
    /// each in a thread of its own, with its own bind table, variables and
    /// [`Scratch`]. Returns the last error a worker hit.
    #[allow(clippy::type_complexity)]
    fn in_workers<S: Send>(
        &self,
        (min, extent): (i64, i64),
        states: &mut [S],
        binds: &BindTable,
        vars: &[i64],
        work: impl Fn(
                i64,
                i64,
                &mut S,
                &mut BindTable,
                &mut [i64],
                &mut Scratch,
            ) -> Result<(), RealizeError>
            + Sync,
    ) -> Result<(), RealizeError> {
        let chunk = (extent as usize).div_ceil(states.len());
        let errors = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (w, state) in states.iter_mut().enumerate() {
                let start = min + (w * chunk) as i64;
                let end = (min + extent).min(start + chunk as i64);
                if start >= end {
                    continue;
                }
                let (mut binds, mut vars) = (binds.clone(), vars.to_vec());
                let (errors, work) = (&errors, &work);
                scope.spawn(move || {
                    let mut scratch = Scratch::new(self.prepared);
                    if let Err(e) = work(start, end, state, &mut binds, &mut vars, &mut scratch) {
                        errors.lock().expect("error mutex").push(e);
                    }
                });
            }
        });
        let mut errs = errors.into_inner().expect("error mutex");
        errs.pop().map_or(Ok(()), Err)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_serial_loop(
        &self,
        depth: usize,
        min: i64,
        extent: i64,
        batch: usize,
        body: &Node,
        binds: &mut BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
        in_parallel: bool,
    ) -> Result<(), RealizeError> {
        match body {
            Node::Store(id) => {
                return self.run_store_loop(*id, depth, min, extent, batch, binds, vars, scratch)
            }
            // The rows of a fused store: the body is the store's lane loop.
            Node::Loop {
                depth: lane_depth,
                min: lane_min,
                extent: lane_extent,
                kind: kind @ (LoopKind::Serial | LoopKind::Vectorized),
                body: lane_body,
            } => {
                if let Node::Store(id) = **lane_body {
                    if let Some(fused) = self.fused(id, batch_width(kind)) {
                        return self.run_fused_rows(
                            fused,
                            id,
                            depth,
                            min,
                            extent,
                            (lane_min, lane_extent),
                            *lane_depth,
                            binds,
                            vars,
                            scratch,
                        );
                    }
                }
            }
            _ => {}
        }
        for i in min..min + extent {
            vars[depth] = i;
            self.run(body, binds, vars, scratch, in_parallel)?;
        }
        Ok(())
    }

    /// The fused kernel a store's lane loop runs, when the tier selects the
    /// fused tier for a loop batching `batch` lanes: `Auto` fuses exactly the
    /// vectorized loops.
    fn fused(&self, id: usize, batch: usize) -> Option<&FusedKernel> {
        let use_fused = match self.tier {
            Tier::Scalar => false,
            Tier::Auto => batch > 1,
            Tier::Simd => true,
        };
        let store = self.prepared.stores[id].as_ref().expect("store compiled");
        store.fused.as_ref().filter(|_| use_fused)
    }

    /// The innermost loop over a single store: tier selection.
    #[allow(clippy::too_many_arguments)]
    fn run_store_loop(
        &self,
        id: usize,
        depth: usize,
        min: i64,
        extent: i64,
        batch: usize,
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let store = self.prepared.stores[id].as_ref().expect("store compiled");
        debug_assert_eq!(store.lane_depth, depth, "lane depth mismatch");
        if let Some(fused) = self.fused(id, batch) {
            // One row, with no row loop around it: its own lane variable
            // stands in for the row variable.
            let mut vals = std::mem::take(&mut scratch.row_vals);
            eval_dims(fused.row_dims(), vars, &mut vals);
            let result = self.run_fused_loop(
                fused,
                id,
                (depth, depth),
                (min, extent, 1),
                (&vals, &[]),
                binds,
                vars,
                scratch,
            );
            scratch.row_vals = vals;
            return result;
        }
        // Fused accumulation kernels have no scheduled lane loop to gate on
        // (rdom loops are serial by construction), so Auto uses them
        // whenever one compiled; only the Scalar tier pins the per-op tier.
        if let Some(reduce) = store.reduce.as_ref().filter(|_| self.tier != Tier::Scalar) {
            return self.run_reduce_loop(reduce, id, depth, min, extent, binds, vars, scratch);
        }
        // Per-op tier: run in lane batches of the loop's width. Guarded
        // stores only ever see batch > 1 when the lowering pass vectorized
        // their lane loop (privatized accumulation: per-lane writes are
        // provably disjoint).
        self.general_range(id, depth, min, min + extent, batch, binds, vars, scratch)
    }

    /// The rows of a fused store: the loop at `depth` whose body is the
    /// store's lane loop, with bounds `lane`. The first row's tap and output
    /// index values are evaluated once; every later row steps them by their
    /// coefficients on the row variable. When neither the lane bounds nor
    /// any contiguous tap's lane index move with the row, every row whose
    /// lane-invariant tap indices are in range shares one interior: it is
    /// derived once per run of such rows, whose chunks then go out in one
    /// batch, the tap and output bases stepping by their row strides.
    #[allow(clippy::too_many_arguments)]
    fn run_fused_rows(
        &self,
        fused: &FusedKernel,
        id: usize,
        depth: usize,
        min: i64,
        extent: i64,
        lane: (&Bound, &Bound),
        lane_depth: usize,
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let mut vals = std::mem::take(&mut scratch.row_vals);
        let mut steps = std::mem::take(&mut scratch.row_steps);
        vars[depth] = min;
        eval_dims(fused.row_dims(), vars, &mut vals);
        steps.clear();
        steps.extend(fused.row_dims().map(|d| {
            let on_row = d.terms.iter().filter(|(at, _)| *at == depth);
            on_row.fold(0i64, |s, (_, c)| s.wrapping_add(*c))
        }));
        // Rows share an interior while the lane bounds stay put (they must
        // not read the row variable) and, from one row to the next, every
        // lane-invariant tap index stays in range and every contiguous tap
        // either keeps its lane index (peels included) or keeps all of the
        // lane range in range. `run` counts the rows, from one whose index
        // values are `vals`, before one breaks that (0 when one breaks it
        // already; the row then runs alone).
        let shared = !lane.0.uses(depth) && !lane.1.uses(depth);
        let run = |vals: &[i64], lmin: i64, lend: i64| {
            let (mut rows, mut k) = (i64::MAX, 0);
            for tap in &fused.taps {
                let bind = binds.0[tap.slot].as_ref().expect("tap source bound");
                for d in 0..tap.dims.len() {
                    let (b, s, ext) = (vals[k], steps[k], bind.extents[d] as i64);
                    k += 1;
                    // The range `b` must stay in for every lane to load in range.
                    let (lo, hi) = match (d == 0 && tap.lane == TapLane::Contiguous, s) {
                        (true, 0) => continue,
                        (true, _) => (-lmin, ext - lend),
                        (false, _) => (0, ext - 1),
                    };
                    if !(lo..=hi).contains(&b) {
                        return 0;
                    } else if s > 0 {
                        rows = rows.min((hi - b) / s + 1);
                    } else if s < 0 {
                        rows = rows.min((b - lo) / -s + 1);
                    }
                }
            }
            rows
        };
        let mut result = Ok(());
        let mut i = min;
        while i < min + extent && result.is_ok() {
            vars[depth] = i;
            let (lmin, lext) = (lane.0.eval(vars), lane.1.eval(vars).max(0));
            let rows = if shared && lext > 0 {
                run(&vals, lmin, lmin + lext).clamp(1, min + extent - i)
            } else {
                1
            };
            result = self.run_fused_loop(
                fused,
                id,
                (depth, lane_depth),
                (lmin, lext, rows),
                (&vals, &steps),
                binds,
                vars,
                scratch,
            );
            for (v, s) in vals.iter_mut().zip(&steps) {
                *v = v.wrapping_add(s.wrapping_mul(rows));
            }
            i += rows;
        }
        scratch.row_vals = vals;
        scratch.row_steps = steps;
        result
    }

    /// Execute `rows` consecutive rows of a fused store's lane loop (row
    /// variable at `depths.0`, lane variable at `depths.1`), each over
    /// `[min, min + extent)` from the current row variable on: derive the
    /// in-range interior from the first row's index values `vals` (see
    /// [`FusedKernel::row_dims`]; `steps` advance them by one row) and the
    /// buffer extents, run the fused kernel over it in chunks of the widest
    /// width that fits (finishing with an overlapping or masked tail chunk,
    /// so sub-width remainders stay on tier 1), and peel the clamped
    /// borders through the per-op tier. Rows after the first must share the
    /// first one's interior (see [`Runner::run_fused_rows`]).
    #[allow(clippy::too_many_arguments)]
    fn run_fused_loop(
        &self,
        fused: &FusedKernel,
        store_id: usize,
        (depth, lane_depth): (usize, usize),
        (min, extent, rows): (i64, i64, i64),
        (vals, steps): (&[i64], &[i64]),
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        let end = min + extent;
        let first = vars[depth];
        if extent <= 0 {
            return Ok(());
        }
        let (lo, hi) = tap_interior(&fused.taps, binds, vals, min, end, &mut scratch.tap_bases);
        // Per row: the pre-peel (clamped border), then the post-peel — all
        // of it when no interior exists.
        let (pre, post) = if lo > hi { (end, end) } else { (lo, hi + 1) };
        for r in 0..rows {
            vars[depth] = first + r;
            self.general_range(
                store_id, lane_depth, min, pre, MAX_LANES, binds, vars, scratch,
            )?;
            self.general_range(
                store_id, lane_depth, post, end, MAX_LANES, binds, vars, scratch,
            )?;
        }
        if lo > hi {
            return Ok(());
        }
        // Base offsets of the first row, and their steps from row to row
        // (store indices are in range by construction).
        let out = binds.0[fused.out_slot]
            .as_ref()
            .expect("store target bound");
        let strided = |vals: &[i64], strides: &[usize]| {
            let terms = vals.iter().zip(strides);
            terms.fold(0i64, |b, (&v, &s)| b.wrapping_add(v.wrapping_mul(s as i64)))
        };
        let split = vals.len() - fused.out_dims.len();
        let out_base = strided(&vals[split..], &out.strides);
        let mut bases = std::mem::take(&mut scratch.tap_bases);
        let (mut base_steps, mut out_step) = (Vec::new(), 0);
        if rows > 1 {
            out_step = strided(&steps[split..], &out.strides);
            let mut k = 0;
            for tap in &fused.taps {
                let bind = binds.0[tap.slot].as_ref().expect("tap source bound");
                base_steps.push(strided(&steps[k..k + tap.dims.len()], &bind.strides));
                k += tap.dims.len();
            }
        }
        let batch = RowBatch {
            fused,
            lo,
            hi,
            depth,
            first,
            rows,
            lane_depth,
            out,
            out_base,
            out_step,
            bases: &mut bases,
            base_steps: &base_steps,
            vars,
            binds,
        };
        let (isa, lanes, counts) = (self.prepared.isa, &mut scratch.lanes, &mut scratch.counts);
        macro_rules! rows {
            ($lane:ty, $w:literal, $ops:expr) => {
                row_batch::<$lane, $w>(isa, $ops, batch, lanes.stack(), counts)
            };
        }
        match (
            &fused.prog,
            fused.prog.family().chunk_lanes((hi + 1 - lo) as usize),
        ) {
            (LaneProgram::I32(ops), 64) => rows!(i32, 64, ops),
            (LaneProgram::I32(ops), 32) => rows!(i32, 32, ops),
            (LaneProgram::I32(ops), 16) => rows!(i32, 16, ops),
            (LaneProgram::I32(ops), _) => rows!(i32, 8, ops),
            (LaneProgram::I64(ops), 32) => rows!(i64, 32, ops),
            (LaneProgram::I64(ops), 16) => rows!(i64, 16, ops),
            (LaneProgram::I64(ops), 8) => rows!(i64, 8, ops),
            (LaneProgram::I64(ops), _) => rows!(i64, 4, ops),
            (LaneProgram::F32(ops), 64) => rows!(f32, 64, ops),
            (LaneProgram::F32(ops), 32) => rows!(f32, 32, ops),
            (LaneProgram::F32(ops), 16) => rows!(f32, 16, ops),
            (LaneProgram::F32(ops), _) => rows!(f32, 8, ops),
            (LaneProgram::F64(ops), 32) => rows!(f64, 32, ops),
            (LaneProgram::F64(ops), 16) => rows!(f64, 16, ops),
            (LaneProgram::F64(ops), 8) => rows!(f64, 8, ops),
            (LaneProgram::F64(ops), _) => rows!(f64, 4, ops),
        }
        scratch.tap_bases = bases;
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
        let Some((lo, hi)) = reduce_interior(rk, binds, vars, min, end, scratch) else {
            // No interior: the whole loop runs per element.
            return self.general_range(store_id, lane_depth, min, end, 1, binds, vars, scratch);
        };
        // Pre-peel, then accumulate the interior on lanes from the
        // accumulator cell, clamped per dimension like `Buffer::set`.
        self.general_range(store_id, lane_depth, min, lo, 1, binds, vars, scratch)?;
        let out_bind = binds.0[rk.out_slot].as_ref().expect("store target bound");
        let eb = rk.out_ty.bytes();
        let byte_off = reduce_cell(rk, out_bind, vars) * eb;
        let acc = crate::buffer::read_scalar(rk.out_ty, &out_bind.data()[byte_off..byte_off + eb])
            .as_i64()
            .wrapping_add(reduce_row(rk, lo, hi, lane_depth, binds, vars, scratch));
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
    fn collect_merge_stores(&self, node: &Node, ids: &mut Vec<usize>) -> bool {
        match node {
            Node::Block(nodes) => nodes.iter().all(|n| self.collect_merge_stores(n, ids)),
            Node::Loop { kind, body, .. } => {
                matches!(kind, LoopKind::Serial | LoopKind::Vectorized)
                    && self.collect_merge_stores(body, ids)
            }
            Node::Store(id) => {
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
        depth: usize,
        min: i64,
        extent: i64,
        threads: usize,
        body: &Node,
        binds: &mut BindTable,
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
        let workers = worker_count(threads, extent);
        let total_cells: usize = cells.iter().sum();
        if !coherent || workers.saturating_mul(total_cells) > MERGE_MAX_CELLS {
            return self.run_serial_loop(depth, min, extent, 1, body, binds, vars, scratch, false);
        }
        let mut worker_bufs: Vec<Vec<Vec<i64>>> = (0..workers)
            .map(|_| cells.iter().map(|&c| vec![0i64; c]).collect())
            .collect();
        if workers == 1 {
            self.accumulate_outer(
                depth,
                min,
                min + extent,
                body,
                &slots,
                &mut worker_bufs[0],
                binds,
                vars,
                scratch,
            )?;
        } else {
            // On an error nothing is merged: the outputs stay untouched.
            self.in_workers(
                (min, extent),
                &mut worker_bufs,
                binds,
                vars,
                |start, end, bufs, b, v, s| {
                    self.accumulate_outer(depth, start, end, body, &slots, bufs, b, v, s)
                },
            )?;
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

    /// One worker's slice `[start, end)` of a parallel-reduce loop at
    /// `depth`: accumulate the body per iteration — or, when the tagged loop
    /// is itself the innermost store loop (a 1-D reduction domain), hand the
    /// whole slice to the lane-batched store path.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_outer(
        &self,
        depth: usize,
        start: i64,
        end: i64,
        body: &Node,
        slots: &[usize],
        side: &mut [Vec<i64>],
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        vars[depth] = start;
        if let Node::Store(id) = body {
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
            vars[depth] = i;
            self.accumulate(body, slots, side, binds, vars, scratch)?;
        }
        Ok(())
    }

    /// The deferred-accumulation walker over an admissible parallel-reduce
    /// body (mirrors [`Runner::run`]'s serial structure for the statement
    /// kinds the admissibility walk admits).
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &self,
        node: &Node,
        slots: &[usize],
        side: &mut [Vec<i64>],
        binds: &BindTable,
        vars: &mut [i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        match node {
            Node::Block(nodes) => {
                for n in nodes {
                    self.accumulate(n, slots, side, binds, vars, scratch)?;
                }
                Ok(())
            }
            Node::Loop {
                depth,
                min,
                extent,
                body,
                ..
            } => {
                let min = min.eval(vars);
                let extent = extent.eval(vars).max(0);
                self.accumulate_outer(
                    *depth,
                    min,
                    min + extent,
                    body,
                    slots,
                    side,
                    binds,
                    vars,
                    scratch,
                )
            }
            Node::Store(id) => {
                // A bare store at the current variables: one element.
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
        let interior = store.reduce.as_ref().and_then(|rk| {
            reduce_interior(rk, binds, vars, min, end, scratch).map(|lohi| (rk, lohi))
        });
        let Some((rk, (lo, hi))) = interior else {
            self.accumulate_elements(
                t, merge, lane_depth, min, end, buf_idx, side, binds, vars, scratch,
            );
            return Ok(());
        };
        let out_bind = binds.0[t.slot].as_ref().expect("store target bound");
        let cell = reduce_cell(rk, out_bind, vars);
        self.accumulate_elements(
            t, merge, lane_depth, min, lo, buf_idx, side, binds, vars, scratch,
        );
        let acc = reduce_row(rk, lo, hi, lane_depth, binds, vars, scratch);
        side[buf_idx][cell] = side[buf_idx][cell].wrapping_add(acc);
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

    /// Dispatch `n` ≤ [`MAX_LANES`] lanes of a store (the width of the
    /// scratch register files) starting at the current lane variable.
    fn exec_store(
        &self,
        id: usize,
        n: usize,
        binds: &BindTable,
        vars: &[i64],
        scratch: &mut Scratch,
    ) -> Result<(), RealizeError> {
        assert!(n <= MAX_LANES, "{n} lanes exceed the register files");
        let store = self.prepared.stores[id].as_ref().expect("store compiled");
        match &store.exec {
            StoreExec::Typed(t) => {
                self.exec_typed(t, store.clamp, store.lane_depth, n, binds, vars, scratch);
                Ok(())
            }
            StoreExec::Fallback(f) => self.exec_fallback(f, store.lane_depth, n, binds, vars),
        }
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
        let (ints, floats, offs) = (&scratch.ints, &scratch.floats, &scratch.offs);
        // Cast exactly like `write_scalar`: an integer type keeps the low
        // bytes of the `i64` value (a float value truncates to it first), a
        // float type rounds to its width.
        let bits = |l: usize| match (ty, t.value_prog.float_result) {
            (ScalarType::Float32, true) => u64::from((floats[l] as f32).to_bits()),
            (ScalarType::Float64, true) => floats[l].to_bits(),
            (_, true) => floats[l] as i64 as u64,
            (ScalarType::Float32, false) => u64::from((ints[l] as f64 as f32).to_bits()),
            (ScalarType::Float64, false) => (ints[l] as f64).to_bits(),
            (_, false) => ints[l] as u64,
        };
        // Constant-size copies per element width.
        macro_rules! store {
            ($eb:literal) => {
                for l in 0..n {
                    bind.write(offs[l] * $eb, &bits(l).to_le_bytes()[..$eb]);
                }
            };
        }
        match ty.bytes() {
            1 => store!(1),
            2 => store!(2),
            4 => store!(4),
            _ => store!(8),
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
                macro_rules! lanes {
                    ($f:expr) => {
                        for l in 0..n {
                            ints[a + l] = $f(ints[a + l], ints[b + l]);
                        }
                    };
                }
                match op {
                    BinOp::Add => lanes!(i64::wrapping_add),
                    BinOp::Sub => lanes!(i64::wrapping_sub),
                    BinOp::Mul => lanes!(i64::wrapping_mul),
                    BinOp::Div => lanes!(|x, y| if y == 0 { 0 } else { x / y }),
                    BinOp::Mod => lanes!(|x, y| if y == 0 { 0 } else { x % y }),
                    BinOp::Shr => lanes!(|x, y| ((x as u64) >> (y as u64 & 63)) as i64),
                    BinOp::Shl => lanes!(|x: i64, y| x.wrapping_shl(y as u32)),
                    BinOp::And => lanes!(|x, y| x & y),
                    BinOp::Or => lanes!(|x, y| x | y),
                    BinOp::Xor => lanes!(|x, y| x ^ y),
                    BinOp::Min => lanes!(i64::min),
                    BinOp::Max => lanes!(i64::max),
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
            // Casts as `Value::cast` does them: integer types truncate the
            // `i64` (a float truncates to it first; `UInt64` keeps its bits),
            // float types round.
            TOp::CastI(ty) | TOp::CastF(ty) => {
                let s = (sp - 1) * MAX_LANES;
                // `conv(i, f)` gets the source as an `i64` (a float truncates
                // to it first) and as an `f64`.
                macro_rules! cast {
                    ($dst:ident, $conv:expr) => {
                        if matches!(op, TOp::CastF(_)) {
                            for l in 0..n {
                                $dst[s + l] = $conv(floats[s + l] as i64, floats[s + l]);
                            }
                        } else {
                            for l in 0..n {
                                $dst[s + l] = $conv(ints[s + l], ints[s + l] as f64);
                            }
                        }
                    };
                }
                match ty {
                    ScalarType::UInt8 => cast!(ints, |i: i64, _| i64::from(i as u8)),
                    ScalarType::UInt16 => cast!(ints, |i: i64, _| i64::from(i as u16)),
                    ScalarType::UInt32 => cast!(ints, |i: i64, _| i64::from(i as u32)),
                    ScalarType::Int32 => cast!(ints, |i: i64, _| i64::from(i as i32)),
                    // `Value::cast` keeps the i64 bits.
                    ScalarType::UInt64 => cast!(ints, |i, _| i),
                    ScalarType::Float32 => cast!(floats, |_, f: f64| f64::from(f as f32)),
                    ScalarType::Float64 => cast!(floats, |_, f| f),
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

/// What a fused chunk reads besides its position: the kernel's taps with
/// their row base offsets, the loop variables and the bound buffers.
struct Chunk<'a> {
    taps: &'a [TapAccess],
    bases: &'a [i64],
    lane_depth: usize,
    vars: &'a [i64],
    binds: &'a BindTable,
}

impl Chunk<'_> {
    /// Stream tap `t`'s lanes of the chunk at `x` into `f` (see
    /// [`stream_tap`]).
    #[inline(always)]
    fn stream<L: LaneConst, const W: usize>(
        &self,
        t: usize,
        x: i64,
        n: usize,
        f: impl FnMut(usize, L),
    ) {
        stream_tap::<L, W>(&self.taps[t], self.bases[t], x, n, self.binds, f);
    }
}

/// Feed one tap's lanes for the chunk at lane-variable value `x` to
/// `f(lane, value)`, each element converted to the lane type as
/// [`LaneConst`] describes: the per-type decoder every tap-reading op
/// streams through, so a tap goes from its slice straight into the op that
/// consumes it. `n` is the number of
/// in-range lanes (in bounds by the interior derivation in
/// `run_fused_loop`): full chunks (`n == W`) use constant-trip slice loops
/// LLVM turns into vector loads; masked tails (`n < W`) visit only the
/// in-range prefix (the other lanes are discarded at the store).
#[inline(always)]
fn stream_tap<L: LaneConst, const W: usize>(
    tap: &TapAccess,
    base: i64,
    x: i64,
    n: usize,
    binds: &BindTable,
    mut f: impl FnMut(usize, L),
) {
    let data = binds.0[tap.slot].as_ref().expect("tap source bound").data();
    let off = (base + x) as usize;
    match tap.lane {
        TapLane::Broadcast => {
            let v = read_elem(tap.ty, data, base as usize);
            for l in 0..W {
                f(l, v);
            }
        }
        // Each arm slices with its constant element size, so LLVM sees the
        // slice length and drops the per-lane bounds checks.
        TapLane::Contiguous if n >= W => {
            macro_rules! lanes {
                ($t:ty, $lane:expr) => {{
                    const B: usize = std::mem::size_of::<$t>();
                    let src = &data[off * B..(off + W) * B];
                    for (l, b) in src.chunks_exact(B).enumerate() {
                        f(
                            l,
                            $lane(<$t>::from_le_bytes(b.try_into().expect("element"))),
                        );
                    }
                }};
            }
            match tap.ty {
                ScalarType::UInt8 => lanes!(u8, |v| L::from_i64(i64::from(v))),
                ScalarType::UInt16 => lanes!(u16, |v| L::from_i64(i64::from(v))),
                ScalarType::UInt32 => lanes!(u32, |v| L::from_i64(i64::from(v))),
                ScalarType::Int32 => lanes!(i32, |v| L::from_i64(i64::from(v))),
                ScalarType::UInt64 => lanes!(u64, |v| L::from_i64(v as i64)),
                ScalarType::Float32 => lanes!(f32, L::from_f32),
                ScalarType::Float64 => lanes!(f64, L::from_f64),
            }
        }
        TapLane::Contiguous => {
            for l in 0..n.min(W) {
                f(l, read_elem(tap.ty, data, off + l));
            }
        }
    }
}

/// Element `i` of a `ty` buffer as a lane value (see [`stream_tap`]).
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

/// Store lanes contiguously from element `at` of `out`, straight into the
/// buffer: each lane keeps the low bytes of its [`LaneConst::to_bits`],
/// which truncates integer lanes to the output type (wrapping, like the
/// per-op tier) and writes float lanes bit-exactly.
#[inline(always)]
fn store_chunk<L: LaneConst>(out: &SlotBind, ty: ScalarType, at: i64, vals: &[L]) {
    let eb = ty.bytes();
    out.write_with(at as usize * eb, vals.len() * eb, |dst| match eb {
        1 => {
            for (d, v) in dst.iter_mut().zip(vals) {
                *d = v.to_bits() as u8;
            }
        }
        2 => {
            for (d, v) in dst.chunks_exact_mut(2).zip(vals) {
                d.copy_from_slice(&(v.to_bits() as u16).to_le_bytes());
            }
        }
        4 => {
            for (d, v) in dst.chunks_exact_mut(4).zip(vals) {
                d.copy_from_slice(&(v.to_bits() as u32).to_le_bytes());
            }
        }
        _ => {
            for (d, v) in dst.chunks_exact_mut(8).zip(vals) {
                d.copy_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    });
}

/// One batch of a fused store's rows, as [`Runner::run_fused_loop`] hands
/// it to a build of the row loop.
struct RowBatch<'a> {
    fused: &'a FusedKernel,
    /// The interior `[lo, hi]` every row of the batch shares.
    lo: i64,
    hi: i64,
    /// The row variable's depth, its first row, and the row count.
    depth: usize,
    first: i64,
    rows: i64,
    lane_depth: usize,
    out: &'a SlotBind,
    /// The first row's output base offset, and its step from row to row.
    out_base: i64,
    out_step: i64,
    /// The taps' first-row base offsets, and their steps from row to row.
    bases: &'a mut [i64],
    base_steps: &'a [i64],
    vars: &'a mut [i64],
    binds: &'a BindTable,
}

/// Run a batch of fused rows on `[L; W]` chunks through the build of the
/// row loop that `isa` selects (see [`fused_rows`]) — the AVX2 one only for
/// families that have it ([`LaneConst::AVX2`]) — and count the batch's
/// rows, tails and AVX2 rows in `counts`.
#[inline(always)]
fn row_batch<L: LaneConst, const W: usize>(
    isa: Isa,
    ops: &[L::Op],
    batch: RowBatch<'_>,
    stack: &mut [[L; W]],
    counts: &mut Counts,
) {
    let rows = batch.rows as u64;
    counts.fused_rows += rows;
    counts.fused_tails += match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if L::AVX2 => {
            counts.arch_rows += rows;
            // SAFETY: a plan's ISA is `Avx2` only where
            // `Target::effective_isa` detected AVX2 on this CPU, when
            // `prepare` built the plan; nothing else sets it.
            unsafe { fused_rows_avx2::<L, W>(ops, batch, stack) }
        }
        _ => fused_rows_base::<L, W>(ops, batch, stack),
    };
}

/// The baseline build of [`fused_rows`]: one function per lane family and
/// chunk width (inlining all sixteen into one caller makes a function too
/// large to optimize in reasonable time).
#[inline(never)]
fn fused_rows_base<L: LaneConst, const W: usize>(
    ops: &[L::Op],
    batch: RowBatch<'_>,
    stack: &mut [[L; W]],
) -> u64 {
    fused_rows::<L, W>(ops, batch, stack)
}

/// The AVX2 build of [`fused_rows`]: the same source compiled with 256-bit
/// vectors and AVX2's integer lane ops, one function per lane family and
/// chunk width.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fused_rows_avx2<L: LaneConst, const W: usize>(
    ops: &[L::Op],
    batch: RowBatch<'_>,
    stack: &mut [[L; W]],
) -> u64 {
    fused_rows::<L, W>(ops, batch, stack)
}

/// The rows of a fused batch: cover each row's interior `[lo, hi]` with
/// chunks of `W` lanes — full chunks, then a tail — evaluating each into
/// `stack[0]` and storing it straight into the output. After at least one
/// full chunk the tail *overlaps* the previous chunk, ending at the
/// interior's edge and re-storing lanes it already wrote — sound because
/// the kernel is deterministic and reads nothing the store writes
/// (self-aliasing stores never fuse: the `value_reads_buffer` and tap-slot
/// checks at build time), so the re-stored lanes are bit-identical. An
/// interior shorter than `W` instead runs one *masked* chunk that loads and
/// stores only its `n` in-range lanes. Returns the number of tails run.
///
/// Always inlined, and the evaluator and store it calls are too (no
/// closure stands between them: a closure compiles as a function of its
/// own, at the baseline ISA), so each build — [`fused_rows_base`] and
/// [`fused_rows_avx2`] — compiles the whole row for its ISA.
#[inline(always)]
fn fused_rows<L: LaneConst, const W: usize>(
    ops: &[L::Op],
    batch: RowBatch<'_>,
    stack: &mut [[L; W]],
) -> u64 {
    let RowBatch {
        fused,
        lo,
        hi,
        depth,
        first,
        rows,
        lane_depth,
        out,
        mut out_base,
        out_step,
        bases,
        base_steps,
        vars,
        binds,
    } = batch;
    let (w, mut tails) = (W as i64, 0);
    for r in 0..rows {
        vars[depth] = first + r;
        let ch = Chunk {
            taps: &fused.taps,
            bases,
            lane_depth,
            vars,
            binds,
        };
        let mut x = lo;
        while x + w <= hi + 1 {
            L::eval_chunk(ops, &ch, x, W, stack);
            store_chunk(out, fused.out_ty, out_base + x, &stack[0]);
            x += w;
        }
        if x <= hi {
            let (x, n) = if x > lo {
                (hi + 1 - w, W)
            } else {
                (x, (hi + 1 - x) as usize)
            };
            L::eval_chunk(ops, &ch, x, n, stack);
            store_chunk(out, fused.out_ty, out_base + x, &stack[0][..n]);
            tails += 1;
        }
        for (b, s) in bases.iter_mut().zip(base_steps) {
            *b = b.wrapping_add(*s);
        }
        out_base = out_base.wrapping_add(out_step);
    }
    tails
}

/// Lanes per store visit of a loop of `kind`: [`MAX_LANES`] when it is
/// vectorized, else 1.
fn batch_width(kind: &LoopKind) -> usize {
    if *kind == LoopKind::Vectorized {
        MAX_LANES
    } else {
        1
    }
}

/// The in-range interior of a reduction loop over `[min, end)` (see
/// [`tap_interior`]), filling `scratch.tap_bases`; `None` when it is empty.
fn reduce_interior(
    rk: &ReduceKernel,
    binds: &BindTable,
    vars: &[i64],
    min: i64,
    end: i64,
    scratch: &mut Scratch,
) -> Option<(i64, i64)> {
    eval_dims(
        rk.taps.iter().flat_map(|t| &t.dims),
        vars,
        &mut scratch.row_vals,
    );
    let vals = &scratch.row_vals;
    let (lo, hi) = tap_interior(&rk.taps, binds, vals, min, end, &mut scratch.tap_bases);
    (lo <= hi).then_some((lo, hi))
}

/// The element offset of a reduction's accumulator cell: its LHS indices,
/// clamped per dimension like `Buffer::set`.
fn reduce_cell(rk: &ReduceKernel, out: &SlotBind, vars: &[i64]) -> usize {
    let clamped = |(d, aff): (usize, &DepthAffine)| {
        aff.eval(vars).clamp(0, out.extents[d] as i64 - 1) as usize * out.strides[d]
    };
    rk.out_dims.iter().enumerate().map(clamped).sum()
}

/// The wrapping sum of `g` over a reduction row's interior `[lo, hi]` (with
/// `scratch.tap_bases` from [`reduce_interior`]): chunks of the widest width
/// that fits it, the last one masked, each tree-reduced. For the i32 family
/// the sum is exact mod `2^32`, which is all its ≤ 32-bit accumulator needs.
fn reduce_row(
    rk: &ReduceKernel,
    lo: i64,
    hi: i64,
    lane_depth: usize,
    binds: &BindTable,
    vars: &[i64],
    scratch: &mut Scratch,
) -> i64 {
    let ch = Chunk {
        taps: &rk.taps,
        bases: &scratch.tap_bases,
        lane_depth,
        vars,
        binds,
    };
    let (lanes, counts) = (&mut scratch.lanes, &mut scratch.counts);
    macro_rules! sum {
        ($lane:ty, $tree:ident, $ops:expr, $w:literal) => {{
            let stack = lanes.stack::<$lane, $w>();
            let (mut acc, mut x) = (0i64, lo);
            while x <= hi {
                let n = (hi + 1 - x).min($w) as usize;
                eval_chunk_outlined::<$lane, $w>($ops, &ch, x, n, stack);
                acc = acc.wrapping_add($tree(&mut stack[0], n) as i64);
                counts.reduce_chunks += 1;
                x += n as i64;
            }
            acc
        }};
    }
    match (
        &rk.prog,
        rk.prog.family().chunk_lanes((hi + 1 - lo) as usize),
    ) {
        (LaneProgram::I32(ops), 64) => sum!(i32, tree_sum_i32, ops, 64),
        (LaneProgram::I32(ops), 32) => sum!(i32, tree_sum_i32, ops, 32),
        (LaneProgram::I32(ops), 16) => sum!(i32, tree_sum_i32, ops, 16),
        (LaneProgram::I32(ops), _) => sum!(i32, tree_sum_i32, ops, 8),
        (LaneProgram::I64(ops), 32) => sum!(i64, tree_sum_i64, ops, 32),
        (LaneProgram::I64(ops), 16) => sum!(i64, tree_sum_i64, ops, 16),
        (LaneProgram::I64(ops), 8) => sum!(i64, tree_sum_i64, ops, 8),
        (LaneProgram::I64(ops), _) => sum!(i64, tree_sum_i64, ops, 4),
        (LaneProgram::F32(_) | LaneProgram::F64(_), _) => {
            unreachable!("reduce kernels are integer-only")
        }
    }
}

/// One chunk of the tree-reduce's evaluation ([`LaneConst::eval_chunk`]),
/// kept out of line: the reduction has only the baseline build of its row
/// loop, and inlining the evaluator into all eight of its arms made it
/// about 4% slower.
#[inline(never)]
fn eval_chunk_outlined<L: LaneConst, const W: usize>(
    ops: &[L::Op],
    ch: &Chunk,
    x: i64,
    n: usize,
    st: &mut [[L; W]],
) {
    L::eval_chunk(ops, ch, x, n, st)
}

/// `a[l] = f(a[l], b[l])` on every lane.
#[inline(always)]
fn zip_lanes<T: Copy, const W: usize>(a: &mut [T; W], b: &[T; W], f: impl Fn(T, T) -> T) {
    for l in 0..W {
        a[l] = f(a[l], b[l]);
    }
}

/// Generate the chunk *evaluator* of one integer lane family: a stack
/// machine over `[$lane; W]` chunks with constant trip counts LLVM
/// auto-vectorizes, leaving the result in `st[0]`. `n` lanes are loaded
/// (`n == W` except for masked tails; lanes beyond `n` are unspecified and
/// must be masked by the consumer — the fused store writes only `n` lanes,
/// the reduction epilogue zeroes them before summing).
macro_rules! int_chunk_eval {
    ($name:ident, $lane:ty, $ulane:ty) => {
        #[inline(always)]
        fn $name<const W: usize>(
            ops: &[VOp<$lane>],
            ch: &Chunk,
            x: i64,
            n: usize,
            st: &mut [[$lane; W]],
        ) {
            let mut sp = 0usize;
            for op in ops {
                match op {
                    VOp::Const(v) => {
                        st[sp] = [*v; W];
                        sp += 1;
                    }
                    VOp::Var(depth) => {
                        if *depth == ch.lane_depth {
                            let base = x as $lane;
                            for (l, lane) in st[sp].iter_mut().enumerate() {
                                *lane = base + l as $lane;
                            }
                        } else {
                            st[sp] = [ch.vars[*depth] as $lane; W];
                        }
                        sp += 1;
                    }
                    VOp::Load(t) => {
                        let dst = &mut st[sp];
                        ch.stream::<$lane, W>(*t, x, n, |l, v| dst[l] = v);
                        sp += 1;
                    }
                    VOp::Axpy { tap, coeff } => {
                        let dst = &mut st[sp - 1];
                        ch.stream::<$lane, W>(*tap, x, n, |l, v| {
                            dst[l] = dst[l].wrapping_add(coeff.wrapping_mul(v))
                        });
                    }
                    VOp::AddC(c) => st[sp - 1].iter_mut().for_each(|l| *l = l.wrapping_add(*c)),
                    VOp::MulC(c) => st[sp - 1].iter_mut().for_each(|l| *l = l.wrapping_mul(*c)),
                    VOp::AndC(c) | VOp::Mask(c) => st[sp - 1].iter_mut().for_each(|l| *l &= *c),
                    VOp::OrC(c) => st[sp - 1].iter_mut().for_each(|l| *l |= *c),
                    VOp::XorC(c) => st[sp - 1].iter_mut().for_each(|l| *l ^= *c),
                    VOp::ShrU(s) => st[sp - 1]
                        .iter_mut()
                        .for_each(|l| *l = ((*l as $ulane) >> *s) as $lane),
                    VOp::Shl(s) => st[sp - 1].iter_mut().for_each(|l| *l = l.wrapping_shl(*s)),
                    // The Int32 cast on i64 lanes; the identity on i32.
                    VOp::Sext32 => st[sp - 1]
                        .iter_mut()
                        .for_each(|l| *l = (*l as i32) as $lane),
                    VOp::Sel => {
                        let (head, tail) = st.split_at_mut(sp - 2);
                        let c = &mut head[sp - 3];
                        let (t, f) = (&tail[0], &tail[1]);
                        for l in 0..W {
                            c[l] = if c[l] != 0 { t[l] } else { f[l] };
                        }
                        sp -= 2;
                    }
                    _ => {
                        let (head, tail) = st.split_at_mut(sp - 1);
                        let (a, b) = (&mut head[sp - 2], &tail[0]);
                        match op {
                            VOp::Add => zip_lanes(a, b, <$lane>::wrapping_add),
                            VOp::Sub => zip_lanes(a, b, <$lane>::wrapping_sub),
                            VOp::Mul => zip_lanes(a, b, <$lane>::wrapping_mul),
                            VOp::And => zip_lanes(a, b, |x, y| x & y),
                            VOp::Or => zip_lanes(a, b, |x, y| x | y),
                            VOp::Xor => zip_lanes(a, b, |x, y| x ^ y),
                            VOp::MinS => zip_lanes(a, b, Ord::min),
                            VOp::MaxS => zip_lanes(a, b, Ord::max),
                            VOp::MinU => {
                                zip_lanes(a, b, |x, y| (x as $ulane).min(y as $ulane) as $lane)
                            }
                            VOp::MaxU => {
                                zip_lanes(a, b, |x, y| (x as $ulane).max(y as $ulane) as $lane)
                            }
                            VOp::CmpS(cmp) => {
                                zip_lanes(a, b, |x, y| cmp_lanes(*cmp, x, y) as $lane)
                            }
                            VOp::CmpU(cmp) => zip_lanes(a, b, |x, y| {
                                cmp_lanes(*cmp, x as $ulane, y as $ulane) as $lane
                            }),
                            _ => unreachable!("binary group"),
                        }
                        sp -= 1;
                    }
                }
            }
            debug_assert_eq!(sp, 1, "fused kernel must leave exactly one chunk");
        }
    };
}

int_chunk_eval!(eval_chunk_i32, i32, u32);
int_chunk_eval!(eval_chunk_i64, i64, u64);

/// Wrapping in-lane tree reduce of the first `n` lanes of a chunk (the
/// others are zeroed first). Exact for any summation order because wrapping
/// integer addition is commutative and associative; the halving tree is the
/// shape LLVM turns into vector reductions.
macro_rules! tree_sum {
    ($name:ident, $lane:ty) => {
        fn $name<const W: usize>(lanes: &mut [$lane; W], n: usize) -> $lane {
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

/// The bounds of a float lane carrier: `f32` or `f64` with its in-place
/// arithmetic.
trait FloatLane: LaneConst + AddAssign + SubAssign + MulAssign + DivAssign {}

impl<L: LaneConst + AddAssign + SubAssign + MulAssign + DivAssign> FloatLane for L {}

/// Evaluate one float kernel chunk on `[f32; W]` or `[f64; W/2]` lanes into
/// `st[0]`. Arithmetic ops round once in the lane type (on f32 lanes they
/// are only emitted at reference rounding points; on f64 lanes they are the
/// reference ops), and Min/Max evaluate through f64 per lane to replicate
/// [`eval_binop`](crate::expr::eval_binop)'s float branch bit-for-bit (a
/// no-op widening on f64 lanes). Taps stream through [`stream_tap`] into
/// the op that consumes them. Lanes beyond `n` are unspecified, as for the
/// integer families.
#[inline(always)]
fn eval_chunk_float<L: FloatLane, const W: usize>(
    ops: &[FOp<L>],
    ch: &Chunk,
    x: i64,
    n: usize,
    st: &mut [[L; W]],
) {
    let mut sp = 0usize;
    for op in ops {
        match op {
            FOp::Const(v) => {
                st[sp] = [*v; W];
                sp += 1;
            }
            // Exact: the variable's interval was proven within the lane
            // type's exact integer range.
            FOp::Var(depth) => {
                st[sp] = if *depth == ch.lane_depth {
                    std::array::from_fn(|l| L::from_i64(x + l as i64))
                } else {
                    [L::from_i64(ch.vars[*depth]); W]
                };
                sp += 1;
            }
            FOp::Load(t) => {
                let dst = &mut st[sp];
                ch.stream::<L, W>(*t, x, n, |l, v| dst[l] = v);
                sp += 1;
            }
            FOp::PushMul { tap, c, c_first } => {
                let (c, dst) = (*c, &mut st[sp]);
                if *c_first {
                    ch.stream::<L, W>(*tap, x, n, |l, v| {
                        dst[l] = c;
                        dst[l] *= v;
                    });
                } else {
                    ch.stream::<L, W>(*tap, x, n, |l, mut v: L| {
                        v *= c;
                        dst[l] = v;
                    });
                }
                sp += 1;
            }
            FOp::Sqrt => {
                for l in st[sp - 1].iter_mut() {
                    *l = l.sqrt();
                }
            }
            FOp::AccAddMul { tap, c, c_first } => {
                let (c, top) = (*c, &mut st[sp - 1]);
                if *c_first {
                    ch.stream::<L, W>(*tap, x, n, |l, v| {
                        let mut p = c;
                        p *= v;
                        top[l] += p;
                    });
                } else {
                    ch.stream::<L, W>(*tap, x, n, |l, mut v: L| {
                        v *= c;
                        top[l] += v;
                    });
                }
            }
            FOp::AccLoad(a, t) => {
                let top = &mut st[sp - 1];
                match a {
                    Arith::Add => ch.stream::<L, W>(*t, x, n, |l, v| top[l] += v),
                    Arith::Sub => ch.stream::<L, W>(*t, x, n, |l, v| top[l] -= v),
                    Arith::Mul => ch.stream::<L, W>(*t, x, n, |l, v| top[l] *= v),
                    Arith::Div => ch.stream::<L, W>(*t, x, n, |l, v| top[l] /= v),
                }
            }
            FOp::AccConst(a, c) => a.lanes(&mut st[sp - 1], &[*c; W]),
            FOp::Arith(_) | FOp::Min | FOp::Max | FOp::Cmp(_) => {
                let (head, tail) = st.split_at_mut(sp - 1);
                let a = &mut head[sp - 2];
                let b = &tail[0];
                match op {
                    FOp::Arith(op) => op.lanes(a, b),
                    FOp::Min => zip_lanes(a, b, |x, y| L::from_f64(x.to_f64().min(y.to_f64()))),
                    FOp::Max => zip_lanes(a, b, |x, y| L::from_f64(x.to_f64().max(y.to_f64()))),
                    FOp::Cmp(cmp) => {
                        zip_lanes(a, b, |x, y| L::from_i64(cmp_lanes(*cmp, x, y) as i64))
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
    root: Node,
    prepared: Prepared,
    /// Extents of the plan's [`Stmt::SlideWindow`] nodes, in visit order.
    windows: Vec<usize>,
    /// Element type of the output buffer (slot 0).
    output_ty: ScalarType,
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
            match store.fused.as_ref().map(|f| f.prog.family()) {
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

    /// Number of [`Stmt::SlideWindow`] nodes in the plan's loop nest — the
    /// sliding-window `compute_at` allocations.
    pub fn sliding_window_count(&self) -> usize {
        self.windows.len()
    }

    /// Window extents (rows of the slid dimension) of every
    /// [`Stmt::SlideWindow`] node in the plan, in visit order. A window of
    /// extent `E` re-uses `E - 1` rows per warm attach iteration.
    pub fn sliding_window_extents(&self) -> Vec<usize> {
        self.windows.clone()
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
            match store.reduce.as_ref().map(|r| r.prog.family()) {
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
    /// `target` is the resolved [`Target`] the plan will execute under, and
    /// the profiles report what it executes: a [`Tier::Scalar`] target runs
    /// no fused, reduce or parallel-reduce path, so its profiles carry none.
    pub fn store_profiles(&self, target: Target) -> Vec<StoreProfile> {
        // The Scalar tier pins every store to the per-op tier: no fused,
        // reduce or parallel-reduce path runs, so none is reported.
        let kernels = target.tier() != Tier::Scalar;
        self.prepared
            .stores
            .iter()
            .flatten()
            .map(|store| {
                let fused = store.fused.as_ref().filter(|_| kernels);
                let reduce = store.reduce.as_ref().filter(|_| kernels);
                let (taps, max_tap_offset) = match fused {
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
                StoreProfile {
                    fused: fused.map(|f| f.prog.family()),
                    taps,
                    max_tap_offset,
                    guarded: store.clamp,
                    reduce: reduce.map(|r| r.prog.family()),
                    parallel_reduce: kernels && store.merge.is_some(),
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
    let mut ctx = PrepareCtx {
        params,
        decls: Vec::new(),
        slot_ids: BTreeMap::new(),
        stores: Vec::new(),
        var_depths: BTreeMap::new(),
        var_bounds: BTreeMap::new(),
        windows: Vec::new(),
        depth: 0,
        max_depth: 0,
        max_stack: 1,
        max_arity: 1,
    };
    ctx.add_slot(output_name, output_ty, true);
    for (name, ty) in images {
        ctx.add_slot(name, *ty, false);
    }
    for (name, ty) in roots {
        ctx.add_slot(name, *ty, false);
    }
    let root = ctx.walk(&stmt)?;
    Ok(ExecPlan {
        root,
        windows: ctx.windows,
        prepared: Prepared {
            decls: ctx.decls,
            stores: ctx.stores,
            max_depth: ctx.max_depth,
            max_stack: ctx.max_stack,
            max_arity: ctx.max_arity,
            isa: Target::detect().effective_isa(),
        },
        output_ty,
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
/// tiers fused stores may use; every target produces bit-identical buffers.
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
    run_counted(plan, output, images, roots, params, target).map(drop)
}

/// [`run_with_target`], returning the counts of the calling thread's worker:
/// all of the run's counts when its nest has no parallel loop.
fn run_counted(
    plan: &ExecPlan,
    output: &mut Buffer,
    images: &BTreeMap<String, &Buffer>,
    roots: &BTreeMap<String, Buffer>,
    params: &BTreeMap<String, Value>,
    target: Target,
) -> Result<Counts, RealizeError> {
    debug_assert_eq!(
        output.scalar_type(),
        plan.output_ty,
        "output buffer type must match the prepared plan"
    );
    let bind_of = |b: &Buffer| SlotBind {
        ptr: b.bytes().as_ptr() as *mut u8,
        byte_len: b.bytes().len(),
        extents: b.extents().to_vec(),
        strides: b.strides().to_vec(),
    };
    let mut binds: Vec<Option<SlotBind>> = Vec::with_capacity(plan.prepared.decls.len());
    binds.push(Some(SlotBind {
        ptr: output.bytes_mut().as_mut_ptr(),
        byte_len: output.bytes().len(),
        extents: output.extents().to_vec(),
        strides: output.strides().to_vec(),
    }));
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
    };
    let mut binds = BindTable(binds);
    let mut vars = vec![0i64; plan.prepared.max_depth.max(1)];
    let mut scratch = Scratch::new(&plan.prepared);
    runner.run(&plan.root, &mut binds, &mut vars, &mut scratch, false)?;
    Ok(scratch.counts.clone())
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

    /// `for y: for[vectorized] x: out[x, y] = value`
    fn nest(w: i64, h: i64, value: Expr) -> Stmt {
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
                    kind: LoopKind::Vectorized,
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
        let mut scalar = Buffer::new(plan.output_ty, extents);
        let mut simd = Buffer::new(plan.output_ty, extents);
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
            let plan = plan_for(nest(w, h, value.clone()), ScalarType::UInt8);
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
        let plan = plan_for(nest(16, 8, value), ScalarType::UInt8);
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
        for (w, h) in [(7i64, 5i64), (13, 11), (37, 3), (4, 4)] {
            let plan = plan_for(nest(w, h, value.clone()), ScalarType::UInt8);
            assert_eq!(plan.fused_store_count(), 1);
            assert_modes_agree(
                &plan,
                &[w as usize, h as usize],
                &input(w as usize, h as usize, 7),
            );
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
        let plan = plan_for(nest(19, 5, value), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 1);
        assert_modes_agree(&plan, &[19, 5], &input(19, 5, 3));
    }

    /// Shapes the 32-bit lane invariant cannot cover stay on the per-op tier:
    /// float outputs, float math, u64-typed loads, strided lane access.
    #[test]
    fn unfusable_shapes_keep_per_op_tier() {
        // Float output type.
        let plan = plan_for(nest(8, 4, tap(0, 0)), ScalarType::Float32);
        assert_eq!(plan.fused_store_count(), 0);
        // Float arithmetic in the value.
        let fvalue = Expr::cast(
            ScalarType::UInt8,
            Expr::mul(tap(0, 0), Expr::ConstFloat(0.5, ScalarType::Float32)),
        );
        let plan = plan_for(nest(8, 4, fvalue), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 0);
        // Strided (non-contiguous, non-broadcast) lane access.
        let strided = Expr::cast(
            ScalarType::UInt8,
            Expr::Image(
                "in".into(),
                vec![Expr::mul(Expr::var("x"), Expr::int(2)), Expr::var("y")],
            ),
        );
        let plan = plan_for(nest(8, 4, strided), ScalarType::UInt8);
        assert_eq!(plan.fused_store_count(), 0);
        // And the per-op tier still executes them correctly (smoke).
        assert_modes_agree(&plan, &[8, 4], &input(16, 4, 5));
    }

    /// The fused-rows counter observes tier-1 execution.
    #[test]
    fn fused_rows_counter_advances_under_force_simd() {
        let plan = plan_for(nest(64, 16, tap(0, 0)), ScalarType::UInt8);
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
        let plan = plan_for(nest(23, 9, clamped), ScalarType::UInt8);
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
        let plan = plan_for(nest(23, 9, select), ScalarType::UInt8);
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
        let plan = plan_for(nest(29, 6, value), ScalarType::UInt16);
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
        for (w, h) in [(13i64, 7i64), (31, 5), (8, 8), (5, 3)] {
            let plan = plan_with_input(
                nest(w, h, value.clone()),
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
        let plan = plan_with_input(nest(23, 9, value), ScalarType::Float32, ScalarType::Float32);
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
            nest(8, 4, unrounded.clone()),
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
            nest(8, 4, f64_const),
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
            nest(8, 4, unrounded),
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
        let plan = plan_for(nest(21, 6, value), ScalarType::UInt64);
        assert_eq!(plan.fused_store_counts().lanes_i64, 1, "must fuse on i64");
        assert_modes_agree(&plan, &[21, 6], &input(23, 8, 3));
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
        let plan = plan_for(nest(19, 5, value), ScalarType::UInt32);
        let counts = plan.fused_store_counts();
        assert_eq!(
            (counts.lanes_i32, counts.lanes_i64),
            (0, 1),
            "unprovable narrow output must ride the i64 family"
        );
        assert_modes_agree(&plan, &[19, 5], &input(21, 7, 11));
    }

    // -- The `[f64; W/2]` lane family and the fused float ops ---------------

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
        for (w, h) in [(13i64, 7i64), (31, 5), (8, 8), (5, 3)] {
            let plan = plan_with_input(
                nest(w, h, value.clone()),
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
        let plan = plan_with_input(nest(23, 9, value), ScalarType::Float64, ScalarType::Float64);
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
        let plan = plan_with_input(nest(19, 5, mixed), ScalarType::Float64, ScalarType::UInt8);
        assert_eq!(plan.fused_store_counts().lanes_f64, 1, "mixed must fuse");
        assert_modes_agree(&plan, &[19, 5], &input(21, 7, 5));

        // All-integer arithmetic under a Float64 output: must not fuse on
        // f64 lanes (reference wraps on i64 before the final promotion).
        let all_int = Expr::add(ftap(0, 0), ftap(1, 1));
        let plan = plan_with_input(nest(8, 4, all_int), ScalarType::Float64, ScalarType::UInt8);
        assert_eq!(
            plan.fused_store_counts().lanes_f64,
            0,
            "all-int arithmetic must not ride f64 lanes"
        );

        // UInt64 taps exceed ±2^53: reject.
        let u64_tap = Expr::mul(ftap(0, 0), dconst(0.5));
        let plan = plan_with_input(nest(8, 4, u64_tap), ScalarType::Float64, ScalarType::UInt64);
        assert_eq!(
            plan.fused_store_counts().lanes_f64,
            0,
            "u64 taps must not ride f64 lanes"
        );
    }

    /// Fill a float buffer of `ty` (Float32 or Float64), written bit-exactly:
    /// quiet NaNs with distinct payloads and both signs and ±Inf sit on a
    /// lattice (every fifth column of every third row), ±0 and subnormals on
    /// a third of the other elements, ordinary values elsewhere. The lattice
    /// puts at most one NaN or infinity in any 3×3 stencil footprint, so no
    /// op meets two NaNs with different payloads: IEEE 754 leaves that
    /// result's payload unspecified, and the compiler may commute the
    /// operands of `+` and `×`.
    fn special_input(ty: ScalarType, w: usize, h: usize, seed: u64) -> Buffer {
        let specials: [f64; 5] = [
            f64::from_bits(0x7ff8_0000_0000_0000 | (0x1234 << 29)),
            f64::from_bits(0xfff8_0000_0000_0000 | (0x0777 << 29)),
            f64::from_bits(0x7ff8_0000_0000_0000 | (0x3_0001 << 29)),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let small: [f64; 4] = [
            0.0,
            -0.0,
            f32::from_bits(3) as f64,
            -(f32::from_bits(0x0000_0100) as f64),
        ];
        let mut b = Buffer::new(ty, &[w, h]);
        let eb = ty.bytes();
        let mut s = seed | 1;
        for i in 0..w * h {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (s >> 33) as usize;
            let v = if (i % w).is_multiple_of(5) && (i / w).is_multiple_of(3) {
                specials[pick % specials.len()]
            } else if i % 3 == 1 {
                small[pick % small.len()]
            } else {
                ((s >> 29) as i64 % 4096) as f64 / 8.0 - 128.0
            };
            let bytes = &mut b.bytes_mut()[i * eb..(i + 1) * eb];
            match ty {
                ScalarType::Float32 => bytes.copy_from_slice(&(v as f32).to_le_bytes()),
                _ => bytes.copy_from_slice(&v.to_le_bytes()),
            }
        }
        b
    }

    /// The interpreter's result for `nest`'s store: the shared per-element
    /// evaluator, stored through `Buffer::set` as the interpreter backend
    /// stores.
    fn interpret(value: &Expr, out_ty: ScalarType, w: usize, h: usize, img: &Buffer) -> Buffer {
        struct Point<'a> {
            x: i64,
            y: i64,
            img: &'a Buffer,
        }
        impl EvalSources for Point<'_> {
            fn var(&self, name: &str) -> Option<i64> {
                match name {
                    "x" => Some(self.x),
                    "y" => Some(self.y),
                    _ => None,
                }
            }
            fn param(&self, _: &str) -> Option<Value> {
                None
            }
            fn load_image(&self, _: &str, indices: &[i64]) -> Result<Value, RealizeError> {
                Ok(self.img.get(indices))
            }
            fn load_func(&self, name: &str, _: &[i64]) -> Result<Value, RealizeError> {
                Err(RealizeError::UndefinedFunc(name.to_string()))
            }
        }
        let mut out = Buffer::new(out_ty, &[w, h]);
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let v = eval_expr(value, &Point { x, y, img }).expect("interpret");
                out.set(&[x, y], v);
            }
        }
        out
    }

    /// The ops [`float_peephole`] emits: every fused op, each product order,
    /// and the arithmetic of the accumulate ops, as tags.
    fn fused_float_ops<C: std::fmt::Debug>(ops: &[FOp<C>]) -> Vec<String> {
        ops.iter()
            .filter_map(|op| match op {
                FOp::PushMul { c_first, .. } => Some(format!("PushMul c_first={c_first}")),
                FOp::AccAddMul { c_first, .. } => Some(format!("AccAddMul c_first={c_first}")),
                FOp::AccLoad(a, _) => Some(format!("AccLoad {a:?}")),
                FOp::AccConst(a, _) => Some(format!("AccConst {a:?}")),
                FOp::Min | FOp::Max | FOp::Sel | FOp::Cmp(_) => Some(format!("{op:?}")),
                _ => None,
            })
            .collect()
    }

    /// The float lanes' fused ops ([`float_peephole`]) are bit-identical to
    /// the per-op tier and the interpreter on f32 and f64 kernels, NaN
    /// payloads included: two programs per family carry every fused op —
    /// both product orders, load- and const-accumulate Add/Sub/Mul/Div — one
    /// of them accumulator-shaped and one running Min/Max/Cmp/Sel after an
    /// accumulate on the stack, with a NaN constant in a const-accumulate.
    /// Widths and extents cover full, overlapping and masked chunks.
    #[test]
    fn float_fused_ops_match_per_op_tier_and_interpreter() {
        for ty in [ScalarType::Float32, ScalarType::Float64] {
            // On f32 lanes arithmetic fuses only at rounding points, so
            // every arithmetic node rounds; on f64 lanes the casts are
            // absent, as in the lifted f64 kernels.
            let r = |e: Expr| match ty {
                ScalarType::Float32 => f32c(e),
                _ => e,
            };
            let k = |v: f64| Expr::ConstFloat(v, ty);
            let add = |a, b| r(Expr::add(a, b));
            let sub = |a, b| r(Expr::bin(BinOp::Sub, a, b));
            let mul = |a, b| r(Expr::mul(a, b));
            let div = |a, b| r(Expr::bin(BinOp::Div, a, b));
            // A NaN with a payload of its own, exact on both lane types.
            let nan = k(f64::from_bits(0x7ff8_0000_0000_0000 | (0x0_2a5a << 29)));
            // t·c + c·t + t·c + t − t × t ÷ t + c − c × c ÷ c
            let acc = mul(ftap(0, 0), k(0.375));
            let acc = add(acc, mul(k(-1.25), ftap(1, 0)));
            let acc = add(acc, mul(ftap(-1, 0), k(2.5)));
            let acc = add(acc, ftap(0, 1));
            let acc = sub(acc, ftap(1, 1));
            let acc = mul(acc, ftap(0, -1));
            let acc = div(acc, ftap(-1, 1));
            let acc = add(acc, k(0.5));
            let acc = sub(acc, k(-3.0));
            let acc = mul(acc, k(1.5));
            let accumulator = div(acc, k(-0.75));
            // select(max(c·t + t, t) < c, min(c·t + t, t), x + NaN): the
            // NaN constant meets only the (never NaN) loop variable.
            let first = || add(mul(k(0.5), ftap(0, 0)), ftap(1, 0));
            let general = Expr::select(
                Expr::cmp(
                    CmpOp::Lt,
                    Expr::bin(BinOp::Max, first(), ftap(0, -1)),
                    k(4.0),
                ),
                Expr::bin(BinOp::Min, first(), ftap(0, 1)),
                add(Expr::var("x"), nan),
            );
            let mut emitted = std::collections::BTreeSet::new();
            for value in [&accumulator, &general] {
                for (w, h) in [(37usize, 5usize), (5, 3)] {
                    let plan = plan_with_input(nest(w as i64, h as i64, value.clone()), ty, ty);
                    let fused = plan.prepared.stores[0]
                        .as_ref()
                        .and_then(|s| s.fused.as_ref())
                        .expect("the program must fuse");
                    emitted.extend(match &fused.prog {
                        LaneProgram::F32(ops) => fused_float_ops(ops),
                        LaneProgram::F64(ops) => fused_float_ops(ops),
                        other => panic!("float kernel on {other:?}"),
                    });
                    for seed in [3u64, 41] {
                        let img = special_input(ty, w + 2, h + 2, seed);
                        let images: BTreeMap<String, &Buffer> =
                            [("in".to_string(), &img)].into_iter().collect();
                        let run = |tier: Tier| {
                            let mut out = Buffer::new(ty, &[w, h]);
                            run_with_target(
                                &plan,
                                &mut out,
                                &images,
                                &BTreeMap::new(),
                                &BTreeMap::new(),
                                Target::detect().with_tier(tier),
                            )
                            .expect("run");
                            out
                        };
                        let rows = fused_rows_executed() + fused_tail_chunks_executed();
                        let fused_out = run(Tier::Simd);
                        assert!(
                            fused_rows_executed() + fused_tail_chunks_executed() > rows,
                            "{ty:?} {w}x{h}: the fused chunks must run"
                        );
                        let per_op = run(Tier::Scalar);
                        let reference = interpret(value, ty, w, h, &img);
                        assert_eq!(
                            fused_out.bytes(),
                            per_op.bytes(),
                            "{ty:?} {w}x{h}: fused vs per-op tier"
                        );
                        assert_eq!(
                            fused_out.bytes(),
                            reference.bytes(),
                            "{ty:?} {w}x{h}: fused vs interpreter"
                        );
                    }
                }
            }
            let expected = [
                "PushMul c_first=true",
                "PushMul c_first=false",
                "AccAddMul c_first=true",
                "AccAddMul c_first=false",
                "AccLoad Add",
                "AccLoad Sub",
                "AccLoad Mul",
                "AccLoad Div",
                "AccConst Add",
                "AccConst Sub",
                "AccConst Mul",
                "AccConst Div",
                "Min",
                "Max",
                "Sel",
                "Cmp(Lt)",
            ];
            for op in expected {
                assert!(
                    emitted.contains(op),
                    "{ty:?}: {op} never emitted, got {emitted:?}"
                );
            }
        }
    }

    /// Both builds of the fused row loop write the same bytes as each other
    /// and as the interpreter, for every lane family at every chunk width:
    /// a row of exactly one chunk, a row that ends in an overlapping tail
    /// and, at the narrowest width (the only one a row shorter than a chunk
    /// picks), a masked tail. The baseline build is forced by flipping the
    /// plan's ISA to `Portable`; each run's counts show which build ran
    /// (the f64 family has only the baseline one).
    #[test]
    fn baseline_and_host_row_builds_agree_byte_for_byte() {
        let neg = |e: Expr| u32c(Expr::mul(Expr::int(4294967295), e));
        let sharpen = u32c(Expr::add(
            u32c(Expr::add(
                u32c(Expr::add(
                    Expr::int(2),
                    u32c(Expr::mul(Expr::int(8), tap(1, 1))),
                )),
                neg(tap(0, 1)),
            )),
            neg(tap(2, 1)),
        ));
        let i32_value = Expr::cast(
            ScalarType::UInt8,
            Expr::select(
                Expr::cmp(CmpOp::Lt, tap(0, 0), Expr::int(128)),
                u32c(Expr::bin(BinOp::Shr, sharpen, Expr::uint(2))),
                Expr::bin(BinOp::Min, tap(1, 0), tap(2, 2)),
            ),
        );
        let i64_value = Expr::cast(
            ScalarType::UInt64,
            Expr::add(
                Expr::mul(tap(0, 0), Expr::int(0x1_0000_0001)),
                Expr::bin(
                    BinOp::Shl,
                    Expr::cast(ScalarType::UInt64, tap(2, 1)),
                    Expr::int(33),
                ),
            ),
        );
        let f32_value = f32c(Expr::add(
            f32c(Expr::mul(
                f32c(Expr::add(ftap(0, 1), ftap(2, 1))),
                Expr::ConstFloat((1.0f32 / 12.0) as f64, ScalarType::Float32),
            )),
            Expr::bin(
                BinOp::Max,
                ftap(1, 1),
                Expr::ConstFloat(-2.5, ScalarType::Float32),
            ),
        ));
        let f64_value = Expr::select(
            Expr::cmp(CmpOp::Lt, ftap(1, 0), dconst(0.0)),
            Expr::Call(ExternCall::Sqrt, vec![ftap(1, 1)]),
            Expr::add(
                Expr::mul(Expr::add(ftap(0, 1), ftap(2, 1)), dconst(1.0 / 12.0)),
                Expr::mul(ftap(1, 2), dconst(0.5)),
            ),
        );
        let families = [
            (
                LaneFamily::I32,
                i32_value,
                ScalarType::UInt8,
                ScalarType::UInt8,
                i32::AVX2,
            ),
            (
                LaneFamily::I64,
                i64_value,
                ScalarType::UInt64,
                ScalarType::UInt8,
                i64::AVX2,
            ),
            (
                LaneFamily::F32,
                f32_value,
                ScalarType::Float32,
                ScalarType::Float32,
                f32::AVX2,
            ),
            (
                LaneFamily::F64,
                f64_value,
                ScalarType::Float64,
                ScalarType::Float64,
                f64::AVX2,
            ),
        ];
        let host = Target::detect().effective_isa();
        let h = 3usize;
        for (family, value, out_ty, in_ty, avx2) in families {
            let narrowest = family.chunk_lanes(1);
            for width in [1, 2, 4, 8].map(|k| k * narrowest) {
                // One chunk, an overlapping tail, and at the narrowest width
                // a masked one.
                let mut rows = vec![(width, 0), (width + width / 2 + 1, h as u64)];
                if width == narrowest {
                    rows.push((width / 2 + 1, h as u64));
                }
                for (w, tails) in rows {
                    assert_eq!(family.chunk_lanes(w), width);
                    let mut plan =
                        plan_with_input(nest(w as i64, h as i64, value.clone()), out_ty, in_ty);
                    assert_eq!(plan.prepared.isa, host, "prepare records the host's build");
                    let fused = plan.prepared.stores[0]
                        .as_ref()
                        .and_then(|s| s.fused.as_ref());
                    assert_eq!(fused.map(|f| f.prog.family()), Some(family));
                    // Taps reach two columns right and two rows down, so the
                    // interior is the whole row.
                    let img = match in_ty {
                        ScalarType::UInt8 => input(w + 2, h + 2, 29),
                        float => special_input(float, w + 2, h + 2, 29),
                    };
                    let images: BTreeMap<String, &Buffer> =
                        [("in".to_string(), &img)].into_iter().collect();
                    let mut run = |isa: Isa| {
                        plan.prepared.isa = isa;
                        let mut out = Buffer::new(out_ty, &[w, h]);
                        let simd = Target::detect().with_tier(Tier::Simd);
                        let counts = run_counted(
                            &plan,
                            &mut out,
                            &images,
                            &BTreeMap::new(),
                            &BTreeMap::new(),
                            simd,
                        )
                        .expect("run");
                        (out, counts)
                    };
                    let (native, native_counts) = run(host);
                    let (baseline, baseline_counts) = run(Isa::Portable);
                    let case = format!("{family:?} {w}x{h}");
                    assert_eq!(
                        native.bytes(),
                        baseline.bytes(),
                        "{case}: host vs baseline build"
                    );
                    assert_eq!(
                        native.bytes(),
                        interpret(&value, out_ty, w, h, &img).bytes(),
                        "{case}: fused vs interpreter"
                    );
                    let arch_rows = if host == Isa::Avx2 && avx2 {
                        h as u64
                    } else {
                        0
                    };
                    for (counts, arch_rows) in [(native_counts, arch_rows), (baseline_counts, 0)] {
                        assert_eq!(
                            (counts.fused_rows, counts.fused_tails, counts.arch_rows),
                            (h as u64, tails, arch_rows),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    /// [`ExecPlan::store_profiles`] reports a store's fused kernel — its
    /// lane family and taps — exactly when the target's tier runs fused
    /// kernels: an Auto or Simd tier reports the i32 and f64 kernels, a
    /// Scalar tier reports none.
    #[test]
    fn store_profiles_report_kernels_only_on_fused_tiers() {
        let int_plan = plan_for(nest(16, 4, tap(0, 0)), ScalarType::UInt8);
        let f64_plan = plan_with_input(
            nest(16, 4, Expr::add(ftap(0, 0), ftap(1, 0))),
            ScalarType::Float64,
            ScalarType::Float64,
        );
        for (plan, family, taps) in [
            (&int_plan, LaneFamily::I32, 1),
            (&f64_plan, LaneFamily::F64, 2),
        ] {
            for tier in [Tier::Auto, Tier::Simd] {
                let profiles = plan.store_profiles(Target::detect().with_tier(tier));
                assert_eq!(profiles.len(), 1);
                assert_eq!((profiles[0].fused, profiles[0].taps), (Some(family), taps));
            }
            // A Scalar tier runs no kernel, so its profiles report none.
            for p in plan.store_profiles(Target::detect().with_tier(Tier::Scalar)) {
                assert_eq!((p.fused, p.taps), (None, 0));
            }
        }
    }

    /// The fused tier's one raw-pointer store checks its bounds in every
    /// build: a write past the buffer's end panics instead of corrupting
    /// memory.
    #[test]
    #[should_panic(expected = "overruns")]
    fn raw_store_past_the_buffer_end_panics() {
        let mut bytes = vec![0u8; 8];
        let bind = SlotBind {
            ptr: bytes.as_mut_ptr(),
            byte_len: bytes.len(),
            extents: vec![8],
            strides: vec![1],
        };
        bind.write(6, &[1, 2, 3]);
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
        // Chunks come from the row (8 lanes below 16, then 16); input is
        // wide enough that the interior spans the whole row for every extent.
        for w in [3i64, 5, 7, 8, 9, 15, 16, 17] {
            let plan = plan_for(nest(w, 4, value.clone()), ScalarType::UInt8);
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
        let plan = plan_for(nest(16, 4, value), ScalarType::UInt8);
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

    /// Loop bounds compile to `Bound` programs that agree with the shared
    /// evaluator on the shapes lowering emits: tile tails
    /// `min(t, w - t·xo)`, sliding-window region minima (bare affine, and
    /// clamped `max(…, 0)`) and the sliding extent `e - warm`.
    #[test]
    fn compiled_loop_bounds_match_the_evaluator() {
        struct Vars(BTreeMap<String, i64>);
        impl EvalSources for Vars {
            fn var(&self, name: &str) -> Option<i64> {
                self.0.get(name).copied()
            }
            fn param(&self, _: &str) -> Option<Value> {
                None
            }
            fn load_image(&self, name: &str, _: &[i64]) -> Result<Value, RealizeError> {
                Err(RealizeError::MissingInput(name.into()))
            }
            fn load_func(&self, name: &str, _: &[i64]) -> Result<Value, RealizeError> {
                Err(RealizeError::UndefinedFunc(name.into()))
            }
        }
        let names = ["yo", "xo", "f.warm"];
        let depths: BTreeMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(d, v)| (v.to_string(), d))
            .collect();
        let tail = |w: i64, t: i64| {
            let rest = Expr::bin(
                BinOp::Sub,
                Expr::int(w),
                Expr::mul(Expr::var("xo"), Expr::int(t)),
            );
            crate::simplify::simplify(&Expr::bin(BinOp::Min, Expr::int(t), rest))
        };
        let region = |base_min: i64, coeffs: &[(&str, i64)]| crate::lower::RegionDim {
            base_min,
            coeffs: coeffs.iter().map(|(v, c)| (v.to_string(), *c)).collect(),
            extent: 5,
        };
        let bounds = [
            tail(1920, 64),
            tail(67, 64),
            tail(131, 7),
            region(1, &[("xo", 3), ("yo", 1)]).min_expr(),
            region(-2, &[("xo", 3), ("yo", 1)]).min_expr(),
            region(0, &[("xo", -1)]).min_expr(),
            Expr::bin(BinOp::Sub, Expr::int(5), Expr::var("f.warm")),
        ];
        for e in &bounds {
            let bound = Bound::compile(e, &depths, &BTreeMap::new()).expect("bound compiles");
            for yo in -1..3 {
                for xo in -2..40 {
                    for warm in 0..6 {
                        let vars = [yo, xo, warm];
                        let named = Vars(names.iter().map(|v| v.to_string()).zip(vars).collect());
                        let want = eval_expr(e, &named).expect("evaluates").as_i64();
                        assert_eq!(bound.eval(&vars), want, "{e} at {vars:?}");
                    }
                }
            }
        }
        // Anything else is refused when the plan is prepared.
        let halve = Expr::bin(BinOp::Div, Expr::var("xo"), Expr::int(2));
        assert!(Bound::compile(&halve, &depths, &BTreeMap::new()).is_err());
        assert!(Bound::compile(&Expr::var("unbound"), &depths, &BTreeMap::new()).is_err());
    }
}
