//! Lowering: turning a [`Pipeline`] + [`Schedule`] into loop-nest IR.
//!
//! This is the compilation step the interpreter never had: schedule decisions
//! (tiling, parallelism, vectorization, `compute_root`, `compute_at`) are
//! materialized as restructured [`Stmt`] loops *before* execution, so the
//! executor runs straight-line loop nests instead of re-deciding strategy per
//! element.
//!
//! The lowering of the output func proceeds in four steps:
//!
//! 1. **Inlining** — every producer not scheduled `compute_root`/`compute_at`
//!    (and without reductions) is substituted into the consumer expression.
//! 2. **Loop synthesis** — one loop per output dimension, outermost last
//!    dimension first; tiling splits the two innermost dimensions into
//!    outer/inner pairs with `min(tile, extent - outer*tile)` tails; the
//!    outermost loop is tagged parallel and the innermost vectorized per the
//!    schedule.
//! 3. **`compute_at` regions** — for each attached producer, bounds inference
//!    probes the consumer's accesses to derive a per-iteration region that is
//!    affine in the enclosing loop variables (`min = base + Σ cᵢ·loopᵢ`,
//!    constant extent). The producer is lowered into an [`Stmt::Allocate`] of
//!    that extent plus its own produce loops at the attach point, and consumer
//!    accesses are rebased into the local buffer. Producers whose regions are
//!    not affine (or absurdly large) *degrade to `compute_root`*, which is
//!    value-identical.
//! 4. **Simplification** — all synthesized index/bound expressions are
//!    constant-folded through [`crate::simplify()`].
//!
//! **Sliding windows.** When a `compute_at` producer's inferred region
//! translates by exactly the attach loop (coefficient 1 on the last
//! dimension, extent > 1, all other dimensions stationary), the scoped
//! allocation becomes a rolling window: a [`Stmt::SlideWindow`] node shifts
//! the surviving rows in place at each attach iteration and the produce nest
//! recomputes only the newly exposed ones (its sliding-dimension loop starts
//! at the runtime-bound warm-row count). Regions that do not slide keep the
//! recompute-everything placement, which is value-identical.
//!
//! **Update (reduction) definitions** lower too, via [`lower_update`]: each
//! update becomes a nest of serial reduction-domain loops plus loops over the
//! update's free pure variables, around a guarded
//! [`crate::stmt::Stmt::ReduceStore`]. The nest order follows an accumulation
//! strategy chosen by [`update_strategy`] from the RDom/pure-dim dependence:
//!
//! * [`UpdateStrategy::Sequential`] replicates the reduction interpreter's
//!   order verbatim — free pure dims outermost, rdom dims inner (first rdom
//!   dimension innermost), one element at a time — and is always sound
//!   (scans, data-dependent histogram LHS).
//! * [`UpdateStrategy::Privatized`] applies when every free pure variable is
//!   its own LHS dimension and self-reads hit exactly the written point:
//!   pure iterations then own disjoint elements, so the pure loops move
//!   *inside* the rdom loops and the innermost one vectorizes.
//!
//! Reduction-domain bounds resolve through [`resolve_rdom_dims`], the same
//! helper the interpreter uses, so both paths iterate the identical domain.
//!
//! Bit-exactness: lowering only reorders the iteration space and rebases
//! producer storage; every value is computed by the same expression over the
//! same inputs as the interpreter, so both backends produce identical buffers
//! (enforced by the differential property suites in `tests/prop_halide.rs`
//! and `tests/prop_reduce.rs`).

use crate::bounds::{affine_decompose, expr_interval};
use crate::expr::{BinOp, Expr};
use crate::func::{Func, Pipeline, UpdateDef};
use crate::realize::RealizeError;
use crate::schedule::Schedule;
use crate::simplify::simplify;
use crate::stmt::{LoopKind, Stmt};
use crate::types::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Cap on the element count of a `compute_at` region; larger inferred regions
/// (typically from non-affine indexing) degrade the producer to
/// `compute_root` instead of allocating absurd scratch buffers.
const MAX_REGION_ELEMS: usize = 1 << 24;

/// One loop of the synthesized nest, outermost first.
#[derive(Debug, Clone)]
struct LoopLevel {
    /// Loop variable name (an output var, or `var.outer` / `var.inner`).
    name: String,
    /// Iteration count expression.
    extent: Expr,
    /// Execution strategy.
    kind: LoopKind,
    /// Original output dimension this loop iterates (innermost-first index).
    dim: usize,
    /// Split role of this loop within its dimension.
    role: LoopRole,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopRole {
    /// The whole dimension.
    Whole,
    /// Outer loop of a split with the given tile factor.
    Outer(usize),
    /// Inner loop of a split with the given tile factor.
    Inner(usize),
}

/// The inferred storage region of one `compute_at` producer dimension:
/// `min = max(0, base_min + Σ coeff·loop_var)`, constant `extent`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDim {
    /// Constant part of the region minimum.
    pub base_min: i64,
    /// Per-loop-variable multipliers of the region minimum.
    pub coeffs: Vec<(String, i64)>,
    /// Constant region extent.
    pub extent: usize,
}

impl RegionDim {
    /// The runtime region minimum as an expression over the enclosing loop
    /// variables, clamped at zero (matching `compute_root`'s `[0, max]`
    /// allocations so both placements clamp reads identically).
    ///
    /// Every loop variable starts at 0, so with `base_min ≥ 0` and no
    /// negative coefficient the clamp is the identity and the bare affine sum
    /// is emitted instead: indices into the region buffer then stay affine,
    /// which the fused lane kernels of the producer and consumer stores
    /// require.
    pub fn min_expr(&self) -> Expr {
        let mut e = Expr::int(self.base_min);
        for (var, c) in &self.coeffs {
            e = Expr::add(e, Expr::mul(Expr::int(*c), Expr::var(var)));
        }
        if self.base_min >= 0 && self.coeffs.iter().all(|(_, c)| *c >= 0) {
            simplify(&e)
        } else {
            simplify(&Expr::bin(BinOp::Max, e, Expr::int(0)))
        }
    }
}

/// A planned `compute_at` placement for one producer func.
#[derive(Debug, Clone)]
pub struct ComputeAtPlan {
    /// Producer func name.
    pub func: String,
    /// Name of the loop at whose iterations the producer is recomputed.
    pub attach_loop: String,
    /// Storage region per producer dimension (innermost first).
    pub dims: Vec<RegionDim>,
    /// Keep the allocation as a sliding window across attach iterations:
    /// only rows of the last dimension newly exposed by the region
    /// translation are recomputed, the rest shift in place. Set exactly when
    /// the region provably slides (last dimension translated by exactly the
    /// attach loop with coefficient 1, all other dimensions stationary).
    pub sliding: bool,
}

/// Result of planning `compute_at` placements: the plans that hold, and the
/// producers that degrade to `compute_root`.
#[derive(Debug, Clone, Default)]
pub struct ComputeAtOutcome {
    /// Producers lowered at a consumer loop.
    pub plans: Vec<ComputeAtPlan>,
    /// Producers that degrade to `compute_root` (value-identical).
    pub demoted: BTreeSet<String>,
}

/// Inline into `expr` every func of `pipeline` that is not named in `keep`
/// (and has a pure definition without reductions), iterating to a fixed
/// point.
pub fn inline_except(
    pipeline: &Pipeline,
    expr: &Expr,
    keep: &BTreeSet<String>,
) -> Result<Expr, RealizeError> {
    let mut result = expr.clone();
    for _ in 0..32 {
        let refs = result.referenced_funcs();
        let to_inline: Vec<String> = refs
            .into_iter()
            .filter(|n| !keep.contains(n) && *n != pipeline.output)
            .collect();
        if to_inline.is_empty() {
            return Ok(result);
        }
        for name in to_inline {
            let func = pipeline
                .funcs
                .get(&name)
                .ok_or_else(|| RealizeError::UndefinedFunc(name.clone()))?;
            if !func.updates.is_empty() || func.pure_def.is_none() {
                // Funcs with reductions cannot be inlined; they are
                // materialized by the realizer and read as sources.
                continue;
            }
            result = crate::realize::inline_one(&result, func);
        }
    }
    Ok(result)
}

fn split_names(var: &str) -> (String, String) {
    (format!("{var}.outer"), format!("{var}.inner"))
}

/// Synthesize the loop structure for `func` over `extents` under `schedule`.
fn build_levels(func: &Func, extents: &[usize], schedule: &Schedule) -> Vec<LoopLevel> {
    let dims = func.vars.len();
    let tiled = match schedule.tile {
        Some((tx, ty)) if dims >= 2 => Some((tx.max(1), ty.max(1))),
        _ => None,
    };
    let mut levels = Vec::new();
    // Plain loops over the dimensions above the tiled pair, outermost first.
    for d in (0..dims).rev() {
        if tiled.is_some() && d < 2 {
            continue;
        }
        levels.push(LoopLevel {
            name: func.vars[d].clone(),
            extent: Expr::int(extents[d] as i64),
            kind: LoopKind::Serial,
            dim: d,
            role: LoopRole::Whole,
        });
    }
    if let Some((tx, ty)) = tiled {
        let (x, y) = (&func.vars[0], &func.vars[1]);
        let (xo, xi) = split_names(x);
        let (yo, yi) = split_names(y);
        let (w, h) = (extents[0], extents[1]);
        levels.push(LoopLevel {
            name: yo,
            extent: Expr::int(h.div_ceil(ty) as i64),
            kind: LoopKind::Serial,
            dim: 1,
            role: LoopRole::Outer(ty),
        });
        levels.push(LoopLevel {
            name: xo.clone(),
            extent: Expr::int(w.div_ceil(tx) as i64),
            kind: LoopKind::Serial,
            dim: 0,
            role: LoopRole::Outer(tx),
        });
        levels.push(LoopLevel {
            name: yi,
            extent: simplify(&Expr::bin(
                BinOp::Min,
                Expr::int(ty as i64),
                Expr::bin(
                    BinOp::Sub,
                    Expr::int(h as i64),
                    Expr::mul(Expr::var(&split_names(y).0), Expr::int(ty as i64)),
                ),
            )),
            kind: LoopKind::Serial,
            dim: 1,
            role: LoopRole::Inner(ty),
        });
        levels.push(LoopLevel {
            name: xi,
            extent: simplify(&Expr::bin(
                BinOp::Min,
                Expr::int(tx as i64),
                Expr::bin(
                    BinOp::Sub,
                    Expr::int(w as i64),
                    Expr::mul(Expr::var(&xo), Expr::int(tx as i64)),
                ),
            )),
            kind: LoopKind::Serial,
            dim: 0,
            role: LoopRole::Inner(tx),
        });
    }
    if levels.is_empty() {
        // 1-D untiled func: a single loop over dimension 0.
        debug_assert!(dims >= 1);
    }
    if schedule.parallel {
        if let Some(first) = levels.first_mut() {
            first.kind = LoopKind::Parallel {
                threads: schedule.threads,
            };
        }
    }
    if schedule.vectorize {
        if let Some(last) = levels.last_mut() {
            if !matches!(last.kind, LoopKind::Parallel { .. }) {
                last.kind = LoopKind::Vectorized;
            }
        }
    }
    levels
}

/// The expression each original output var takes in terms of the loop vars.
fn var_substitution(func: &Func, levels: &[LoopLevel]) -> BTreeMap<String, Expr> {
    let mut subst = BTreeMap::new();
    for level in levels {
        let var = &func.vars[level.dim];
        match level.role {
            LoopRole::Whole => {
                subst.insert(var.clone(), Expr::var(&level.name));
            }
            LoopRole::Outer(f) => {
                let (o, i) = split_names(var);
                subst.insert(
                    var.clone(),
                    Expr::add(Expr::mul(Expr::var(&o), Expr::int(f as i64)), Expr::var(&i)),
                );
            }
            LoopRole::Inner(_) => {}
        }
    }
    subst
}

/// How one loop of the nest participates in region inference.
struct LoopAxis {
    /// Loop variable name.
    name: String,
    /// Loops at or outside the attach level stay symbolic in the region
    /// expression; loops inside it span their full range.
    symbolic: bool,
    /// Upper bound on the loop variable (inclusive); tail-clamped inner tile
    /// loops use the full tile, a sound over-approximation.
    max_iter: i64,
}

/// Derive the storage region of `producer` under the consumer expression:
/// every access's index must be affine in the output variables, and all
/// accesses must share the same coefficients on the symbolic (attach-level
/// and outer) loops, so the region is a pure translation per iteration.
/// Returns `None` (degrade to `compute_root`) otherwise.
#[allow(clippy::too_many_arguments)]
fn infer_region(
    output: &Func,
    extents: &[usize],
    levels: &[LoopLevel],
    attach_idx: usize,
    consumer_expr: &Expr,
    producer: &str,
    producer_dims: usize,
    params: &BTreeMap<String, Value>,
) -> Option<Vec<RegionDim>> {
    // Collect every access to the producer.
    let mut accesses: Vec<&Vec<Expr>> = Vec::new();
    let mut arity_ok = true;
    consumer_expr.visit(&mut |e| {
        if let Expr::FuncRef(name, args) = e {
            if name == producer {
                if args.len() == producer_dims {
                    accesses.push(args);
                } else {
                    arity_ok = false;
                }
            }
        }
    });
    if !arity_ok || accesses.is_empty() {
        return None;
    }

    // Map each original output var to its loop axes: `x` iterated whole maps
    // to one axis with coefficient 1; a tiled `x` maps to `x.outer` with
    // coefficient `tile` and `x.inner` with coefficient 1.
    let axes: Vec<LoopAxis> = levels
        .iter()
        .enumerate()
        .map(|(idx, level)| LoopAxis {
            name: level.name.clone(),
            symbolic: idx <= attach_idx,
            max_iter: match level.role {
                LoopRole::Whole => extents[level.dim] as i64 - 1,
                LoopRole::Outer(t) => extents[level.dim].div_ceil(t) as i64 - 1,
                LoopRole::Inner(t) => t as i64 - 1,
            },
        })
        .collect();
    let axis_coeffs = |var: &str, c: i64| -> Vec<(String, i64)> {
        for level in levels {
            if output.vars[level.dim] != var {
                continue;
            }
            return match level.role {
                LoopRole::Whole => vec![(level.name.clone(), c)],
                LoopRole::Outer(t) => {
                    let (o, i) = split_names(var);
                    vec![(o, c * t as i64), (i, c)]
                }
                LoopRole::Inner(_) => Vec::new(), // covered by the Outer entry
            };
        }
        Vec::new()
    };

    let mut dims = Vec::with_capacity(producer_dims);
    for d in 0..producer_dims {
        let mut shared_sym: Option<BTreeMap<String, i64>> = None;
        let mut region_min = i64::MAX;
        let mut region_max = i64::MIN;
        for args in &accesses {
            let (var_coeffs, konst) = affine_decompose(&args[d], params)?;
            // Translate original-var coefficients to loop-axis coefficients.
            let mut per_axis: BTreeMap<String, i64> = BTreeMap::new();
            for (var, c) in &var_coeffs {
                if *c == 0 {
                    continue;
                }
                let translated = axis_coeffs(var, *c);
                if translated.is_empty() {
                    return None; // references a variable with no loop (free var)
                }
                for (axis, ac) in translated {
                    *per_axis.entry(axis).or_insert(0) += ac;
                }
            }
            // Split into the symbolic (translation) part and the inner span.
            let mut sym: BTreeMap<String, i64> = BTreeMap::new();
            let (mut lo, mut hi) = (konst, konst);
            for axis in &axes {
                let c = per_axis.get(&axis.name).copied().unwrap_or(0);
                if c == 0 {
                    continue;
                }
                if axis.symbolic {
                    sym.insert(axis.name.clone(), c);
                } else if c > 0 {
                    hi += c * axis.max_iter;
                } else {
                    lo += c * axis.max_iter;
                }
            }
            match &shared_sym {
                None => shared_sym = Some(sym),
                Some(prev) if *prev == sym => {}
                // Accesses translate differently per iteration (e.g. P(x)
                // and P(2x)): the union is not a fixed-extent translation.
                Some(_) => return None,
            }
            region_min = region_min.min(lo);
            region_max = region_max.max(hi);
        }
        let extent = (region_max - region_min + 1).max(1) as usize;
        dims.push(RegionDim {
            base_min: region_min,
            coeffs: shared_sym.unwrap_or_default().into_iter().collect(),
            extent,
        });
    }
    let total: usize = dims.iter().map(|d| d.extent).product();
    if total == 0 || total > MAX_REGION_ELEMS {
        return None;
    }
    Some(dims)
}

/// Whether an inferred region slides along its last dimension as the attach
/// loop advances: the last dimension's minimum must be translated by exactly
/// the attach loop with coefficient 1 (so consecutive iterations shift the
/// window by at most one row) with extent > 1, and every other dimension must
/// be stationary (no enclosing-loop coefficients), so the window's content is
/// a pure function of the last dimension's minimum.
fn region_slides(dims: &[RegionDim], attach_loop: &str) -> bool {
    let Some((last, rest)) = dims.split_last() else {
        return false;
    };
    last.extent > 1
        && last.coeffs.len() == 1
        && last.coeffs[0].0 == attach_loop
        && last.coeffs[0].1 == 1
        && rest.iter().all(|d| d.coeffs.is_empty())
}

/// Plan `compute_at` placements for the output func of `pipeline`.
///
/// `roots` are the funcs that will be materialized before the output runs
/// (`compute_root` plus funcs with reductions); they stay un-inlined during
/// planning. Any `compute_at` entry that cannot be honoured — unknown func,
/// reduction, the output itself, already `compute_root`, unknown attach var,
/// non-affine or oversized region — lands in
/// [`ComputeAtOutcome::demoted`] and degrades to `compute_root`.
///
/// # Errors
/// Returns an error if a referenced func is undefined.
pub fn plan_compute_at(
    pipeline: &Pipeline,
    schedule: &Schedule,
    output_extents: &[usize],
    params: &BTreeMap<String, Value>,
    roots: &BTreeSet<String>,
) -> Result<ComputeAtOutcome, RealizeError> {
    let output = pipeline.output_func();
    let mut outcome = ComputeAtOutcome::default();
    if schedule.compute_at.is_empty() {
        return Ok(outcome);
    }

    // Update definitions are interpreted against materialized buffers, so any
    // func an update expression references (of the output or of a func that
    // will itself be materialized) must exist as a buffer — such producers
    // cannot be scoped compute_at allocations.
    let mut update_refs: BTreeSet<String> = BTreeSet::new();
    let mut collect_update_refs = |f: &Func| {
        for u in &f.updates {
            for e in u.lhs.iter().chain(std::iter::once(&u.value)) {
                update_refs.extend(e.referenced_funcs());
            }
        }
    };
    collect_update_refs(output);
    for name in roots {
        if let Some(f) = pipeline.funcs.get(name) {
            collect_update_refs(f);
        }
    }

    let mut candidates: Vec<(String, String)> = Vec::new();
    for (func, var) in &schedule.compute_at {
        let eligible = pipeline.funcs.get(func).is_some_and(|f| {
            f.pure_def.is_some() && f.updates.is_empty() && *func != pipeline.output
        }) && !roots.contains(func)
            && !update_refs.contains(func)
            && output.vars.contains(var);
        if eligible {
            candidates.push((func.clone(), var.clone()));
        } else if pipeline.funcs.contains_key(func) && *func != pipeline.output {
            outcome.demoted.insert(func.clone());
        }
    }
    if candidates.is_empty() {
        return Ok(outcome);
    }

    // The consumer expression with roots and all candidates left as FuncRefs.
    let mut keep: BTreeSet<String> = roots.clone();
    keep.extend(candidates.iter().map(|(f, _)| f.clone()));
    let consumer = match &output.pure_def {
        Some(e) => inline_except(pipeline, e, &keep)?,
        None => return Ok(outcome),
    };

    let levels = build_levels(output, output_extents, schedule);
    for (func, var) in candidates {
        let attach_idx = levels
            .iter()
            .rposition(|l| output.vars[l.dim] == var)
            .expect("attach var has a loop");
        let producer_dims = pipeline.funcs[&func].dims();
        if !consumer.referenced_funcs().contains(&func) {
            // Not referenced (it may feed only other producers, which inline
            // it); treat as compute_root so it is still materialized once.
            outcome.demoted.insert(func);
            continue;
        }
        match infer_region(
            output,
            output_extents,
            &levels,
            attach_idx,
            &consumer,
            &func,
            producer_dims,
            params,
        ) {
            Some(dims) => {
                let attach_loop = levels[attach_idx].name.clone();
                let sliding = region_slides(&dims, &attach_loop);
                outcome.plans.push(ComputeAtPlan {
                    func,
                    attach_loop,
                    dims,
                    sliding,
                });
            }
            None => {
                outcome.demoted.insert(func);
            }
        }
    }
    Ok(outcome)
}

/// Rewrite accesses to a `compute_at` producer into its local region buffer:
/// `P(args...)` becomes `P(args - region_min...)`.
fn rebase_producer_refs(e: &Expr, plan: &ComputeAtPlan) -> Expr {
    match e {
        Expr::FuncRef(name, args) if *name == plan.func => {
            let rebased: Vec<Expr> = args
                .iter()
                .enumerate()
                .map(|(d, a)| {
                    let a = rebase_producer_refs(a, plan);
                    match plan.dims.get(d) {
                        Some(dim) => simplify(&Expr::bin(BinOp::Sub, a, dim.min_expr())),
                        None => a,
                    }
                })
                .collect();
            Expr::FuncRef(name.clone(), rebased)
        }
        Expr::FuncRef(name, args) => Expr::FuncRef(
            name.clone(),
            args.iter().map(|a| rebase_producer_refs(a, plan)).collect(),
        ),
        Expr::Image(name, args) => Expr::Image(
            name.clone(),
            args.iter().map(|a| rebase_producer_refs(a, plan)).collect(),
        ),
        Expr::Cast(ty, inner) => Expr::Cast(*ty, Box::new(rebase_producer_refs(inner, plan))),
        Expr::Binary(op, a, b) => Expr::bin(
            *op,
            rebase_producer_refs(a, plan),
            rebase_producer_refs(b, plan),
        ),
        Expr::Cmp(op, a, b) => Expr::cmp(
            *op,
            rebase_producer_refs(a, plan),
            rebase_producer_refs(b, plan),
        ),
        Expr::Select(c, t, o) => Expr::select(
            rebase_producer_refs(c, plan),
            rebase_producer_refs(t, plan),
            rebase_producer_refs(o, plan),
        ),
        Expr::Call(c, args) => Expr::Call(
            *c,
            args.iter().map(|a| rebase_producer_refs(a, plan)).collect(),
        ),
        _ => e.clone(),
    }
}

/// Build the produce loops for a `compute_at` producer at its attach point.
fn build_producer_nest(
    pipeline: &Pipeline,
    plan: &ComputeAtPlan,
    roots: &BTreeSet<String>,
    schedule: &Schedule,
    next_store_id: &mut usize,
) -> Result<Stmt, RealizeError> {
    let func = &pipeline.funcs[&plan.func];
    let def = func
        .pure_def
        .as_ref()
        .expect("compute_at producers are pure");
    let body_expr = inline_except(pipeline, def, roots)?;
    // Substitute the producer's vars with local coordinates offset by the
    // region minimum.
    let local_name = |d: usize| format!("{}.s{}", plan.func, d);
    let substituted = body_expr.substitute(&|var| {
        func.vars
            .iter()
            .position(|v| v == var)
            .map(|d| Expr::add(Expr::var(&local_name(d)), plan.dims[d].min_expr()))
    });
    let store = Stmt::Store {
        id: {
            let id = *next_store_id;
            *next_store_id += 1;
            id
        },
        buffer: plan.func.clone(),
        indices: (0..func.dims())
            .map(|d| Expr::var(&local_name(d)))
            .collect(),
        value: simplify(&substituted),
    };
    let mut body = store;
    let slide_dim = plan.sliding.then(|| func.dims() - 1);
    for d in 0..func.dims() {
        let kind = if d == 0 && schedule.vectorize && slide_dim != Some(d) {
            LoopKind::Vectorized
        } else {
            LoopKind::Serial
        };
        // The sliding dimension's loop starts at the warm-row count bound by
        // the enclosing `SlideWindow` node: rows below it shifted in place
        // and are not recomputed.
        let (min, extent) = if slide_dim == Some(d) {
            let warm = Expr::var(&warm_var_name(&plan.func));
            (
                warm.clone(),
                simplify(&Expr::bin(
                    BinOp::Sub,
                    Expr::int(plan.dims[d].extent as i64),
                    warm,
                )),
            )
        } else {
            (Expr::int(0), Expr::int(plan.dims[d].extent as i64))
        };
        body = Stmt::For {
            var: local_name(d),
            min,
            extent,
            kind,
            body: Box::new(body),
        };
    }
    Ok(Stmt::Produce {
        func: plan.func.clone(),
        body: Box::new(body),
    })
}

/// Name of the pseudo-variable a [`Stmt::SlideWindow`] binds to the first
/// row the producer nest must recompute.
fn warm_var_name(func: &str) -> String {
    format!("{func}.warm")
}

/// Lower the pure definition of the output func of `pipeline` to loop-nest
/// IR.
///
/// `roots` names the funcs materialized as separate buffers before this
/// statement runs (read as sources); `outcome` carries the planned
/// `compute_at` placements from [`plan_compute_at`].
///
/// # Errors
/// Returns an error if a referenced func is undefined.
pub fn lower_pure(
    pipeline: &Pipeline,
    schedule: &Schedule,
    output_extents: &[usize],
    roots: &BTreeSet<String>,
    outcome: &ComputeAtOutcome,
) -> Result<Stmt, RealizeError> {
    let output = pipeline.output_func();
    let def = match &output.pure_def {
        Some(e) => e,
        None => return Ok(Stmt::Block(Vec::new())),
    };
    let mut keep: BTreeSet<String> = roots.clone();
    keep.extend(outcome.plans.iter().map(|p| p.func.clone()));
    let consumer = inline_except(pipeline, def, &keep)?;

    let levels = build_levels(output, output_extents, schedule);
    let subst = var_substitution(output, &levels);

    // Rewrite the consumer in terms of loop variables, then rebase accesses
    // to each compute_at producer into its local region buffer.
    let mut value = consumer.substitute(&|var| subst.get(var).cloned());
    for plan in &outcome.plans {
        value = rebase_producer_refs(&value, plan);
    }
    let value = simplify(&value);
    let indices: Vec<Expr> = output
        .vars
        .iter()
        .map(|v| {
            let e = subst.get(v).cloned().unwrap_or_else(|| Expr::var(v));
            simplify(&e)
        })
        .collect();

    let mut next_store_id = 0usize;
    let store = Stmt::Store {
        id: {
            let id = next_store_id;
            next_store_id += 1;
            id
        },
        buffer: output.name.clone(),
        indices,
        value,
    };

    // Assemble the nest from innermost to outermost, attaching compute_at
    // producers just inside their attach loop.
    let mut body = store;
    for level in levels.iter().rev() {
        // Allocations directly inside this loop's body, wrapping the loops
        // below (which include the consumer store).
        for plan in outcome.plans.iter().rev() {
            if plan.attach_loop == level.name {
                let produce =
                    build_producer_nest(pipeline, plan, roots, schedule, &mut next_store_id)?;
                let func = &pipeline.funcs[&plan.func];
                let produce = if plan.sliding {
                    let last = plan.dims.len() - 1;
                    Stmt::SlideWindow {
                        name: plan.func.clone(),
                        dim: last,
                        extent: plan.dims[last].extent,
                        min: plan.dims[last].min_expr(),
                        warm_var: warm_var_name(&plan.func),
                        body: Box::new(produce),
                    }
                } else {
                    produce
                };
                body = Stmt::Allocate {
                    name: plan.func.clone(),
                    ty: func.ty,
                    extents: plan.dims.iter().map(|d| d.extent).collect(),
                    body: Box::new(Stmt::block(vec![produce, body])),
                };
            }
        }
        body = Stmt::For {
            var: level.name.clone(),
            min: Expr::int(0),
            extent: level.extent.clone(),
            kind: level.kind,
            body: Box::new(body),
        };
    }
    Ok(Stmt::Produce {
        func: output.name.clone(),
        body: Box::new(body),
    })
}

// ---------------------------------------------------------------------------
// Update (reduction) lowering
// ---------------------------------------------------------------------------

/// Resolve a reduction domain's dimensions to concrete `(var, min, extent)`
/// triples against the bound scalar parameters (image-extent params like
/// `input_1.extent.0` included).
///
/// This is the *only* bounds resolution both the reduction interpreter
/// ([`run_update`]'s oracle path in `crate::compile`) and the lowered update
/// nests use, so the two cannot disagree about the iteration space.
///
/// [`run_update`]: crate::compile
pub fn resolve_rdom_dims(
    rdom: &crate::func::RDom,
    params: &BTreeMap<String, Value>,
) -> Vec<(String, i64, i64)> {
    let empty = BTreeMap::new();
    rdom.dims
        .iter()
        .map(|(var, min_e, extent_e)| {
            let min = expr_interval(min_e, &empty, params).min;
            let extent = expr_interval(extent_e, &empty, params).min;
            (var.clone(), min, extent)
        })
        .collect()
}

/// The accumulation strategy chosen for one lowered update definition.
///
/// Both strategies iterate the reduction domain in the interpreter's order
/// (first rdom dimension innermost among the rdom loops) and are bit-identical
/// to [`run_update`]; they differ in where the free pure dimensions sit and
/// whether the innermost one may run in lanes.
///
/// [`run_update`]: crate::compile
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// *Privatized*: every free pure variable `v` is its own LHS dimension
    /// (`lhs[dim(v)] == v`) and every self-reference reads exactly the LHS
    /// point, so distinct pure iterations touch provably disjoint elements.
    /// The pure loops move *inside* the rdom loops and the innermost one
    /// (`lane_var`) is marked vectorized: lanes of the guarded store write
    /// disjoint cells and read only their own, so batching them is exact.
    Privatized {
        /// The pure loop variable executed in lanes.
        lane_var: String,
    },
    /// *Sequential*: the update's writes may collide or chain (data-dependent
    /// histogram LHS, scans reading `f(r-1)`), so the nest replicates the
    /// interpreter's order exactly — free pure dims outermost, rdom dims
    /// inner, every loop serial, one element at a time.
    Sequential,
}

/// Free pure variables of an update over an ordered var list: the vars
/// referenced (as [`Expr::Var`]) by the LHS or value, paired with their
/// dimension index, in dimension order.
///
/// This definition is load-bearing for the ordering contract between the
/// lowered nests and the reduction interpreter: both `lower_update` and
/// `run_update` (in `crate::compile`) derive their pure loops from this one
/// function, so they cannot disagree about which dims iterate.
pub(crate) fn free_pure_vars_in(vars: &[String], update: &UpdateDef) -> Vec<(usize, String)> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for e in update.lhs.iter().chain(std::iter::once(&update.value)) {
        e.visit(&mut |node| {
            if let Expr::Var(n) = node {
                seen.insert(n.clone());
            }
        });
    }
    vars.iter()
        .enumerate()
        .filter(|(_, v)| seen.contains(*v))
        .map(|(d, v)| (d, v.clone()))
        .collect()
}

/// [`free_pure_vars_in`] over a func's own vars.
fn free_pure_vars(func: &Func, update: &UpdateDef) -> Vec<(usize, String)> {
    free_pure_vars_in(&func.vars, update)
}

/// Choose the accumulation strategy for `update` (see [`UpdateStrategy`]).
pub fn update_strategy(func: &Func, update: &UpdateDef) -> UpdateStrategy {
    strategy_for(func, update, &free_pure_vars(func, update))
}

/// [`update_strategy`] against a precomputed free-pure-var list, so callers
/// that already hold one ([`lower_update`]) do not walk the expressions
/// twice — and there is exactly one free-var definition both decisions use.
fn strategy_for(func: &Func, update: &UpdateDef, free: &[(usize, String)]) -> UpdateStrategy {
    if free.is_empty() || update.lhs.len() != func.vars.len() {
        return UpdateStrategy::Sequential;
    }
    // Every free pure var must be its own LHS dimension, verbatim.
    for (d, v) in free {
        if update.lhs[*d] != Expr::var(v) {
            return UpdateStrategy::Sequential;
        }
    }
    // Every self-reference — in the value *or* inside an LHS index
    // expression — must read exactly the point being written. An LHS index
    // reading the func can never satisfy that (it is a sub-expression of the
    // point, not the point), so it forces the sequential order.
    let mut self_reads_ok = true;
    for e in update.lhs.iter().chain(std::iter::once(&update.value)) {
        e.visit(&mut |node| {
            if let Expr::FuncRef(name, args) = node {
                if *name == func.name && args.as_slice() != update.lhs.as_slice() {
                    self_reads_ok = false;
                }
            }
        });
    }
    if !self_reads_ok {
        return UpdateStrategy::Sequential;
    }
    let lane_var = free[0].1.clone();
    UpdateStrategy::Privatized { lane_var }
}

/// Lower one update definition of `func` into a loop nest over its reduction
/// domain (and free pure dimensions), producing a [`Stmt::ReduceStore`] per
/// element. Returns `None` when the update's shape is not lowerable (an LHS
/// arity mismatch, or variables that are neither rdom vars nor pure vars of
/// the func) — the caller keeps the reduction interpreter for it.
///
/// Ordering contract (the bit-exactness obligation against [`run_update`]):
///
/// * **Sequential** nests replicate the oracle exactly: free pure dims
///   outermost (highest dimension outermost), rdom dims inner (first rdom
///   dimension innermost), all serial.
/// * **Privatized** nests hoist the rdom loops outside the pure loops and
///   vectorize the innermost pure loop. This is exact because privatization
///   proved each pure iteration owns its output element: per element, the
///   rdom updates still apply in the oracle's rdom order.
///
/// [`run_update`]: crate::compile
pub fn lower_update(
    func: &Func,
    update: &UpdateDef,
    output_extents: &[usize],
    schedule: &Schedule,
    params: &BTreeMap<String, Value>,
    next_store_id: &mut usize,
) -> Option<Stmt> {
    if update.lhs.len() != func.dims() || output_extents.len() != func.dims() {
        return None;
    }
    // Every variable must resolve to an rdom dim or a pure var of the func.
    let rdom_dims = resolve_rdom_dims(&update.rdom, params);
    let rdom_names: BTreeSet<&str> = rdom_dims.iter().map(|(v, _, _)| v.as_str()).collect();
    let mut unknown = false;
    for e in update.lhs.iter().chain(std::iter::once(&update.value)) {
        e.visit(&mut |node| match node {
            Expr::Var(n) if !func.vars.contains(n) => unknown = true,
            Expr::RVar(n) if !rdom_names.contains(n.as_str()) => unknown = true,
            _ => {}
        });
    }
    if unknown {
        return None;
    }
    let free = free_pure_vars(func, update);
    let strategy = strategy_for(func, update, &free);

    let store = Stmt::ReduceStore {
        id: {
            let id = *next_store_id;
            *next_store_id += 1;
            id
        },
        buffer: func.name.clone(),
        indices: update.lhs.clone(),
        value: update.value.clone(),
    };

    // Wrap loops innermost-first. Pure loops iterate the full output extent
    // of their dimension; rdom loops iterate the resolved domain.
    let pure_loop = |d: usize, var: &str, kind: LoopKind, body: Stmt| Stmt::For {
        var: var.to_string(),
        min: Expr::int(0),
        extent: Expr::int(output_extents[d] as i64),
        kind,
        body: Box::new(body),
    };
    let rdom_loop = |(var, min, extent): &(String, i64, i64), body: Stmt| Stmt::For {
        var: var.clone(),
        min: Expr::int(*min),
        extent: Expr::int(*extent),
        kind: LoopKind::Serial,
        body: Box::new(body),
    };

    let mut body = store;
    match &strategy {
        UpdateStrategy::Privatized { lane_var } => {
            // Pure dims inside (dim 0 innermost, the lane loop vectorized),
            // rdom dims outside (dim 0 innermost among them).
            for (d, var) in &free {
                let kind = if var == lane_var && schedule.vectorize {
                    LoopKind::Vectorized
                } else {
                    LoopKind::Serial
                };
                body = pure_loop(*d, var, kind, body);
            }
            for dim in &rdom_dims {
                body = rdom_loop(dim, body);
            }
        }
        UpdateStrategy::Sequential => {
            // The interpreter's order verbatim: rdom inner, pure dims outer.
            for dim in &rdom_dims {
                body = rdom_loop(dim, body);
            }
            for (d, var) in &free {
                body = pure_loop(*d, var, LoopKind::Serial, body);
            }
        }
    }
    // Parallel reduction accumulation: when the schedule asks for parallelism
    // and the nest's *outermost* loop is a reduction-domain loop (always true
    // for Privatized nests, and for Sequential nests with no free pure vars —
    // the histogram shape), tag it ParallelReduce. The executor splits that
    // domain across workers with private accumulator buffers merged by
    // wrapping adds, and degrades to serial whenever the stores are not
    // merge-admissible — so the tag never changes values. Sequential nests
    // with pure loops outermost are left untouched: splitting a pure loop
    // would privatize per output row, not per reduction chunk.
    if schedule.parallel {
        if let Stmt::For { var, kind, .. } = &mut body {
            if rdom_names.contains(var.as_str()) {
                *kind = LoopKind::ParallelReduce {
                    threads: schedule.threads,
                };
            }
        }
    }
    Some(Stmt::Produce {
        func: func.name.clone(),
        body: Box::new(body),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::func::ImageParam;
    use crate::realize::{ExecBackend, RealizeInputs, Realizer};
    use crate::types::ScalarType;

    /// out(x, y) = (bright(x, y) + bright(x+2, y+1)) with bright = in + 17.
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
        let mut s = 3u64;
        for c in b.coords().collect::<Vec<_>>() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.set(&c, crate::types::Value::Int(((s >> 33) % 256) as i64));
        }
        b
    }

    #[test]
    fn lowered_nest_shape_untiled() {
        let p = two_stage();
        let schedule = Schedule::naive().with_parallel(true).with_vectorize(true);
        let stmt = lower_pure(
            &p,
            &schedule,
            &[8, 6],
            &BTreeSet::new(),
            &ComputeAtOutcome::default(),
        )
        .unwrap();
        assert_eq!(stmt.loop_count(), 2);
        assert_eq!(stmt.store_count(), 1);
        let text = stmt.to_string();
        assert!(text.contains("produce out:"), "{text}");
        assert!(text.contains("for[parallel] x_1"), "{text}");
        assert!(text.contains("for[vectorized] x_0"), "{text}");
        // bright is fully inlined: the store reads the input directly.
        assert!(text.contains("input_1("), "{text}");
        assert!(!text.contains("bright"), "{text}");
    }

    #[test]
    fn lowered_nest_shape_tiled() {
        let p = two_stage();
        let schedule = Schedule::naive().with_tile(Some((4, 4)));
        let stmt = lower_pure(
            &p,
            &schedule,
            &[10, 6],
            &BTreeSet::new(),
            &ComputeAtOutcome::default(),
        )
        .unwrap();
        assert_eq!(
            stmt.loop_count(),
            4,
            "tiling splits both dimensions:\n{stmt}"
        );
        let text = stmt.to_string();
        assert!(text.contains("x_0.outer"), "{text}");
        assert!(text.contains("x_1.inner"), "{text}");
        // Tail handling: the inner extents are min(tile, remaining).
        assert!(text.contains("min("), "{text}");
    }

    #[test]
    fn compute_at_plans_row_region() {
        let p = two_stage();
        let schedule = Schedule::naive().with_compute_at("bright", "x_1");
        let params = BTreeMap::new();
        let outcome = plan_compute_at(&p, &schedule, &[8, 6], &params, &BTreeSet::new()).unwrap();
        assert!(outcome.demoted.is_empty(), "{outcome:?}");
        assert_eq!(outcome.plans.len(), 1);
        let plan = &outcome.plans[0];
        assert_eq!(plan.func, "bright");
        assert_eq!(plan.attach_loop, "x_1");
        // Per row: x spans [x, x+2] over the full width => extent 8+2+1=11...
        // accesses are bright(x, y) and bright(x+2, y+1): dim0 covers [0, 9].
        assert_eq!(plan.dims[0].extent, 10);
        assert_eq!(plan.dims[0].base_min, 0);
        assert!(plan.dims[0].coeffs.is_empty());
        // dim1 covers [y, y+1]: extent 2, min = 0 + 1*x_1.
        assert_eq!(plan.dims[1].extent, 2);
        assert_eq!(plan.dims[1].coeffs, vec![("x_1".to_string(), 1)]);
        assert!(
            plan.sliding,
            "a region translated by the attach loop slides"
        );

        let stmt = lower_pure(&p, &schedule, &[8, 6], &BTreeSet::new(), &outcome).unwrap();
        assert_eq!(stmt.allocated_buffers(), vec!["bright".to_string()]);
        assert_eq!(stmt.store_count(), 2, "{stmt}");
        let text = stmt.to_string();
        assert!(
            text.contains("allocate bright[uint16_t] extents=[10, 2]"),
            "{text}"
        );
        assert!(text.contains("produce bright:"), "{text}");
    }

    #[test]
    fn compute_at_matches_other_placements() {
        let p = two_stage();
        let input = image(12, 9);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let baseline = Realizer::new(Schedule::naive())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[10, 8], &inputs)
            .unwrap();
        for schedule in [
            Schedule::naive().with_compute_at("bright", "x_1"),
            Schedule::naive().with_compute_at("bright", "x_0"),
            Schedule::naive()
                .with_compute_at("bright", "x_1")
                .with_tile(Some((4, 4))),
            Schedule::stencil_default().with_compute_at("bright", "x_1"),
            Schedule::naive().with_compute_root("bright"),
        ] {
            for backend in [ExecBackend::Interpret, ExecBackend::Lowered] {
                let out = Realizer::new(schedule.clone())
                    .with_backend(backend)
                    .realize(&p, &[10, 8], &inputs)
                    .unwrap();
                assert_eq!(out, baseline, "{backend:?} under [{schedule}] diverged");
            }
        }
    }

    #[test]
    fn update_strategy_classifies_privatized_and_sequential() {
        use crate::func::{RDom, UpdateDef};
        let mk = |lhs: Vec<Expr>, value: Expr| UpdateDef {
            lhs,
            value,
            rdom: RDom::with_constant_bounds("r_0", &[(0, 4)]),
        };
        let f = Func::pure("f", &["x_0"], ScalarType::UInt32, Expr::int(0));
        // f(x) = f(x) + r: every free pure var owns its LHS dim, self-read at
        // the LHS point — privatized.
        let jacobi = mk(
            vec![Expr::var("x_0")],
            Expr::add(
                Expr::FuncRef("f".into(), vec![Expr::var("x_0")]),
                Expr::RVar("r_0.x".into()),
            ),
        );
        assert_eq!(
            update_strategy(&f, &jacobi),
            UpdateStrategy::Privatized {
                lane_var: "x_0".into()
            }
        );
        // A scan reads f(r-1) ≠ LHS: sequential.
        let scan = mk(
            vec![Expr::RVar("r_0.x".into())],
            Expr::add(
                Expr::FuncRef(
                    "f".into(),
                    vec![Expr::add(Expr::RVar("r_0.x".into()), Expr::int(-1))],
                ),
                Expr::int(1),
            ),
        );
        assert_eq!(update_strategy(&f, &scan), UpdateStrategy::Sequential);
        // Data-dependent LHS (histogram): no free pure vars — sequential.
        let hist = mk(
            vec![Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into())])],
            Expr::add(
                Expr::FuncRef(
                    "f".into(),
                    vec![Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into())])],
                ),
                Expr::int(1),
            ),
        );
        assert_eq!(update_strategy(&f, &hist), UpdateStrategy::Sequential);
        // Free pure var that is NOT its own LHS dim (f(x*0) = ... x ...):
        // writes collide across pure iterations — sequential.
        let collide = mk(
            vec![Expr::mul(Expr::var("x_0"), Expr::int(0))],
            Expr::var("x_0"),
        );
        assert_eq!(update_strategy(&f, &collide), UpdateStrategy::Sequential);
    }

    /// A self-read hiding inside an *LHS index expression* (the func's own
    /// value used as a destination index) must force the sequential order:
    /// under the privatized (rdom-hoisted, vectorized) nest, a lane could
    /// read a cell another pure iteration already mutated, diverging from
    /// the interpreter's pure-outer order.
    #[test]
    fn lhs_self_read_forces_sequential_and_matches_oracle() {
        use crate::func::{RDom, UpdateDef};
        let x = Expr::var("x_0");
        let update = UpdateDef {
            lhs: vec![
                x.clone(),
                Expr::FuncRef(
                    "f".into(),
                    vec![Expr::add(x.clone(), Expr::int(1)), Expr::int(0)],
                ),
            ],
            value: Expr::cast(ScalarType::UInt32, Expr::add(Expr::RVar("r_0.x".into()), x)),
            rdom: RDom::with_constant_bounds("r_0", &[(0, 3)]),
        };
        let f = Func::pure(
            "f",
            &["x_0", "x_1"],
            ScalarType::UInt32,
            Expr::cast(ScalarType::UInt32, Expr::int(0)),
        )
        .with_update(update.clone());
        assert_eq!(
            update_strategy(&f, &update),
            UpdateStrategy::Sequential,
            "an LHS self-read must not privatize"
        );
        let p = Pipeline::new(f, Vec::new());
        let inputs = RealizeInputs::new();
        let oracle = Realizer::new(Schedule::stencil_default())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[6, 6], &inputs)
            .unwrap();
        let compiled = Realizer::new(Schedule::stencil_default())
            .realize(&p, &[6, 6], &inputs)
            .unwrap();
        assert_eq!(compiled, oracle);
    }

    #[test]
    fn lower_update_emits_guarded_nests_in_strategy_order() {
        use crate::func::{RDom, UpdateDef};
        let img = ImageParam::new("in", ScalarType::UInt8, 2);
        let f = Func::pure("f", &["x_0"], ScalarType::UInt32, Expr::int(0));
        let params: BTreeMap<String, Value> = [
            ("in.extent.0".to_string(), Value::Int(12)),
            ("in.extent.1".to_string(), Value::Int(5)),
        ]
        .into_iter()
        .collect();
        // Privatized: f(x) += in(x, r.y) over the image rows — rdom loops
        // outside, vectorized pure lane loop inside.
        let jacobi = UpdateDef {
            lhs: vec![Expr::var("x_0")],
            value: Expr::cast(
                ScalarType::UInt32,
                Expr::add(
                    Expr::FuncRef("f".into(), vec![Expr::var("x_0")]),
                    Expr::Image(
                        "in".into(),
                        vec![Expr::var("x_0"), Expr::RVar("r_0.y".into())],
                    ),
                ),
            ),
            rdom: RDom::over_image("r_0", &img),
        };
        let mut next_id = 1usize;
        let stmt = lower_update(
            &f,
            &jacobi,
            &[32],
            &Schedule::naive().with_vectorize(true),
            &params,
            &mut next_id,
        )
        .expect("lowerable");
        assert_eq!(next_id, 2);
        assert_eq!(stmt.reduce_store_count(), 1);
        let text = stmt.to_string();
        // rdom extents resolved from the image-extent params; the pure lane
        // loop is innermost and vectorized.
        assert!(text.contains("for r_0.y in [0, 0 + 5):"), "{text}");
        assert!(text.contains("for r_0.x in [0, 0 + 12):"), "{text}");
        assert!(
            text.contains("for[vectorized] x_0 in [0, 0 + 32):"),
            "{text}"
        );
        assert!(text.contains("reduce f[x_0]"), "{text}");
        let rdom_pos = text.find("for r_0.y").expect("rdom loop");
        let lane_pos = text.find("for[vectorized] x_0").expect("lane loop");
        assert!(
            rdom_pos < lane_pos,
            "privatized nests hoist rdom loops:\n{text}"
        );

        // Sequential (scan): pure dims outer, rdom inner, all serial.
        let scan = UpdateDef {
            lhs: vec![Expr::RVar("r_0.x".into())],
            value: Expr::add(
                Expr::FuncRef(
                    "f".into(),
                    vec![Expr::add(Expr::RVar("r_0.x".into()), Expr::int(-1))],
                ),
                Expr::int(1),
            ),
            rdom: RDom::with_constant_bounds("r_0", &[(0, 7)]),
        };
        let mut next_id = 0usize;
        let stmt = lower_update(
            &f,
            &scan,
            &[32],
            &Schedule::naive().with_vectorize(true),
            &params,
            &mut next_id,
        )
        .expect("lowerable");
        let text = stmt.to_string();
        assert!(text.contains("for r_0.x in [0, 0 + 7):"), "{text}");
        assert!(!text.contains("vectorized"), "scans stay serial:\n{text}");

        // Unknown variables refuse lowering (the interpreter keeps them).
        let bogus = UpdateDef {
            lhs: vec![Expr::var("nope")],
            value: Expr::int(0),
            rdom: RDom::with_constant_bounds("r_0", &[(0, 2)]),
        };
        assert!(lower_update(&f, &bogus, &[32], &Schedule::naive(), &params, &mut 0).is_none());
    }

    #[test]
    fn resolve_rdom_dims_matches_interpreter_bounds() {
        use crate::func::RDom;
        let img = ImageParam::new("in", ScalarType::UInt8, 2);
        let r = RDom::over_image("r_0", &img);
        let params: BTreeMap<String, Value> = [
            ("in.extent.0".to_string(), Value::Int(9)),
            ("in.extent.1".to_string(), Value::Int(4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            resolve_rdom_dims(&r, &params),
            vec![("r_0.x".to_string(), 0, 9), ("r_0.y".to_string(), 0, 4)]
        );
        let c = RDom::with_constant_bounds("r_1", &[(-2, 6)]);
        assert_eq!(
            resolve_rdom_dims(&c, &BTreeMap::new()),
            vec![("r_1.x".to_string(), -2, 6)]
        );
    }

    #[test]
    fn invalid_compute_at_degrades_to_root() {
        let p = two_stage();
        // Unknown attach var: degrades to compute_root rather than erroring.
        let schedule = Schedule::naive().with_compute_at("bright", "nope");
        let outcome =
            plan_compute_at(&p, &schedule, &[8, 6], &BTreeMap::new(), &BTreeSet::new()).unwrap();
        assert!(outcome.plans.is_empty());
        assert!(outcome.demoted.contains("bright"));

        let input = image(10, 8);
        let inputs = RealizeInputs::new().with_image("input_1", &input);
        let a = Realizer::new(schedule.clone())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[8, 6], &inputs)
            .unwrap();
        let b = Realizer::new(schedule)
            .realize(&p, &[8, 6], &inputs)
            .unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;
    use crate::buffer::Buffer;
    use crate::func::ImageParam;
    use crate::realize::{ExecBackend, RealizeInputs, Realizer};
    use crate::types::{ScalarType, Value};

    fn image(w: usize, h: usize) -> Buffer {
        let mut b = Buffer::new(ScalarType::UInt8, &[w, h]);
        let mut s = 41u64;
        for c in b.coords().collect::<Vec<_>>() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.set(&c, Value::Int(((s >> 33) % 256) as i64));
        }
        b
    }

    fn assert_all_match_naive(p: &Pipeline, schedule: Schedule, extents: &[usize], img: &Buffer) {
        let inputs = RealizeInputs::new().with_image("in", img);
        let naive = Realizer::new(Schedule::naive())
            .with_backend(ExecBackend::Interpret)
            .realize(p, extents, &inputs)
            .unwrap();
        for backend in [ExecBackend::Interpret, ExecBackend::Lowered] {
            let out = Realizer::new(schedule.clone())
                .with_backend(backend)
                .realize(p, extents, &inputs)
                .unwrap();
            assert_eq!(out, naive, "{backend:?} diverged under [{schedule}]");
        }
    }

    /// Non-affine consumer index (`bfun(x*y, y)`): the region is not a pure
    /// translation in the loop variables, so the placement must degrade to
    /// compute_root instead of silently mis-placing the region.
    #[test]
    fn non_affine_cross_variable_index_degrades() {
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let bfun = Func::pure(
            "bfun",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::add(
                Expr::cast(
                    ScalarType::UInt16,
                    Expr::Image("in".into(), vec![x.clone(), y.clone()]),
                ),
                Expr::int(1),
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::FuncRef("bfun".into(), vec![Expr::mul(x, y.clone()), y]),
            ),
        );
        let p =
            Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(bfun);
        for var in ["x_0", "x_1"] {
            let schedule = Schedule::naive().with_compute_at("bfun", var);
            let outcome =
                plan_compute_at(&p, &schedule, &[8, 8], &BTreeMap::new(), &BTreeSet::new())
                    .unwrap();
            assert!(
                outcome.plans.is_empty() && outcome.demoted.contains("bfun"),
                "x*y index must demote (attach {var}): {outcome:?}"
            );
            assert_all_match_naive(&p, schedule, &[8, 8], &image(64, 8));
        }
    }

    /// Accesses with different per-iteration translations (`P(x)` and
    /// `P(2x)`) are not a fixed-extent sliding region either.
    #[test]
    fn mismatched_access_strides_degrade() {
        let x = Expr::var("x_0");
        let bfun = Func::pure(
            "bfun",
            &["x_0"],
            ScalarType::UInt16,
            Expr::cast(
                ScalarType::UInt16,
                Expr::Image("in".into(), vec![x.clone(), Expr::int(0)]),
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::add(
                    Expr::FuncRef("bfun".into(), vec![x.clone()]),
                    Expr::FuncRef("bfun".into(), vec![Expr::mul(Expr::int(2), x)]),
                ),
            ),
        );
        let p =
            Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(bfun);
        let schedule = Schedule::naive().with_compute_at("bfun", "x_0");
        let outcome =
            plan_compute_at(&p, &schedule, &[10], &BTreeMap::new(), &BTreeSet::new()).unwrap();
        assert!(outcome.demoted.contains("bfun"), "{outcome:?}");
        assert_all_match_naive(&p, schedule, &[10], &image(32, 4));
    }

    /// A producer referenced by the output's *update* definition must stay
    /// materialized (updates are interpreted against buffers), even when the
    /// schedule asks for compute_at — both backends must realize it and agree.
    #[test]
    fn compute_at_producer_read_by_update_is_demoted() {
        use crate::func::{RDom, UpdateDef};
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let bright = Func::pure(
            "bright",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::add(
                Expr::cast(
                    ScalarType::UInt16,
                    Expr::Image("in".into(), vec![x.clone(), y.clone()]),
                ),
                Expr::int(2),
            ),
        );
        let rdom = RDom::with_constant_bounds("r_0", &[(0, 4), (0, 3)]);
        let update = UpdateDef {
            lhs: vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
            value: Expr::cast(
                ScalarType::UInt8,
                Expr::FuncRef(
                    "bright".into(),
                    vec![Expr::RVar("r_0.x".into()), Expr::RVar("r_0.y".into())],
                ),
            ),
            rdom,
        };
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::FuncRef("bright".into(), vec![x, y]),
            ),
        )
        .with_update(update);
        let p =
            Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(bright);
        let schedule = Schedule::naive().with_compute_at("bright", "x_1");
        let outcome =
            plan_compute_at(&p, &schedule, &[8, 6], &BTreeMap::new(), &BTreeSet::new()).unwrap();
        assert!(
            outcome.plans.is_empty() && outcome.demoted.contains("bright"),
            "update-referenced producer must demote: {outcome:?}"
        );
        let img = image(10, 8);
        let inputs = RealizeInputs::new().with_image("in", &img);
        let a = Realizer::new(schedule.clone())
            .with_backend(ExecBackend::Interpret)
            .realize(&p, &[8, 6], &inputs)
            .unwrap();
        let b = Realizer::new(schedule)
            .realize(&p, &[8, 6], &inputs)
            .unwrap();
        assert_eq!(a, b);
    }

    /// A compute_root producer read only *through* a compute_at producer must
    /// be sized by the compute_at func's accesses (transitive bounds), and
    /// must be materialized before the func that reads it even though
    /// "bfun" < "cfun" alphabetically.
    #[test]
    fn transitive_sizing_and_dependency_order() {
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let cfun = Func::pure(
            "cfun",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::cast(
                ScalarType::UInt16,
                Expr::Image("in".into(), vec![x.clone(), y.clone()]),
            ),
        );
        let bfun = Func::pure(
            "bfun",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::FuncRef(
                "cfun".into(),
                vec![Expr::add(x.clone(), Expr::int(5)), y.clone()],
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(ScalarType::UInt8, Expr::FuncRef("bfun".into(), vec![x, y])),
        );
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)])
            .with_func(bfun)
            .with_func(cfun);
        let img = image(32, 8);
        for schedule in [
            Schedule::naive()
                .with_compute_root("cfun")
                .with_compute_at("bfun", "x_1"),
            Schedule::naive()
                .with_compute_root("cfun")
                .with_compute_root("bfun"),
            Schedule::naive()
                .with_compute_at("cfun", "x_1")
                .with_compute_at("bfun", "x_1"),
        ] {
            assert_all_match_naive(&p, schedule, &[16, 8], &img);
        }
    }
}
