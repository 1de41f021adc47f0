//! The loop-nest statement IR that pipelines are lowered into.
//!
//! The realizer's interpreter walks the output domain element by element; this
//! IR instead *materializes* schedule decisions as restructured loops, the way
//! the Halide compiler's lowering pass does. A lowered pipeline is a tree of:
//!
//! * [`Stmt::Allocate`] — a scoped intermediate buffer (sized by bounds
//!   inference) for a producer scheduled `compute_at`;
//! * [`Stmt::Produce`] — a marker delimiting the computation of one func;
//! * [`Stmt::For`] — a loop over one dimension, tagged [`LoopKind::Serial`],
//!   [`LoopKind::Parallel`] (iterations distributed across worker threads),
//!   [`LoopKind::ParallelReduce`] (a reduction domain whose accumulator
//!   stores run privatize-then-merge across workers) or
//!   [`LoopKind::Vectorized`] (iterations evaluated in lane batches by the
//!   compiled executor);
//! * [`Stmt::Store`] — one element store, with index and value expressions
//!   over the enclosing loop variables.
//!
//! Loop bounds are [`Expr`]s so tile tails (`min(tile, W - xo*tile)`) and
//! `compute_at` region offsets stay symbolic until execution; the lowering
//! pass constant-folds them where possible via [`crate::simplify()`].
//!
//! The IR pretty-prints in a Halide-like syntax (see the [`fmt::Display`]
//! impl), which the tests assert against:
//!
//! ```text
//! produce output_1:
//!   for[parallel] x_1 in [0, 32):
//!     for[vectorized] x_0 in [0, 48):
//!       output_1[x_0, x_1] = cast<uint8_t>(...)
//! ```

use crate::bounds::affine_decompose;
use crate::expr::Expr;
use crate::types::{ScalarType, Value};
use std::collections::BTreeMap;
use std::fmt;

/// How the iterations of a [`Stmt::For`] loop are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// One iteration after another on the calling thread.
    Serial,
    /// Iterations split into contiguous chunks across worker threads
    /// (0 = use all available cores).
    Parallel {
        /// Worker thread cap (0 = all available cores).
        threads: usize,
    },
    /// A reduction-domain loop whose accumulator stores run privatize-then-
    /// merge: workers accumulate disjoint chunks of the domain into private
    /// per-thread buffers which are merged (wrapping adds) into the output
    /// afterwards. The executor verifies the nest is merge-admissible at run
    /// time and degrades to [`LoopKind::Serial`] otherwise, so tagging is
    /// always value-preserving.
    ParallelReduce {
        /// Worker thread cap (0 = all available cores).
        threads: usize,
    },
    /// Iterations evaluated in lanes by the compiled executor: fused chunks
    /// sized by the row, or per-op batches of [`crate::exec::MAX_LANES`].
    Vectorized,
}

/// The affine decomposition of one index expression over the enclosing loop
/// variables: `konst + Σ coeff·var`.
///
/// This is the bounds/contiguity metadata the compiled executor derives for
/// every load and store under a vectorized loop: a dimension whose index has
/// coefficient 1 on the lane variable (and 0 everywhere else in the access)
/// is *contiguous* — consecutive lanes touch consecutive elements, so the
/// interior of the loop can use straight slice loads/stores — while an index
/// with coefficient 0 on the lane variable is *lane-invariant* (a broadcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineIndex {
    /// Constant part of the index.
    pub konst: i64,
    /// Per-variable multipliers (zero coefficients omitted).
    pub coeffs: Vec<(String, i64)>,
}

impl AffineIndex {
    /// Decompose `e` into an affine index over loop variables, resolving
    /// integer params from `params`. Returns `None` for non-affine indices
    /// (which keep the clamped per-lane execution path).
    pub fn decompose(e: &Expr, params: &BTreeMap<String, Value>) -> Option<AffineIndex> {
        let (coeffs, konst) = affine_decompose(e, params)?;
        Some(AffineIndex {
            konst,
            coeffs: coeffs.into_iter().filter(|(_, c)| *c != 0).collect(),
        })
    }

    /// The coefficient of `var` (zero when absent).
    pub fn coeff_of(&self, var: &str) -> i64 {
        self.coeffs
            .iter()
            .find(|(v, _)| v == var)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Whether the index does not change with `var`.
    pub fn is_invariant_in(&self, var: &str) -> bool {
        self.coeff_of(var) == 0
    }

    /// Whether consecutive values of `var` index consecutive elements.
    pub fn is_contiguous_in(&self, var: &str) -> bool {
        self.coeff_of(var) == 1
    }
}

/// One load (image or func source) appearing in a store's value expression,
/// with the affine decomposition of each index dimension (`None` where the
/// index is not affine in the loop variables).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadAccess {
    /// Source buffer name.
    pub source: String,
    /// Per-dimension affine indices, innermost dimension first.
    pub args: Vec<Option<AffineIndex>>,
}

impl LoadAccess {
    /// Whether the access is contiguous along `var`: dimension 0 steps by one
    /// element per iteration and every other dimension is invariant.
    pub fn is_contiguous_in(&self, var: &str) -> bool {
        self.args.iter().all(|a| a.is_some())
            && access_contiguous_in(
                &self.args.iter().flatten().cloned().collect::<Vec<_>>(),
                var,
            )
    }

    /// Whether the access is invariant in `var` (a per-iteration broadcast).
    pub fn is_invariant_in(&self, var: &str) -> bool {
        self.args.iter().all(|a| a.is_some())
            && access_invariant_in(
                &self.args.iter().flatten().cloned().collect::<Vec<_>>(),
                var,
            )
    }
}

/// Whether an access with the given per-dimension affine indices is
/// contiguous along `var`: dimension 0 steps by one element per iteration of
/// `var` and every other dimension is invariant. This is the classification
/// the compiled executor's fused-kernel tier applies to loads and stores.
pub fn access_contiguous_in(args: &[AffineIndex], var: &str) -> bool {
    let mut dims = args.iter().enumerate();
    dims.next().is_some_and(|(_, a)| a.is_contiguous_in(var))
        && dims.all(|(_, a)| a.is_invariant_in(var))
}

/// Whether an access is invariant in `var` (a per-iteration broadcast).
pub fn access_invariant_in(args: &[AffineIndex], var: &str) -> bool {
    args.iter().all(|a| a.is_invariant_in(var))
}

/// Whether `value` loads from the buffer named `buffer` (as an image or a
/// func source).
///
/// This is the *self-alias* check of the compiled executor's store lowering:
/// a store whose value reads the buffer it writes must refuse both the fused
/// lane kernels (chunked evaluation would read lanes written earlier in the
/// same row) and the overlapping-last-chunk tail variant (which re-stores
/// already-written lanes and would otherwise recompute them from updated
/// inputs). Such stores keep the per-op tier.
pub fn value_reads_buffer(value: &Expr, buffer: &str) -> bool {
    let mut found = false;
    value.visit(&mut |e| {
        if let Expr::Image(name, _) | Expr::FuncRef(name, _) = e {
            found |= name == buffer;
        }
    });
    found
}

/// Collect every image/func load in `value` with its affine access metadata.
pub fn collect_loads(value: &Expr, params: &BTreeMap<String, Value>) -> Vec<LoadAccess> {
    let mut out = Vec::new();
    value.visit(&mut |e| {
        if let Expr::Image(name, args) | Expr::FuncRef(name, args) = e {
            out.push(LoadAccess {
                source: name.clone(),
                args: args
                    .iter()
                    .map(|a| AffineIndex::decompose(a, params))
                    .collect(),
            });
        }
    });
    out
}

/// A statement in the lowered loop-nest IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A sequence of statements executed in order.
    Block(Vec<Stmt>),
    /// A scoped allocation of an intermediate buffer named `name`. The buffer
    /// is zero-initialized, lives for the duration of `body`, and is freed
    /// afterwards.
    Allocate {
        /// Buffer name (the producer func's name).
        name: String,
        /// Element type.
        ty: ScalarType,
        /// Concrete extents (bounds inference has already run).
        extents: Vec<usize>,
        /// Statement that may read and write the buffer.
        body: Box<Stmt>,
    },
    /// Marks the region of the tree that computes `func` (structural metadata
    /// used by the pretty printer and tests; no runtime behaviour).
    Produce {
        /// Name of the func being computed.
        func: String,
        /// The loops computing it.
        body: Box<Stmt>,
    },
    /// Sliding-window reuse for the enclosing [`Stmt::Allocate`] buffer
    /// `name`: the buffer's dimension `dim` (its outermost-stored dimension)
    /// covers region rows `[min, min + extent)` where `min` translates with
    /// the attach loop. At each execution the runner compares `min` against
    /// the previous iteration's value; when the window slid forward by
    /// `0 <= shift < extent` rows it moves the still-valid rows to the front
    /// of the buffer and binds `warm_var` to the count of reused rows
    /// (`extent - shift`), so the produce nest in `body` — whose slide-dim
    /// loop starts at `warm_var` — recomputes only the newly exposed rows.
    /// Any other movement (window reset, first iteration) binds `warm_var`
    /// to zero and the full region is recomputed, which is always sound.
    SlideWindow {
        /// The enclosing allocation this window manages.
        name: String,
        /// The sliding dimension (always the buffer's last dimension, so
        /// reused rows are contiguous in memory).
        dim: usize,
        /// Constant extent of the sliding dimension.
        extent: usize,
        /// Runtime region minimum of the sliding dimension, an expression
        /// over the enclosing loop variables.
        min: Expr,
        /// Pseudo-variable bound to the first row index to recompute.
        warm_var: String,
        /// The producer nest filling rows `[warm_var, extent)`.
        body: Box<Stmt>,
    },
    /// A loop `for var in [min, min+extent)`.
    For {
        /// Loop variable name, visible to `body`'s expressions.
        var: String,
        /// Inclusive lower bound.
        min: Expr,
        /// Iteration count.
        extent: Expr,
        /// Execution strategy.
        kind: LoopKind,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Store `value` into `buffer[indices]`.
    Store {
        /// Unique id assigned by the lowering pass; the executor uses it to
        /// look up the store's compiled program.
        id: usize,
        /// Destination buffer (the func being produced).
        buffer: String,
        /// Index expressions, innermost dimension first.
        indices: Vec<Expr>,
        /// Value expression.
        value: Expr,
    },
    /// A *guarded* store of a lowered update (reduction) definition:
    /// `buffer[indices] = value` where — unlike [`Stmt::Store`], whose
    /// indices are in range by loop construction — each index is clamped to
    /// the buffer's extent exactly like [`crate::buffer::Buffer::set`]
    /// (histogram left-hand sides index by *data*, which can land anywhere),
    /// and `value` may read the buffer being written (the self-reference of
    /// an accumulator). The executor therefore never vectorizes a guarded
    /// store beyond what the enclosing loop's [`LoopKind`] explicitly allows
    /// (the lowering pass marks a lane loop vectorized only when the
    /// privatized-accumulation analysis proves per-lane writes disjoint).
    ReduceStore {
        /// Unique id in the same number space as [`Stmt::Store`] ids.
        id: usize,
        /// Destination buffer (the func being updated).
        buffer: String,
        /// Index expressions (the update's LHS), innermost dimension first.
        indices: Vec<Expr>,
        /// Value expression (may reference `buffer` itself).
        value: Expr,
    },
}

impl Stmt {
    /// A `Block`, flattening nested blocks and dropping empty ones.
    pub fn block(stmts: Vec<Stmt>) -> Stmt {
        let mut flat = Vec::new();
        for s in stmts {
            match s {
                Stmt::Block(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Stmt::Block(flat)
        }
    }

    /// Visit every statement in the tree (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.visit(f);
                }
            }
            Stmt::Allocate { body, .. }
            | Stmt::Produce { body, .. }
            | Stmt::For { body, .. }
            | Stmt::SlideWindow { body, .. } => {
                body.visit(f);
            }
            Stmt::Store { .. } | Stmt::ReduceStore { .. } => {}
        }
    }

    /// Number of `For` loops in the tree.
    pub fn loop_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::For { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Number of store statements in the tree (`Store` and `ReduceStore`
    /// share one id number space, so this also bounds the next free id).
    pub fn store_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::Store { .. } | Stmt::ReduceStore { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Number of `ReduceStore` (guarded update) statements in the tree.
    pub fn reduce_store_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::ReduceStore { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Number of `SlideWindow` (rolling `compute_at` allocation) nodes in
    /// the tree.
    pub fn sliding_window_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if matches!(s, Stmt::SlideWindow { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Window extents (in rows of the slid dimension) of every
    /// `SlideWindow` node in the tree, in visit order.
    pub fn sliding_window_extents(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if let Stmt::SlideWindow { extent, .. } = s {
                out.push(*extent);
            }
        });
        out
    }

    /// Names of all buffers allocated by `Allocate` nodes.
    pub fn allocated_buffers(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if let Stmt::Allocate { name, .. } = s {
                out.push(name.clone());
            }
        });
        out
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.fmt_indented(f, indent)?;
                }
                Ok(())
            }
            Stmt::Allocate {
                name,
                ty,
                extents,
                body,
            } => {
                writeln!(f, "{pad}allocate {name}[{ty}] extents={extents:?}")?;
                body.fmt_indented(f, indent + 1)
            }
            Stmt::Produce { func, body } => {
                writeln!(f, "{pad}produce {func}:")?;
                body.fmt_indented(f, indent + 1)
            }
            Stmt::SlideWindow {
                name,
                dim,
                extent,
                min,
                warm_var,
                body,
            } => {
                writeln!(
                    f,
                    "{pad}slide_window {name} dim={dim} extent={extent} min={min} warm={warm_var}"
                )?;
                body.fmt_indented(f, indent + 1)
            }
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let kind_str = match kind {
                    LoopKind::Serial => String::new(),
                    LoopKind::Parallel { .. } => "[parallel]".to_string(),
                    LoopKind::ParallelReduce { .. } => "[parallel_reduce]".to_string(),
                    LoopKind::Vectorized => "[vectorized]".to_string(),
                };
                writeln!(f, "{pad}for{kind_str} {var} in [{min}, {min} + {extent}):")?;
                body.fmt_indented(f, indent + 1)
            }
            Stmt::Store {
                buffer,
                indices,
                value,
                ..
            } => {
                let idx: Vec<String> = indices.iter().map(|e| e.to_string()).collect();
                writeln!(f, "{pad}{buffer}[{}] = {value}", idx.join(", "))
            }
            Stmt::ReduceStore {
                buffer,
                indices,
                value,
                ..
            } => {
                let idx: Vec<String> = indices.iter().map(|e| e.to_string()).collect();
                writeln!(f, "{pad}reduce {buffer}[{}] = {value}", idx.join(", "))
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_nest() -> Stmt {
        Stmt::Produce {
            func: "out".into(),
            body: Box::new(Stmt::For {
                var: "y".into(),
                min: Expr::int(0),
                extent: Expr::int(4),
                kind: LoopKind::Parallel { threads: 0 },
                body: Box::new(Stmt::For {
                    var: "x".into(),
                    min: Expr::int(0),
                    extent: Expr::int(8),
                    kind: LoopKind::Vectorized,
                    body: Box::new(Stmt::Store {
                        id: 0,
                        buffer: "out".into(),
                        indices: vec![Expr::var("x"), Expr::var("y")],
                        value: Expr::add(Expr::var("x"), Expr::var("y")),
                    }),
                }),
            }),
        }
    }

    #[test]
    fn counts_and_visitor() {
        let s = sample_nest();
        assert_eq!(s.loop_count(), 2);
        assert_eq!(s.store_count(), 1);
        assert!(s.allocated_buffers().is_empty());
        let alloc = Stmt::Allocate {
            name: "tmp".into(),
            ty: ScalarType::UInt16,
            extents: vec![10],
            body: Box::new(s),
        };
        assert_eq!(alloc.allocated_buffers(), vec!["tmp".to_string()]);
    }

    #[test]
    fn block_flattens() {
        let inner = Stmt::Block(vec![Stmt::Store {
            id: 0,
            buffer: "b".into(),
            indices: vec![Expr::int(0)],
            value: Expr::int(1),
        }]);
        let b = Stmt::block(vec![inner, Stmt::Block(vec![])]);
        match &b {
            Stmt::Store { .. } => {}
            other => panic!("expected flattened single store, got {other:?}"),
        }
    }

    #[test]
    fn affine_access_metadata_classifies_contiguity() {
        use crate::types::Value;
        let params = BTreeMap::new();
        // in(x + 2, y) is contiguous in x, invariant in nothing.
        let value = Expr::add(
            Expr::Image(
                "in".into(),
                vec![Expr::add(Expr::var("x"), Expr::int(2)), Expr::var("y")],
            ),
            Expr::FuncRef("p".into(), vec![Expr::int(0), Expr::var("y")]),
        );
        let loads = collect_loads(&value, &params);
        assert_eq!(loads.len(), 2);
        assert!(loads[0].is_contiguous_in("x"));
        assert!(!loads[0].is_invariant_in("x"));
        assert!(loads[1].is_invariant_in("x"));
        assert!(!loads[1].is_contiguous_in("x"));
        // Strided access is neither.
        let strided = Expr::Image("in".into(), vec![Expr::mul(Expr::var("x"), Expr::int(2))]);
        let loads = collect_loads(&strided, &params);
        assert!(!loads[0].is_contiguous_in("x") && !loads[0].is_invariant_in("x"));
        // Non-affine indices surface as None per dimension.
        let nonaffine = Expr::Image("in".into(), vec![Expr::mul(Expr::var("x"), Expr::var("y"))]);
        assert_eq!(collect_loads(&nonaffine, &params)[0].args[0], None);
        // AffineIndex resolves params and drops zero coefficients.
        let mut p = BTreeMap::new();
        p.insert("k".to_string(), Value::Int(3));
        let a = AffineIndex::decompose(
            &Expr::add(
                Expr::var("x"),
                Expr::Param("k".into(), crate::types::ScalarType::Int32),
            ),
            &p,
        )
        .expect("affine");
        assert_eq!(a.konst, 3);
        assert_eq!(a.coeff_of("x"), 1);
        assert_eq!(a.coeff_of("y"), 0);
    }

    #[test]
    fn self_alias_detection() {
        // out[x] = out(x - 1) + in(x): reads its own buffer.
        let aliasing = Expr::add(
            Expr::FuncRef("out".into(), vec![Expr::add(Expr::var("x"), Expr::int(-1))]),
            Expr::Image("in".into(), vec![Expr::var("x")]),
        );
        assert!(value_reads_buffer(&aliasing, "out"));
        assert!(value_reads_buffer(&aliasing, "in"));
        assert!(!value_reads_buffer(&aliasing, "other"));
        // A pure stencil over a distinct source does not self-alias.
        let clean = Expr::Image("in".into(), vec![Expr::var("x")]);
        assert!(!value_reads_buffer(&clean, "out"));
    }

    #[test]
    fn reduce_stores_count_and_print() {
        let nest = Stmt::Produce {
            func: "hist".into(),
            body: Box::new(Stmt::For {
                var: "r_0.x".into(),
                min: Expr::int(0),
                extent: Expr::int(16),
                kind: LoopKind::Serial,
                body: Box::new(Stmt::ReduceStore {
                    id: 1,
                    buffer: "hist".into(),
                    indices: vec![Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into())])],
                    value: Expr::add(
                        Expr::FuncRef(
                            "hist".into(),
                            vec![Expr::Image("in".into(), vec![Expr::RVar("r_0.x".into())])],
                        ),
                        Expr::int(1),
                    ),
                }),
            }),
        };
        assert_eq!(nest.store_count(), 1, "guarded stores share the id space");
        assert_eq!(nest.reduce_store_count(), 1);
        let text = nest.to_string();
        assert!(text.contains("reduce hist[in("), "{text}");
    }

    #[test]
    fn pretty_print_shape() {
        let text = sample_nest().to_string();
        assert!(text.contains("produce out:"), "{text}");
        assert!(text.contains("for[parallel] y in [0, 0 + 4):"), "{text}");
        assert!(text.contains("for[vectorized] x in [0, 0 + 8):"), "{text}");
        assert!(text.contains("out[x, y] = (x + y)"), "{text}");
    }
}
