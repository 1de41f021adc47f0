//! Data-dependency trees: concrete, abstract and symbolic forms
//! (paper §4.7–§4.10).
//!
//! A *concrete* tree captures the exact computation of one output location,
//! with absolute memory addresses at the leaves. Buffer inference turns it
//! into an *abstract* tree whose leaves are `(buffer, index vector)` pairs,
//! and the linear solve of §4.10 finally produces a *symbolic* tree whose
//! leaves carry affine index functions of the output coordinates.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Operation kinds appearing in dependency trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Shift left.
    Shl,
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Zero extension / plain move between locations (width change allowed).
    Move,
    /// Sign extension.
    SignExtend,
    /// Truncation to a narrower width (the paper's "downcast" node).
    Downcast,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
    /// Integer-to-float conversion (`fild`).
    IntToFloat,
    /// Float-to-integer rounding (`fistp`, round to nearest even).
    FloatToIntRound,
    /// Call to a known external library function.
    Extern(helium_machine::ExternFn),
    /// An indirect (table) load: child 0 is the index expression.
    IndirectLoad,
}

impl TreeOp {
    /// Returns `true` if operand order does not matter.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            TreeOp::Add
                | TreeOp::Mul
                | TreeOp::And
                | TreeOp::Or
                | TreeOp::Xor
                | TreeOp::FAdd
                | TreeOp::FMul
        )
    }

    /// Returns `true` if the operation is a floating-point operation.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            TreeOp::FAdd | TreeOp::FSub | TreeOp::FMul | TreeOp::FDiv | TreeOp::IntToFloat
        )
    }
}

impl TreeOp {
    /// The operation's name in rendered trees and structure keys: the
    /// variant name, or the library symbol of an external call.
    pub fn name(self) -> &'static str {
        match self {
            TreeOp::Add => "Add",
            TreeOp::Sub => "Sub",
            TreeOp::Mul => "Mul",
            TreeOp::And => "And",
            TreeOp::Or => "Or",
            TreeOp::Xor => "Xor",
            TreeOp::Shr => "Shr",
            TreeOp::Sar => "Sar",
            TreeOp::Shl => "Shl",
            TreeOp::Neg => "Neg",
            TreeOp::Not => "Not",
            TreeOp::Move => "Move",
            TreeOp::SignExtend => "SignExtend",
            TreeOp::Downcast => "Downcast",
            TreeOp::FAdd => "FAdd",
            TreeOp::FSub => "FSub",
            TreeOp::FMul => "FMul",
            TreeOp::FDiv => "FDiv",
            TreeOp::IntToFloat => "IntToFloat",
            TreeOp::FloatToIntRound => "FloatToIntRound",
            TreeOp::Extern(e) => e.symbol(),
            TreeOp::IndirectLoad => "IndirectLoad",
        }
    }
}

impl fmt::Display for TreeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A leaf of a dependency tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Leaf {
    /// A concrete memory location (before buffer inference).
    Mem {
        /// Absolute address (shadow addresses encode registers / FP slots).
        addr: u64,
        /// Access width in bytes.
        width: u32,
        /// Value observed in the trace (used to seed parameters).
        value: u64,
    },
    /// A location resolved to a buffer element (after buffer inference).
    BufferRef {
        /// Buffer name (e.g. `input_1`).
        buffer: String,
        /// Concrete index vector (abstract tree) — empty in symbolic trees.
        indices: Vec<i64>,
    },
    /// A symbolic buffer access whose indices are affine functions of the
    /// output coordinates (symbolic tree).
    SymbolicRef {
        /// Buffer name.
        buffer: String,
        /// Per-dimension affine index function.
        index_exprs: Vec<AffineIndex>,
    },
    /// An integer constant.
    Const(i64),
    /// A floating-point constant.
    ConstF(f64),
    /// A runtime parameter (a location outside every inferred buffer).
    Param {
        /// Generated parameter name.
        name: String,
        /// Observed value bits.
        value: u64,
        /// Width in bytes.
        width: u32,
        /// Whether the observed bits are an IEEE double.
        is_float: bool,
    },
    /// A recursive reference to the tree's own output buffer (reductions).
    RecursiveRef {
        /// Buffer name.
        buffer: String,
    },
}

/// An affine index function `sum(coeff_d * x_d) + constant`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AffineIndex {
    /// One coefficient per output dimension.
    pub coefficients: Vec<i64>,
    /// Constant term.
    pub constant: i64,
}

impl AffineIndex {
    /// A constant index.
    pub fn constant(v: i64, dims: usize) -> AffineIndex {
        AffineIndex {
            coefficients: vec![0; dims],
            constant: v,
        }
    }

    /// The identity index for dimension `d` offset by `c`.
    pub fn identity(d: usize, dims: usize, c: i64) -> AffineIndex {
        let mut coefficients = vec![0; dims];
        coefficients[d] = 1;
        AffineIndex {
            coefficients,
            constant: c,
        }
    }
}

impl fmt::Display for AffineIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (d, &c) in self.coefficients.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, "+")?;
            }
            if c == 1 {
                write!(f, "x_{d}")?;
            } else {
                write!(f, "{c}*x_{d}")?;
            }
            first = false;
        }
        if self.constant != 0 || first {
            if !first && self.constant > 0 {
                write!(f, "+")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// A node in a dependency tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// An interior operation node.
    Op {
        /// The operation.
        op: TreeOp,
        /// Children node ids.
        children: Vec<usize>,
        /// Result width in bytes.
        width: u32,
    },
    /// A leaf node.
    Leaf(Leaf),
}

/// A dependency tree stored as an arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    /// Arena of nodes; index 0 is unused sentinel-free (root is `root`).
    pub nodes: Vec<TreeNode>,
    /// Root node id.
    pub root: usize,
    /// The output location this tree computes: concrete address (concrete
    /// trees) or buffer/index (after buffer inference).
    pub output: Leaf,
    /// Width of the value written to the output location.
    pub output_width: u32,
}

impl Tree {
    /// Create a tree with a single leaf as root (used in tests).
    pub fn leaf_only(leaf: Leaf, output: Leaf) -> Tree {
        Tree {
            nodes: vec![TreeNode::Leaf(leaf)],
            root: 0,
            output,
            output_width: 1,
        }
    }

    /// Add a node and return its id.
    pub fn push(&mut self, node: TreeNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterate over the leaves in canonical (post-order, post-sort) order.
    pub fn leaves_in_order(&self) -> Vec<&Leaf> {
        let mut out = Vec::new();
        self.collect_leaves(self.root, &mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, node: usize, out: &mut Vec<&'a Leaf>) {
        match &self.nodes[node] {
            TreeNode::Leaf(l) => out.push(l),
            TreeNode::Op { children, .. } => {
                for &c in children {
                    self.collect_leaves(c, out);
                }
            }
        }
    }

    /// Structural key ignoring addresses, indices and constant values, used
    /// for clustering (paper §4.8: trees are grouped when they are the same
    /// "modulo constants and memory addresses in the leaves").
    pub fn structure_key(&self) -> String {
        let mut s = String::new();
        self.structure_of(self.root, &mut s);
        s
    }

    fn structure_of(&self, node: usize, out: &mut String) {
        match &self.nodes[node] {
            TreeNode::Leaf(l) => {
                out.push('(');
                out.push_str(leaf_tag(l));
                out.push(')');
            }
            TreeNode::Op { op, children, .. } => {
                out.push('(');
                out.push_str(op.name());
                for &c in children {
                    self.structure_of(c, out);
                }
                out.push(')');
            }
        }
    }

    /// Canonicalize the tree in place: sort the children of commutative
    /// operations by their structural key so trees produced by differently
    /// scheduled/unrolled code compare equal (paper §4.7, "canonicalization").
    /// Equal keys keep node-id order.
    pub fn canonicalize(&mut self) {
        self.canonicalize_node(self.root);
    }

    fn canonicalize_node(&mut self, node: usize) {
        let TreeNode::Op { op, children, .. } = &mut self.nodes[node] else {
            return;
        };
        let (op, mut children) = (*op, std::mem::take(children));
        for &c in &children {
            self.canonicalize_node(c);
        }
        if op.is_commutative() && children.len() > 1 {
            children.sort_by(|&a, &b| self.cmp_structure(a, b).then(a.cmp(&b)));
        }
        if let TreeNode::Op { children: slot, .. } = &mut self.nodes[node] {
            *slot = children;
        }
    }

    /// The order of two subtrees' structure keys, without rendering them.
    ///
    /// A key is `(`, the node's tag, its children's keys and `)`. No tag
    /// contains a parenthesis and every tag character sorts after `)`, so:
    /// different tags order as the tags do (a tag that is a prefix of the
    /// other is followed by `(` or `)` in its key, which sorts first); equal
    /// tags order by the first differing child (one child's key is never a
    /// proper prefix of another's); and of two equal child lists, the
    /// shorter one is followed by `)` where the longer has `(`, so it sorts
    /// last.
    fn cmp_structure(&self, a: usize, b: usize) -> Ordering {
        let (ta, ca) = self.tag_and_children(a);
        let (tb, cb) = self.tag_and_children(b);
        ta.cmp(tb).then_with(|| {
            ca.iter()
                .zip(cb)
                .map(|(&x, &y)| self.cmp_structure(x, y))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| cb.len().cmp(&ca.len()))
        })
    }

    fn tag_and_children(&self, node: usize) -> (&str, &[usize]) {
        match &self.nodes[node] {
            TreeNode::Leaf(l) => (leaf_tag(l), &[]),
            TreeNode::Op { op, children, .. } => (op.name(), children),
        }
    }

    /// Render the tree as a nested s-expression (for debugging and docs).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_node(self.root, &mut s);
        s
    }

    fn render_node(&self, node: usize, out: &mut String) {
        match &self.nodes[node] {
            TreeNode::Leaf(l) => match l {
                Leaf::Mem { addr, .. } => out.push_str(&format!("{addr:#x}")),
                Leaf::BufferRef { buffer, indices } => {
                    out.push_str(&format!("{buffer}{indices:?}"))
                }
                Leaf::SymbolicRef {
                    buffer,
                    index_exprs,
                } => {
                    let idx: Vec<String> = index_exprs.iter().map(|e| e.to_string()).collect();
                    out.push_str(&format!("{buffer}({})", idx.join(",")));
                }
                Leaf::Const(v) => out.push_str(&v.to_string()),
                Leaf::ConstF(v) => out.push_str(&v.to_string()),
                Leaf::Param { name, .. } => out.push_str(name),
                Leaf::RecursiveRef { buffer } => out.push_str(&format!("self:{buffer}")),
            },
            TreeNode::Op { op, children, .. } => {
                out.push('(');
                out.push_str(&op.to_string());
                for &c in children {
                    out.push(' ');
                    self.render_node(c, out);
                }
                out.push(')');
            }
        }
    }
}

/// A leaf's tag in structure keys: buffer and parameter names, `M` for a
/// concrete location, `C` for a constant and `R` for a recursive reference.
fn leaf_tag(l: &Leaf) -> &str {
    match l {
        Leaf::Mem { .. } => "M",
        Leaf::BufferRef { buffer, .. } => buffer.as_str(),
        Leaf::SymbolicRef { buffer, .. } => buffer.as_str(),
        Leaf::Const(_) | Leaf::ConstF(_) => "C",
        Leaf::Param { name, .. } => name.as_str(),
        Leaf::RecursiveRef { .. } => "R",
    }
}

/// A comparison predicate attached to a computational tree (paper Fig. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// The comparison relating `lhs` and `rhs` that must hold.
    pub cmp: PredicateCmp,
    /// Left-hand-side tree.
    pub lhs: Tree,
    /// Right-hand-side tree.
    pub rhs: Tree,
}

/// Comparison operators for predicates, including unsigned variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredicateCmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned/signed above (greater-than).
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
}

impl PredicateCmp {
    /// The comparison that holds when this one does not.
    pub fn negate(self) -> PredicateCmp {
        match self {
            PredicateCmp::Eq => PredicateCmp::Ne,
            PredicateCmp::Ne => PredicateCmp::Eq,
            PredicateCmp::Gt => PredicateCmp::Le,
            PredicateCmp::Le => PredicateCmp::Gt,
            PredicateCmp::Lt => PredicateCmp::Ge,
            PredicateCmp::Ge => PredicateCmp::Lt,
        }
    }
}

/// A computational tree together with the predicates guarding it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardedTree {
    /// The computational tree.
    pub tree: Tree,
    /// Predicates that must all hold for this tree to define the output.
    pub predicates: Vec<Predicate>,
    /// `true` if the tree is a recursive (reduction) update.
    pub recursive: bool,
}

impl GuardedTree {
    /// Cluster key: structure of the computation, predicates and output buffer.
    pub fn cluster_key(&self) -> String {
        let mut key = String::new();
        if let Leaf::BufferRef { buffer, .. } = &self.tree.output {
            key.push_str(buffer);
        }
        key.push('|');
        self.tree.structure_of(self.tree.root, &mut key);
        for p in &self.predicates {
            key.push('|');
            key.push_str(&format!("{:?}", p.cmp));
            p.lhs.structure_of(p.lhs.root, &mut key);
            p.rhs.structure_of(p.rhs.root, &mut key);
        }
        key
    }
}

/// Statistics about a forest of trees, reported in the Fig. 6 reproduction.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestStats {
    /// Number of trees per cluster key.
    pub cluster_sizes: BTreeMap<String, usize>,
    /// Node count of a representative computational tree per cluster.
    pub tree_sizes: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_leaf(addr: u64) -> Leaf {
        Leaf::Mem {
            addr,
            width: 1,
            value: 0,
        }
    }

    fn small_tree(addr_a: u64, addr_b: u64, swap: bool) -> Tree {
        // (Add leafA leafB) — optionally with the operands swapped.
        let mut t = Tree {
            nodes: Vec::new(),
            root: 0,
            output: mem_leaf(0xd000),
            output_width: 1,
        };
        let a = t.push(TreeNode::Leaf(mem_leaf(addr_a)));
        let b = t.push(TreeNode::Leaf(Leaf::Const(7)));
        let c = t.push(TreeNode::Leaf(mem_leaf(addr_b)));
        let inner = if swap {
            t.push(TreeNode::Op {
                op: TreeOp::Add,
                children: vec![c, b],
                width: 4,
            })
        } else {
            t.push(TreeNode::Op {
                op: TreeOp::Add,
                children: vec![b, c],
                width: 4,
            })
        };
        let root = t.push(TreeNode::Op {
            op: TreeOp::Add,
            children: vec![a, inner],
            width: 4,
        });
        t.root = root;
        t
    }

    #[test]
    fn canonicalization_orders_commutative_operands() {
        let mut a = small_tree(0x100, 0x200, false);
        let mut b = small_tree(0x300, 0x400, true);
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.structure_key(), b.structure_key());
    }

    /// Canonicalization as string keys define it: sort commutative
    /// children by their rendered structure key, then by node id.
    fn canonicalize_by_keys(t: &mut Tree, node: usize) {
        if let TreeNode::Op { op, children, .. } = t.nodes[node].clone() {
            for &c in &children {
                canonicalize_by_keys(t, c);
            }
            if op.is_commutative() && children.len() > 1 {
                let mut keyed: Vec<(String, usize)> = children
                    .iter()
                    .map(|&c| {
                        let mut s = String::new();
                        t.structure_of(c, &mut s);
                        (s, c)
                    })
                    .collect();
                keyed.sort();
                if let TreeNode::Op { children, .. } = &mut t.nodes[node] {
                    *children = keyed.into_iter().map(|(_, c)| c).collect();
                }
            }
        }
    }

    #[test]
    fn canonicalization_matches_string_key_order() {
        // Random trees over tags that are prefixes of one another and over
        // repeated subtrees, so ties and prefix cases both occur.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let ops = [
            TreeOp::Add,
            TreeOp::Mul,
            TreeOp::Sub,
            TreeOp::FAdd,
            TreeOp::Downcast,
            TreeOp::IndirectLoad,
            TreeOp::Extern(helium_machine::ExternFn::Sqrt),
        ];
        let leaf = |k: u64| match k {
            0 => mem_leaf(0x100),
            1 => Leaf::Const(3),
            2 => Leaf::RecursiveRef { buffer: "o".into() },
            3 => Leaf::BufferRef {
                buffer: "input_1".into(),
                indices: vec![],
            },
            4 => Leaf::BufferRef {
                buffer: "input_10".into(),
                indices: vec![],
            },
            _ => Leaf::Param {
                name: "p_1".into(),
                value: 0,
                width: 4,
                is_float: false,
            },
        };
        for _ in 0..300 {
            let mut t = Tree::leaf_only(Leaf::Const(0), mem_leaf(0));
            let mut roots: Vec<usize> = Vec::new();
            for _ in 0..12 {
                let id = if roots.len() < 2 || next(3) == 0 {
                    t.push(TreeNode::Leaf(leaf(next(6))))
                } else {
                    let arity = 1 + next(3.min(roots.len() as u64)) as usize;
                    let at = next((roots.len() - arity + 1) as u64) as usize;
                    let children: Vec<usize> = roots.drain(at..at + arity).collect();
                    let op = ops[next(ops.len() as u64) as usize];
                    t.push(TreeNode::Op {
                        op,
                        children,
                        width: 4,
                    })
                };
                roots.push(id);
            }
            let root = t.push(TreeNode::Op {
                op: TreeOp::Add,
                children: roots,
                width: 4,
            });
            t.root = root;
            let mut want = t.clone();
            canonicalize_by_keys(&mut want, root);
            t.canonicalize();
            assert_eq!(t, want, "{}", want.render());
        }
    }

    #[test]
    fn structure_key_ignores_addresses_but_not_shape() {
        let a = small_tree(0x100, 0x200, false);
        let mut shallow = Tree {
            nodes: Vec::new(),
            root: 0,
            output: mem_leaf(0xd000),
            output_width: 1,
        };
        let l = shallow.push(TreeNode::Leaf(mem_leaf(0x100)));
        shallow.root = l;
        assert_ne!(a.structure_key(), shallow.structure_key());
    }

    #[test]
    fn leaves_in_order_and_render() {
        let t = small_tree(0x100, 0x200, false);
        assert_eq!(t.leaves_in_order().len(), 3);
        let rendered = t.render();
        assert!(rendered.contains("Add"));
        assert!(rendered.contains("0x100"));
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn affine_index_display() {
        let a = AffineIndex {
            coefficients: vec![1, 0],
            constant: 2,
        };
        assert_eq!(a.to_string(), "x_0+2");
        let b = AffineIndex::constant(5, 2);
        assert_eq!(b.to_string(), "5");
        let c = AffineIndex::identity(1, 2, 0);
        assert_eq!(c.to_string(), "x_1");
        let d = AffineIndex {
            coefficients: vec![3, 1],
            constant: -4,
        };
        assert_eq!(d.to_string(), "3*x_0+x_1-4");
    }

    #[test]
    fn predicate_negation() {
        assert_eq!(PredicateCmp::Gt.negate(), PredicateCmp::Le);
        assert_eq!(PredicateCmp::Eq.negate(), PredicateCmp::Ne);
        assert_eq!(PredicateCmp::Lt.negate().negate(), PredicateCmp::Lt);
    }

    #[test]
    fn cluster_keys_distinguish_output_buffers() {
        let mut t1 = small_tree(0x100, 0x200, false);
        t1.output = Leaf::BufferRef {
            buffer: "output_1".into(),
            indices: vec![0, 0],
        };
        let mut t2 = small_tree(0x100, 0x200, false);
        t2.output = Leaf::BufferRef {
            buffer: "output_2".into(),
            indices: vec![0, 0],
        };
        let g1 = GuardedTree {
            tree: t1,
            predicates: vec![],
            recursive: false,
        };
        let g2 = GuardedTree {
            tree: t2,
            predicates: vec![],
            recursive: false,
        };
        assert_ne!(g1.cluster_key(), g2.cluster_key());
    }
}
