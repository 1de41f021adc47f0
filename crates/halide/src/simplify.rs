//! Algebraic simplification of DSL expressions.
//!
//! Lifted expressions carry artifacts of the legacy instruction selection:
//! chains of widening casts, additions of zero produced by cancelled
//! sliding-window updates, multiplications by one from normalized weights, and
//! selects whose condition is a constant. The simplifier removes those without
//! changing the computed values, which makes the emitted Halide source closer
//! to what a programmer would have written and shrinks the interpreted
//! expression the realizer executes.
//!
//! Simplification is *value-preserving*: `simplify(e)` evaluates to exactly
//! the same value as `e` for every assignment of the free variables (this is
//! checked by property tests in `tests/prop_simplify.rs`).

use crate::expr::{eval_binop, eval_cmp, BinOp, Expr};
use crate::func::{Func, ImageParam, Pipeline, UpdateDef};
use crate::types::{ScalarType, Value};
use std::collections::BTreeMap;

/// Simplify an expression, returning a value-equivalent expression with no
/// more nodes than the input. The element types of image loads are unknown
/// here; [`simplify_pipeline`] knows them, and so collapses more cast chains.
pub fn simplify(e: &Expr) -> Expr {
    simplify_typed(e, &BTreeMap::new())
}

/// [`simplify`], knowing the element type of every image in `images`.
pub(crate) fn simplify_typed(e: &Expr, images: &BTreeMap<String, ImageParam>) -> Expr {
    let go = |e: &Expr| simplify_typed(e, images);
    match e {
        Expr::Cast(ty, inner) => simplify_cast(*ty, go(inner), images),
        Expr::Binary(op, a, b) => simplify_binary(*op, go(a), go(b)),
        Expr::Cmp(op, a, b) => {
            let (a, b) = (go(a), go(b));
            match (constant_of(&a), constant_of(&b)) {
                (Some(x), Some(y)) => from_value(eval_cmp(*op, x, y), ScalarType::Int32),
                _ => Expr::Cmp(*op, Box::new(a), Box::new(b)),
            }
        }
        Expr::Select(c, t, f) => {
            let (c, t, f) = (go(c), go(t), go(f));
            match constant_of(&c) {
                Some(v) if v.is_true() => t,
                Some(_) => f,
                None if t == f => t,
                None => Expr::Select(Box::new(c), Box::new(t), Box::new(f)),
            }
        }
        Expr::Call(call, args) => Expr::Call(*call, args.iter().map(go).collect()),
        Expr::Image(name, args) => Expr::Image(name.clone(), args.iter().map(go).collect()),
        Expr::FuncRef(name, args) => Expr::FuncRef(name.clone(), args.iter().map(go).collect()),
        other => other.clone(),
    }
}

/// Simplify every definition of every func in a pipeline, knowing its
/// images' element types.
pub fn simplify_pipeline(pipeline: &Pipeline) -> Pipeline {
    let mut out = pipeline.clone();
    for func in out.funcs.values_mut() {
        *func = simplify_func_typed(func, &pipeline.images);
    }
    out
}

/// Simplify the pure and update definitions of a func.
pub fn simplify_func(func: &Func) -> Func {
    simplify_func_typed(func, &BTreeMap::new())
}

fn simplify_func_typed(func: &Func, images: &BTreeMap<String, ImageParam>) -> Func {
    let go = |e: &Expr| simplify_typed(e, images);
    let mut out = func.clone();
    out.pure_def = out.pure_def.as_ref().map(go);
    out.updates = out
        .updates
        .iter()
        .map(|u| UpdateDef {
            lhs: u.lhs.iter().map(go).collect(),
            value: go(&u.value),
            rdom: u.rdom.clone(),
        })
        .collect();
    out
}

fn constant_of(e: &Expr) -> Option<Value> {
    match e {
        Expr::ConstInt(v, _) => Some(Value::Int(*v)),
        Expr::ConstFloat(v, _) => Some(Value::Float(*v)),
        _ => None,
    }
}

fn from_value(v: Value, ty: ScalarType) -> Expr {
    match v {
        Value::Int(i) => Expr::ConstInt(i, ty),
        Value::Float(f) => Expr::ConstFloat(f, ty),
    }
}

fn is_int_zero(e: &Expr) -> bool {
    matches!(e, Expr::ConstInt(0, _))
}

fn is_int_one(e: &Expr) -> bool {
    matches!(e, Expr::ConstInt(1, _))
}

fn simplify_cast(ty: ScalarType, inner: Expr, images: &BTreeMap<String, ImageParam>) -> Expr {
    // Fold casts of constants immediately.
    if let Some(v) = constant_of(&inner) {
        return from_value(v.cast(ty), ty);
    }
    if let Expr::Cast(inner_ty, deepest) = &inner {
        // A widening cast of a widening cast collapses to the outer cast as
        // long as the inner cast cannot have discarded bits that the outer
        // cast would keep (monotone non-narrowing chains), or the two casts
        // are identical.
        let widening_chain = !inner_ty.is_float()
            && !ty.is_float()
            && inner_ty.bytes() <= ty.bytes()
            && inner_cast_is_exact(deepest, *inner_ty, images);
        if *inner_ty == ty || widening_chain {
            return Expr::Cast(ty, deepest.clone());
        }
    }
    Expr::Cast(ty, Box::new(inner))
}

/// Returns `true` when casting `e` to `ty` cannot change its value because
/// every value `e` can take is one of `ty`'s: an image load whose element
/// type is known to fit, a cast to such a type, or such a constant.
fn inner_cast_is_exact(e: &Expr, ty: ScalarType, images: &BTreeMap<String, ImageParam>) -> bool {
    match e {
        Expr::Image(name, _) => images.get(name).is_some_and(|p| int_fits(p.ty, ty)),
        Expr::Cast(t, _) => int_fits(*t, ty),
        Expr::ConstInt(v, _) => Value::Int(*v).cast(ty) == Value::Int(*v),
        _ => false,
    }
}

/// Whether every value of the integer type `from` is a value of `to`. A cast
/// to `UInt64` keeps every integer value's bits, so everything fits it.
fn int_fits(from: ScalarType, to: ScalarType) -> bool {
    use ScalarType::*;
    !from.is_float()
        && match (from, to) {
            (_, UInt64) => true,
            (UInt8, UInt16 | UInt32 | Int32) | (UInt16, UInt32 | Int32) => true,
            _ => from == to,
        }
}

fn simplify_binary(op: BinOp, a: Expr, b: Expr) -> Expr {
    // Constant folding.
    if let (Some(x), Some(y)) = (constant_of(&a), constant_of(&b)) {
        let float = matches!(a, Expr::ConstFloat(..)) || matches!(b, Expr::ConstFloat(..));
        let ty = if float {
            ScalarType::Float64
        } else {
            ScalarType::Int32
        };
        return from_value(eval_binop(op, x, y), ty);
    }
    match op {
        // x + 0 = 0 + x = x;  x - 0 = x
        BinOp::Add if is_int_zero(&a) => b,
        BinOp::Add | BinOp::Sub if is_int_zero(&b) => a,
        // x * 1 = 1 * x = x;  x * 0 = 0 * x = 0 (integer only: 0.0 * NaN != 0)
        BinOp::Mul if is_int_one(&a) => b,
        BinOp::Mul if is_int_one(&b) => a,
        BinOp::Mul if is_int_zero(&a) && !contains_float(&b) => a,
        BinOp::Mul if is_int_zero(&b) && !contains_float(&a) => b,
        // x >> 0 = x << 0 = x
        BinOp::Shr | BinOp::Shl if is_int_zero(&b) => a,
        // x / 1 = x
        BinOp::Div if is_int_one(&b) => a,
        // min(x, x) = max(x, x) = x
        BinOp::Min | BinOp::Max if a == b => a,
        _ => Expr::Binary(op, Box::new(a), Box::new(b)),
    }
}

fn contains_float(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |n| {
        if matches!(n, Expr::ConstFloat(..))
            || matches!(n, Expr::Cast(t, _) if t.is_float())
            || matches!(n, Expr::Param(_, t) if t.is_float())
        {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn img(dx: i64) -> Expr {
        // Keep the index already in simplified form so expectations compare
        // structurally (a `+ 0` in the index would itself be simplified away).
        let index = if dx == 0 {
            Expr::var("x_0")
        } else {
            Expr::add(Expr::var("x_0"), Expr::int(dx))
        };
        Expr::Image("input_1".into(), vec![index])
    }

    #[test]
    fn constants_fold() {
        let e = Expr::add(Expr::int(2), Expr::mul(Expr::int(3), Expr::int(4)));
        assert_eq!(simplify(&e), Expr::int(14));
    }

    #[test]
    fn additive_and_multiplicative_identities_are_removed() {
        assert_eq!(simplify(&Expr::add(img(0), Expr::int(0))), img(0));
        assert_eq!(simplify(&Expr::add(Expr::int(0), img(1))), img(1));
        assert_eq!(simplify(&Expr::mul(img(0), Expr::int(1))), img(0));
        assert_eq!(
            simplify(&Expr::bin(BinOp::Sub, img(2), Expr::int(0))),
            img(2)
        );
        assert_eq!(
            simplify(&Expr::bin(BinOp::Shr, img(0), Expr::int(0))),
            img(0)
        );
    }

    #[test]
    fn multiplication_by_integer_zero_collapses() {
        assert_eq!(simplify(&Expr::mul(img(0), Expr::int(0))), Expr::int(0));
        // Not applied when the other operand involves floating point.
        let f = Expr::mul(Expr::float(2.5), img(0));
        let e = Expr::mul(f.clone(), Expr::int(0));
        assert_eq!(simplify(&e), Expr::mul(f, Expr::int(0)));
    }

    #[test]
    fn constant_selects_choose_a_branch() {
        let sel = Expr::select(
            Expr::cmp(CmpOp::Lt, Expr::int(1), Expr::int(2)),
            img(0),
            img(1),
        );
        assert_eq!(simplify(&sel), img(0));
        let sel = Expr::select(
            Expr::cmp(CmpOp::Gt, Expr::int(1), Expr::int(2)),
            img(0),
            img(1),
        );
        assert_eq!(simplify(&sel), img(1));
        // Unknown condition with identical branches also collapses.
        let sel = Expr::select(Expr::cmp(CmpOp::Lt, img(0), Expr::int(128)), img(1), img(1));
        assert_eq!(simplify(&sel), img(1));
    }

    /// `input_1` with element type `ty`, as a pipeline's image map.
    fn images(ty: ScalarType) -> BTreeMap<String, ImageParam> {
        [("input_1".to_string(), ImageParam::new("input_1", ty, 1))].into()
    }

    #[test]
    fn widening_cast_chains_collapse() {
        // cast<u32>(cast<u16>(input(x))) == cast<u32>(input(x)) for u8 loads.
        let e = Expr::cast(ScalarType::UInt32, Expr::cast(ScalarType::UInt16, img(0)));
        let u8_images = images(ScalarType::UInt8);
        assert_eq!(
            simplify_typed(&e, &u8_images),
            Expr::cast(ScalarType::UInt32, img(0))
        );
        // Without the load's type the inner cast may truncate, so it stays.
        assert_eq!(simplify(&e), e);
        // Duplicate casts collapse.
        let e = Expr::cast(ScalarType::UInt8, Expr::cast(ScalarType::UInt8, img(0)));
        assert_eq!(simplify(&e), Expr::cast(ScalarType::UInt8, img(0)));
        // Narrowing inner casts are preserved (they truncate).
        let e = Expr::cast(
            ScalarType::UInt32,
            Expr::cast(ScalarType::UInt8, Expr::var("x_0")),
        );
        assert_eq!(
            simplify(&e),
            Expr::cast(
                ScalarType::UInt32,
                Expr::cast(ScalarType::UInt8, Expr::var("x_0"))
            )
        );
    }

    /// A cast chain keeps every cast that can change a value: a `u64` load
    /// narrowed to `u32` and widened back loses its high bits, and an `i32`
    /// value widened to `u32` then `u64` is not sign-extended.
    #[test]
    fn truncating_cast_chains_are_kept() {
        let narrowed = Expr::cast(ScalarType::UInt64, Expr::cast(ScalarType::UInt32, img(0)));
        assert_eq!(
            simplify_typed(&narrowed, &images(ScalarType::UInt64)),
            narrowed
        );
        let int = Expr::cast(ScalarType::Int32, Expr::var("x_0"));
        let chain = Expr::cast(
            ScalarType::UInt64,
            Expr::cast(ScalarType::UInt32, int.clone()),
        );
        assert_eq!(simplify(&chain), chain);
        // A `u16` load fits `i32`, and every integer fits `u64`.
        let e = Expr::cast(ScalarType::UInt64, Expr::cast(ScalarType::Int32, img(0)));
        assert_eq!(
            simplify_typed(&e, &images(ScalarType::UInt16)),
            Expr::cast(ScalarType::UInt64, img(0))
        );
        assert_eq!(
            simplify_typed(&e, &images(ScalarType::UInt32)),
            e,
            "a u32 load may not fit i32"
        );
    }

    #[test]
    fn simplify_never_grows_the_expression() {
        let e = Expr::add(
            Expr::mul(Expr::int(1), img(0)),
            Expr::select(
                Expr::cmp(CmpOp::Eq, Expr::int(3), Expr::int(3)),
                img(1),
                img(2),
            ),
        );
        let s = simplify(&e);
        assert!(s.node_count() <= e.node_count());
        assert_eq!(s, Expr::add(img(0), img(1)));
    }

    #[test]
    fn pipeline_simplification_rewrites_all_funcs() {
        let value = Expr::cast(
            ScalarType::UInt8,
            Expr::add(Expr::mul(Expr::int(1), img(0)), Expr::int(0)),
        );
        let p = Pipeline::new(
            Func::pure("out", &["x_0"], ScalarType::UInt8, value),
            vec![crate::func::ImageParam::new(
                "input_1",
                ScalarType::UInt8,
                1,
            )],
        );
        let s = simplify_pipeline(&p);
        assert_eq!(
            s.output_func().pure_def.as_ref().expect("pure def"),
            &Expr::cast(ScalarType::UInt8, img(0))
        );
    }
}
