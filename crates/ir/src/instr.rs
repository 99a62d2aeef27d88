//! Instruction definitions and the concrete semantics of operators.
//!
//! The evaluation functions in this module are the *single* source of truth
//! for operator semantics: the constant folder in the GVN core and the
//! reference interpreter both call them, so a congruence-to-constant found
//! by the analysis is equal by construction to what execution produces.
//!
//! Integer semantics (documented in `DESIGN.md`): `i64` two's-complement
//! wrapping arithmetic; division and remainder by zero yield `0` (total
//! semantics, so folding is unconditionally sound); shift amounts are
//! masked to `0..=63`; comparisons yield `0` or `1`.

use crate::entities::{Block, Value};
use crate::pool::Span;
use std::fmt;

/// A binary arithmetic or bitwise operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; `x / 0 == 0`, `i64::MIN / -1 == i64::MIN` (wrapping).
    Div,
    /// Remainder; `x % 0 == 0`, `i64::MIN % -1 == 0`.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Left shift; the shift amount is masked to `0..=63`.
    Shl,
    /// Arithmetic right shift; the shift amount is masked to `0..=63`.
    Shr,
}

impl BinOp {
    /// All binary operators, in a fixed order.
    pub const ALL: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// Returns `true` if `a op b == b op a` for all inputs.
    pub fn is_commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// Evaluates the operator on concrete operands.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        }
    }

    /// Returns the operator's printed mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A unary operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Wrapping negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnOp {
    /// Evaluates the operator on a concrete operand.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
        }
    }

    /// Returns the operator's printed mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A comparison operator; the result is `1` if the relation holds, else `0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
}

impl CmpOp {
    /// All comparison operators, in a fixed order.
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Evaluates the comparison on concrete operands.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let holds = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        holds as i64
    }

    /// Returns the comparison with swapped operands: `a op b == b op.swap() a`.
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Returns the logical negation: `a op b == !(a op.negated() b)`.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Returns `true` when the relation holds for *equal* operands.
    pub fn holds_on_equal(self) -> bool {
        matches!(self, CmpOp::Eq | CmpOp::Le | CmpOp::Ge)
    }

    /// Returns the comparison's printed mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Returns the comparison's infix symbol (used by the pretty printer).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The payload of an instruction.
///
/// Every non-terminator instruction defines exactly one SSA value.
/// φ-functions have one argument per *incoming edge* of their block, in
/// the same order as the block's predecessor edge list.
///
/// A kind owns no heap memory: a φ's arguments and a switch's case
/// values live in pools of the containing [`Function`](crate::Function),
/// and the kind holds their [`Span`]. Read them with
/// [`Function::phi_args`](crate::Function::phi_args) and
/// [`Function::switch_cases`](crate::Function::switch_cases).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// An integer constant.
    Const(i64),
    /// The `index`-th routine parameter; only valid in the entry block.
    Param(u32),
    /// A unary operation.
    Unary(UnOp, Value),
    /// A binary operation.
    Binary(BinOp, Value, Value),
    /// A comparison producing `0` or `1`.
    Cmp(CmpOp, Value, Value),
    /// A copy of another value (inserted by optimizations).
    Copy(Value),
    /// An opaque value the analysis knows nothing about (models a call or
    /// load). Two opaques are congruent only if they are the same token —
    /// the builder hands out distinct tokens, so in practice never.
    Opaque(u32),
    /// A φ-function merging one value per incoming edge of its block;
    /// the span locates its arguments.
    Phi(Span),
    /// Unconditional jump to the block's single outgoing edge.
    Jump,
    /// Conditional branch on a value: edge 0 is taken when the value is
    /// nonzero ("true edge"), edge 1 when it is zero ("false edge").
    Branch(Value),
    /// Multi-way branch: edge `i` is taken when the value equals
    /// `cases[i]`; the last edge is the default. Case values are unique.
    /// The span locates the case values.
    Switch(Value, Span),
    /// Return a value from the routine.
    Return(Value),
}

impl InstKind {
    /// Returns `true` for jump, branch, switch and return instructions.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Jump | InstKind::Branch(_) | InstKind::Switch(..) | InstKind::Return(_)
        )
    }

    /// Returns `true` if the instruction defines a result value.
    pub fn has_result(&self) -> bool {
        !self.is_terminator()
    }

    /// Returns `true` for φ-functions.
    pub fn is_phi(&self) -> bool {
        matches!(self, InstKind::Phi(_))
    }
}

/// An instruction: a kind, the block containing it, and its result value.
#[derive(Clone, Debug)]
pub struct InstData {
    /// The instruction payload.
    pub kind: InstKind,
    /// The containing block.
    pub block: Block,
    /// The defined value, if [`InstKind::has_result`].
    pub result: Option<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_wrapping() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Sub.eval(i64::MIN, 1), i64::MAX);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(-7, 2), -3);
        assert_eq!(BinOp::Rem.eval(7, 2), 1);
        assert_eq!(BinOp::Rem.eval(-7, 2), -1);
    }

    #[test]
    fn binop_eval_total_on_zero_divisor() {
        assert_eq!(BinOp::Div.eval(42, 0), 0);
        assert_eq!(BinOp::Rem.eval(42, 0), 0);
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), i64::MIN);
        assert_eq!(BinOp::Rem.eval(i64::MIN, -1), 0);
    }

    #[test]
    fn binop_eval_shift_masking() {
        assert_eq!(BinOp::Shl.eval(1, 64), 1);
        assert_eq!(BinOp::Shl.eval(1, 65), 2);
        assert_eq!(BinOp::Shr.eval(-8, 1), -4);
        assert_eq!(BinOp::Shr.eval(i64::MIN, 63), -1);
    }

    #[test]
    fn binop_commutativity_flags_match_semantics() {
        for op in BinOp::ALL {
            if op.is_commutative() {
                for (a, b) in [(3, 9), (-5, 7), (i64::MIN, -1), (0, 13)] {
                    assert_eq!(op.eval(a, b), op.eval(b, a), "{op} not commutative on {a},{b}");
                }
            }
        }
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Div.is_commutative());
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Neg.eval(i64::MIN), i64::MIN);
        assert_eq!(UnOp::Not.eval(0), -1);
    }

    #[test]
    fn cmp_eval_and_negation() {
        for op in CmpOp::ALL {
            for (a, b) in [(1, 2), (2, 1), (3, 3), (i64::MIN, i64::MAX)] {
                assert_eq!(
                    op.eval(a, b),
                    1 - op.negated().eval(a, b),
                    "{op} vs negation on {a},{b}"
                );
                assert_eq!(op.eval(a, b), op.swapped().eval(b, a), "{op} vs swap on {a},{b}");
            }
            assert_eq!(op.holds_on_equal(), op.eval(7, 7) == 1);
        }
    }

    #[test]
    fn instkind_classification() {
        assert!(InstKind::Jump.is_terminator());
        assert!(InstKind::Branch(Value::from_u32(0)).is_terminator());
        assert!(InstKind::Return(Value::from_u32(0)).is_terminator());
        assert!(!InstKind::Const(3).is_terminator());
        assert!(InstKind::Const(3).has_result());
        assert!(!InstKind::Jump.has_result());
        assert!(InstKind::Phi(Span::EMPTY).is_phi());
        assert!(!InstKind::Const(0).is_phi());
    }
}
