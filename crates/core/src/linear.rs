//! The canonical arithmetic form used by global reassociation (§2.2).
//!
//! "The canonical form of an arithmetic expression is a sum of products of
//! values, where sums and products are represented by ordered lists." A
//! linear expression is `constant + Σ coeffᵢ·Πⱼ factorᵢⱼ`:
//!
//! - factors within a product are ordered by increasing rank (constants
//!   would be rank 0, but constants are folded into the coefficient);
//! - terms are ordered by their factor lists, so that "values and products
//!   of values that differ only in sign are treated as equal when ordering
//!   lists" — the sign lives in the coefficient, which the ordering
//!   ignores;
//! - coefficients use wrapping arithmetic, matching the IR semantics, so
//!   reassociation is sound even at the i64 boundaries.
//!
//! Forward propagation is cancelled when an expression grows beyond the
//! configured operand limit (§2.2 footnote 4); see [`LinearView::size`].
//!
//! # Representation
//!
//! Terms never own their factor lists: a [`Term`] is a coefficient plus a
//! span of a shared factor pool. A [`LinearView`] borrows a term slice and
//! the pool it indexes — the interner's arena and a [`LinearExpr`]
//! scratch buffer hand out the same view type — and the algebra writes
//! its result into a `LinearExpr` the caller reuses. Reassociating a warm
//! buffer therefore allocates nothing.

use pgvn_ir::Value;
use std::hash::{Hash, Hasher};

/// One product term: `coeff · factors[0] · factors[1] · …`, the factor
/// list being a span of the factor pool of the view it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Term {
    /// The wrapping integer coefficient.
    pub coeff: i64,
    start: u32,
    len: u32,
}

impl Term {
    fn factors(self, pool: &[Value]) -> &[Value] {
        &pool[self.start as usize..self.start as usize + self.len as usize]
    }
}

/// The one term of `1·v`, whose factor pool is the single value.
static UNIT_TERM: [Term; 1] = [Term { coeff: 1, start: 0, len: 1 }];

/// A borrowed linear expression in canonical form: terms ordered by
/// factor list, no zero coefficient, no empty factor list.
#[derive(Clone, Copy, Debug)]
pub struct LinearView<'a> {
    terms: &'a [Term],
    factors: &'a [Value],
    /// The constant part.
    pub constant: i64,
}

impl<'a> LinearView<'a> {
    /// Borrows `terms`, whose spans index `factors`.
    pub(crate) fn from_parts(terms: &'a [Term], factors: &'a [Value], constant: i64) -> Self {
        LinearView { terms, factors, constant }
    }

    /// The constant `c`.
    pub fn constant(c: i64) -> Self {
        LinearView { terms: &[], factors: &[], constant: c }
    }

    /// The single value `*v` (coefficient 1), borrowing its slot.
    pub fn value(v: &'a Value) -> Self {
        LinearView { terms: &UNIT_TERM, factors: std::slice::from_ref(v), constant: 0 }
    }

    /// The terms in canonical order, as `(coefficient, factors)`.
    pub fn terms(self) -> impl ExactSizeIterator<Item = (i64, &'a [Value])> {
        let factors = self.factors;
        self.terms.iter().map(move |t| (t.coeff, t.factors(factors)))
    }

    /// Returns `Some(c)` if the expression is the constant `c`.
    pub fn as_const(self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// Returns `Some(v)` if the expression is exactly `1·v`.
    pub fn as_single_value(self) -> Option<Value> {
        match (self.terms, self.constant) {
            ([t], 0) if t.coeff == 1 && t.len == 1 => Some(self.factors[t.start as usize]),
            _ => None,
        }
    }

    /// The size used against the forward-propagation limit: total number
    /// of factors across terms, plus one per term.
    pub fn size(self) -> usize {
        self.terms.iter().map(|t| t.len as usize + 1).sum()
    }

    /// Evaluates the expression under a concrete assignment of values.
    /// Used by tests to check reassociation against direct evaluation.
    pub fn eval(self, assign: &dyn Fn(Value) -> i64) -> i64 {
        let mut total = self.constant;
        for (coeff, factors) in self.terms() {
            let mut p = coeff;
            for &f in factors {
                p = p.wrapping_mul(assign(f));
            }
            total = total.wrapping_add(p);
        }
        total
    }
}

/// Structural equality: same constant and the same terms in order,
/// wherever their factor pools live.
impl PartialEq for LinearView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.constant == other.constant
            && self.terms.len() == other.terms.len()
            && self.terms().zip(other.terms()).all(|(a, b)| a == b)
    }
}

impl Eq for LinearView<'_> {}

/// Hashes the structure [`PartialEq`] compares, never pool positions.
impl Hash for LinearView<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_i64(self.constant);
        state.write_usize(self.terms.len());
        for (coeff, factors) in self.terms() {
            state.write_i64(coeff);
            factors.hash(state);
        }
    }
}

/// An owned linear expression: the reusable output buffer of the
/// reassociation algebra. Every operation leaves it in canonical form;
/// capacity survives across operations.
#[derive(Clone, Debug, Default)]
pub struct LinearExpr {
    terms: Vec<Term>,
    /// Factor pool; may hold dead spans after merges, compacted by
    /// [`LinearExpr::assign`].
    factors: Vec<Value>,
    constant: i64,
}

impl LinearExpr {
    /// Borrows the expression.
    pub fn view(&self) -> LinearView<'_> {
        LinearView { terms: &self.terms, factors: &self.factors, constant: self.constant }
    }

    /// Overwrites `self` with a copy of `src`.
    pub fn assign(&mut self, src: LinearView<'_>) {
        self.terms.clear();
        self.factors.clear();
        self.constant = src.constant;
        append_terms(src, 1, &mut self.terms, &mut self.factors);
    }

    /// `self += k · other`: `k = 1` adds, `k = -1` subtracts.
    pub fn add_scaled(&mut self, other: LinearView<'_>, k: i64) {
        self.constant = self.constant.wrapping_add(other.constant.wrapping_mul(k));
        append_terms(other, k, &mut self.terms, &mut self.factors);
        self.normalize();
    }

    /// `self += c`.
    pub fn add_constant(&mut self, c: i64) {
        self.constant = self.constant.wrapping_add(c);
    }

    /// `self ·= k`.
    pub fn scale(&mut self, k: i64) {
        self.constant = self.constant.wrapping_mul(k);
        for t in &mut self.terms {
            t.coeff = t.coeff.wrapping_mul(k);
        }
        self.normalize();
    }

    /// Overwrites `self` with `a · b`, distributing multiplication over
    /// addition. The factor lists of product terms are sorted by
    /// `(rank, value)`.
    pub fn set_product(
        &mut self,
        a: LinearView<'_>,
        b: LinearView<'_>,
        rank: &dyn Fn(Value) -> u32,
    ) {
        self.terms.clear();
        self.factors.clear();
        self.constant = a.constant.wrapping_mul(b.constant);
        // constant × b.terms and a.terms × constant
        append_terms(b, a.constant, &mut self.terms, &mut self.factors);
        append_terms(a, b.constant, &mut self.terms, &mut self.factors);
        for (ca, fa) in a.terms() {
            for (cb, fb) in b.terms() {
                let start = self.factors.len();
                let product = fa.iter().chain(fb).copied();
                push_term(ca.wrapping_mul(cb), product, &mut self.terms, &mut self.factors);
                self.factors[start..].sort_unstable_by_key(|&v| (rank(v), v));
            }
        }
        self.normalize();
    }

    /// Restores canonical form: sorts terms by factor list, merges equal
    /// factor lists (summing coefficients), drops zero coefficients.
    fn normalize(&mut self) {
        let pool = &self.factors;
        // Unstable is exact: equal factor lists merge by a commutative
        // sum, so their relative order cannot show.
        self.terms.sort_unstable_by(|x, y| x.factors(pool).cmp(y.factors(pool)));
        let mut out = 0;
        for i in 0..self.terms.len() {
            let t = self.terms[i];
            if out > 0 && self.terms[out - 1].factors(pool) == t.factors(pool) {
                let last = &mut self.terms[out - 1];
                last.coeff = last.coeff.wrapping_add(t.coeff);
            } else {
                self.terms[out] = t;
                out += 1;
            }
        }
        self.terms.truncate(out);
        self.terms.retain(|t| t.coeff != 0);
    }
}

/// Appends the term `coeff · factors`, its factors at the end of `pool`.
fn push_term(
    coeff: i64,
    factors: impl Iterator<Item = Value>,
    terms: &mut Vec<Term>,
    pool: &mut Vec<Value>,
) {
    let start = pool.len();
    pool.extend(factors);
    let len = pool.len() - start;
    terms.push(Term { coeff, start: start as u32, len: len as u32 });
}

/// Appends `k ·` each term of `src` to `terms`, copying its factors
/// contiguously into `pool` (which the new spans index).
pub(crate) fn append_terms(
    src: LinearView<'_>,
    k: i64,
    terms: &mut Vec<Term>,
    pool: &mut Vec<Value>,
) {
    for (coeff, factors) in src.terms() {
        push_term(coeff.wrapping_mul(k), factors.iter().copied(), terms, pool);
    }
}

/// Structural equality of the canonical forms.
impl PartialEq for LinearExpr {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for LinearExpr {}

#[cfg(test)]
impl LinearExpr {
    /// `constant + Σ coeff·factors` from raw (unsorted, possibly
    /// repeated) terms, normalized.
    pub(crate) fn from_terms(terms: &[(Vec<Value>, i64)], constant: i64) -> Self {
        let mut out = LinearExpr { constant, ..Default::default() };
        for (factors, coeff) in terms {
            push_term(*coeff, factors.iter().copied(), &mut out.terms, &mut out.factors);
        }
        out.normalize();
        out
    }

    pub(crate) fn from_const(c: i64) -> Self {
        Self::from_terms(&[], c)
    }

    pub(crate) fn from_value(v: Value) -> Self {
        Self::from_terms(&[(vec![v], 1)], 0)
    }

    fn combined(&self, f: impl FnOnce(&mut LinearExpr)) -> LinearExpr {
        let mut out = self.clone();
        f(&mut out);
        out
    }

    pub(crate) fn add(&self, other: &LinearExpr) -> LinearExpr {
        self.combined(|o| o.add_scaled(other.view(), 1))
    }

    pub(crate) fn sub(&self, other: &LinearExpr) -> LinearExpr {
        self.combined(|o| o.add_scaled(other.view(), -1))
    }

    pub(crate) fn neg(&self) -> LinearExpr {
        self.combined(|o| o.scale(-1))
    }

    pub(crate) fn scaled(&self, k: i64) -> LinearExpr {
        self.combined(|o| o.scale(k))
    }

    pub(crate) fn mul(&self, other: &LinearExpr, rank: &dyn Fn(Value) -> u32) -> LinearExpr {
        let mut out = LinearExpr::default();
        out.set_product(self.view(), other.view(), rank);
        out
    }

    pub(crate) fn as_const(&self) -> Option<i64> {
        self.view().as_const()
    }

    pub(crate) fn as_single_value(&self) -> Option<Value> {
        self.view().as_single_value()
    }

    pub(crate) fn size(&self) -> usize {
        self.view().size()
    }

    pub(crate) fn eval(&self, assign: &dyn Fn(Value) -> i64) -> i64 {
        self.view().eval(assign)
    }

    /// The `i`th term as `(factors, coeff)`.
    pub(crate) fn term(&self, i: usize) -> (Vec<Value>, i64) {
        let (coeff, factors) = self.view().terms().nth(i).expect("term index");
        (factors.to_vec(), coeff)
    }

    pub(crate) fn num_terms(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::EntityRef;

    fn v(i: usize) -> Value {
        Value::new(i)
    }

    fn id_rank(x: Value) -> u32 {
        x.index() as u32
    }

    #[test]
    fn constants_fold() {
        let a = LinearExpr::from_const(3);
        let b = LinearExpr::from_const(4);
        assert_eq!(a.add(&b).as_const(), Some(7));
        assert_eq!(a.sub(&b).as_const(), Some(-1));
        assert_eq!(a.mul(&b, &id_rank).as_const(), Some(12));
        assert_eq!(a.neg().as_const(), Some(-3));
    }

    #[test]
    fn x_plus_y_commutes() {
        let x = LinearExpr::from_value(v(2));
        let y = LinearExpr::from_value(v(1));
        assert_eq!(x.add(&y), y.add(&x));
    }

    #[test]
    fn x_minus_x_is_zero() {
        let x = LinearExpr::from_value(v(1));
        assert_eq!(x.sub(&x).as_const(), Some(0));
    }

    #[test]
    fn addition_is_associative() {
        let (x, y, z) = (
            LinearExpr::from_value(v(1)),
            LinearExpr::from_value(v(2)),
            LinearExpr::from_value(v(3)),
        );
        assert_eq!(x.add(&y).add(&z), x.add(&y.add(&z)));
    }

    #[test]
    fn distribution_over_sum() {
        // (x + 1) * (x - 1) == x*x - 1
        let x = LinearExpr::from_value(v(1));
        let one = LinearExpr::from_const(1);
        let lhs = x.add(&one).mul(&x.sub(&one), &id_rank);
        let xx = x.mul(&x, &id_rank);
        assert_eq!(lhs, xx.sub(&one));
        assert_eq!(lhs.num_terms(), 1);
        assert_eq!(lhs.term(0).0, vec![v(1), v(1)]);
        assert_eq!(lhs.view().constant, -1);
    }

    #[test]
    fn single_value_detection() {
        let x = LinearExpr::from_value(v(5));
        assert_eq!(x.as_single_value(), Some(v(5)));
        assert_eq!(x.scaled(2).as_single_value(), None);
        assert_eq!(x.add(&LinearExpr::from_const(1)).as_single_value(), None);
        let back = x.scaled(2).sub(&x);
        assert_eq!(back.as_single_value(), Some(v(5)));
    }

    #[test]
    fn factor_order_follows_rank() {
        // With rank(v3) < rank(v1), v1*v3 must store [v3, v1].
        let rank = |x: Value| if x == v(3) { 1 } else { 9 };
        let a = LinearExpr::from_value(v(1));
        let b = LinearExpr::from_value(v(3));
        let p = a.mul(&b, &rank);
        assert_eq!(p.term(0).0, vec![v(3), v(1)]);
        // Multiplication commutes because of the ordering.
        assert_eq!(p, b.mul(&a, &rank));
    }

    #[test]
    fn wrapping_coefficients() {
        let x = LinearExpr::from_value(v(1));
        let big = x.scaled(i64::MAX);
        let sum = big.add(&x); // (MAX + 1) x = MIN x
        assert_eq!(sum.term(0).1, i64::MIN);
    }

    #[test]
    fn eval_matches_structure() {
        // 2*x*y - 3*z + 7 at x=2,y=5,z=1 → 20 - 3 + 7 = 24
        let (x, y, z) = (
            LinearExpr::from_value(v(1)),
            LinearExpr::from_value(v(2)),
            LinearExpr::from_value(v(3)),
        );
        let e = x.mul(&y, &id_rank).scaled(2).sub(&z.scaled(3)).add(&LinearExpr::from_const(7));
        let assign = |w: Value| match w.index() {
            1 => 2,
            2 => 5,
            3 => 1,
            _ => 0,
        };
        assert_eq!(e.eval(&assign), 24);
    }

    #[test]
    fn size_counts_terms_and_factors() {
        let x = LinearExpr::from_value(v(1));
        let y = LinearExpr::from_value(v(2));
        assert_eq!(x.size(), 2);
        assert_eq!(x.add(&y).size(), 4);
        assert_eq!(x.mul(&y, &id_rank).size(), 3);
        assert_eq!(LinearExpr::from_const(5).size(), 0);
    }

    #[test]
    fn zero_scale_collapses() {
        let x = LinearExpr::from_value(v(1));
        assert_eq!(x.scaled(0).as_const(), Some(0));
        assert_eq!(x.mul(&LinearExpr::from_const(0), &id_rank).as_const(), Some(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pgvn_ir::EntityRef;
    use proptest::prelude::*;

    fn id_rank(x: Value) -> u32 {
        x.index() as u32
    }

    /// A small random linear expression over values v0..v4.
    fn arb_linear() -> impl Strategy<Value = LinearExpr> {
        let term = (0usize..5, 1usize..3, -4i64..5)
            .prop_map(|(v, reps, coeff)| (vec![Value::new(v); reps], coeff));
        (proptest::collection::vec(term, 0..4), -100i64..100)
            .prop_map(|(terms, constant)| LinearExpr::from_terms(&terms, constant))
    }

    fn arb_assign() -> impl Strategy<Value = [i64; 5]> {
        proptest::array::uniform5(-7i64..8)
    }

    proptest! {
        #[test]
        fn add_commutes(a in arb_linear(), b in arb_linear()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn add_associates(a in arb_linear(), b in arb_linear(), c in arb_linear()) {
            prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        }

        #[test]
        fn mul_commutes(a in arb_linear(), b in arb_linear()) {
            prop_assert_eq!(a.mul(&b, &id_rank), b.mul(&a, &id_rank));
        }

        #[test]
        fn mul_distributes_over_add(a in arb_linear(), b in arb_linear(), c in arb_linear()) {
            let lhs = a.mul(&b.add(&c), &id_rank);
            let rhs = a.mul(&b, &id_rank).add(&a.mul(&c, &id_rank));
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn sub_then_add_roundtrips(a in arb_linear(), b in arb_linear()) {
            prop_assert_eq!(a.sub(&b).add(&b), a);
        }

        #[test]
        fn eval_respects_structure(a in arb_linear(), b in arb_linear(), vals in arb_assign()) {
            let assign = |v: Value| vals[v.index() % 5];
            prop_assert_eq!(a.add(&b).eval(&assign), a.eval(&assign).wrapping_add(b.eval(&assign)));
            prop_assert_eq!(a.sub(&b).eval(&assign), a.eval(&assign).wrapping_sub(b.eval(&assign)));
            prop_assert_eq!(a.mul(&b, &id_rank).eval(&assign), a.eval(&assign).wrapping_mul(b.eval(&assign)));
            prop_assert_eq!(a.neg().eval(&assign), a.eval(&assign).wrapping_neg());
        }

        #[test]
        fn normalization_is_canonical(a in arb_linear(), b in arb_linear(), vals in arb_assign()) {
            // Two syntactically different constructions of the same sum
            // normalize to the same structure.
            let one = a.add(&b);
            let two = b.add(&a);
            prop_assert_eq!(&one, &two);
            // And equal structures always evaluate equal.
            let assign = |v: Value| vals[v.index() % 5];
            prop_assert_eq!(one.eval(&assign), two.eval(&assign));
        }
    }
}
