//! Hash-consed symbolic expressions.
//!
//! Symbolic evaluation (§2.2) turns every instruction into a canonical
//! expression over *class leaders*; the `TABLE` mapping from expressions
//! to congruence classes then makes congruence finding a hash lookup.
//! Interning gives every distinct expression a stable [`ExprId`], so
//! expression equality — including the equality of block predicates needed
//! by φ-predication — is an integer comparison.
//!
//! # Storage
//!
//! An [`ExprKind`] is a *borrowed* view: operand lists are slices and a
//! linear form is a [`LinearView`]. [`Interner::intern`] probes with the
//! view, so a hit copies nothing; a miss copies the operands into pooled
//! arenas owned by the interner (one for operand lists, one each for
//! linear terms and factors). The hash-cons table is open addressing over
//! ids, with each expression's hash stored beside it, under the in-crate
//! `FxHasher`. [`Interner::clear`] keeps every arena, so once a session
//! context is warm, interning allocates nothing, hit or miss.

use crate::linear::{append_terms, LinearView, Term};
use pgvn_ir::{BinOp, Block, CmpOp, UnOp, Value};
use std::hash::{Hash, Hasher};

/// An interned expression reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an id from a raw index. Only meaningful with the
    /// interner that produced the index; exposed for tests and debugging.
    #[doc(hidden)]
    pub fn from_raw(raw: u32) -> Self {
        ExprId(raw)
    }
}

impl std::fmt::Display for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Expression ids are dense per-run indices, so they key the dense
/// entity maps (`EntitySet`, flat vectors) used by the session context.
impl pgvn_ir::EntityRef for ExprId {
    #[inline]
    fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize);
        ExprId(index as u32)
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// An Fx-style word-at-a-time hasher (rotate, xor, multiply): much
/// cheaper than SipHash on the small integer keys of the driver's tables,
/// and keys here are never attacker-chosen hash-flooding material.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The distinguishing context of a φ expression (§2.2, §2.8): a φ's
/// expression carries either its block or — when φ-predication computed
/// one — the block's predicate, which lets φs of *different* blocks with
/// congruent predicates fall into one congruence class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhiKey {
    /// The φ's own block (no predicate available).
    Block(Block),
    /// The block's predicate expression.
    Pred(ExprId),
}

/// A canonical symbolic expression, borrowed: operand lists and linear
/// forms point into the interner's arenas (from [`Interner::kind`]) or
/// into the caller's scratch (when passed to [`Interner::intern`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExprKind<'a> {
    /// An integer constant.
    Const(i64),
    /// An atomic value (a congruence class leader).
    Leader(Value),
    /// A value that is forcibly its own class: cyclic φs under balanced /
    /// pessimistic value numbering (§2.6), and SCCP-mode non-constants.
    Unique(Value),
    /// An opaque token (call/load); congruent only to itself.
    Opaque(u32),
    /// A reassociated linear combination (sum of products of leaders).
    Linear(LinearView<'a>),
    /// A non-reassociable operation over canonical operands.
    Op(BinOp, &'a [ExprId]),
    /// A unary operation that did not simplify.
    Un(UnOp, ExprId),
    /// A comparison with canonically ordered operands.
    Cmp(CmpOp, ExprId, ExprId),
    /// A φ-function: key plus one argument per (canonically ordered)
    /// reachable incoming edge.
    Phi(PhiKey, &'a [ExprId]),
    /// Conjunction of edge predicates along a path (φ-predication).
    PredAnd(&'a [ExprId]),
    /// Disjunction of path predicates of a block (φ-predication).
    PredOr(&'a [ExprId]),
}

/// A span of one of the interner's arenas.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of<T>(arena: &[T], start: usize) -> Span {
        Span { start: start as u32, len: (arena.len() - start) as u32 }
    }

    fn get<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.start as usize + self.len as usize]
    }
}

/// The stored form of an expression: [`ExprKind`] with its slices
/// replaced by arena spans.
#[derive(Clone, Copy, Debug)]
enum Node {
    Const(i64),
    Leader(Value),
    Unique(Value),
    Opaque(u32),
    /// Constant plus a span of the term arena.
    Linear(i64, Span),
    Op(BinOp, Span),
    Un(UnOp, ExprId),
    Cmp(CmpOp, ExprId, ExprId),
    Phi(PhiKey, Span),
    PredAnd(Span),
    PredOr(Span),
}

/// An empty hash-cons table slot.
const EMPTY: u32 = u32::MAX;

/// Smallest non-empty table (a power of two).
const MIN_TABLE: usize = 16;

/// The expression interner.
#[derive(Debug, Default)]
pub struct Interner {
    /// Per-id stored expression.
    nodes: Vec<Node>,
    /// Per-id hash of the expression.
    hashes: Vec<u64>,
    /// Open-addressing (linear probing) table of ids; a power of two in
    /// length, at most half full.
    table: Vec<u32>,
    /// Arena of `Op`/`Phi`/`PredAnd`/`PredOr` operand lists.
    operands: Vec<ExprId>,
    /// Arena of linear terms; their spans index `factors`.
    terms: Vec<Term>,
    /// Arena of linear factor lists.
    factors: Vec<Value>,
    hits: u64,
    misses: u64,
    growths: u64,
}

fn hash_of(kind: &ExprKind<'_>) -> u64 {
    let mut h = FxHasher::default();
    kind.hash(&mut h);
    h.finish()
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The home slot of `hash` (the high bits: the multiply mixes them
    /// best).
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.table.len() - 1)
    }

    /// Interns `kind`, returning its stable id. A hit copies nothing.
    pub fn intern(&mut self, kind: ExprKind<'_>) -> ExprId {
        let hash = hash_of(&kind);
        if !self.table.is_empty() {
            let mask = self.table.len() - 1;
            let mut slot = self.home(hash);
            loop {
                let id = self.table[slot];
                if id == EMPTY {
                    break;
                }
                if self.hashes[id as usize] == hash && self.kind(ExprId(id)) == kind {
                    self.hits += 1;
                    return ExprId(id);
                }
                slot = (slot + 1) & mask;
            }
        }
        self.misses += 1;
        let id = ExprId(self.nodes.len() as u32);
        let node = self.store(kind);
        self.nodes.push(node);
        self.hashes.push(hash);
        if self.nodes.len() * 2 > self.table.len() {
            self.grow();
        } else {
            self.place(id);
        }
        id
    }

    /// Copies `kind`'s slices into the arenas.
    fn store(&mut self, kind: ExprKind<'_>) -> Node {
        let mut operands = |args: &[ExprId]| {
            let start = self.operands.len();
            self.operands.extend_from_slice(args);
            Span::of(&self.operands, start)
        };
        if let ExprKind::Linear(l) = kind {
            let start = self.terms.len();
            append_terms(l, 1, &mut self.terms, &mut self.factors);
            return Node::Linear(l.constant, Span::of(&self.terms, start));
        }
        match kind {
            ExprKind::Const(c) => Node::Const(c),
            ExprKind::Leader(v) => Node::Leader(v),
            ExprKind::Unique(v) => Node::Unique(v),
            ExprKind::Opaque(t) => Node::Opaque(t),
            ExprKind::Op(op, args) => Node::Op(op, operands(args)),
            ExprKind::Un(op, a) => Node::Un(op, a),
            ExprKind::Cmp(op, a, b) => Node::Cmp(op, a, b),
            ExprKind::Phi(key, args) => Node::Phi(key, operands(args)),
            ExprKind::PredAnd(args) => Node::PredAnd(operands(args)),
            ExprKind::PredOr(args) => Node::PredOr(operands(args)),
            ExprKind::Linear(_) => unreachable!("stored above"),
        }
    }

    /// Inserts `id` at the first free slot of its probe sequence.
    fn place(&mut self, id: ExprId) {
        let mask = self.table.len() - 1;
        let mut slot = self.home(self.hashes[id.index()]);
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = id.0;
    }

    /// Doubles the table.
    fn grow(&mut self) {
        self.rehash((self.table.len() * 2).max(MIN_TABLE));
        self.growths += 1;
    }

    /// Resizes the table to `cap` slots and re-places every id from its
    /// stored hash.
    fn rehash(&mut self, cap: usize) {
        self.table.clear();
        self.table.resize(cap, EMPTY);
        for i in 0..self.nodes.len() {
            self.place(ExprId(i as u32));
        }
    }

    /// Empties the interner, keeping its allocations: ids restart at 0
    /// and the hit/miss counters reset. Part of the session-context
    /// reset — a reused interner performs no per-run capacity growth
    /// once warm.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.hashes.clear();
        self.table.fill(EMPTY);
        self.operands.clear();
        self.terms.clear();
        self.factors.clear();
        self.hits = 0;
        self.misses = 0;
        self.growths = 0;
    }

    /// Grows the expression arena to at least `exprs` slots and the
    /// hash-cons table to at least `table` slots (rounded up to a power
    /// of two), keeping every interned id.
    pub(crate) fn reserve(&mut self, exprs: usize, table: usize) {
        self.nodes.reserve_exact(exprs.saturating_sub(self.nodes.len()));
        self.hashes.reserve_exact(exprs.saturating_sub(self.hashes.len()));
        if table > self.table.len() {
            self.rehash(table.next_power_of_two());
        }
    }

    /// Capacity of the expression arena (amortization metric).
    pub fn expr_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Slots in the hash-cons table (amortization metric).
    pub fn table_capacity(&self) -> usize {
        self.table.len()
    }

    /// Lookups answered by the hash-cons table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that interned a fresh expression (equals [`Self::len`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hash-cons table growths (rehashes) since the last
    /// [`Interner::clear`]. Zero on a warm session context whose table
    /// already fits the routine.
    pub fn growths(&self) -> u64 {
        self.growths
    }

    /// The expression for `id`.
    pub fn kind(&self, id: ExprId) -> ExprKind<'_> {
        match self.nodes[id.index()] {
            Node::Const(c) => ExprKind::Const(c),
            Node::Leader(v) => ExprKind::Leader(v),
            Node::Unique(v) => ExprKind::Unique(v),
            Node::Opaque(t) => ExprKind::Opaque(t),
            Node::Linear(c, terms) => {
                ExprKind::Linear(LinearView::from_parts(terms.get(&self.terms), &self.factors, c))
            }
            Node::Op(op, args) => ExprKind::Op(op, args.get(&self.operands)),
            Node::Un(op, a) => ExprKind::Un(op, a),
            Node::Cmp(op, a, b) => ExprKind::Cmp(op, a, b),
            Node::Phi(key, args) => ExprKind::Phi(key, args.get(&self.operands)),
            Node::PredAnd(args) => ExprKind::PredAnd(args.get(&self.operands)),
            Node::PredOr(args) => ExprKind::PredOr(args.get(&self.operands)),
        }
    }

    /// Number of distinct expressions interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shorthand: interns a constant.
    pub fn constant(&mut self, c: i64) -> ExprId {
        self.intern(ExprKind::Const(c))
    }

    /// Shorthand: interns a leader leaf.
    pub fn leader(&mut self, v: Value) -> ExprId {
        self.intern(ExprKind::Leader(v))
    }

    /// Returns the constant if `id` is a constant (directly or as a
    /// degenerate linear expression).
    pub fn as_const(&self, id: ExprId) -> Option<i64> {
        match self.nodes[id.index()] {
            Node::Const(c) => Some(c),
            Node::Linear(c, terms) => (terms.len == 0).then_some(c),
            _ => None,
        }
    }

    /// Returns the value if `id` is a single-value leaf.
    pub fn as_value(&self, id: ExprId) -> Option<Value> {
        match self.nodes[id.index()] {
            Node::Leader(v) => Some(v),
            Node::Linear(..) => match self.kind(id) {
                ExprKind::Linear(l) => l.as_single_value(),
                _ => None,
            },
            _ => None,
        }
    }

    /// Renders `id` for diagnostics.
    ///
    /// The walk uses an explicit work stack writing into one buffer:
    /// deep expressions (reassociated sums and predicate formulas chain
    /// through thousands of nodes) must not recurse, and per-node
    /// intermediate `String`s would make rendering quadratic.
    pub fn display(&self, id: ExprId) -> String {
        enum Task {
            Expr(ExprId),
            Lit(&'static str),
            Sep(String),
        }
        use std::fmt::Write;
        let mut out = String::new();
        let mut stack = vec![Task::Expr(id)];
        // Children are pushed in reverse so they pop in source order,
        // interleaved with the separators/closers that follow them.
        let push_args = |stack: &mut Vec<Task>, args: &[ExprId], sep: &'static str| {
            stack.push(Task::Lit(")"));
            for (i, &a) in args.iter().enumerate().rev() {
                stack.push(Task::Expr(a));
                if i > 0 {
                    stack.push(Task::Lit(sep));
                }
            }
        };
        while let Some(task) = stack.pop() {
            let id = match task {
                Task::Lit(s) => {
                    out.push_str(s);
                    continue;
                }
                Task::Sep(s) => {
                    out.push_str(&s);
                    continue;
                }
                Task::Expr(id) => id,
            };
            match self.kind(id) {
                ExprKind::Const(c) => {
                    let _ = write!(out, "{c}");
                }
                ExprKind::Leader(v) => {
                    let _ = write!(out, "{v}");
                }
                ExprKind::Unique(v) => {
                    let _ = write!(out, "unique({v})");
                }
                ExprKind::Opaque(t) => {
                    let _ = write!(out, "opaque({t})");
                }
                ExprKind::Linear(l) => {
                    let mut terms = 0;
                    for (i, (coeff, factors)) in l.terms().enumerate() {
                        if i > 0 {
                            out.push_str(" + ");
                        }
                        let _ = write!(out, "{coeff}");
                        for f in factors {
                            let _ = write!(out, "·{f}");
                        }
                        terms += 1;
                    }
                    if l.constant != 0 || terms == 0 {
                        if terms > 0 {
                            out.push_str(" + ");
                        }
                        let _ = write!(out, "{}", l.constant);
                    }
                }
                ExprKind::Op(op, args) => {
                    let _ = write!(out, "({op} ");
                    push_args(&mut stack, args, " ");
                }
                ExprKind::Un(op, a) => {
                    let _ = write!(out, "({op} ");
                    stack.push(Task::Lit(")"));
                    stack.push(Task::Expr(a));
                }
                ExprKind::Cmp(op, a, b) => {
                    out.push('(');
                    stack.push(Task::Lit(")"));
                    stack.push(Task::Expr(b));
                    stack.push(Task::Sep(format!(" {} ", op.symbol())));
                    stack.push(Task::Expr(a));
                }
                ExprKind::Phi(key, args) => {
                    out.push_str("φ[");
                    match key {
                        PhiKey::Block(b) => {
                            let _ = write!(out, "{b}](");
                            push_args(&mut stack, args, ", ");
                        }
                        PhiKey::Pred(p) => {
                            push_args(&mut stack, args, ", ");
                            stack.push(Task::Lit("]("));
                            stack.push(Task::Expr(p));
                        }
                    }
                }
                ExprKind::PredAnd(args) => {
                    out.push('(');
                    push_args(&mut stack, args, " ∧ ");
                }
                ExprKind::PredOr(args) => {
                    out.push('(');
                    push_args(&mut stack, args, " ∨ ");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearExpr;
    use pgvn_ir::EntityRef;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.constant(4);
        let b = i.constant(4);
        let c = i.constant(5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn structural_equality_of_compounds() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let y = i.leader(Value::new(2));
        let e1 = i.intern(ExprKind::Cmp(CmpOp::Lt, x, y));
        let e2 = i.intern(ExprKind::Cmp(CmpOp::Lt, x, y));
        let e3 = i.intern(ExprKind::Cmp(CmpOp::Lt, y, x));
        assert_eq!(e1, e2);
        assert_ne!(e1, e3);
    }

    #[test]
    fn linear_exprs_intern_canonically() {
        let mut i = Interner::new();
        let x = LinearExpr::from_value(Value::new(1));
        let y = LinearExpr::from_value(Value::new(2));
        let a = i.intern(ExprKind::Linear(x.add(&y).view()));
        let b = i.intern(ExprKind::Linear(y.add(&x).view()));
        assert_eq!(a, b);
    }

    #[test]
    fn as_const_and_as_value_helpers() {
        let mut i = Interner::new();
        let c = i.constant(9);
        assert_eq!(i.as_const(c), Some(9));
        assert_eq!(i.as_value(c), None);
        let lc = i.intern(ExprKind::Linear(LinearExpr::from_const(9).view()));
        assert_eq!(i.as_const(lc), Some(9));
        let v = i.leader(Value::new(3));
        assert_eq!(i.as_value(v), Some(Value::new(3)));
        let lv = i.intern(ExprKind::Linear(LinearExpr::from_value(Value::new(3)).view()));
        assert_eq!(i.as_value(lv), Some(Value::new(3)));
    }

    #[test]
    fn phi_keys_distinguish_blocks() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let p1 = i.intern(ExprKind::Phi(PhiKey::Block(Block::new(1)), &[x, x]));
        let p2 = i.intern(ExprKind::Phi(PhiKey::Block(Block::new(2)), &[x, x]));
        assert_ne!(p1, p2, "φs in different blocks must not collide");
        let pred = i.constant(1);
        let p3 = i.intern(ExprKind::Phi(PhiKey::Pred(pred), &[x, x]));
        let p4 = i.intern(ExprKind::Phi(PhiKey::Pred(pred), &[x, x]));
        assert_eq!(p3, p4, "φs with congruent predicates collide");
    }

    #[test]
    fn display_walks_deep_chains_without_recursion() {
        // A ~10k-deep chain: the old recursive renderer overflowed the
        // stack (and was quadratic in intermediate strings) on inputs
        // like this long before real reassociated sums hit it.
        const DEPTH: usize = 10_000;
        let mut i = Interner::new();
        let mut e = i.constant(0);
        for _ in 0..DEPTH {
            e = i.intern(ExprKind::Un(pgvn_ir::UnOp::Neg, e));
        }
        let s = i.display(e);
        assert_eq!(s.matches('(').count(), DEPTH);
        assert_eq!(s.matches(')').count(), DEPTH);
        assert!(s.ends_with(&format!("0{}", ")".repeat(DEPTH))));
    }

    #[test]
    fn display_interleaves_nested_compounds() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let y = i.leader(Value::new(2));
        let c = i.constant(3);
        let cmp = i.intern(ExprKind::Cmp(CmpOp::Lt, x, c));
        let cmp2 = i.intern(ExprKind::Cmp(CmpOp::Eq, y, c));
        let and = i.intern(ExprKind::PredAnd(&[cmp, cmp2]));
        let or = i.intern(ExprKind::PredOr(&[and, cmp]));
        assert_eq!(i.display(or), "(((v1 < 3) ∧ (v2 == 3)) ∨ (v1 < 3))");
        let phi = i.intern(ExprKind::Phi(PhiKey::Pred(cmp), &[x, y]));
        assert_eq!(i.display(phi), "φ[(v1 < 3)](v1, v2)");
        let phi_b = i.intern(ExprKind::Phi(PhiKey::Block(Block::new(4)), &[x, y]));
        assert_eq!(i.display(phi_b), "φ[bb4](v1, v2)");
        let neg = i.intern(ExprKind::Un(pgvn_ir::UnOp::Neg, x));
        let op = i.intern(ExprKind::Op(BinOp::Mul, &[neg, y]));
        assert_eq!(i.display(op), format!("({} ({} v1) v2)", BinOp::Mul, pgvn_ir::UnOp::Neg));
    }

    #[test]
    fn clear_keeps_allocations_and_restarts_ids() {
        let mut i = Interner::new();
        for k in 0..100 {
            i.constant(k);
        }
        assert_eq!(i.len(), 100);
        assert!(i.growths() > 0, "a cold table grows while filling");
        let exprs = i.expr_capacity();
        let table = i.table_capacity();
        i.clear();
        assert!(i.is_empty());
        assert_eq!(i.hits(), 0);
        assert_eq!(i.misses(), 0);
        assert_eq!(i.growths(), 0);
        assert_eq!(i.expr_capacity(), exprs, "clear must keep the arena");
        assert_eq!(i.table_capacity(), table, "clear must keep the table");
        assert_eq!(i.constant(42), ExprId::from_raw(0), "ids restart at 0");
        // Refilling a warm table performs no capacity growth.
        i.clear();
        for k in 0..100 {
            i.constant(k);
        }
        assert_eq!(i.growths(), 0, "warm table must not regrow");
    }

    #[test]
    fn reserve_keeps_ids_and_spares_growth() {
        let mut i = Interner::new();
        let ids: Vec<ExprId> = (0..20).map(|k| i.constant(k)).collect();
        i.reserve(256, 500);
        assert_eq!((i.expr_capacity(), i.table_capacity()), (256, 512));
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(i.constant(k as i64), id, "a reserve re-places interned ids");
        }
        i.clear();
        for k in 0..256 {
            i.constant(k);
        }
        assert_eq!(i.growths(), 0, "a reserved table does not grow");
        assert_eq!((i.expr_capacity(), i.table_capacity()), (256, 512));
    }

    #[test]
    fn display_is_readable() {
        let mut i = Interner::new();
        let x = i.leader(Value::new(1));
        let c = i.constant(3);
        let cmp = i.intern(ExprKind::Cmp(CmpOp::Le, c, x));
        assert_eq!(i.display(cmp), "(3 <= v1)");
        let lin =
            i.intern(ExprKind::Linear(LinearExpr::from_value(Value::new(1)).scaled(2).view()));
        assert_eq!(i.display(lin), "2·v1");
    }
}

/// The arena interner against a reference: the `HashMap` from owned
/// expressions to ids that it replaced. Both must assign the same ids and
/// count the same hits and misses over any intern sequence.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::linear::LinearExpr;
    use pgvn_ir::EntityRef;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// An owned expression: operand lists as vectors, a linear form as
    /// its `(factors, coeff)` terms plus constant.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Owned {
        Const(i64),
        Leader(Value),
        Unique(Value),
        Opaque(u32),
        Linear(Vec<(Vec<Value>, i64)>, i64),
        Op(BinOp, Vec<ExprId>),
        Un(UnOp, ExprId),
        Cmp(CmpOp, ExprId, ExprId),
        Phi(PhiKey, Vec<ExprId>),
        PredAnd(Vec<ExprId>),
        PredOr(Vec<ExprId>),
    }

    impl Owned {
        fn of(kind: ExprKind<'_>) -> Owned {
            match kind {
                ExprKind::Const(c) => Owned::Const(c),
                ExprKind::Leader(v) => Owned::Leader(v),
                ExprKind::Unique(v) => Owned::Unique(v),
                ExprKind::Opaque(t) => Owned::Opaque(t),
                ExprKind::Linear(l) => Owned::Linear(
                    l.terms().map(|(coeff, factors)| (factors.to_vec(), coeff)).collect(),
                    l.constant,
                ),
                ExprKind::Op(op, args) => Owned::Op(op, args.to_vec()),
                ExprKind::Un(op, a) => Owned::Un(op, a),
                ExprKind::Cmp(op, a, b) => Owned::Cmp(op, a, b),
                ExprKind::Phi(key, args) => Owned::Phi(key, args.to_vec()),
                ExprKind::PredAnd(args) => Owned::PredAnd(args.to_vec()),
                ExprKind::PredOr(args) => Owned::PredOr(args.to_vec()),
            }
        }

        /// Interns `self` into the arena interner through a borrowed view.
        fn intern_into(&self, interner: &mut Interner) -> ExprId {
            let linear;
            let kind = match self {
                Owned::Const(c) => ExprKind::Const(*c),
                Owned::Leader(v) => ExprKind::Leader(*v),
                Owned::Unique(v) => ExprKind::Unique(*v),
                Owned::Opaque(t) => ExprKind::Opaque(*t),
                Owned::Linear(terms, constant) => {
                    linear = LinearExpr::from_terms(terms, *constant);
                    ExprKind::Linear(linear.view())
                }
                Owned::Op(op, args) => ExprKind::Op(*op, args),
                Owned::Un(op, a) => ExprKind::Un(*op, *a),
                Owned::Cmp(op, a, b) => ExprKind::Cmp(*op, *a, *b),
                Owned::Phi(key, args) => ExprKind::Phi(*key, args),
                Owned::PredAnd(args) => ExprKind::PredAnd(args),
                Owned::PredOr(args) => ExprKind::PredOr(args),
            };
            interner.intern(kind)
        }
    }

    /// The replaced interner: a std `HashMap<owned expression, id>`.
    #[derive(Default)]
    struct Reference {
        map: HashMap<Owned, ExprId>,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn intern(&mut self, kind: Owned) -> ExprId {
            if let Some(&id) = self.map.get(&kind) {
                self.hits += 1;
                return id;
            }
            self.misses += 1;
            let id = ExprId::from_raw(self.map.len() as u32);
            self.map.insert(kind, id);
            id
        }

        fn clear(&mut self) {
            *self = Reference::default();
        }
    }

    /// One step of a sequence: a variant tag, small scalars and a short
    /// id list, all drawn from tiny domains so hits are frequent.
    type Step = (u8, i64, u8, Vec<u8>);

    /// The expression a step interns (`None` = clear both interners).
    fn owned(&(tag, k, x, ref list): &Step) -> Option<Owned> {
        let id = |i: u8| ExprId::from_raw(u32::from(i));
        let ids: Vec<ExprId> = list.iter().map(|&i| id(i)).collect();
        let v = |i: u8| Value::new(usize::from(i));
        Some(match tag {
            0 => Owned::Const(k),
            1 => Owned::Leader(v(x)),
            2 => Owned::Unique(v(x)),
            3 => Owned::Opaque(u32::from(x)),
            4 => {
                // Raw terms over a couple of values; normalization may
                // merge or cancel them, and both sides see the result.
                let terms: Vec<(Vec<Value>, i64)> = list
                    .iter()
                    .map(|&i| (vec![v(i % 3); 1 + usize::from(i / 3 % 2)], i64::from(i % 3) - 1))
                    .collect();
                let l = LinearExpr::from_terms(&terms, k);
                Owned::of(ExprKind::Linear(l.view()))
            }
            5 => Owned::Op(BinOp::ALL[usize::from(x) % BinOp::ALL.len()], ids),
            6 => Owned::Un(if x % 2 == 0 { UnOp::Neg } else { UnOp::Not }, id(x)),
            7 => Owned::Cmp(CmpOp::ALL[usize::from(x) % 6], id(x), id(k as u8)),
            8 => Owned::Phi(PhiKey::Block(Block::new(usize::from(x))), ids),
            9 => Owned::Phi(PhiKey::Pred(id(x)), ids),
            10 => Owned::PredAnd(ids),
            11 => Owned::PredOr(ids),
            _ => return None,
        })
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (0u8..13, 0i64..3, 0u8..4, proptest::collection::vec(0u8..4, 0..4));
        proptest::collection::vec(step, 1..300)
    }

    proptest! {
        #[test]
        fn arena_interner_matches_the_hash_map_reference(steps in arb_steps()) {
            let mut new = Interner::new();
            let mut reference = Reference::default();
            for step in &steps {
                let Some(kind) = owned(step) else {
                    new.clear();
                    reference.clear();
                    continue;
                };
                let id = kind.intern_into(&mut new);
                prop_assert_eq!(id, reference.intern(kind.clone()), "id of {:?}", kind);
                prop_assert_eq!(Owned::of(new.kind(id)), kind);
                prop_assert_eq!(new.hits(), reference.hits);
                prop_assert_eq!(new.misses(), reference.misses);
                prop_assert_eq!(new.len(), reference.map.len());
            }
        }
    }
}
