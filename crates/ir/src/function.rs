//! The [`Function`] container: blocks, edges, instructions and values.
//!
//! A function is a control flow graph of basic blocks. Control flow edges
//! are materialized as entities because the paper's algorithm tracks
//! per-edge reachability and predicates. Each block has an ordered
//! instruction list; the last instruction of a complete block is a
//! terminator and φ-functions form a prefix of the block.
//!
//! # Layout
//!
//! Blocks, instructions, values and edges are dense arenas. Every
//! variable-length list lives in one of four function-owned pools (see
//! [`crate::pool`]): block instruction lists, block edge lists
//! (predecessors and successors), φ arguments and switch case values.
//! A block or an instruction holds a [`Span`] of its pool, so
//! [`InstKind`] owns no heap memory and is `Copy`. Edits happen in place
//! inside a span; a list that outgrows its span moves to the end of its
//! pool with doubled capacity. A clone therefore copies a fixed number
//! of buffers, whatever the function's size: each arena and each pool
//! once (pools with holes are compacted on the way), while the name and
//! the parameter list are shared.

use crate::entities::{Block, Edge, EntityRef, EntityVec, Inst, Value};
use crate::instr::{BinOp, CmpOp, InstData, InstKind, UnOp};
use crate::pool::{Pool, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A basic block: spans of its instruction list and of its incoming and
/// outgoing edge lists.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockData {
    /// Instructions in execution order; φs first, terminator last.
    pub(crate) insts: Span,
    /// Incoming edges. φ argument `i` corresponds to `preds[i]`.
    preds: Span,
    /// Outgoing edges. For a branch, index 0 is the true edge and index 1
    /// the false edge.
    succs: Span,
    /// Tombstone flag; removed blocks are skipped by iteration.
    removed: bool,
}

/// A control flow edge from one block to another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeData {
    /// Originating block.
    pub from: Block,
    /// Destination block.
    pub to: Block,
    /// Tombstone flag; removed edges are skipped by iteration.
    pub removed: bool,
}

/// Metadata for an SSA value.
#[derive(Clone, Debug)]
pub struct ValueData {
    /// The unique defining instruction.
    pub def: Inst,
}

/// Identifies a [`Function`]'s content: the instance it belongs to and
/// how many times that instance has been mutated.
///
/// Every `Function` gets a process-unique instance id when it is created
/// or cloned, and every `&mut self` method bumps its revision. Two equal
/// stamps therefore always denote the same content, which lets an
/// analysis remember its last answer without comparing functions.
///
/// [`Function::cfg_stamp`] is the same kind of stamp over a second
/// revision that only the methods editing blocks, edges or terminator
/// kinds bump: two equal CFG stamps denote the same control flow graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FunctionStamp {
    instance: u64,
    revision: u64,
}

/// A process-unique instance id.
#[derive(Debug)]
struct InstanceId(u64);

impl InstanceId {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        InstanceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A routine in SSA form.
///
/// # Examples
///
/// ```
/// use pgvn_ir::{Function, InstKind, BinOp};
///
/// let mut f = Function::new("double", 1);
/// let entry = f.entry();
/// let x = f.param(0);
/// let two = f.append(entry, InstKind::Const(2));
/// let d = f.append(entry, InstKind::Binary(BinOp::Mul, x, two));
/// f.set_return(entry, d);
/// assert_eq!(f.num_blocks(), 1);
/// ```
#[derive(Debug)]
pub struct Function {
    /// Shared by clones: neither changes after construction.
    name: Arc<str>,
    params: Arc<[Value]>,
    entry: Block,
    pub(crate) blocks: EntityVec<Block, BlockData>,
    pub(crate) insts: EntityVec<Inst, InstData>,
    pub(crate) values: EntityVec<Value, ValueData>,
    pub(crate) edges: EntityVec<Edge, EdgeData>,
    /// Every block's instruction list.
    pub(crate) inst_pool: Pool<Inst>,
    /// Every block's predecessor and successor lists.
    edge_pool: Pool<Edge>,
    /// Every φ's arguments.
    arg_pool: Pool<Value>,
    /// Every switch's case values.
    case_pool: Pool<i64>,
    instance: InstanceId,
    /// Bumped by every `&mut self` method (see [`FunctionStamp`]).
    revision: u64,
    /// Bumped by every method that edits blocks, edges or terminator
    /// kinds (see [`Function::cfg_stamp`]).
    cfg_revision: u64,
}

impl Clone for Function {
    /// Copies each arena and each pool once; a pool with holes is
    /// compacted on the way. The clone is a new instance (a fresh
    /// [`FunctionStamp`]).
    fn clone(&self) -> Self {
        let mut blocks = self.blocks.clone();
        let mut insts = self.insts.clone();
        let inst_pool =
            self.inst_pool.clone_compacted(blocks.iter_mut().map(|(_, b)| &mut b.insts));
        let edge_pool = self
            .edge_pool
            .clone_compacted(blocks.iter_mut().flat_map(|(_, b)| [&mut b.preds, &mut b.succs]));
        let arg_pool =
            self.arg_pool.clone_compacted(insts.iter_mut().filter_map(
                |(_, d)| match &mut d.kind {
                    InstKind::Phi(s) => Some(s),
                    _ => None,
                },
            ));
        let case_pool =
            self.case_pool.clone_compacted(insts.iter_mut().filter_map(
                |(_, d)| match &mut d.kind {
                    InstKind::Switch(_, s) => Some(s),
                    _ => None,
                },
            ));
        Function {
            name: Arc::clone(&self.name),
            params: Arc::clone(&self.params),
            entry: self.entry,
            blocks,
            insts,
            values: self.values.clone(),
            edges: self.edges.clone(),
            inst_pool,
            edge_pool,
            arg_pool,
            case_pool,
            instance: InstanceId::fresh(),
            revision: self.revision,
            cfg_revision: self.cfg_revision,
        }
    }
}

impl Function {
    /// Creates a function with `num_params` parameters. The entry block is
    /// created and populated with one [`InstKind::Param`] instruction per
    /// parameter.
    pub fn new(name: impl Into<String>, num_params: u32) -> Self {
        Function::with_capacity(name, num_params, 0, 0, 0, 0, 0)
    }

    /// Like [`Function::new`], with room for `blocks` blocks, `insts`
    /// instructions (and as many values), `edges` edges, `phi_args` φ
    /// arguments and `switch_cases` case values, so a builder that knows
    /// its sizes never regrows them. See also [`Function::reserve_block`].
    pub fn with_capacity(
        name: impl Into<String>,
        num_params: u32,
        blocks: usize,
        insts: usize,
        edges: usize,
        phi_args: usize,
        switch_cases: usize,
    ) -> Self {
        let mut f = Function {
            name: Arc::from(name.into()),
            params: Arc::from([]),
            entry: Block::new(0),
            blocks: EntityVec::with_capacity(blocks),
            insts: EntityVec::with_capacity(insts),
            values: EntityVec::with_capacity(insts),
            edges: EntityVec::with_capacity(edges),
            inst_pool: Pool::with_capacity(insts),
            edge_pool: Pool::with_capacity(2 * edges),
            arg_pool: Pool::with_capacity(phi_args),
            case_pool: Pool::with_capacity(switch_cases),
            instance: InstanceId::fresh(),
            revision: 0,
            cfg_revision: 0,
        };
        f.entry = f.add_block();
        f.reserve_block(f.entry, num_params as usize, 0, 0);
        let params: Vec<Value> =
            (0..num_params).map(|i| f.append(f.entry, InstKind::Param(i))).collect();
        f.params = params.into();
        f
    }

    /// The content stamp: equal stamps mean equal content (see
    /// [`FunctionStamp`]).
    pub fn stamp(&self) -> FunctionStamp {
        FunctionStamp { instance: self.instance.0, revision: self.revision }
    }

    /// The CFG stamp: equal CFG stamps mean equal blocks, edges and
    /// terminator kinds, so an analysis of the graph alone (RPO,
    /// dominator and postdominator trees) computed at one is valid at
    /// the other. Instruction edits that leave those alone keep it.
    pub fn cfg_stamp(&self) -> FunctionStamp {
        FunctionStamp { instance: self.instance.0, revision: self.cfg_revision }
    }

    /// Records a mutation. Every `&mut self` method calls this first.
    fn bump(&mut self) {
        self.revision += 1;
    }

    /// Records a mutation of the CFG: blocks, edges or a terminator's
    /// kind. Every method that makes one calls this first.
    fn bump_cfg(&mut self) {
        self.revision += 1;
        self.cfg_revision += 1;
    }

    /// Returns the function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the entry block.
    pub fn entry(&self) -> Block {
        self.entry
    }

    /// Returns the value of parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: u32) -> Value {
        self.params[i as usize]
    }

    /// Returns all parameter values in order.
    pub fn params(&self) -> &[Value] {
        &self.params
    }

    /// Number of (live) blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.values().filter(|b| !b.removed).count()
    }

    /// Total block slots ever allocated, including removed blocks.
    /// Suitable for sizing dense side tables.
    pub fn block_capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Total instruction slots ever allocated.
    pub fn inst_capacity(&self) -> usize {
        self.insts.len()
    }

    /// Total value slots ever allocated.
    pub fn value_capacity(&self) -> usize {
        self.values.len()
    }

    /// Total edge slots ever allocated.
    pub fn edge_capacity(&self) -> usize {
        self.edges.len()
    }

    /// Number of live instructions.
    pub fn num_insts(&self) -> usize {
        self.blocks.values().filter(|b| !b.removed).map(|b| b.insts.len()).sum()
    }

    /// Appends a fresh empty block.
    pub fn add_block(&mut self) -> Block {
        self.bump_cfg();
        self.blocks.push(BlockData::default())
    }

    /// Reserves room in `b` for exactly `insts` more instructions, `preds`
    /// more incoming and `succs` more outgoing edges.
    pub fn reserve_block(&mut self, b: Block, insts: usize, preds: usize, succs: usize) {
        self.bump();
        let data = &mut self.blocks[b];
        self.inst_pool.reserve(&mut data.insts, insts);
        self.edge_pool.reserve(&mut data.preds, preds);
        self.edge_pool.reserve(&mut data.succs, succs);
    }

    /// Iterates over live blocks in creation order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        self.blocks.iter().filter(|(_, d)| !d.removed).map(|(b, _)| b)
    }

    /// Iterates over live edges in creation order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().filter(|(_, d)| !d.removed).map(|(e, _)| e)
    }

    /// Returns `true` if `b` has been removed.
    pub fn is_block_removed(&self, b: Block) -> bool {
        self.blocks[b].removed
    }

    /// Returns `true` if `e` has been removed.
    pub fn is_edge_removed(&self, e: Edge) -> bool {
        self.edges[e].removed
    }

    /// Returns the block's instruction list in order.
    pub fn block_insts(&self, b: Block) -> &[Inst] {
        self.inst_pool.get(self.blocks[b].insts)
    }

    /// Returns the block's incoming edges in φ-argument order.
    pub fn preds(&self, b: Block) -> &[Edge] {
        self.edge_pool.get(self.blocks[b].preds)
    }

    /// Returns the block's outgoing edges in branch order.
    pub fn succs(&self, b: Block) -> &[Edge] {
        self.edge_pool.get(self.blocks[b].succs)
    }

    /// Returns the originating block of an edge.
    pub fn edge_from(&self, e: Edge) -> Block {
        self.edges[e].from
    }

    /// Returns the destination block of an edge.
    pub fn edge_to(&self, e: Edge) -> Block {
        self.edges[e].to
    }

    /// Returns the instruction data for `inst`.
    pub fn inst(&self, inst: Inst) -> &InstData {
        &self.insts[inst]
    }

    /// Returns the kind of `inst`.
    pub fn kind(&self, inst: Inst) -> &InstKind {
        &self.insts[inst].kind
    }

    /// Returns the arguments of the φ `inst`, one per incoming edge of
    /// its block, in predecessor order.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a φ.
    pub fn phi_args(&self, inst: Inst) -> &[Value] {
        match self.insts[inst].kind {
            InstKind::Phi(s) => self.arg_pool.get(s),
            other => panic!("phi_args on non-φ {other:?}"),
        }
    }

    /// Returns the case values of the switch `inst`: edge `i` of its
    /// block is taken when the operand equals `cases[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a switch.
    pub fn switch_cases(&self, inst: Inst) -> &[i64] {
        match self.insts[inst].kind {
            InstKind::Switch(_, s) => self.case_pool.get(s),
            other => panic!("switch_cases on non-switch {other:?}"),
        }
    }

    /// Calls `f` on every value operand of `inst`, in operand order.
    pub fn visit_args(&self, inst: Inst, mut f: impl FnMut(Value)) {
        match self.insts[inst].kind {
            InstKind::Const(_) | InstKind::Param(_) | InstKind::Opaque(_) | InstKind::Jump => {}
            InstKind::Unary(_, a)
            | InstKind::Copy(a)
            | InstKind::Branch(a)
            | InstKind::Switch(a, _)
            | InstKind::Return(a) => f(a),
            InstKind::Binary(_, a, b) | InstKind::Cmp(_, a, b) => {
                f(a);
                f(b);
            }
            InstKind::Phi(s) => self.arg_pool.get(s).iter().copied().for_each(f),
        }
    }

    /// Rewrites every value operand of `inst` through `f`, in place and
    /// in operand order.
    pub fn map_args(&mut self, inst: Inst, mut f: impl FnMut(Value) -> Value) {
        self.bump();
        match &mut self.insts[inst].kind {
            InstKind::Const(_) | InstKind::Param(_) | InstKind::Opaque(_) | InstKind::Jump => {}
            InstKind::Unary(_, a)
            | InstKind::Copy(a)
            | InstKind::Branch(a)
            | InstKind::Switch(a, _)
            | InstKind::Return(a) => *a = f(*a),
            InstKind::Binary(_, a, b) | InstKind::Cmp(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            InstKind::Phi(s) => {
                for a in self.arg_pool.get_mut(*s) {
                    *a = f(*a);
                }
            }
        }
    }

    /// Returns the block containing `inst`.
    pub fn inst_block(&self, inst: Inst) -> Block {
        self.insts[inst].block
    }

    /// Returns the result value of `inst`, if it defines one.
    pub fn inst_result(&self, inst: Inst) -> Option<Value> {
        self.insts[inst].result
    }

    /// Returns the defining instruction of `value`.
    pub fn def(&self, value: Value) -> Inst {
        self.values[value].def
    }

    /// Returns the block in which `value` is defined.
    pub fn def_block(&self, value: Value) -> Block {
        self.inst_block(self.def(value))
    }

    /// Returns the constant defined by `value`'s instruction, if it is a
    /// `Const`.
    pub fn value_as_const(&self, value: Value) -> Option<i64> {
        match self.kind(self.def(value)) {
            InstKind::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns the terminator of `b`, if the block is complete.
    pub fn terminator(&self, b: Block) -> Option<Inst> {
        let last = *self.block_insts(b).last()?;
        self.insts[last].kind.is_terminator().then_some(last)
    }

    /// Iterates over all live values (results of instructions in live
    /// blocks).
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.blocks
            .values()
            .filter(|b| !b.removed)
            .flat_map(|b| self.inst_pool.get(b.insts).iter())
            .filter_map(|&i| self.insts[i].result)
    }

    // ---------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------

    /// Creates an instruction of `kind` in `b` (not yet placed in the
    /// block's list), with a result value unless it is a terminator.
    fn new_inst(&mut self, b: Block, kind: InstKind) -> Inst {
        if let InstKind::Phi(s) | InstKind::Switch(_, s) = kind {
            assert_eq!(s, Span::EMPTY, "a new instruction cannot share another's list");
        }
        let inst = self.insts.push(InstData { kind, block: b, result: None });
        if !kind.is_terminator() {
            let value = self.values.push(ValueData { def: inst });
            self.insts[inst].result = Some(value);
        }
        inst
    }

    /// The result of a value-defining instruction.
    fn result_of(&self, inst: Inst) -> Value {
        self.insts[inst].result.expect("non-terminators define a value")
    }

    /// Inserts `inst` at position `at` of `b`'s instruction list.
    fn place(&mut self, b: Block, at: usize, inst: Inst) {
        self.inst_pool.insert(&mut self.blocks[b].insts, at, inst);
    }

    /// The position of the first instruction of `b` satisfying `pred`,
    /// or the list's length.
    fn position_in(&self, b: Block, pred: impl Fn(&InstKind) -> bool) -> usize {
        let insts = self.block_insts(b);
        insts.iter().position(|&i| pred(&self.insts[i].kind)).unwrap_or(insts.len())
    }

    /// Appends a non-terminator instruction to `b` and returns its result
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a terminator (use [`Function::set_jump`],
    /// [`Function::set_branch`] or [`Function::set_return`]) or if the block
    /// is already terminated.
    pub fn append(&mut self, b: Block, kind: InstKind) -> Value {
        self.bump();
        assert!(!kind.is_terminator(), "append requires a non-terminator; got {kind:?}");
        assert!(self.terminator(b).is_none(), "block {b} is already terminated");
        let inst = self.new_inst(b, kind);
        let at = self.blocks[b].insts.len();
        self.place(b, at, inst);
        self.result_of(inst)
    }

    /// Appends an empty φ-function to `b`; arguments are filled in later
    /// with [`Function::set_phi_args`]. Returns the φ's result value.
    ///
    /// # Panics
    ///
    /// Panics if `b` already contains a non-φ instruction (φs must form a
    /// prefix of their block).
    pub fn append_phi(&mut self, b: Block) -> Value {
        self.bump();
        let all_phis = self.block_insts(b).iter().all(|&i| self.insts[i].kind.is_phi());
        assert!(all_phis, "φ appended after non-φ instructions in {b}");
        self.append(b, InstKind::Phi(Span::EMPTY))
    }

    /// Inserts a non-terminator instruction immediately before `b`'s
    /// terminator (at the end when `b` is unterminated) and returns its
    /// result value. Used by transforms that materialize computations in
    /// already-complete predecessor blocks.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a terminator or a φ (φs must join the block's
    /// φ prefix — use [`Function::insert_phi`]).
    pub fn insert_before_terminator(&mut self, b: Block, kind: InstKind) -> Value {
        self.bump();
        assert!(!kind.is_terminator(), "insert requires a non-terminator; got {kind:?}");
        assert!(!kind.is_phi(), "insert_before_terminator cannot place a φ");
        let inst = self.new_inst(b, kind);
        let at = self.position_in(b, InstKind::is_terminator);
        self.place(b, at, inst);
        self.result_of(inst)
    }

    /// Inserts an empty φ-function at the end of `b`'s φ prefix and
    /// returns its result value. Unlike [`Function::append_phi`] this
    /// works on blocks that already contain non-φ instructions (the PRE
    /// pass adds φ-merges to complete blocks); arguments are filled in
    /// later with [`Function::set_phi_args`].
    pub fn insert_phi(&mut self, b: Block) -> Value {
        self.bump();
        let inst = self.new_inst(b, InstKind::Phi(Span::EMPTY));
        let at = self.position_in(b, |k| !k.is_phi());
        self.place(b, at, inst);
        self.result_of(inst)
    }

    /// Sets the arguments of the φ defining `phi_value`, one per incoming
    /// edge of its block, in predecessor order.
    ///
    /// # Panics
    ///
    /// Panics if `phi_value` is not defined by a φ.
    pub fn set_phi_args(&mut self, phi_value: Value, args: &[Value]) {
        self.bump();
        let inst = self.def(phi_value);
        match &mut self.insts[inst].kind {
            InstKind::Phi(s) => self.arg_pool.set(s, args),
            other => panic!("set_phi_args on non-φ {other:?}"),
        }
    }

    /// Replaces the case values of the switch `inst`, keeping its edges.
    /// Unlike [`Function::set_switch`] this checks neither uniqueness nor
    /// the count; [`crate::verify()`] and the lints report what it breaks.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a switch.
    pub fn set_switch_cases(&mut self, inst: Inst, cases: &[i64]) {
        self.bump();
        match &mut self.insts[inst].kind {
            InstKind::Switch(_, s) => self.case_pool.set(s, cases),
            other => panic!("set_switch_cases on non-switch {other:?}"),
        }
    }

    fn add_edge(&mut self, from: Block, to: Block) -> Edge {
        let e = self.edges.push(EdgeData { from, to, removed: false });
        self.edge_pool.push(&mut self.blocks[from].succs, e);
        self.edge_pool.push(&mut self.blocks[to].preds, e);
        e
    }

    fn set_terminator(&mut self, b: Block, kind: InstKind) -> Inst {
        assert!(self.terminator(b).is_none(), "block {b} is already terminated");
        let inst = self.new_inst(b, kind);
        let at = self.blocks[b].insts.len();
        self.place(b, at, inst);
        inst
    }

    /// Terminates `b` with an unconditional jump to `target`, creating the
    /// edge. Returns the new edge.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already terminated.
    pub fn set_jump(&mut self, b: Block, target: Block) -> Edge {
        self.bump_cfg();
        self.set_terminator(b, InstKind::Jump);
        self.add_edge(b, target)
    }

    /// Terminates `b` with a conditional branch on `cond`. The first edge
    /// (to `then_target`) is taken when `cond != 0`. Returns the (true,
    /// false) edges.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already terminated.
    pub fn set_branch(
        &mut self,
        b: Block,
        cond: Value,
        then_target: Block,
        else_target: Block,
    ) -> (Edge, Edge) {
        self.bump_cfg();
        self.set_terminator(b, InstKind::Branch(cond));
        let t = self.add_edge(b, then_target);
        let e = self.add_edge(b, else_target);
        (t, e)
    }

    /// Terminates `b` with a return of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already terminated.
    pub fn set_return(&mut self, b: Block, value: Value) {
        self.bump_cfg();
        self.set_terminator(b, InstKind::Return(value));
    }

    /// Terminates `b` with a switch on `arg`: control transfers to
    /// `targets[i]` when `arg == cases[i]`, to `default` otherwise.
    /// The created edges are `succs(b)`: case edges first, default edge
    /// last.
    ///
    /// # Panics
    ///
    /// Panics if `b` is already terminated, `cases` and `targets` have
    /// different lengths, or `cases` contains duplicates.
    pub fn set_switch(
        &mut self,
        b: Block,
        arg: Value,
        cases: &[i64],
        targets: &[Block],
        default: Block,
    ) {
        self.bump_cfg();
        assert_eq!(cases.len(), targets.len(), "one target per case value");
        let unique = cases.iter().enumerate().all(|(i, c)| !cases[..i].contains(c));
        assert!(unique, "switch case values must be unique");
        let term = self.set_terminator(b, InstKind::Switch(arg, Span::EMPTY));
        self.set_switch_cases(term, cases);
        for &t in targets {
            self.add_edge(b, t);
        }
        self.add_edge(b, default);
    }

    // ---------------------------------------------------------------
    // Mutation (used by the transform crate)
    // ---------------------------------------------------------------

    /// Replaces the kind of an instruction in place.
    ///
    /// When a φ is replaced by a non-φ, the instruction is moved just
    /// after the block's φ prefix so that φs stay contiguous at the top
    /// (the interpreter and verifier rely on this invariant).
    ///
    /// A φ or switch kind must carry the instruction's own list (a kind
    /// read back from it, rewritten) or [`Span::EMPTY`]; the list of a
    /// kind that stops being the instruction's is released.
    ///
    /// # Panics
    ///
    /// Panics if the old and new kinds disagree about being a terminator,
    /// or if `kind` carries another instruction's list.
    pub fn replace_kind(&mut self, inst: Inst, kind: InstKind) {
        let old = self.insts[inst].kind;
        if old.is_terminator() && std::mem::discriminant(&old) != std::mem::discriminant(&kind) {
            self.bump_cfg();
        } else {
            self.bump();
        }
        assert_eq!(
            old.is_terminator(),
            kind.is_terminator(),
            "replace_kind cannot change terminator-ness"
        );
        match (old, kind) {
            (InstKind::Phi(a), InstKind::Phi(b)) if a == b => {}
            (InstKind::Switch(_, a), InstKind::Switch(_, b)) if a == b => {}
            _ => {
                if let InstKind::Phi(s) | InstKind::Switch(_, s) = kind {
                    assert_eq!(
                        s,
                        Span::EMPTY,
                        "replace_kind cannot take another instruction's list"
                    );
                }
                self.release_lists(old);
            }
        }
        self.insts[inst].kind = kind;
        if old.is_phi() && !kind.is_phi() {
            self.restore_phi_prefix(self.insts[inst].block, inst);
        }
    }

    /// Returns the pooled list a kind held to its pool.
    fn release_lists(&mut self, kind: InstKind) {
        match kind {
            InstKind::Phi(s) => self.arg_pool.release(s),
            InstKind::Switch(_, s) => self.case_pool.release(s),
            _ => {}
        }
    }

    /// Moves `inst` (which just stopped being a φ) to the end of `b`'s φ
    /// prefix, preserving the relative order of everything else.
    fn restore_phi_prefix(&mut self, b: Block, inst: Inst) {
        let items = self.inst_pool.get_mut(self.blocks[b].insts);
        let pos = items.iter().position(|&i| i == inst).expect("inst in its block");
        // The φ prefix's length once `inst` is out of the list.
        let mut end = 0;
        for (k, &i) in items.iter().enumerate() {
            if k == pos {
                continue;
            }
            if !self.insts[i].kind.is_phi() {
                break;
            }
            end += 1;
        }
        if end >= pos {
            items[pos..=end].rotate_left(1);
        } else {
            items[end..=pos].rotate_right(1);
        }
    }

    /// Removes edge `e` from the graph, dropping the corresponding φ
    /// argument in the destination block.
    ///
    /// The originating block's terminator is *not* changed; callers that
    /// fold a branch should use [`Function::fold_branch_to`].
    pub fn remove_edge(&mut self, e: Edge) {
        self.bump_cfg();
        if self.edges[e].removed {
            return;
        }
        let EdgeData { from, to, .. } = self.edges[e];
        let preds = &mut self.blocks[to].preds;
        let pred_pos =
            self.edge_pool.get(*preds).iter().position(|&x| x == e).expect("edge in pred list");
        self.edge_pool.remove(preds, pred_pos);
        self.edge_pool.retain(&mut self.blocks[from].succs, |x| x != e);
        // Drop the matching φ argument in every φ of `to`.
        for &i in self.inst_pool.get(self.blocks[to].insts) {
            if let InstKind::Phi(args) = &mut self.insts[i].kind {
                if pred_pos < args.len() {
                    self.arg_pool.remove(args, pred_pos);
                }
            }
        }
        self.edges[e].removed = true;
    }

    /// Replaces the branch terminating `b` by a jump along its `keep`-th
    /// outgoing edge, removing the other edge.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not end in a branch or `keep` is not 0 or 1.
    pub fn fold_branch_to(&mut self, b: Block, keep: usize) {
        self.bump_cfg();
        assert!(keep < 2, "branch edge index must be 0 or 1");
        let term = self.terminator(b).expect("terminated block");
        assert!(
            matches!(self.insts[term].kind, InstKind::Branch(_)),
            "{b} does not end in a branch"
        );
        let drop_edge = self.succs(b)[1 - keep];
        self.remove_edge(drop_edge);
        self.insts[term].kind = InstKind::Jump;
    }

    /// Replaces the switch terminating `b` by a jump along its `keep`-th
    /// outgoing edge, removing all other edges.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not end in a switch or `keep` is out of range.
    pub fn fold_switch_to(&mut self, b: Block, keep: usize) {
        self.bump_cfg();
        let term = self.terminator(b).expect("terminated block");
        let kind = self.insts[term].kind;
        assert!(matches!(kind, InstKind::Switch(..)), "{b} does not end in a switch");
        assert!(keep < self.succs(b).len(), "switch edge index out of range");
        // Remove the other edges in successor order.
        let kept = self.succs(b)[keep];
        while let Some(&e) = self.succs(b).iter().find(|&&e| e != kept) {
            self.remove_edge(e);
        }
        self.release_lists(kind);
        self.insts[term].kind = InstKind::Jump;
    }

    /// Removes block `b`: all its incoming and outgoing edges are removed
    /// (fixing φs of successors) and the block is tombstoned.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the entry block.
    pub fn remove_block(&mut self, b: Block) {
        self.bump_cfg();
        assert!(b != self.entry, "cannot remove the entry block");
        if self.blocks[b].removed {
            return;
        }
        while let Some(&e) = self.preds(b).first() {
            self.remove_edge(e);
        }
        while let Some(&e) = self.succs(b).first() {
            self.remove_edge(e);
        }
        self.blocks[b].removed = true;
    }

    /// Removes a non-terminator instruction from its block (tombstones the
    /// slot). The caller is responsible for ensuring the result is unused.
    pub fn remove_inst(&mut self, inst: Inst) {
        self.bump();
        let b = self.insts[inst].block;
        self.inst_pool.retain(&mut self.blocks[b].insts, |i| i != inst);
    }

    /// Keeps the instructions of `b` whose data satisfies `keep`, in
    /// order, in one pass; the others are removed as by
    /// [`Function::remove_inst`]. `keep` must keep the terminator:
    /// dropping it would edit the CFG without moving
    /// [`Function::cfg_stamp`].
    pub fn retain_insts(&mut self, b: Block, mut keep: impl FnMut(&InstData) -> bool) {
        self.bump();
        let insts = &self.insts;
        self.inst_pool.retain(&mut self.blocks[b].insts, |i| keep(&insts[i]));
    }

    /// Replaces the φ defining `phi_value` by a copy of `src` (used when a
    /// φ becomes redundant after edge removal).
    pub fn replace_phi_with_copy(&mut self, phi_value: Value, src: Value) {
        self.bump();
        let inst = self.def(phi_value);
        assert!(self.insts[inst].kind.is_phi(), "not a φ");
        self.replace_kind(inst, InstKind::Copy(src));
    }

    // ---------------------------------------------------------------
    // Convenience constructors used ubiquitously in tests
    // ---------------------------------------------------------------

    /// Appends `Const(c)` to `b`.
    pub fn iconst(&mut self, b: Block, c: i64) -> Value {
        self.bump();
        self.append(b, InstKind::Const(c))
    }

    /// Appends a binary operation to `b`.
    pub fn binary(&mut self, b: Block, op: BinOp, x: Value, y: Value) -> Value {
        self.bump();
        self.append(b, InstKind::Binary(op, x, y))
    }

    /// Appends a comparison to `b`.
    pub fn cmp(&mut self, b: Block, op: CmpOp, x: Value, y: Value) -> Value {
        self.bump();
        self.append(b, InstKind::Cmp(op, x, y))
    }

    /// Appends a unary operation to `b`.
    pub fn unary(&mut self, b: Block, op: UnOp, x: Value) -> Value {
        self.bump();
        self.append(b, InstKind::Unary(op, x))
    }
}

/// Def-use information: for every value, the instructions that use it.
///
/// Computed once from a finished function; the GVN analysis does not mutate
/// the IR, so the chains stay valid for the whole run.
#[derive(Clone, Debug)]
pub struct DefUse {
    /// `offsets[v]..offsets[v + 1]` is `v`'s span of `users`.
    offsets: Vec<u32>,
    /// Every use, grouped by used value (compressed sparse rows).
    users: Vec<Inst>,
}

impl DefUse {
    /// Computes def-use chains for `func`: two allocations, whatever the
    /// number of values.
    pub fn compute(func: &Function) -> Self {
        let n = func.values.len();
        let mut offsets = vec![0u32; n + 1];
        let each_use = |f: &mut dyn FnMut(Value, Inst)| {
            for b in func.blocks() {
                for &inst in func.block_insts(b) {
                    func.visit_args(inst, |v| f(v, inst));
                }
            }
        };
        each_use(&mut |v, _| offsets[v.index() + 1] += 1);
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // Fill in use order with `offsets[v]` as `v`'s cursor; afterwards
        // it holds `v`'s end, i.e. `v + 1`'s start, so shift back by one.
        let mut users = vec![Inst::new(0); offsets[n] as usize];
        each_use(&mut |v, inst| {
            let at = &mut offsets[v.index()];
            users[*at as usize] = inst;
            *at += 1;
        });
        for i in (1..n).rev() {
            offsets[i] = offsets[i - 1];
        }
        if n > 0 {
            offsets[0] = 0;
        }
        DefUse { offsets, users }
    }

    /// Returns the instructions using `value` (with multiplicity), in
    /// block and instruction order.
    pub fn uses(&self, value: Value) -> &[Inst] {
        let v = value.index();
        &self.users[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// entry -> (then, else) -> join; `x = 10` in then, `y = 20` in else.
    fn diamond() -> (Function, Block, Block, Block, Block, Value, Value) {
        let mut f = Function::new("d", 2);
        let entry = f.entry();
        let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Lt, f.param(0), f.param(1));
        f.set_branch(entry, c, t, e);
        let x = f.iconst(t, 10);
        let y = f.iconst(e, 20);
        f.set_jump(t, j);
        f.set_jump(e, j);
        (f, entry, t, e, j, x, y)
    }

    #[test]
    fn new_function_has_params_in_entry() {
        let f = Function::new("f", 3);
        assert_eq!(f.name(), "f");
        assert_eq!(f.params().len(), 3);
        assert_eq!(f.block_insts(f.entry()).len(), 3);
        assert_eq!(f.kind(f.def(f.param(2))), &InstKind::Param(2));
        assert_eq!(f.def_block(f.param(0)), f.entry());
    }

    #[test]
    fn append_assigns_results_in_order() {
        let mut f = Function::new("f", 0);
        let b = f.entry();
        let a = f.iconst(b, 1);
        let c = f.iconst(b, 2);
        let s = f.binary(b, BinOp::Add, a, c);
        assert_eq!(f.value_as_const(a), Some(1));
        assert_eq!(f.value_as_const(s), None);
        assert_eq!(f.inst_result(f.def(s)), Some(s));
        assert_eq!(f.num_insts(), 3);
    }

    #[test]
    fn branch_creates_ordered_edges() {
        let (f, entry, t, e, j, _x, _y) = diamond();
        let succs = f.succs(entry);
        assert_eq!(succs.len(), 2);
        assert_eq!(f.edge_to(succs[0]), t);
        assert_eq!(f.edge_to(succs[1]), e);
        assert_eq!(f.preds(j).len(), 2);
        assert_eq!(f.edge_from(f.preds(j)[0]), t);
        assert_eq!(f.edge_from(f.preds(j)[1]), e);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminator_panics() {
        let mut f = Function::new("f", 0);
        let b = f.entry();
        let v = f.iconst(b, 0);
        f.set_return(b, v);
        f.set_return(b, v);
    }

    #[test]
    #[should_panic(expected = "non-terminator")]
    fn append_terminator_panics() {
        let mut f = Function::new("f", 0);
        let b = f.entry();
        f.append(b, InstKind::Jump);
    }

    #[test]
    fn phi_args_follow_pred_order() {
        let (mut f, _entry, _t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        assert_eq!(f.phi_args(f.def(p)), &[x, y]);
    }

    #[test]
    #[should_panic(expected = "φ appended after non-φ")]
    fn phi_after_nonphi_panics() {
        let mut f = Function::new("f", 1);
        f.append_phi(f.entry());
    }

    #[test]
    fn remove_edge_fixes_phis() {
        let (mut f, _entry, _t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        let drop = f.preds(j)[0];
        f.remove_edge(drop);
        assert!(f.is_edge_removed(drop));
        assert_eq!(f.preds(j).len(), 1);
        assert_eq!(f.phi_args(f.def(p)), &[y]);
    }

    #[test]
    fn fold_branch_keeps_requested_edge() {
        let (mut f, entry, t, _e, _j, _x, _y) = diamond();
        f.fold_branch_to(entry, 0);
        assert_eq!(f.succs(entry).len(), 1);
        assert_eq!(f.edge_to(f.succs(entry)[0]), t);
        let term = f.terminator(entry).unwrap();
        assert_eq!(f.kind(term), &InstKind::Jump);
    }

    #[test]
    fn remove_block_detaches_all_edges() {
        let (mut f, _entry, t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        f.remove_block(t);
        assert!(f.is_block_removed(t));
        assert_eq!(f.preds(j).len(), 1);
        assert_eq!(f.num_blocks(), 3);
        // φ lost the argument from t.
        assert_eq!(f.phi_args(f.def(p)), &[y]);
    }

    #[test]
    fn def_use_chains() {
        let mut f = Function::new("f", 1);
        let b = f.entry();
        let x = f.param(0);
        let one = f.iconst(b, 1);
        let a = f.binary(b, BinOp::Add, x, one);
        let c = f.binary(b, BinOp::Mul, a, a);
        f.set_return(b, c);
        let du = DefUse::compute(&f);
        assert_eq!(du.uses(x), &[f.def(a)]);
        assert_eq!(du.uses(a), &[f.def(c), f.def(c)]); // multiplicity
        assert_eq!(du.uses(c), &[f.terminator(b).unwrap()]);
        assert!(du.uses(one).contains(&f.def(a)));
    }

    #[test]
    fn values_iterates_live_only() {
        let (mut f, _entry, t, _e, _j, _x, _y) = diamond();
        let before = f.values().count();
        f.remove_block(t);
        // Block t contained one const, so one value disappears.
        assert_eq!(f.values().count(), before - 1);
    }

    #[test]
    fn replace_phi_with_copy() {
        let (mut f, _entry, _t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        f.replace_phi_with_copy(p, x);
        assert_eq!(f.kind(f.def(p)), &InstKind::Copy(x));
    }

    #[test]
    fn clones_and_fresh_functions_get_fresh_stamps() {
        let (f, ..) = diamond();
        let g = f.clone();
        assert_ne!(f.stamp(), g.stamp(), "a clone is a new instance");
        assert_ne!(Function::new("d", 2).stamp(), Function::new("d", 2).stamp());
        let moved = f.stamp();
        let f2 = f;
        assert_eq!(f2.stamp(), moved, "a move keeps the stamp");
        assert_eq!(f2.stamp(), f2.stamp(), "reads never change it");
    }

    #[test]
    fn visit_and_map_args_cover_every_operand() {
        let (mut f, _entry, _t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        let s = f.binary(j, BinOp::Add, p, x);
        let mut seen = Vec::new();
        f.visit_args(f.def(s), |v| seen.push(v));
        assert_eq!(seen, [p, x]);
        f.map_args(f.def(p), |v| if v == x { y } else { v });
        assert_eq!(f.phi_args(f.def(p)), &[y, y]);
        f.map_args(f.def(s), |v| if v == x { y } else { v });
        assert_eq!(f.kind(f.def(s)), &InstKind::Binary(BinOp::Add, p, y));
    }

    #[test]
    fn block_lists_keep_their_order_when_they_outgrow_their_spans() {
        // Two blocks whose lists interleave in the pool, so every growth
        // past a span's capacity relocates it.
        let mut f = Function::new("grow", 1);
        let entry = f.entry();
        let (a, b) = (f.add_block(), f.add_block());
        let c = f.iconst(a, 1);
        f.set_return(a, c);
        f.set_jump(entry, a);
        let d = f.iconst(b, 2);
        f.set_return(b, d);
        let mut phis = Vec::new();
        let mut mids = Vec::new();
        for i in 0..20 {
            phis.push(f.insert_phi(a));
            mids.push(f.insert_before_terminator(a, InstKind::Const(100 + i)));
            f.insert_before_terminator(b, InstKind::Const(i));
        }
        let insts = f.block_insts(a);
        let results: Vec<Value> = insts.iter().filter_map(|&i| f.inst_result(i)).collect();
        let expected: Vec<Value> = phis.iter().chain([&c]).chain(&mids).copied().collect();
        assert_eq!(results, expected, "φs in insertion order, then the rest in order");
        assert!(f.kind(*insts.last().unwrap()).is_terminator());
        let consts: Vec<i64> = f
            .block_insts(b)
            .iter()
            .filter_map(|&i| f.inst_result(i))
            .map(|v| f.value_as_const(v).unwrap())
            .collect();
        let mut want = vec![2];
        want.extend(0..20);
        assert_eq!(consts, want);
        assert!(f.inst_pool.holes() > 0, "the lists did move");
    }

    #[test]
    fn remove_edge_drops_the_matching_pooled_argument() {
        // A three-way merge: removing the middle edge must drop exactly
        // the middle argument of every φ, and leave other φs alone.
        let mut f = Function::new("m", 1);
        let entry = f.entry();
        let x = f.param(0);
        let j = f.add_block();
        let (c1, c2, c3) = (f.iconst(entry, 1), f.iconst(entry, 2), f.iconst(entry, 3));
        f.set_switch(entry, x, &[1, 2], &[j, j], j);
        let p = f.append_phi(j);
        let q = f.append_phi(j);
        f.set_phi_args(p, &[c1, c2, c3]);
        f.set_phi_args(q, &[c3, c2, c1]);
        f.set_return(j, p);
        let middle = f.preds(j)[1];
        f.remove_edge(middle);
        assert_eq!(f.phi_args(f.def(p)), &[c1, c3]);
        assert_eq!(f.phi_args(f.def(q)), &[c3, c1]);
        assert_eq!(f.preds(j).len(), 2);
        assert!(!f.succs(entry).contains(&middle));
    }

    #[test]
    fn mutating_a_clone_never_changes_the_original() {
        let (mut f, entry, t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        f.set_return(j, p);
        // Give the original holes, so the clone is compacted.
        f.insert_before_terminator(t, InstKind::Const(5));
        let text = f.to_string();
        let mut g = f.clone();
        assert_eq!(g.to_string(), text);
        g.set_phi_args(p, &[y, x]);
        g.insert_phi(j);
        g.insert_before_terminator(entry, InstKind::Const(7));
        g.fold_branch_to(entry, 1);
        g.remove_block(t);
        g.replace_kind(f.def(x), InstKind::Const(9));
        assert_ne!(g.to_string(), text);
        assert_eq!(f.to_string(), text, "the original is untouched");
        assert_eq!(f.phi_args(f.def(p)), &[x, y]);
    }

    #[test]
    #[should_panic(expected = "another instruction's list")]
    fn a_kind_cannot_take_another_instructions_list() {
        let (mut f, _entry, _t, _e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        let stolen = *f.kind(f.def(p));
        f.replace_kind(f.def(x), stolen);
    }

    /// The diamond plus a φ `p` in the join, a block `w` ending in a
    /// switch on `x`, and an unterminated block `s`.
    struct Fixture {
        entry: Block,
        t: Block,
        e: Block,
        j: Block,
        w: Block,
        s: Block,
        x: Value,
        y: Value,
        p: Value,
    }

    fn fixture() -> (Function, Fixture) {
        let (mut f, entry, t, e, j, x, y) = diamond();
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        let (w, s) = (f.add_block(), f.add_block());
        f.set_switch(w, x, &[1], &[t], e);
        (f, Fixture { entry, t, e, j, w, s, x, y, p })
    }

    type Mutation = fn(&mut Function, &Fixture);

    /// Every public `&mut self` method, each with whether it edits the
    /// CFG (blocks, edges or a terminator's kind).
    fn mutations() -> [(&'static str, bool, Mutation); 27] {
        [
            ("add_block", true, |f, _| {
                f.add_block();
            }),
            ("reserve_block", false, |f, k| f.reserve_block(k.t, 0, 0, 0)),
            ("append", false, |f, k| {
                f.append(k.s, InstKind::Const(1));
            }),
            ("append_phi", false, |f, k| {
                f.append_phi(k.s);
            }),
            ("insert_before_terminator", false, |f, k| {
                f.insert_before_terminator(k.t, InstKind::Const(1));
            }),
            ("insert_phi", false, |f, k| {
                f.insert_phi(k.t);
            }),
            ("set_phi_args", false, |f, k| f.set_phi_args(k.p, &[k.x, k.y])),
            ("set_switch_cases", false, |f, k| {
                f.set_switch_cases(f.terminator(k.w).unwrap(), &[2]);
            }),
            ("map_args", false, |f, k| f.map_args(f.def(k.p), |v| v)),
            ("retain_insts", false, |f, k| f.retain_insts(k.t, |_| true)),
            ("set_jump", true, |f, k| {
                f.set_jump(k.s, k.j);
            }),
            ("set_branch", true, |f, k| {
                f.set_branch(k.s, k.x, k.t, k.e);
            }),
            ("set_return", true, |f, k| f.set_return(k.s, k.x)),
            ("set_switch", true, |f, k| f.set_switch(k.s, k.x, &[1], &[k.t], k.e)),
            ("replace_kind", false, |f, k| f.replace_kind(f.def(k.x), InstKind::Const(10))),
            ("replace_kind of a branch's operand", false, |f, k| {
                f.replace_kind(f.terminator(k.entry).unwrap(), InstKind::Branch(k.y));
            }),
            ("replace_kind of a terminator's variant", true, |f, k| {
                f.replace_kind(f.terminator(k.t).unwrap(), InstKind::Return(k.x));
            }),
            ("remove_edge", true, |f, k| f.remove_edge(f.succs(k.t)[0])),
            ("fold_branch_to", true, |f, k| f.fold_branch_to(k.entry, 0)),
            ("fold_switch_to", true, |f, k| f.fold_switch_to(k.w, 1)),
            ("remove_block", true, |f, k| f.remove_block(k.t)),
            ("remove_inst", false, |f, k| f.remove_inst(f.def(k.y))),
            ("replace_phi_with_copy", false, |f, k| f.replace_phi_with_copy(k.p, k.x)),
            ("iconst", false, |f, k| {
                f.iconst(k.s, 3);
            }),
            ("binary", false, |f, k| {
                f.binary(k.s, BinOp::Add, k.x, k.y);
            }),
            ("cmp", false, |f, k| {
                f.cmp(k.s, CmpOp::Eq, k.x, k.y);
            }),
            ("unary", false, |f, k| {
                f.unary(k.s, UnOp::Neg, k.x);
            }),
        ]
    }

    /// Every public `&mut self` method is a mutation: it must move the
    /// stamp, even when it leaves the content as it was.
    #[test]
    fn every_mutator_changes_the_stamp() {
        for (name, _, mutate) in mutations() {
            let (mut f, k) = fixture();
            let before = f.stamp();
            mutate(&mut f, &k);
            assert_ne!(f.stamp(), before, "{name} must change the stamp");
        }
    }

    /// The CFG stamp moves exactly with the methods that edit blocks,
    /// edges or a terminator's kind, and a clone gets a fresh one.
    #[test]
    fn only_cfg_mutators_change_the_cfg_stamp() {
        for (name, edits_cfg, mutate) in mutations() {
            let (mut f, k) = fixture();
            let before = f.cfg_stamp();
            mutate(&mut f, &k);
            assert_eq!(f.cfg_stamp() != before, edits_cfg, "{name}: edits the CFG = {edits_cfg}");
        }
        let (f, _) = fixture();
        assert_ne!(f.clone().cfg_stamp(), f.cfg_stamp(), "a clone is a new instance");
    }
}
