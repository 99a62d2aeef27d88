//! A reference interpreter for the IR.
//!
//! The interpreter gives the IR an executable semantics, which the test
//! suite uses in two ways:
//!
//! 1. **Soundness of the analysis** — a value the GVN proves constant must
//!    evaluate to that constant on every run; a block the GVN proves
//!    unreachable must never execute; two congruent values defined in the
//!    same block must agree within each dynamic execution of the block.
//! 2. **Semantic preservation of transforms** — the optimized routine must
//!    return the same value as the original for the same inputs.
//!
//! Execution is fuel-limited so non-terminating loops are detected rather
//! than hanging tests.

use crate::entities::{Block, Edge, EntityRef, Value};
use crate::function::Function;
use crate::instr::InstKind;
use std::error::Error;
use std::fmt;

/// Why execution stopped without returning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The fuel budget was exhausted (probable infinite loop).
    OutOfFuel,
    /// A value was read before any definition executed (malformed SSA).
    UndefinedValue(Value),
    /// A division or remainder by zero executed while the interpreter was
    /// configured to trap on them ([`Interpreter::trap_division`]). The
    /// IR's *defined* semantics are total (`x / 0 == 0`, see
    /// [`crate::instr::BinOp::eval`]); this trap exists for clients that
    /// model source languages where division by zero is undefined.
    DivisionByZero,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel => write!(f, "execution ran out of fuel"),
            InterpError::UndefinedValue(v) => write!(f, "value {v} read before definition"),
            InterpError::DivisionByZero => write!(f, "division by zero (trapping mode)"),
        }
    }
}

impl Error for InterpError {}

/// A deterministic source of values for [`InstKind::Opaque`] instructions.
///
/// Opaque tokens model calls/loads the analysis cannot see through; an
/// execution treats each token as a fixed unknown input, so the same token
/// always yields the same value within one run (matching the analysis'
/// assumption that identical tokens are congruent).
pub trait OpaqueSource {
    /// Returns the value of opaque token `token`.
    fn value(&mut self, token: u32) -> i64;
}

impl<F: FnMut(u32) -> i64> OpaqueSource for F {
    fn value(&mut self, token: u32) -> i64 {
        self(token)
    }
}

/// An [`OpaqueSource`] that derives each token's value by hashing the token
/// with a seed. Cheap, deterministic, and well-spread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashedOpaques {
    /// Seed mixed into every token.
    pub seed: u64,
}

impl HashedOpaques {
    /// Creates a source with the given seed.
    pub fn new(seed: u64) -> Self {
        HashedOpaques { seed }
    }
}

impl OpaqueSource for HashedOpaques {
    fn value(&mut self, token: u32) -> i64 {
        // splitmix64 over (seed, token).
        let mut z = self.seed ^ (u64::from(token).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as i64
    }
}

/// The observable result of a traced execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// How many times each block executed, indexed by block.
    pub block_visits: Vec<u64>,
    /// How many times each edge was traversed, indexed by edge.
    pub edge_visits: Vec<u64>,
    /// For each value, the last concrete value assigned (if any).
    pub last_value: Vec<Option<i64>>,
    /// Per dynamic block execution: `(block, values defined in that
    /// execution)`. Only recorded when tracing block instances is enabled.
    pub block_instances: Vec<(Block, Vec<(Value, i64)>)>,
}

/// Interpreter over a function.
#[derive(Debug)]
pub struct Interpreter<'a> {
    func: &'a Function,
    fuel: u64,
    record_instances: bool,
    trap_division: bool,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with the given fuel budget (counted in
    /// executed instructions).
    pub fn new(func: &'a Function) -> Self {
        Interpreter { func, fuel: 1_000_000, record_instances: false, trap_division: false }
    }

    /// Makes division/remainder by zero trap with
    /// [`InterpError::DivisionByZero`] instead of evaluating to `0`.
    ///
    /// Off by default: the IR's semantics are total, and the oracle's
    /// translation validator depends on the interpreter agreeing exactly
    /// with the constant folder's [`crate::instr::BinOp::eval`].
    pub fn trap_division(mut self, on: bool) -> Self {
        self.trap_division = on;
        self
    }

    /// Sets the fuel budget, in executed instructions.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Enables recording of per-block-execution value instances (used by
    /// the congruence soundness property test).
    pub fn record_instances(mut self, on: bool) -> Self {
        self.record_instances = on;
        self
    }

    /// Runs the function on `args`, returning its result.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::OutOfFuel`] if the budget is exhausted and
    /// [`InterpError::UndefinedValue`] on malformed SSA input.
    pub fn run(&self, args: &[i64], opaques: &mut dyn OpaqueSource) -> Result<i64, InterpError> {
        self.run_traced(args, opaques).map(|(ret, _)| ret)
    }

    /// Runs the function on `args`, returning its result and an execution
    /// trace.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::run`].
    pub fn run_traced(
        &self,
        args: &[i64],
        opaques: &mut dyn OpaqueSource,
    ) -> Result<(i64, Trace), InterpError> {
        let func = self.func;
        let mut env: Vec<Option<i64>> = vec![None; func.value_capacity()];
        let mut trace = Trace {
            block_visits: vec![0; func.block_capacity()],
            edge_visits: vec![0; func.edge_capacity()],
            last_value: vec![None; func.value_capacity()],
            block_instances: Vec::new(),
        };
        let mut fuel = self.fuel;
        let mut block = func.entry();
        // The edge along which we arrived, for φ resolution.
        let mut arrived: Option<Edge> = None;

        loop {
            trace.block_visits[block.index()] += 1;
            let mut instance: Vec<(Value, i64)> = Vec::new();

            // Evaluate φs simultaneously from the arrival edge.
            let pred_pos = arrived.map(|e| {
                func.preds(block)
                    .iter()
                    .position(|&x| x == e)
                    .expect("arrival edge is a predecessor")
            });
            let mut phi_updates: Vec<(Value, i64)> = Vec::new();
            for &inst in func.block_insts(block) {
                if !func.kind(inst).is_phi() {
                    break;
                }
                let pos = pred_pos.expect("φ in entry block");
                let arg = func.phi_args(inst)[pos];
                let v = env[arg.index()].ok_or(InterpError::UndefinedValue(arg))?;
                phi_updates.push((func.inst_result(inst).expect("φ has a result"), v));
            }
            for &(r, v) in &phi_updates {
                env[r.index()] = Some(v);
                trace.last_value[r.index()] = Some(v);
                if self.record_instances {
                    instance.push((r, v));
                }
            }

            let mut next: Option<(Block, Edge)> = None;
            let mut returned: Option<i64> = None;
            for &inst in func.block_insts(block) {
                if func.kind(inst).is_phi() {
                    continue; // handled above
                }
                if fuel == 0 {
                    return Err(InterpError::OutOfFuel);
                }
                fuel -= 1;
                let get = |v: Value, env: &[Option<i64>]| {
                    env[v.index()].ok_or(InterpError::UndefinedValue(v))
                };
                match func.kind(inst) {
                    InstKind::Phi(_) => unreachable!(),
                    InstKind::Const(c) => {
                        self.define(inst, *c, &mut env, &mut trace, &mut instance)
                    }
                    InstKind::Param(i) => {
                        let v = args.get(*i as usize).copied().unwrap_or(0);
                        self.define(inst, v, &mut env, &mut trace, &mut instance);
                    }
                    InstKind::Opaque(t) => {
                        let v = opaques.value(*t);
                        self.define(inst, v, &mut env, &mut trace, &mut instance);
                    }
                    InstKind::Copy(a) => {
                        let v = get(*a, &env)?;
                        self.define(inst, v, &mut env, &mut trace, &mut instance);
                    }
                    InstKind::Unary(op, a) => {
                        let v = op.eval(get(*a, &env)?);
                        self.define(inst, v, &mut env, &mut trace, &mut instance);
                    }
                    InstKind::Binary(op, a, b) => {
                        let (x, y) = (get(*a, &env)?, get(*b, &env)?);
                        if self.trap_division
                            && y == 0
                            && matches!(op, crate::instr::BinOp::Div | crate::instr::BinOp::Rem)
                        {
                            return Err(InterpError::DivisionByZero);
                        }
                        let v = op.eval(x, y);
                        self.define(inst, v, &mut env, &mut trace, &mut instance);
                    }
                    InstKind::Cmp(op, a, b) => {
                        let v = op.eval(get(*a, &env)?, get(*b, &env)?);
                        self.define(inst, v, &mut env, &mut trace, &mut instance);
                    }
                    InstKind::Jump => {
                        let e = func.succs(block)[0];
                        next = Some((func.edge_to(e), e));
                    }
                    InstKind::Branch(c) => {
                        let cond = get(*c, &env)?;
                        let e = func.succs(block)[if cond != 0 { 0 } else { 1 }];
                        next = Some((func.edge_to(e), e));
                    }
                    InstKind::Switch(a, _) => {
                        let x = get(*a, &env)?;
                        let cases = func.switch_cases(inst);
                        let idx = cases.iter().position(|&c| c == x).unwrap_or(cases.len());
                        let e = func.succs(block)[idx];
                        next = Some((func.edge_to(e), e));
                    }
                    InstKind::Return(v) => {
                        returned = Some(get(*v, &env)?);
                    }
                }
            }

            if self.record_instances {
                trace.block_instances.push((block, instance));
            }
            if let Some(ret) = returned {
                return Ok((ret, trace));
            }
            let (next_block, edge) = next.expect("verified blocks end in a terminator");
            trace.edge_visits[edge.index()] += 1;
            block = next_block;
            arrived = Some(edge);
        }
    }

    fn define(
        &self,
        inst: crate::entities::Inst,
        v: i64,
        env: &mut [Option<i64>],
        trace: &mut Trace,
        instance: &mut Vec<(Value, i64)>,
    ) {
        let r = self.func.inst_result(inst).expect("non-terminator defines a result");
        env[r.index()] = Some(v);
        trace.last_value[r.index()] = Some(v);
        if self.record_instances {
            instance.push((r, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, CmpOp};

    #[test]
    fn straight_line_arithmetic() {
        let mut f = Function::new("f", 2);
        let b = f.entry();
        let s = f.binary(b, BinOp::Add, f.param(0), f.param(1));
        let two = f.iconst(b, 2);
        let m = f.binary(b, BinOp::Mul, s, two);
        f.set_return(b, m);
        let r = Interpreter::new(&f).run(&[3, 4], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r, 14);
    }

    #[test]
    fn branch_selects_edge() {
        let mut f = Function::new("max", 2);
        let entry = f.entry();
        let (t, e) = (f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Gt, f.param(0), f.param(1));
        f.set_branch(entry, c, t, e);
        f.set_return(t, f.param(0));
        f.set_return(e, f.param(1));
        let interp = Interpreter::new(&f);
        let mut o = HashedOpaques::new(0);
        assert_eq!(interp.run(&[9, 2], &mut o).unwrap(), 9);
        assert_eq!(interp.run(&[2, 9], &mut o).unwrap(), 9);
        assert_eq!(interp.run(&[5, 5], &mut o).unwrap(), 5);
    }

    #[test]
    fn loop_with_phi_counts() {
        // i = 0; while (i < n) i = i + 1; return i
        let mut f = Function::new("count", 1);
        let entry = f.entry();
        let (head, body, exit) = (f.add_block(), f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        f.set_jump(entry, head);
        let i = f.append_phi(head);
        let c = f.cmp(head, CmpOp::Lt, i, f.param(0));
        f.set_branch(head, c, body, exit);
        let one = f.iconst(body, 1);
        let i2 = f.binary(body, BinOp::Add, i, one);
        f.set_jump(body, head);
        f.set_phi_args(i, &[zero, i2]);
        f.set_return(exit, i);
        let interp = Interpreter::new(&f);
        let mut o = HashedOpaques::new(0);
        assert_eq!(interp.run(&[0], &mut o).unwrap(), 0);
        assert_eq!(interp.run(&[7], &mut o).unwrap(), 7);
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let mut f = Function::new("spin", 0);
        let entry = f.entry();
        let l = f.add_block();
        f.set_jump(entry, l);
        f.set_jump(l, l);
        let r = Interpreter::new(&f).fuel(100).run(&[], &mut HashedOpaques::new(0));
        assert_eq!(r, Err(InterpError::OutOfFuel));
    }

    #[test]
    fn trace_records_visits() {
        let mut f = Function::new("t", 1);
        let entry = f.entry();
        let (a, b) = (f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        let c = f.cmp(entry, CmpOp::Gt, f.param(0), zero);
        f.set_branch(entry, c, a, b);
        let one = f.iconst(a, 1);
        f.set_return(a, one);
        let two = f.iconst(b, 2);
        f.set_return(b, two);
        let (r, trace) = Interpreter::new(&f).run_traced(&[5], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r, 1);
        assert_eq!(trace.block_visits[a.index()], 1);
        assert_eq!(trace.block_visits[b.index()], 0);
        assert_eq!(trace.last_value[one.index()], Some(1));
        assert_eq!(trace.last_value[two.index()], None);
        let true_edge = f.succs(entry)[0];
        assert_eq!(trace.edge_visits[true_edge.index()], 1);
    }

    #[test]
    fn opaque_values_are_stable_per_token() {
        let mut f = Function::new("o", 0);
        let b = f.entry();
        let x = f.append(b, InstKind::Opaque(7));
        let y = f.append(b, InstKind::Opaque(7));
        let d = f.binary(b, BinOp::Sub, x, y);
        f.set_return(b, d);
        let r = Interpreter::new(&f).run(&[], &mut HashedOpaques::new(99)).unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn block_instances_recorded_when_enabled() {
        let mut f = Function::new("f", 1);
        let b = f.entry();
        let one = f.iconst(b, 1);
        let s = f.binary(b, BinOp::Add, f.param(0), one);
        f.set_return(b, s);
        let (_, trace) = Interpreter::new(&f)
            .record_instances(true)
            .run_traced(&[41], &mut HashedOpaques::new(0))
            .unwrap();
        assert_eq!(trace.block_instances.len(), 1);
        let (blk, vals) = &trace.block_instances[0];
        assert_eq!(*blk, f.entry());
        assert!(vals.contains(&(s, 42)));
    }

    #[test]
    fn division_by_zero_is_total_by_default() {
        // The validator relies on execution agreeing exactly with the
        // constant folder: x / 0 == 0 and x % 0 == 0, no trap.
        for op in [BinOp::Div, BinOp::Rem] {
            let mut f = Function::new("d", 1);
            let b = f.entry();
            let zero = f.iconst(b, 0);
            let d = f.binary(b, op, f.param(0), zero);
            f.set_return(b, d);
            let r = Interpreter::new(&f).run(&[42], &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(r, op.eval(42, 0));
            assert_eq!(r, 0);
        }
    }

    #[test]
    fn division_by_zero_traps_when_enabled() {
        for op in [BinOp::Div, BinOp::Rem] {
            let mut f = Function::new("d", 2);
            let b = f.entry();
            let d = f.binary(b, op, f.param(0), f.param(1));
            f.set_return(b, d);
            let interp = Interpreter::new(&f).trap_division(true);
            let r = interp.run(&[42, 0], &mut HashedOpaques::new(0));
            assert_eq!(r, Err(InterpError::DivisionByZero), "{op}");
            // Non-zero divisors still evaluate normally.
            assert_eq!(interp.run(&[42, 5], &mut HashedOpaques::new(0)).unwrap(), op.eval(42, 5));
        }
    }

    #[test]
    fn signed_overflow_wraps_like_the_folder() {
        // i64::MAX + 1, i64::MIN - 1, i64::MIN * -1, i64::MIN / -1,
        // -i64::MIN: all wrap, matching BinOp::eval/UnOp::eval exactly.
        let cases: &[(BinOp, i64, i64)] = &[
            (BinOp::Add, i64::MAX, 1),
            (BinOp::Sub, i64::MIN, 1),
            (BinOp::Mul, i64::MIN, -1),
            (BinOp::Div, i64::MIN, -1),
            (BinOp::Shl, 1, 63),
        ];
        for &(op, x, y) in cases {
            let mut f = Function::new("w", 2);
            let b = f.entry();
            let d = f.binary(b, op, f.param(0), f.param(1));
            f.set_return(b, d);
            let r = Interpreter::new(&f).run(&[x, y], &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(r, op.eval(x, y), "{op} {x} {y}");
        }
        let mut f = Function::new("n", 1);
        let b = f.entry();
        let d = f.unary(b, crate::instr::UnOp::Neg, f.param(0));
        f.set_return(b, d);
        let r = Interpreter::new(&f).run(&[i64::MIN], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r, i64::MIN, "-i64::MIN wraps to itself");
    }

    #[test]
    fn fuel_exhaustion_is_divergence_not_a_value() {
        // A loop that would eventually return must report OutOfFuel — an
        // Err, never some partial Ok value — when the budget is smaller
        // than the trip count needs.
        let mut f = Function::new("count", 1);
        let entry = f.entry();
        let (head, body, exit) = (f.add_block(), f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        f.set_jump(entry, head);
        let i = f.append_phi(head);
        let c = f.cmp(head, CmpOp::Lt, i, f.param(0));
        f.set_branch(head, c, body, exit);
        let one = f.iconst(body, 1);
        let i2 = f.binary(body, BinOp::Add, i, one);
        f.set_jump(body, head);
        f.set_phi_args(i, &[zero, i2]);
        f.set_return(exit, i);
        // Plenty of fuel: returns the trip count.
        assert_eq!(
            Interpreter::new(&f).fuel(10_000).run(&[100], &mut HashedOpaques::new(0)),
            Ok(100)
        );
        // Starved: divergence, not a truncated count.
        assert_eq!(
            Interpreter::new(&f).fuel(50).run(&[100], &mut HashedOpaques::new(0)),
            Err(InterpError::OutOfFuel)
        );
        // Fuel 0 diverges even though the entry block alone would return.
        assert_eq!(
            Interpreter::new(&f).fuel(0).run(&[0], &mut HashedOpaques::new(0)),
            Err(InterpError::OutOfFuel)
        );
    }

    #[test]
    fn missing_args_default_to_zero() {
        let mut f = Function::new("f", 2);
        let b = f.entry();
        let s = f.binary(b, BinOp::Add, f.param(0), f.param(1));
        f.set_return(b, s);
        assert_eq!(Interpreter::new(&f).run(&[5], &mut HashedOpaques::new(0)).unwrap(), 5);
    }
}
