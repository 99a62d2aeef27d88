//! Differential validation of the §2.9 emulation claim: with symbolic
//! evaluation restricted to constants, "our algorithm will emulate Wegman
//! and Zadeck's sparse conditional constant propagation algorithm".
//!
//! This file contains an *independent*, textbook implementation of SCCP —
//! the classic three-level lattice (⊤ / constant / ⊥) with SSA and CFG
//! worklists — sharing no code with the GVN driver beyond the IR.
//!
//! The paper's emulation is built on top of Click's configuration, which
//! keeps algebraic simplification — so it can fold `x − x → 0` where a
//! textbook SCCP sees ⊥ − ⊥ = ⊥. The differential property is therefore
//! *dominance*: the emulation finds every constant the reference finds
//! (with the same value), never resurrects reference-unreachable code,
//! and any extra strength flows only in the stronger direction.

use pgvn_core::{run, GvnConfig};
use pgvn_ir::{Edge, EntityRef, Function, InstKind, Value};
use pgvn_workload::{generate_function, GenConfig};
use std::collections::VecDeque;

/// The SCCP lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lattice {
    Top,
    Const(i64),
    Bottom,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a),
            _ => Lattice::Bottom,
        }
    }
}

/// Classic Wegman–Zadeck SCCP over the pgvn IR.
struct Sccp<'f> {
    func: &'f Function,
    value: Vec<Lattice>,
    edge_executable: Vec<bool>,
    block_executable: Vec<bool>,
    flow_work: VecDeque<Edge>,
    ssa_work: VecDeque<pgvn_ir::Inst>,
    uses: pgvn_ir::DefUse,
}

impl<'f> Sccp<'f> {
    fn new(func: &'f Function) -> Self {
        Sccp {
            func,
            value: vec![Lattice::Top; func.value_capacity()],
            edge_executable: vec![false; func.edge_capacity()],
            block_executable: vec![false; func.block_capacity()],
            flow_work: VecDeque::new(),
            ssa_work: VecDeque::new(),
            uses: pgvn_ir::DefUse::compute(func),
        }
    }

    fn lat(&self, v: Value) -> Lattice {
        self.value[v.index()]
    }

    fn set(&mut self, v: Value, l: Lattice) {
        let cur = self.lat(v);
        let new = cur.meet(l);
        if new != cur {
            self.value[v.index()] = new;
            for &u in self.uses.uses(v) {
                self.ssa_work.push_back(u);
            }
        }
    }

    fn mark_edge(&mut self, e: Edge) {
        if !self.edge_executable[e.index()] {
            self.edge_executable[e.index()] = true;
            self.flow_work.push_back(e);
        }
    }

    fn visit_inst(&mut self, inst: pgvn_ir::Inst) {
        let b = self.func.inst_block(inst);
        if !self.block_executable[b.index()] {
            return;
        }
        let get = |s: &Self, v: Value| s.lat(v);
        match *self.func.kind(inst) {
            InstKind::Const(c) => self.set(self.func.inst_result(inst).unwrap(), Lattice::Const(c)),
            InstKind::Param(_) | InstKind::Opaque(_) => {
                self.set(self.func.inst_result(inst).unwrap(), Lattice::Bottom)
            }
            InstKind::Copy(a) => self.set(self.func.inst_result(inst).unwrap(), get(self, a)),
            InstKind::Unary(op, a) => {
                let l = match get(self, a) {
                    Lattice::Top => Lattice::Top,
                    Lattice::Const(x) => Lattice::Const(op.eval(x)),
                    Lattice::Bottom => Lattice::Bottom,
                };
                self.set(self.func.inst_result(inst).unwrap(), l);
            }
            InstKind::Binary(op, a, b2) => {
                let l = match (get(self, a), get(self, b2)) {
                    (Lattice::Const(x), Lattice::Const(y)) => Lattice::Const(op.eval(x, y)),
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                self.set(self.func.inst_result(inst).unwrap(), l);
            }
            InstKind::Cmp(op, a, b2) => {
                let l = match (get(self, a), get(self, b2)) {
                    (Lattice::Const(x), Lattice::Const(y)) => Lattice::Const(op.eval(x, y)),
                    (Lattice::Top, _) | (_, Lattice::Top) => Lattice::Top,
                    _ => Lattice::Bottom,
                };
                self.set(self.func.inst_result(inst).unwrap(), l);
            }
            InstKind::Phi(_) => {
                let args = self.func.phi_args(inst);
                let mut acc = Lattice::Top;
                for (i, &e) in self.func.preds(b).iter().enumerate() {
                    if self.edge_executable[e.index()] {
                        acc = acc.meet(self.lat(args[i]));
                    }
                }
                self.set(self.func.inst_result(inst).unwrap(), acc);
            }
            InstKind::Jump => self.mark_edge(self.func.succs(b)[0]),
            InstKind::Branch(c) => match get(self, c) {
                Lattice::Top => {}
                Lattice::Const(k) => {
                    self.mark_edge(self.func.succs(b)[usize::from(k == 0)]);
                }
                Lattice::Bottom => {
                    self.mark_edge(self.func.succs(b)[0]);
                    self.mark_edge(self.func.succs(b)[1]);
                }
            },
            InstKind::Switch(a, _) => match get(self, a) {
                Lattice::Top => {}
                Lattice::Const(k) => {
                    let cases = self.func.switch_cases(inst);
                    let idx = cases.iter().position(|&c| c == k).unwrap_or(cases.len());
                    self.mark_edge(self.func.succs(b)[idx]);
                }
                Lattice::Bottom => {
                    for &e in self.func.succs(b) {
                        self.mark_edge(e);
                    }
                }
            },
            InstKind::Return(_) => {}
        }
    }

    fn solve(mut self) -> (Vec<bool>, Vec<bool>, Vec<Lattice>) {
        // Entry block is executable; visit its instructions.
        let entry = self.func.entry();
        self.block_executable[entry.index()] = true;
        for &i in self.func.block_insts(entry) {
            self.ssa_work.push_back(i);
        }
        loop {
            if let Some(e) = self.flow_work.pop_front() {
                let d = self.func.edge_to(e);
                if !self.block_executable[d.index()] {
                    self.block_executable[d.index()] = true;
                    for &i in self.func.block_insts(d) {
                        self.ssa_work.push_back(i);
                    }
                } else {
                    // Re-evaluate the φs: a new incoming edge arrived.
                    for &i in self.func.block_insts(d) {
                        if self.func.kind(i).is_phi() {
                            self.ssa_work.push_back(i);
                        }
                    }
                }
                continue;
            }
            if let Some(i) = self.ssa_work.pop_front() {
                self.visit_inst(i);
                continue;
            }
            break;
        }
        (self.block_executable, self.edge_executable, self.value)
    }
}

fn check(f: &Function, seed: u64) {
    let (ref_blocks, ref_edges, ref_values) = Sccp::new(f).solve();
    let gvn = run(f, &GvnConfig::sccp());
    assert!(gvn.stats.converged);
    // Reachability: the emulation proves at least as much unreachable.
    for b in f.blocks() {
        if gvn.is_block_reachable(b) {
            assert!(
                ref_blocks[b.index()],
                "seed {seed}: emulation reaches {b}, reference does not\n{f}"
            );
        }
    }
    for e in f.edges() {
        if gvn.is_edge_reachable(e) {
            assert!(
                ref_edges[e.index()],
                "seed {seed}: emulation reaches {e}, reference does not\n{f}"
            );
        }
    }
    for v in f.values() {
        let reference = match ref_values[v.index()] {
            Lattice::Const(c) => Some(c),
            _ => None,
        };
        let emulated = gvn.constant_value(v);
        match (reference, emulated) {
            // Every reference constant must be found, with the same value
            // (unless the emulation proved the whole value unreachable).
            (Some(c), Some(d)) => assert_eq!(c, d, "seed {seed}: {v} constant value differs\n{f}"),
            (Some(_), None) => assert!(
                gvn.is_value_unreachable(v),
                "seed {seed}: emulation missed reference constant for {v}\n{f}"
            ),
            // Extra emulation constants are allowed only on top of the
            // algebraic simplifications Click's base keeps; they must at
            // least concern values the reference saw as ⊥/⊤, which is
            // what this arm encodes.
            (None, _) => {}
        }
    }
}

#[test]
fn sccp_emulation_matches_reference_on_fixtures() {
    for src in [
        pgvn_lang::fixtures::FIGURE1,
        pgvn_lang::fixtures::FIGURE6,
        pgvn_lang::fixtures::FIGURE13,
        pgvn_lang::fixtures::FIGURE14A,
        pgvn_lang::fixtures::FIGURE14B,
        pgvn_lang::fixtures::SIMPLE_INFERENCE,
    ] {
        let f = pgvn_lang::compile(src, pgvn_ssa::SsaStyle::Minimal).unwrap();
        check(&f, u64::MAX);
    }
}

#[test]
fn sccp_emulation_matches_reference_on_generated_routines() {
    for seed in 0..150 {
        let cfg = GenConfig { seed, target_stmts: 30, ..Default::default() };
        let f = generate_function(&format!("sccp{seed}"), &cfg, pgvn_ssa::SsaStyle::Minimal);
        check(&f, seed);
    }
}

#[test]
fn sccp_emulation_matches_reference_on_switch_heavy_code() {
    let src = "routine f(x) {
        k = 3;
        switch (k) {
            case 1: { r = x; }
            case 3: { r = 7; }
            default: { r = x * 2; }
        }
        switch (x) {
            case 5: { s = r + 1; }
            default: { s = r; }
        }
        return s;
    }";
    let f = pgvn_lang::compile(src, pgvn_ssa::SsaStyle::Minimal).unwrap();
    check(&f, u64::MAX - 1);
}
