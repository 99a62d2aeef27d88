//! Textual display of functions.
//!
//! The format is line-oriented and stable, intended for tests and examples:
//!
//! ```text
//! routine f(v0, v1) {
//! bb0:
//!   v2 = const 1
//!   v3 = add v0, v2
//!   branch v3, bb1, bb2    ; e0 e1
//! ...
//! }
//! ```

use crate::entities::Block;
use crate::function::Function;
use crate::instr::InstKind;
use std::fmt;

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "routine {}(", self.name())?;
        for (i, p) in self.params().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") {{")?;
        for b in self.blocks() {
            self.fmt_block(f, b)?;
        }
        writeln!(f, "}}")
    }
}

impl Function {
    fn fmt_block(&self, f: &mut fmt::Formatter<'_>, b: Block) -> fmt::Result {
        write!(f, "{b}:")?;
        if !self.preds(b).is_empty() {
            write!(f, "    ; preds:")?;
            for &e in self.preds(b) {
                write!(f, " {}({})", self.edge_from(e), e)?;
            }
        }
        writeln!(f)?;
        for &inst in self.block_insts(b) {
            write!(f, "  ")?;
            if let Some(r) = self.inst_result(inst) {
                write!(f, "{r} = ")?;
            }
            match self.kind(inst) {
                InstKind::Const(c) => writeln!(f, "const {c}")?,
                InstKind::Param(i) => writeln!(f, "param {i}")?,
                InstKind::Unary(op, a) => writeln!(f, "{op} {a}")?,
                InstKind::Binary(op, a, b2) => writeln!(f, "{op} {a}, {b2}")?,
                InstKind::Cmp(op, a, b2) => writeln!(f, "{op} {a}, {b2}")?,
                InstKind::Copy(a) => writeln!(f, "copy {a}")?,
                InstKind::Opaque(t) => writeln!(f, "opaque {t}")?,
                InstKind::Phi(_) => {
                    write!(f, "phi")?;
                    for (i, a) in self.phi_args(inst).iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        let from = self.preds(b).get(i).map(|&e| self.edge_from(e));
                        match from {
                            Some(p) => write!(f, " [{p}: {a}]")?,
                            None => write!(f, " [?: {a}]")?,
                        }
                    }
                    writeln!(f)?;
                }
                InstKind::Jump => {
                    let e = self.succs(b)[0];
                    writeln!(f, "jump {}    ; {e}", self.edge_to(e))?;
                }
                InstKind::Branch(c) => {
                    let t = self.succs(b)[0];
                    let e = self.succs(b)[1];
                    writeln!(
                        f,
                        "branch {c}, {}, {}    ; {t} {e}",
                        self.edge_to(t),
                        self.edge_to(e)
                    )?;
                }
                InstKind::Switch(arg, _) => {
                    let cases = self.switch_cases(inst);
                    write!(f, "switch {arg}")?;
                    for (i, c) in cases.iter().enumerate() {
                        write!(f, ", {c} -> {}", self.edge_to(self.succs(b)[i]))?;
                    }
                    let d = self.succs(b)[cases.len()];
                    writeln!(f, ", default -> {}", self.edge_to(d))?;
                }
                InstKind::Return(v) => writeln!(f, "return {v}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::function::Function;
    use crate::instr::{BinOp, CmpOp};

    #[test]
    fn display_straight_line() {
        let mut f = Function::new("f", 1);
        let b = f.entry();
        let one = f.iconst(b, 1);
        let s = f.binary(b, BinOp::Add, f.param(0), one);
        f.set_return(b, s);
        let text = f.to_string();
        assert!(text.contains("routine f(v0)"), "{text}");
        assert!(text.contains("v1 = const 1"), "{text}");
        assert!(text.contains("v2 = add v0, v1"), "{text}");
        assert!(text.contains("return v2"), "{text}");
    }

    #[test]
    fn display_cfg_with_phi() {
        let mut f = Function::new("g", 2);
        let entry = f.entry();
        let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Eq, f.param(0), f.param(1));
        f.set_branch(entry, c, t, e);
        let x = f.iconst(t, 1);
        f.set_jump(t, j);
        let y = f.iconst(e, 2);
        f.set_jump(e, j);
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        f.set_return(j, p);
        let text = f.to_string();
        assert!(text.contains("branch v2, bb1, bb2"), "{text}");
        assert!(text.contains("phi [bb1: v3], [bb2: v4]"), "{text}");
        assert!(text.contains("; preds: bb1(e2) bb2(e3)"), "{text}");
    }
}
