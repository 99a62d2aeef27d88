//! Pretty-printer for the AST: emits source text that re-parses to the
//! same tree.
//!
//! Used by the CLI's `--emit source`, by the workload generator to dump
//! generated programs, and by the round-trip property test
//! (`parse(print(r)) == r`). The output is sized once from the routine's
//! pool sizes, so printing a generated routine makes one allocation.

use crate::ast::{Expr, ExprId, Routine, Span, Stmt};
use pgvn_ir::{BinOp, UnOp};
use std::fmt::{self, Write};

/// Renders a routine as parseable source text.
pub fn print_routine(r: &Routine) -> String {
    // The generators' printed text takes at most about 34 bytes per
    // statement (indentation included, at nesting depth 5) and 4 per
    // expression node, besides the names; deeper nesting regrows.
    let guess = 48 * r.stmt_pool().len() + 6 * r.expr_pool().len() + r.sym_text_len();
    let mut p = Printer { r, out: String::with_capacity(64 + guess) };
    p.write(format_args!("routine {}(", r.name()));
    for (i, &param) in r.params().iter().enumerate() {
        if i > 0 {
            p.out.push_str(", ");
        }
        p.out.push_str(r.sym_name(param));
    }
    p.out.push_str(") {\n");
    p.stmts(r.body(), 1);
    p.out.push_str("}\n");
    p.out
}

struct Printer<'r> {
    r: &'r Routine,
    out: String,
}

impl Printer<'_> {
    /// Appends formatted text.
    fn write(&mut self, text: fmt::Arguments<'_>) {
        self.out.write_fmt(text).expect("writing to a String cannot fail");
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("    ");
        }
    }

    fn stmts(&mut self, list: Span, depth: usize) {
        for &s in self.r.stmts(list) {
            self.stmt(s, depth);
        }
    }

    fn block(&mut self, list: Span, depth: usize) {
        self.out.push_str("{\n");
        self.stmts(list, depth + 1);
        self.indent(depth);
        self.out.push('}');
    }

    fn stmt(&mut self, s: Stmt, depth: usize) {
        self.indent(depth);
        match s {
            Stmt::Assign(name, e) => {
                self.out.push_str(self.r.sym_name(name));
                self.out.push_str(" = ");
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Expr(e) => {
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Return(e) => {
                self.out.push_str("return ");
                self.expr(e, 0);
                self.out.push_str(";\n");
            }
            Stmt::Break => self.out.push_str("break;\n"),
            Stmt::Continue => self.out.push_str("continue;\n"),
            Stmt::If(c, then, otherwise) => {
                self.out.push_str("if (");
                self.expr(c, 0);
                self.out.push_str(") ");
                self.block(then, depth);
                if !otherwise.is_empty() {
                    self.out.push_str(" else ");
                    self.block(otherwise, depth);
                }
                self.out.push('\n');
            }
            Stmt::While(c, body) => {
                self.out.push_str("while (");
                self.expr(c, 0);
                self.out.push_str(") ");
                self.block(body, depth);
                self.out.push('\n');
            }
            Stmt::DoWhile(body, c) => {
                self.out.push_str("do ");
                self.block(body, depth);
                self.out.push_str(" while (");
                self.expr(c, 0);
                self.out.push_str(");\n");
            }
            Stmt::Switch(scrutinee, cases, default) => {
                self.out.push_str("switch (");
                self.expr(scrutinee, 0);
                self.out.push_str(") {\n");
                for &case in self.r.cases(cases) {
                    self.indent(depth + 1);
                    self.write(format_args!("case {}: ", case.value));
                    self.block(case.body, depth + 1);
                    self.out.push('\n');
                }
                if !default.is_empty() {
                    self.indent(depth + 1);
                    self.out.push_str("default: ");
                    self.block(default, depth + 1);
                    self.out.push('\n');
                }
                self.indent(depth);
                self.out.push_str("}\n");
            }
        }
    }

    fn expr(&mut self, id: ExprId, min_prec: u8) {
        let e = self.r.expr(id);
        let prec = precedence(e);
        let needs_parens = prec < min_prec;
        if needs_parens {
            self.out.push('(');
        }
        match e {
            Expr::Int(v) => {
                if v == i64::MIN {
                    self.write(format_args!("{v}"));
                } else if v < 0 {
                    // `-n` would reparse as a unary expression; `0 - n`
                    // reparses to an equivalent tree and reaches a printing
                    // fixpoint after one round.
                    self.write(format_args!("0 - {}", -v));
                } else {
                    self.write(format_args!("{v}"));
                }
            }
            Expr::Var(name) => self.out.push_str(self.r.sym_name(name)),
            Expr::Opaque(t) => {
                self.write(format_args!("opaque({t})"));
            }
            Expr::Unary(op, a) => {
                self.out.push_str(match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "~",
                });
                self.expr(a, 10);
            }
            Expr::LogicalNot(a) => {
                self.out.push('!');
                self.expr(a, 10);
            }
            Expr::Binary(op, a, b) => {
                self.expr(a, prec);
                let sym = match op {
                    BinOp::Add => " + ",
                    BinOp::Sub => " - ",
                    BinOp::Mul => " * ",
                    BinOp::Div => " / ",
                    BinOp::Rem => " % ",
                    BinOp::And => " & ",
                    BinOp::Or => " | ",
                    BinOp::Xor => " ^ ",
                    BinOp::Shl => " << ",
                    BinOp::Shr => " >> ",
                };
                self.out.push_str(sym);
                // Left-associative: the right operand needs strictly higher
                // binding to avoid regrouping.
                self.expr(b, prec + 1);
            }
            Expr::Cmp(op, a, b) => {
                self.expr(a, prec);
                self.write(format_args!(" {} ", op.symbol()));
                self.expr(b, prec + 1);
            }
            Expr::LogicalAnd(a, b) => {
                self.expr(a, 1);
                self.out.push_str(" && ");
                self.expr(b, 2);
            }
            Expr::LogicalOr(a, b) => {
                self.expr(a, 0);
                self.out.push_str(" || ");
                self.expr(b, 1);
            }
        }
        if needs_parens {
            self.out.push(')');
        }
    }
}

/// Binding strength of each expression form, mirroring the parser's
/// precedence levels (higher binds tighter).
fn precedence(e: Expr) -> u8 {
    match e {
        // `i64::MIN` prints as the literal `-9223372036854775808`, which
        // parses back to itself.
        Expr::Int(i64::MIN) => 10,
        // Other negative literals print as `0 - n`, so they bind like
        // subtraction and pick up parentheses from the standard rule.
        Expr::Int(v) if v < 0 => 8,
        Expr::Int(_) | Expr::Var(_) | Expr::Opaque(_) => 11,
        Expr::Unary(..) | Expr::LogicalNot(_) => 10,
        Expr::Binary(op, ..) => match op {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 9,
            BinOp::Add | BinOp::Sub => 8,
            BinOp::Shl | BinOp::Shr => 7,
            BinOp::And => 4,
            BinOp::Xor => 3,
            BinOp::Or => 2,
        },
        Expr::Cmp(op, ..) => {
            if matches!(op, pgvn_ir::CmpOp::Eq | pgvn_ir::CmpOp::Ne) {
                5
            } else {
                6
            }
        }
        Expr::LogicalAnd(..) => 1,
        Expr::LogicalOr(..) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let r1 = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let printed = print_routine(&r1);
        let r2 = parse(&printed).unwrap_or_else(|e| panic!("reparse: {e}\n{printed}"));
        // Negative literals print as (0 - n); compare semantically by
        // printing again (fixpoint after one round).
        assert_eq!(print_routine(&r2), printed, "print not a fixpoint:\n{printed}");
    }

    #[test]
    fn prints_minimal_routine() {
        let r = parse("routine f(a) { return a; }").unwrap();
        let s = print_routine(&r);
        assert_eq!(s, "routine f(a) {\n    return a;\n}\n");
    }

    #[test]
    fn roundtrips_fixtures() {
        for src in [
            crate::fixtures::FIGURE1,
            crate::fixtures::FIGURE6,
            crate::fixtures::FIGURE13,
            crate::fixtures::FIGURE14A,
            crate::fixtures::FIGURE14B,
            crate::fixtures::SIMPLE_INFERENCE,
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn roundtrips_precedence_sensitive_expressions() {
        for src in [
            "routine f(a, b) { return (a + b) * 2; }",
            "routine f(a, b) { return a + b * 2; }",
            "routine f(a) { return -(a + 1); }",
            "routine f(a) { return -a + 1; }",
            "routine f(a, b) { return a - (b - 1); }",
            "routine f(a, b) { return a - b - 1; }",
            "routine f(a, b) { return a < b == (b < a); }",
            "routine f(a, b) { return (a & 3) + 1; }",
            "routine f(a, b) { return a << (b + 1) >> 2; }",
            "routine f(a) { return !(a > 1) && a < 9 || a == 4; }",
            "routine f(a) { return ~-a; }",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn roundtrips_all_statement_forms() {
        let src = "routine f(n) {
            s = 0;
            i = 0;
            while (i < n) {
                if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
                i = i + 1;
                if (s > 100) break;
                if (s < 0) continue;
            }
            do { s = s - 1; } while (s > 10);
            switch (s) {
                case 0: { s = 1; }
                case -2: { s = 2; }
                default: { opaque(7); }
            }
            return s;
        }";
        roundtrip(src);
    }

    #[test]
    fn printed_source_preserves_semantics() {
        use pgvn_ir::{HashedOpaques, Interpreter};
        let src = crate::fixtures::FIGURE1;
        let r = parse(src).unwrap();
        let printed = print_routine(&r);
        let f1 = crate::compile(src, pgvn_ssa::SsaStyle::Minimal).unwrap();
        let f2 = crate::compile(&printed, pgvn_ssa::SsaStyle::Minimal).unwrap();
        for args in [[5, 5, 9], [0, 0, 0], [9, 9, 100]] {
            let a = Interpreter::new(&f1).run(&args, &mut HashedOpaques::new(0)).unwrap();
            let b = Interpreter::new(&f2).run(&args, &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn i64_min_roundtrips_as_literal_and_case_label() {
        use pgvn_ir::{HashedOpaques, Interpreter};
        let src = "routine f(a) {
            b = a * -9223372036854775808 + -9223372036854775808;
            c = ~-9223372036854775808 - --9223372036854775808;
            switch (a) {
                case -9223372036854775808: { return b; }
                case 9223372036854775807: { return c; }
            }
            return 0 - 9223372036854775807 - 1;
        }";
        let r = parse(src).unwrap();
        let printed = print_routine(&r);
        assert_eq!(parse(&printed).unwrap(), r, "{printed}");
        roundtrip(src);
        // An AST built directly (as the generator and shrinker do) prints
        // and reparses too.
        let mut built = Routine::new("g");
        let a = built.add_sym("a");
        built.add_param(a);
        let one = built.add_expr(Expr::Int(1));
        let arm = built.add_stmts(&[Stmt::Return(one)]);
        let cases = built.add_cases(&[crate::ast::Case { value: i64::MIN, body: arm }]);
        let scrutinee = built.add_expr(Expr::Var(a));
        let (lhs, min) = (built.add_expr(Expr::Var(a)), built.add_expr(Expr::Int(i64::MIN)));
        let diff = built.add_expr(Expr::Binary(BinOp::Sub, lhs, min));
        let body =
            built.add_stmts(&[Stmt::Switch(scrutinee, cases, Span::EMPTY), Stmt::Return(diff)]);
        built.set_body(body);
        let printed = print_routine(&built);
        assert_eq!(parse(&printed).unwrap(), built, "{printed}");
        let f1 = crate::compile(src, pgvn_ssa::SsaStyle::Minimal).unwrap();
        let f2 = crate::compile(&print_routine(&r), pgvn_ssa::SsaStyle::Minimal).unwrap();
        for a in [i64::MIN, i64::MAX, 0, 3] {
            let run = |f| Interpreter::new(f).run(&[a], &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(run(&f1), run(&f2), "a = {a}");
        }
        let g = crate::compile(&printed, pgvn_ssa::SsaStyle::Minimal).unwrap();
        let run = |a| Interpreter::new(&g).run(&[a], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!((run(i64::MIN), run(5)), (1, 5i64.wrapping_sub(i64::MIN)));
    }

    #[test]
    fn i64_min_after_binary_minus_is_out_of_range() {
        let e = parse("routine f(a) { return a - 9223372036854775808; }").unwrap_err();
        assert!(e.message.contains("`9223372036854775808` out of range"), "{e}");
    }
}
