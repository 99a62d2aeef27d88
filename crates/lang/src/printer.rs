//! Pretty-printer for the AST: emits source text that re-parses to the
//! same tree.
//!
//! Used by the CLI's `--emit source`, by the workload generator to dump
//! generated programs, and by the round-trip property test
//! (`parse(print(r)) == r`).

use crate::ast::{Expr, Routine, Stmt};
use pgvn_ir::{BinOp, UnOp};
use std::fmt::Write;

/// Renders a routine as parseable source text.
pub fn print_routine(r: &Routine) -> String {
    let mut out = String::new();
    write!(out, "routine {}(", r.name).unwrap();
    for (i, p) in r.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(p);
    }
    out.push_str(") {\n");
    print_stmts(&mut out, &r.body, 1);
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_stmts(out: &mut String, stmts: &[Stmt], depth: usize) {
    for s in stmts {
        print_stmt(out, s, depth);
    }
}

fn print_block(out: &mut String, stmts: &[Stmt], depth: usize) {
    out.push_str("{\n");
    print_stmts(out, stmts, depth + 1);
    indent(out, depth);
    out.push('}');
}

fn print_stmt(out: &mut String, s: &Stmt, depth: usize) {
    indent(out, depth);
    match s {
        Stmt::Assign(name, e) => {
            write!(out, "{name} = ").unwrap();
            print_expr(out, e, 0);
            out.push_str(";\n");
        }
        Stmt::Expr(e) => {
            print_expr(out, e, 0);
            out.push_str(";\n");
        }
        Stmt::Return(e) => {
            out.push_str("return ");
            print_expr(out, e, 0);
            out.push_str(";\n");
        }
        Stmt::Break => out.push_str("break;\n"),
        Stmt::Continue => out.push_str("continue;\n"),
        Stmt::If(c, then, otherwise) => {
            out.push_str("if (");
            print_expr(out, c, 0);
            out.push_str(") ");
            print_block(out, then, depth);
            if !otherwise.is_empty() {
                out.push_str(" else ");
                print_block(out, otherwise, depth);
            }
            out.push('\n');
        }
        Stmt::While(c, body) => {
            out.push_str("while (");
            print_expr(out, c, 0);
            out.push_str(") ");
            print_block(out, body, depth);
            out.push('\n');
        }
        Stmt::DoWhile(body, c) => {
            out.push_str("do ");
            print_block(out, body, depth);
            out.push_str(" while (");
            print_expr(out, c, 0);
            out.push_str(");\n");
        }
        Stmt::Switch(scrutinee, cases, default) => {
            out.push_str("switch (");
            print_expr(out, scrutinee, 0);
            out.push_str(") {\n");
            for (value, body) in cases {
                indent(out, depth + 1);
                write!(out, "case {value}: ").unwrap();
                print_block(out, body, depth + 1);
                out.push('\n');
            }
            if !default.is_empty() {
                indent(out, depth + 1);
                out.push_str("default: ");
                print_block(out, default, depth + 1);
                out.push('\n');
            }
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

/// Binding strength of each expression form, mirroring the parser's
/// precedence levels (higher binds tighter).
fn precedence(e: &Expr) -> u8 {
    match e {
        // `i64::MIN` prints as the literal `-9223372036854775808`, which
        // parses back to itself.
        Expr::Int(i64::MIN) => 10,
        // Other negative literals print as `0 - n`, so they bind like
        // subtraction and pick up parentheses from the standard rule.
        Expr::Int(v) if *v < 0 => 8,
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

fn print_expr(out: &mut String, e: &Expr, min_prec: u8) {
    let prec = precedence(e);
    let needs_parens = prec < min_prec;
    if needs_parens {
        out.push('(');
    }
    match e {
        Expr::Int(v) => {
            if *v == i64::MIN {
                write!(out, "{v}").unwrap();
            } else if *v < 0 {
                // `-n` would reparse as a unary expression; `0 - n`
                // reparses to an equivalent tree and reaches a printing
                // fixpoint after one round.
                write!(out, "0 - {}", -v).unwrap();
            } else {
                write!(out, "{v}").unwrap();
            }
        }
        Expr::Var(name) => out.push_str(name),
        Expr::Opaque(t) => {
            write!(out, "opaque({t})").unwrap();
        }
        Expr::Unary(op, a) => {
            out.push_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => "~",
            });
            print_expr(out, a, 10);
        }
        Expr::LogicalNot(a) => {
            out.push('!');
            print_expr(out, a, 10);
        }
        Expr::Binary(op, a, b) => {
            let p = precedence(e);
            print_expr(out, a, p);
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::And => "&",
                BinOp::Or => "|",
                BinOp::Xor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
            };
            write!(out, " {sym} ").unwrap();
            // Left-associative: the right operand needs strictly higher
            // binding to avoid regrouping.
            print_expr(out, b, p + 1);
        }
        Expr::Cmp(op, a, b) => {
            let p = precedence(e);
            print_expr(out, a, p);
            write!(out, " {} ", op.symbol()).unwrap();
            print_expr(out, b, p + 1);
        }
        Expr::LogicalAnd(a, b) => {
            print_expr(out, a, 1);
            out.push_str(" && ");
            print_expr(out, b, 2);
        }
        Expr::LogicalOr(a, b) => {
            print_expr(out, a, 0);
            out.push_str(" || ");
            print_expr(out, b, 1);
        }
    }
    if needs_parens {
        out.push(')');
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
        let built = Routine {
            name: "g".into(),
            params: vec!["a".into()],
            body: vec![
                Stmt::Switch(
                    Expr::Var("a".into()),
                    vec![(i64::MIN, vec![Stmt::Return(Expr::Int(1))])],
                    vec![],
                ),
                Stmt::Return(Expr::Binary(
                    BinOp::Sub,
                    Box::new(Expr::Var("a".into())),
                    Box::new(Expr::Int(i64::MIN)),
                )),
            ],
        };
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
