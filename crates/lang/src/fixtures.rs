//! The paper's example programs, written in the source language.
//!
//! Shared between the integration tests, the examples and the benchmark
//! harness so every consumer exercises exactly the same routines.
//!
//! A note on [`FIGURE1`]: the published figure distinguishes `=` from `≠`
//! typographically. Reconstructing the routine from the paper's own
//! inference walkthrough (§1.3 and §2.10) fixes the reading: line 08 must
//! be `if (I ≠ 1) I ← 2` (so the optimistic assumption `I₂ = 1` makes the
//! assignment unreachable and `I₅ = 1`), line 12 must be
//! `if (I ≠ 1) P ← 2 else if (X ≤ 9) P ← I` (so `P₁₁ = φ(0, 1, 0)`), and
//! line 15 must be `if (Y ≤ 9) Q ← 1` (so `PREDICATE[14]` equals
//! `PREDICATE[11]` and `Q₁₄ ≅ P₁₁`). Under that reading the invariant
//! `I = 1` also holds dynamically for every input, as the paper claims.

/// Figure 1: the routine `R` that the unified algorithm proves to always
/// return 1 through a chain of inferences spanning optimistic value
/// numbering, unreachable code elimination, value inference, predicate
/// inference, φ-predication, constant folding and global reassociation.
pub const FIGURE1: &str = "routine R(X, Y, Z) {
    I = 1;
    J = 1;
    while (true) {
        if (J > 9) break;
        J = J + 1;
        if (I != 1) { I = 2; }
        if (Y == X) {
            P = 0;
            if (X >= 1) {
                if (I != 1) { P = 2; } else { if (X <= 9) { P = I; } }
            }
            Q = 0;
            if (I <= Y) {
                if (Y <= 9) { Q = 1; }
            }
            if (Z > I) {
                I = P + (X + 2) + (Z < 1) - (I + Y) - Q;
            }
        }
    }
    return I;
}";

/// Figure 6: the value-inference chain. `X1 = K3 + 1` is congruent to
/// `I1 + 1` because `K3 = J2` and `J2 = I1` hold on the path, and value
/// inference substitutes the lower-ranked variable at each step.
pub const FIGURE6: &str = "routine fig6(I, J, K) {
    if (K == J) {
        if (J == I) {
            X = K + 1;
            return X;
        }
    }
    return 0;
}";

/// Figure 13: Briggs/Torczon/Cooper's pre-pass example. A unified
/// algorithm discovers that both `I1` and `J1` are congruent to 0 inside
/// the `K1 = 0` branch; the pre-pass approach only discovers `I1`.
pub const FIGURE13: &str = "routine fig13(K) {
    L = K + 0;
    if (K == 0) {
        I = K;
        J = L;
        return I + J;
    }
    return 1;
}";

/// Figure 14 case (a): Rüthing–Knoop–Steffen's φ-distribution example.
/// `K3 = φ(I1+1, I2+1)` and `L3 = φ(I1,I2) + 1` are congruent only for
/// algorithms that distribute operations over φs (the paper lists this as
/// a possible extension of global reassociation).
pub const FIGURE14A: &str = "routine fig14a(c) {
    if (c) {
        I = opaque(1);
        K = I + 1;
    } else {
        I = opaque(2);
        K = I + 1;
    }
    L = I + 1;
    return K - L;
}";

/// Figure 14 case (b): the variant with swapped constants that defeats
/// even the φ-distribution transformation in its simple form.
pub const FIGURE14B: &str = "routine fig14b(c) {
    if (c) {
        I = 1;
        J = 2;
    } else {
        I = 2;
        J = 1;
    }
    K = I + J;
    L = 3;
    return K - L;
}";

/// §2.7's smaller value-inference illustration from the text: after
/// `L1 = K1 + 0` and a branch on `K1 = 0`, both `I1 = K1` and `J1 = L1`
/// name the constant 0.
pub const SIMPLE_INFERENCE: &str = "routine simple_inf(K) {
    if (K == 0) {
        return K + 5;
    }
    return 5;
}";

/// Builds the Figure 9 worst case for value inference: a ladder of `n`
/// equality guards `if (I1 == I2) if (I2 == I3) ... J = I1`, which makes
/// `Infer value at block` climb the dominator tree O(n²) times in total.
pub fn figure9(n: usize) -> String {
    use std::fmt::Write;
    assert!(n >= 2, "figure 9 needs at least two values");
    let mut s = String::from("routine fig9(");
    for i in 1..=n {
        if i > 1 {
            s.push_str(", ");
        }
        write!(s, "I{i}").unwrap();
    }
    s.push_str(") {\n");
    for i in 1..n {
        writeln!(s, "    if (I{} == I{}) {{", i, i + 1).unwrap();
    }
    writeln!(s, "    J = I{n} + 1;\n    return J;").unwrap();
    for _ in 1..n {
        s.push_str("    }\n");
    }
    s.push_str("    return 0;\n}\n");
    s
}

/// Shapes of deeply nested input, for exercising the parser's nesting
/// bound ([`crate::MAX_NESTING`]); see [`deep`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deep {
    /// `return ((…(a)…));` with `n` parenthesis pairs: nesting `n + 1`
    /// counting the statement.
    Parens,
    /// `return a + a + … + a;` with `n` terms: a left-deep chain `n` tall.
    Sum,
    /// `n` nested `if (a) { … }` around `return a;`: nesting `n + 1`.
    Ifs,
    /// `return - - … - a;` with `n` minus signs: nesting and height
    /// `n + 1`.
    Negations,
    /// `n` parenthesized levels of `a || a && a | … a * (…)`, every
    /// precedence level at each: height `10 n + 1`, nesting `11 n + 1`.
    Ladder,
}

/// Builds routine `deep(a)` in the given shape at size `n`.
pub fn deep(shape: Deep, n: usize) -> String {
    let body = match shape {
        Deep::Parens => format!("return {}a{};", "(".repeat(n), ")".repeat(n)),
        Deep::Sum => format!("return a{};", " + a".repeat(n.saturating_sub(1))),
        Deep::Ifs => format!("{}return a;{}", "if (a) { ".repeat(n), " }".repeat(n)),
        Deep::Negations => format!("return {}a;", "- ".repeat(n)),
        Deep::Ladder => {
            let level = "a || a && a | a ^ a & a == a < a << a + a * (";
            format!("return {}a{};", level.repeat(n), ")".repeat(n))
        }
    };
    format!("routine deep(a) {{ {body} return 0; }}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn all_fixtures_parse() {
        for (name, src) in [
            ("figure1", FIGURE1),
            ("figure6", FIGURE6),
            ("figure13", FIGURE13),
            ("figure14a", FIGURE14A),
            ("figure14b", FIGURE14B),
            ("simple_inference", SIMPLE_INFERENCE),
        ] {
            parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn figure9_generates_parsable_ladders() {
        for n in [2, 3, 10] {
            let src = figure9(n);
            let r = parse(&src).unwrap_or_else(|e| panic!("n={n}: {e}\n{src}"));
            assert_eq!(r.params().len(), n);
        }
    }
}
