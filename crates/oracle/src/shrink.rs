//! Greedy minimization of failing routines.
//!
//! Given a routine and a predicate "does this routine still fail?", the
//! shrinker repeatedly tries smaller candidates — deleting statement
//! chunks, unwrapping control structure into one of its arms, and
//! replacing expression nodes by constants or their own operands — and
//! keeps any candidate that still fails. Candidates that would not
//! re-lower or re-parse (a `break` orphaned outside any loop) are
//! filtered out before the predicate ever sees them.
//!
//! A candidate is a clone of the routine's pools with one edit: a new
//! list or expression path appended and the owning statement pointed at
//! it. Statements are addressed by their list and index, which are the
//! same in every clone.
//!
//! The result is a local minimum: no single deletion/unwrap/replacement
//! keeps the failure. In practice this turns 40-statement generated
//! routines into fixtures of a handful of instructions.

use pgvn_lang::{Expr, ExprId, Routine, Span, Stmt};

/// Tuning for one shrink run.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkOptions {
    /// Upper bound on predicate evaluations (the expensive part).
    pub max_attempts: usize,
}

impl Default for ShrinkOptions {
    fn default() -> Self {
        ShrinkOptions { max_attempts: 4_000 }
    }
}

/// Where a statement list hangs: the routine body, or child list `k` of
/// the statement at a pool index (for a switch, its arms in order, then
/// the default).
#[derive(Clone, Copy, Debug)]
enum Owner {
    Body,
    Child(usize, usize),
}

/// Address of a statement: entry `index` of the list `owner` holds.
/// Candidates are clones of the routine the paths were collected from,
/// so a path addresses the same statement in each.
#[derive(Clone, Copy, Debug)]
struct Path {
    owner: Owner,
    index: usize,
}

fn child_lists(r: &Routine, s: Stmt) -> Vec<Span> {
    match s {
        Stmt::If(_, t, e) => vec![t, e],
        Stmt::While(_, b) | Stmt::DoWhile(b, _) => vec![b],
        Stmt::Switch(_, cases, default) => {
            r.cases(cases).iter().map(|c| c.body).chain([default]).collect()
        }
        _ => Vec::new(),
    }
}

fn list_of(r: &Routine, owner: Owner) -> Span {
    match owner {
        Owner::Body => r.body(),
        Owner::Child(i, k) => child_lists(r, r.stmt_pool()[i])[k],
    }
}

/// Points `owner` at `list`, editing the owning statement in place.
fn set_list(r: &mut Routine, owner: Owner, list: Span) {
    let Owner::Child(i, k) = owner else { return r.set_body(list) };
    let at = Span { start: i as u32, len: 1 };
    let s = r.stmts(at)[0];
    let edited = match s {
        Stmt::If(c, _, e) if k == 0 => Stmt::If(c, list, e),
        Stmt::If(c, t, _) => Stmt::If(c, t, list),
        Stmt::While(c, _) => Stmt::While(c, list),
        Stmt::DoWhile(_, c) => Stmt::DoWhile(list, c),
        Stmt::Switch(c, cases, _) if k == cases.len as usize => Stmt::Switch(c, cases, list),
        Stmt::Switch(_, cases, _) => {
            r.cases_mut(cases)[k].body = list;
            s
        }
        _ => unreachable!("only compound statements own lists"),
    };
    r.stmts_mut(at)[0] = edited;
}

/// The pool index of the statement at `path`.
fn stmt_index(r: &Routine, path: Path) -> usize {
    list_of(r, path.owner).start as usize + path.index
}

/// Collects the paths of every statement, outermost first.
fn collect_paths(r: &Routine, owner: Owner, out: &mut Vec<Path>) {
    let list = list_of(r, owner);
    for index in 0..list.len as usize {
        out.push(Path { owner, index });
        let i = list.start as usize + index;
        for k in 0..child_lists(r, r.stmt_pool()[i]).len() {
            collect_paths(r, Owner::Child(i, k), out);
        }
    }
}

fn exprs_of(s: Stmt) -> Option<ExprId> {
    match s {
        Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => Some(e),
        Stmt::If(c, ..) | Stmt::While(c, _) | Stmt::DoWhile(_, c) | Stmt::Switch(c, ..) => Some(c),
        Stmt::Break | Stmt::Continue => None,
    }
}

/// The statement with its expression replaced by `e`.
fn with_expr(s: Stmt, e: ExprId) -> Stmt {
    match s {
        Stmt::Assign(v, _) => Stmt::Assign(v, e),
        Stmt::Return(_) => Stmt::Return(e),
        Stmt::Expr(_) => Stmt::Expr(e),
        Stmt::If(_, t, o) => Stmt::If(e, t, o),
        Stmt::While(_, b) => Stmt::While(e, b),
        Stmt::DoWhile(b, _) => Stmt::DoWhile(b, e),
        Stmt::Switch(_, cases, d) => Stmt::Switch(e, cases, d),
        Stmt::Break | Stmt::Continue => s,
    }
}

/// A copy of `list` with its `break`/`continue` statements dropped where
/// they would bind to an *unwrapped* loop (those not enclosed by a loop
/// inside `list` itself).
fn scrub_orphaned_jumps(r: &mut Routine, list: Span) -> Span {
    let mut kept = Vec::with_capacity(list.len as usize);
    for i in list.range() {
        let s = r.stmt_pool()[i];
        kept.push(match s {
            Stmt::Break | Stmt::Continue => continue,
            Stmt::If(c, t, e) => {
                let t = scrub_orphaned_jumps(r, t);
                Stmt::If(c, t, scrub_orphaned_jumps(r, e))
            }
            Stmt::Switch(c, cases, default) => {
                let mut arms = r.cases(cases).to_vec();
                for arm in &mut arms {
                    arm.body = scrub_orphaned_jumps(r, arm.body);
                }
                let default = scrub_orphaned_jumps(r, default);
                Stmt::Switch(c, r.add_cases(&arms), default)
            }
            // An inner loop recaptures its own break/continue.
            _ => s,
        });
    }
    r.add_stmts(&kept)
}

/// The shrink measure of a routine: the pair [`shrink_routine`]
/// strictly decreases at every accepted step. Public so regression
/// tests can assert the monotonicity contract on replayed fixtures.
pub fn shrink_measure(r: &Routine) -> (usize, usize) {
    measure(r)
}

/// The shrink measure: AST node count, then a constant-complexity weight
/// (0 for literal 0, 1 for literal 1, 2 for anything else). Candidates
/// are accepted only when this pair strictly decreases, which makes the
/// greedy loop terminate — sideways rewrites such as `0 + k → 1 + k`
/// would otherwise cycle forever.
fn measure(r: &Routine) -> (usize, usize) {
    fn expr(r: &Routine, e: ExprId, m: &mut (usize, usize)) {
        m.0 += 1;
        if let Expr::Int(v) = r.expr(e) {
            m.1 += match v {
                0 => 0,
                1 => 1,
                _ => 2,
            };
        }
        for c in r.expr(e).operands() {
            expr(r, c, m);
        }
    }
    fn stmts(r: &Routine, list: Span, m: &mut (usize, usize)) {
        for &s in r.stmts(list) {
            m.0 += 1;
            if let Some(e) = exprs_of(s) {
                expr(r, e, m);
            }
            for b in child_lists(r, s) {
                stmts(r, b, m);
            }
        }
    }
    let mut m = (0, 0);
    stmts(r, r.body(), &mut m);
    m
}

/// `break`/`continue` must sit inside a loop: the parser rejects them
/// elsewhere, and lowering panics on them.
fn structurally_valid(r: &Routine, list: Span, in_loop: bool) -> bool {
    r.stmts(list).iter().all(|&s| match s {
        Stmt::Break | Stmt::Continue => in_loop,
        Stmt::While(_, b) | Stmt::DoWhile(b, _) => structurally_valid(r, b, true),
        Stmt::If(_, t, e) => structurally_valid(r, t, in_loop) && structurally_valid(r, e, in_loop),
        Stmt::Switch(_, cases, default) => {
            r.cases(cases).iter().all(|c| structurally_valid(r, c.body, in_loop))
                && structurally_valid(r, default, in_loop)
        }
        _ => true,
    })
}

/// What replaces a node in a single-node simplification.
#[derive(Clone, Copy)]
enum Replacement {
    Int(i64),
    Operand(ExprId),
}

/// All single-node simplifications of the tree under `e`, outermost
/// first: replace any one node by 0, by 1, or by one of its own operands.
fn simplifications(r: &Routine, e: ExprId, out: &mut Vec<(ExprId, Replacement)>) {
    let node = r.expr(e);
    if node != Expr::Int(0) {
        out.push((e, Replacement::Int(0)));
    }
    if node != Expr::Int(1) {
        out.push((e, Replacement::Int(1)));
    }
    out.extend(node.operands().map(|c| (e, Replacement::Operand(c))));
    for c in node.operands() {
        simplifications(r, c, out);
    }
}

/// The tree under `root` with node `target` replaced, sharing every
/// subtree off the path to `target`; `None` if `target` is not under
/// `root`.
fn replace(r: &mut Routine, root: ExprId, target: ExprId, with: Replacement) -> Option<ExprId> {
    if root == target {
        return Some(match with {
            Replacement::Int(v) => r.add_expr(Expr::Int(v)),
            Replacement::Operand(c) => c,
        });
    }
    let mut found = false;
    let rebuilt = r.expr(root).map_operands(|c| {
        if found {
            return c;
        }
        let edited = replace(r, c, target, with);
        found = edited.is_some();
        edited.unwrap_or(c)
    });
    found.then(|| r.add_expr(rebuilt))
}

/// `r` with the list at `owner` replaced by `keep(its statements)`.
fn with_list(
    r: &Routine,
    owner: Owner,
    keep: impl FnOnce(&mut Routine, &[Stmt]) -> Vec<Stmt>,
) -> Routine {
    let mut c = r.clone();
    let old = r.stmts(list_of(r, owner));
    let stmts = keep(&mut c, old);
    let list = c.add_stmts(&stmts);
    set_list(&mut c, owner, list);
    c
}

/// One round of candidates, most-aggressive first.
fn candidates(r: &Routine) -> Vec<Routine> {
    let mut out = Vec::new();
    let mut paths = Vec::new();
    collect_paths(r, Owner::Body, &mut paths);

    // 1. Chunk deletions at the top level (halves, then quarters).
    let n = r.body().len as usize;
    for denom in [2usize, 4] {
        if n >= denom * 2 {
            let chunk = n / denom;
            for start in (0..n).step_by(chunk) {
                let end = (start + chunk).min(n);
                out.push(with_list(r, Owner::Body, |_, old| [&old[..start], &old[end..]].concat()));
            }
        }
    }

    // 2. Single-statement deletions.
    for &path in &paths {
        let i = path.index;
        out.push(with_list(r, path.owner, |_, old| [&old[..i], &old[i + 1..]].concat()));
    }

    // 3. Unwrap compound statements into one of their child lists. When
    // the compound is a loop, its child list may contain break/continue
    // that would be orphaned by the unwrap — offer a scrubbed variant.
    for &path in &paths {
        let s = r.stmt_pool()[stmt_index(r, path)];
        let is_loop = matches!(s, Stmt::While(..) | Stmt::DoWhile(..));
        for child in child_lists(r, s) {
            let i = path.index;
            out.push(with_list(r, path.owner, |c, old| {
                let child = if is_loop { scrub_orphaned_jumps(c, child) } else { child };
                [&old[..i], c.stmts(child), &old[i + 1..]].concat()
            }));
        }
    }

    // 4. Expression simplifications.
    let mut edits = Vec::new();
    for &path in &paths {
        let at = stmt_index(r, path);
        let s = r.stmt_pool()[at];
        let Some(root) = exprs_of(s) else { continue };
        edits.clear();
        simplifications(r, root, &mut edits);
        for &(target, with) in &edits {
            let mut c = r.clone();
            let root = replace(&mut c, root, target, with).expect("the target is under the root");
            c.stmts_mut(Span { start: at as u32, len: 1 })[0] = with_expr(s, root);
            out.push(c);
        }
    }

    out.retain(|c| structurally_valid(c, c.body(), false));
    out
}

/// A copy of `r` holding only what its body reaches: edits append and
/// never free, so an accepted candidate is packed before the next round.
fn compacted(r: &Routine) -> Routine {
    fn list(from: &Routine, to: &mut Routine, l: Span) -> Span {
        let stmts: Vec<Stmt> = from.stmts(l).iter().map(|&s| stmt(from, to, s)).collect();
        to.add_stmts(&stmts)
    }
    fn stmt(from: &Routine, to: &mut Routine, s: Stmt) -> Stmt {
        let s = match exprs_of(s) {
            Some(e) => with_expr(s, expr(from, to, e)),
            None => s,
        };
        match s {
            Stmt::If(c, t, o) => Stmt::If(c, list(from, to, t), list(from, to, o)),
            Stmt::While(c, b) => Stmt::While(c, list(from, to, b)),
            Stmt::DoWhile(b, c) => Stmt::DoWhile(list(from, to, b), c),
            Stmt::Switch(c, cases, d) => {
                let mut arms = from.cases(cases).to_vec();
                for arm in &mut arms {
                    arm.body = list(from, to, arm.body);
                }
                Stmt::Switch(c, to.add_cases(&arms), list(from, to, d))
            }
            _ => s,
        }
    }
    fn expr(from: &Routine, to: &mut Routine, e: ExprId) -> ExprId {
        let node = from.expr(e).map_operands(|c| expr(from, to, c));
        to.add_expr(node)
    }
    let mut to = Routine::new(r.name());
    // Same symbol numbering, so statements and leaves copy unchanged.
    for s in 0..r.num_syms() {
        to.add_sym(r.sym_name(pgvn_lang::Sym(s as u32)));
    }
    for &p in r.params() {
        to.add_param(p);
    }
    let body = list(r, &mut to, r.body());
    to.set_body(body);
    to
}

/// Greedily minimizes `routine` while `still_fails` holds.
///
/// `still_fails` must hold for the input routine itself; candidates that
/// compile but no longer fail should return `false`. Structurally invalid
/// candidates are never passed to the predicate.
pub fn shrink_routine(
    routine: &Routine,
    opts: &ShrinkOptions,
    still_fails: &mut dyn FnMut(&Routine) -> bool,
) -> Routine {
    let mut current = routine.clone();
    let mut size = measure(&current);
    let mut attempts = 0usize;
    loop {
        let mut improved = false;
        for cand in candidates(&current) {
            if attempts >= opts.max_attempts {
                return current;
            }
            let cand_size = measure(&cand);
            if cand_size >= size {
                continue;
            }
            attempts += 1;
            if still_fails(&cand) {
                current = compacted(&cand);
                size = cand_size;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::BinOp;

    fn contains_div(r: &Routine) -> bool {
        fn expr_has(r: &Routine, e: ExprId) -> bool {
            matches!(r.expr(e), Expr::Binary(BinOp::Div, ..))
                || r.expr(e).operands().any(|c| expr_has(r, c))
        }
        fn stmt_has(r: &Routine, s: Stmt) -> bool {
            exprs_of(s).is_some_and(|e| expr_has(r, e))
                || child_lists(r, s).into_iter().any(|b| r.stmts(b).iter().any(|&s| stmt_has(r, s)))
        }
        r.stmts(r.body()).iter().any(|&s| stmt_has(r, s))
    }

    #[test]
    fn shrinks_to_the_failing_kernel() {
        let src = "routine f(a, b) {
            x = a + b;
            y = x * 3;
            if (y > 10) {
                z = a / b;
                w = z + 1;
            } else {
                w = 0;
            }
            q = w ^ y;
            return q;
        }";
        let r = pgvn_lang::parse(src).unwrap();
        assert!(contains_div(&r));
        let shrunk = shrink_routine(&r, &ShrinkOptions::default(), &mut |c| contains_div(c));
        let len = shrunk.body().len;
        assert!(len <= 2, "shrunk to {len} statements: {shrunk:?}");
        assert!(contains_div(&shrunk));
        // The survivor still lowers.
        let _ = pgvn_lang::lower(&shrunk);
    }

    #[test]
    fn never_offers_orphaned_break() {
        // Unwrapping the while body would orphan the break; every
        // candidate the predicate sees must still be lowerable.
        let src = "routine f(n) {
            i = 0;
            while (i < n) { if (i > 3) { break; } i = i + 1; }
            return i;
        }";
        let r = pgvn_lang::parse(src).unwrap();
        let shrunk = shrink_routine(&r, &ShrinkOptions::default(), &mut |c| {
            let _ = pgvn_lang::lower(c); // panics if a break escaped its loop
            !c.body().is_empty()
        });
        let _ = pgvn_lang::lower(&shrunk);
    }

    #[test]
    fn respects_the_attempt_budget() {
        let src = "routine f(a) { x = a / 2; return x; }";
        let r = pgvn_lang::parse(src).unwrap();
        let mut calls = 0usize;
        let _ = shrink_routine(&r, &ShrinkOptions { max_attempts: 5 }, &mut |c| {
            calls += 1;
            contains_div(c)
        });
        assert!(calls <= 5);
    }
}
