//! The optimization pipeline: the repository's stand-in for the paper's
//! HLO host optimizer.
//!
//! The paper measures GVN inside HP's high-level optimizer (Table 1
//! reports total HLO time vs GVN time). We cannot rebuild HLO; the
//! [`Pipeline`] chains the GVN analysis with all its consumer transforms
//! (UCE → constant propagation → redundancy elimination → copy forwarding
//! → DCE) and optionally iterates, giving the timing harness a realistic
//! surrounding pass context. `EXPERIMENTS.md` documents how the GVN/HLO
//! time share deviates from the paper's <4% because our host pipeline is
//! far thinner than HLO.

use crate::pass::{PassContext, PassId, PassSpec};
use crate::rewrite::UceReport;
use pgvn_core::{GvnConfig, GvnContext, GvnError, GvnStats};
use pgvn_ir::Function;
use pgvn_telemetry::Telemetry;

/// Aggregate report of one [`Pipeline::optimize`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OptimizeReport {
    /// Statistics from the (last) GVN run.
    pub gvn_stats: GvnStats,
    /// Unreachable-code removal counts.
    pub uce: UceReport,
    /// Instructions rewritten to constants.
    pub constants_propagated: usize,
    /// Instructions rewritten to copies of congruent leaders.
    pub redundancies_eliminated: usize,
    /// Operands forwarded through copies.
    pub copies_forwarded: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Expression clones the `pre` pass inserted into predecessors.
    pub pre_inserted: usize,
    /// Merge-point computations the `pre` pass replaced with φ-merges.
    pub pre_eliminated: usize,
    /// Instructions the `cleanup` pass removed.
    pub cleanup_removed: usize,
    /// Time spent inside the GVN analysis, in nanoseconds.
    pub gvn_nanos: u128,
    /// Total pipeline time, in nanoseconds.
    pub total_nanos: u128,
}

/// A GVN-driven optimization pipeline: a GVN configuration and the
/// [`PassSpec`] run under it.
#[derive(Clone, Debug)]
pub struct Pipeline {
    pub(crate) cfg: GvnConfig,
    pub(crate) spec: PassSpec,
}

impl Pipeline {
    /// Creates a one-`gvn` pipeline with the given GVN configuration.
    pub fn new(cfg: GvnConfig) -> Self {
        Pipeline { cfg, spec: PassSpec { passes: vec![PassId::Gvn] } }
    }

    /// Sets the spec to `gvn` repeated `rounds` times (at least once).
    /// Kept only for the benchmark helper (`perfbench/src/trace.rs`),
    /// which calls it; everything else sets a spec with
    /// [`Pipeline::passes`].
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.spec = PassSpec { passes: vec![PassId::Gvn; rounds.max(1)] };
        self
    }

    /// Sets the pass sequence (e.g. parsed from `--passes gvn,pre,gvn`,
    /// or [`PassSpec::default`]).
    pub fn passes(mut self, spec: PassSpec) -> Self {
        self.spec = spec;
        self
    }

    /// The pass sequence in use.
    pub fn spec(&self) -> &PassSpec {
        &self.spec
    }

    /// Zero-setup [`Pipeline::optimize_traced_with`]: optimizes `func`
    /// in place with a fresh context and no telemetry.
    ///
    /// # Panics
    ///
    /// Panics with the classified [`GvnError`] when any analysis run
    /// fails (a budget ceiling, non-convergence, an invariant violation
    /// or an injected fault). Use [`Pipeline::optimize_traced_with`] to
    /// get the error back, or [`Pipeline::optimize_resilient`] to
    /// contain it.
    pub fn optimize(&self, func: &mut Function) -> OptimizeReport {
        self.optimize_traced_with(&mut GvnContext::new(), func, &mut Telemetry::off())
            .unwrap_or_else(|err| panic!("pgvn pipeline failed: {err}"))
    }

    /// Optimizes `func` in place, running the pass sequence against a
    /// reusable [`GvnContext`]: every GVN run borrows the context's
    /// arenas instead of allocating fresh ones, so a routine stream
    /// sharing one context is allocation-amortized, and results never
    /// depend on what the context ran before. The GVN runs trace into
    /// `tel`'s sink and record into its metrics registry (phase timings
    /// too, when timing is on); pass [`Telemetry::off`] for none.
    ///
    /// # Errors
    ///
    /// Returns the classified [`GvnError`] of the first analysis run
    /// that does not converge or fails. No rewrite ever consumes that
    /// run: `func` keeps the output of the passes that completed before
    /// it (which rewrote from converged runs only, so it still
    /// verifies). Panics injected through a [`pgvn_core::FaultPlan`]
    /// still unwind; [`Pipeline::optimize_resilient_traced_with`]
    /// contains those and rolls `func` back to its input.
    pub fn optimize_traced_with(
        &self,
        ctx: &mut GvnContext,
        func: &mut Function,
        tel: &mut Telemetry<'_>,
    ) -> Result<OptimizeReport, GvnError> {
        let t0 = std::time::Instant::now();
        let mut report = OptimizeReport::default();
        let mut pcx = PassContext::new(ctx, &self.cfg, tel, &mut report);
        self.spec.run(&mut pcx, func)?;
        report.total_nanos = t0.elapsed().as_nanos();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::{assert_verifies, HashedOpaques, InstKind, Interpreter};
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    fn optimize_and_check(src: &str, args_sets: &[Vec<i64>]) -> (Function, OptimizeReport) {
        let original = compile(src, SsaStyle::Minimal).unwrap();
        let mut f = original.clone();
        let report = Pipeline::new(GvnConfig::full()).passes(PassSpec::default()).optimize(&mut f);
        assert_verifies(&f);
        for args in args_sets {
            let mut o1 = HashedOpaques::new(3);
            let mut o2 = HashedOpaques::new(3);
            let r1 = Interpreter::new(&original).run(args, &mut o1).unwrap();
            let r2 = Interpreter::new(&f).run(args, &mut o2).unwrap();
            assert_eq!(r1, r2, "semantics diverged on {args:?}");
        }
        (f, report)
    }

    #[test]
    fn pipeline_shrinks_figure1_to_return_one() {
        let (f, report) = optimize_and_check(
            pgvn_lang::fixtures::FIGURE1,
            &[vec![0, 0, 0], vec![9, 9, 100], vec![5, 5, 9]],
        );
        assert!(report.constants_propagated > 0);
        // After optimization the return must be a constant 1.
        let ret = f
            .blocks()
            .filter_map(|b| f.terminator(b))
            .find_map(|t| match f.kind(t) {
                InstKind::Return(v) => Some(*v),
                _ => None,
            })
            .expect("a return remains");
        assert_eq!(f.value_as_const(ret), Some(1), "\n{f}");
    }

    #[test]
    fn pipeline_removes_unreachable_code() {
        let (f, report) = optimize_and_check(
            "routine f(x) { if (1 == 2) { return x * 3; } return x + 0; }",
            &[vec![4], vec![-9]],
        );
        assert!(report.uce.blocks_removed >= 1);
        assert_eq!(f.num_blocks(), f.blocks().count());
    }

    #[test]
    fn pipeline_dedups_redundant_work() {
        let (f, report) = optimize_and_check(
            "routine f(a, b) {
                x = a * b + a;
                y = a * b + a;
                z = a * b + a;
                return x + y + z;
            }",
            &[vec![2, 3], vec![7, -1]],
        );
        assert!(report.redundancies_eliminated + report.dead_removed > 0);
        // Only one multiply should survive.
        let muls = f
            .blocks()
            .flat_map(|b| f.block_insts(b).to_vec())
            .filter(|&i| matches!(f.kind(i), InstKind::Binary(pgvn_ir::BinOp::Mul, _, _)))
            .count();
        assert_eq!(muls, 1, "\n{f}");
    }

    #[test]
    fn report_times_are_recorded() {
        let mut f = compile("routine f(a) { return a + 1; }", SsaStyle::Minimal).unwrap();
        let report = Pipeline::new(GvnConfig::full()).optimize(&mut f);
        assert!(report.total_nanos >= report.gvn_nanos);
        assert!(report.gvn_nanos > 0);
    }

    #[test]
    fn weaker_configs_also_roundtrip() {
        for cfg in [GvnConfig::click(), GvnConfig::sccp(), GvnConfig::awz(), GvnConfig::basic()] {
            let original = compile(pgvn_lang::fixtures::FIGURE1, SsaStyle::Minimal).unwrap();
            let mut f = original.clone();
            Pipeline::new(cfg.clone()).optimize(&mut f);
            assert_verifies(&f);
            for args in [[3, 3, 9], [0, 1, 2]] {
                let mut o1 = HashedOpaques::new(0);
                let mut o2 = HashedOpaques::new(0);
                let r1 = Interpreter::new(&original).run(&args, &mut o1).unwrap();
                let r2 = Interpreter::new(&f).run(&args, &mut o2).unwrap();
                assert_eq!(r1, r2, "{cfg:?}");
            }
        }
    }
}

#[cfg(test)]
mod round_tests {
    use super::*;
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    #[test]
    fn rounds_accumulate_in_the_report() {
        let src = "routine f(a) {
            x = a + a;
            y = a + a;
            z = x - y;
            if (z > 0) { return 99; }
            return z;
        }";
        let mut f1 = compile(src, SsaStyle::Minimal).unwrap();
        let one = Pipeline::new(GvnConfig::full()).optimize(&mut f1);
        let mut f2 = compile(src, SsaStyle::Minimal).unwrap();
        let two = Pipeline::new(GvnConfig::full()).passes(PassSpec::default()).optimize(&mut f2);
        assert!(two.dead_removed >= one.dead_removed);
        assert!(two.constants_propagated >= one.constants_propagated);
        assert!(two.total_nanos >= two.gvn_nanos);
    }

    #[test]
    fn rounds_sets_a_gvn_spec_of_at_least_one_pass() {
        let gvn = |n| Pipeline::new(GvnConfig::full()).rounds(n).spec().to_string();
        assert_eq!(gvn(0), "gvn");
        assert_eq!(gvn(2), PassSpec::default().to_string());
        assert_eq!(gvn(3), "gvn,gvn,gvn");
    }
}
