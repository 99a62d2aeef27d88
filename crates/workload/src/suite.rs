//! The SPEC CINT2000 stand-in suite.
//!
//! The paper evaluates on the SPEC CINT2000 C benchmarks compiled by HP's
//! PA-RISC compiler — neither of which is available here. As documented in
//! `DESIGN.md`, the suite is *simulated*: each benchmark is a named
//! profile (routine count, size distribution, structural character) that
//! deterministically generates routines through [`crate::generate_function`].
//! Routine counts are proportioned like the real suite (176.gcc dominates,
//! 181.mcf is tiny), scaled by [`SuiteConfig::scale`]; 256.bzip2 is
//! excluded exactly as in the paper (§5).

use crate::gen::{generate_function, GenConfig};
use pgvn_ir::Function;
use pgvn_ssa::SsaStyle;

/// The shape of one benchmark's generated routines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (SPEC CINT2000 naming).
    pub name: &'static str,
    /// Routine count at scale 1.0.
    pub base_routines: usize,
    /// Mean statements per routine.
    pub mean_stmts: usize,
    /// Probability weight for loops (loop-heavy codes like vpr/twolf).
    pub loop_prob: f64,
    /// Probability weight for inference opportunities (branchy codes).
    pub inference_prob: f64,
    /// Probability of opaque leaves (call-heavy codes like perlbmk/gap).
    pub opaque_prob: f64,
}

/// The ten profiles used throughout the evaluation (paper Table 1/2 rows).
pub const SPEC_CINT2000: [BenchmarkProfile; 10] = [
    BenchmarkProfile {
        name: "164.gzip",
        base_routines: 63,
        mean_stmts: 45,
        loop_prob: 0.45,
        inference_prob: 0.12,
        opaque_prob: 0.06,
    },
    BenchmarkProfile {
        name: "175.vpr",
        base_routines: 255,
        mean_stmts: 42,
        loop_prob: 0.40,
        inference_prob: 0.14,
        opaque_prob: 0.07,
    },
    BenchmarkProfile {
        name: "176.gcc",
        base_routines: 2019,
        mean_stmts: 55,
        loop_prob: 0.25,
        inference_prob: 0.20,
        opaque_prob: 0.10,
    },
    BenchmarkProfile {
        name: "181.mcf",
        base_routines: 24,
        mean_stmts: 40,
        loop_prob: 0.50,
        inference_prob: 0.10,
        opaque_prob: 0.04,
    },
    BenchmarkProfile {
        name: "186.crafty",
        base_routines: 106,
        mean_stmts: 70,
        loop_prob: 0.30,
        inference_prob: 0.18,
        opaque_prob: 0.05,
    },
    BenchmarkProfile {
        name: "197.parser",
        base_routines: 323,
        mean_stmts: 38,
        loop_prob: 0.28,
        inference_prob: 0.18,
        opaque_prob: 0.08,
    },
    BenchmarkProfile {
        name: "253.perlbmk",
        base_routines: 1059,
        mean_stmts: 40,
        loop_prob: 0.22,
        inference_prob: 0.16,
        opaque_prob: 0.12,
    },
    BenchmarkProfile {
        name: "254.gap",
        base_routines: 854,
        mean_stmts: 44,
        loop_prob: 0.26,
        inference_prob: 0.15,
        opaque_prob: 0.11,
    },
    BenchmarkProfile {
        name: "255.vortex",
        base_routines: 923,
        mean_stmts: 36,
        loop_prob: 0.20,
        inference_prob: 0.17,
        opaque_prob: 0.12,
    },
    BenchmarkProfile {
        name: "300.twolf",
        base_routines: 167,
        mean_stmts: 60,
        loop_prob: 0.42,
        inference_prob: 0.13,
        opaque_prob: 0.06,
    },
];

/// Suite-wide generation settings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteConfig {
    /// Fraction of each benchmark's base routine count to generate
    /// (1.0 reproduces the full ~5800-routine suite; tests use less).
    pub scale: f64,
    /// Global seed; combined with the benchmark name and routine index.
    pub seed: u64,
    /// SSA construction style for the generated functions.
    pub style: SsaStyle,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig { scale: 0.1, seed: 0x5EED, style: SsaStyle::Minimal }
    }
}

/// One generated benchmark: its profile and routine factory.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// The profile this benchmark was generated from.
    pub profile: BenchmarkProfile,
    cfg: SuiteConfig,
    count: usize,
}

impl Benchmark {
    /// Number of routines this benchmark generates.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if no routines would be generated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The (identifier-safe) name of routine `i`.
    fn routine_name(&self, i: usize) -> String {
        format!("b{}_{i}", self.profile.name.replace('.', "_"))
    }

    /// The generator configuration of routine `i`, seeded from the suite
    /// config (shared by [`Benchmark::routine`] and [`Benchmark::source`]).
    fn gen_config(&self, i: usize) -> GenConfig {
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(fxhash(self.profile.name))
            .wrapping_add(i as u64);
        let p = &self.profile;
        // Mix of sizes: mostly near the mean, a heavy tail of big ones.
        let bucket = i % 10;
        let target = match bucket {
            0..=5 => p.mean_stmts / 2 + (i % 7) * p.mean_stmts / 8,
            6..=8 => p.mean_stmts + (i % 5) * p.mean_stmts / 4,
            _ => p.mean_stmts * 3,
        };
        GenConfig {
            seed,
            num_params: 2 + i % 3,
            target_stmts: target.max(6),
            max_depth: 3 + (i % 3),
            loop_prob: p.loop_prob,
            inference_prob: p.inference_prob,
            opaque_prob: p.opaque_prob,
            ..GenConfig::default()
        }
    }

    /// Generates routine `i` (deterministic in the suite config).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn routine(&self, i: usize) -> Function {
        assert!(i < self.count, "routine index out of range");
        generate_function(&self.routine_name(i), &self.gen_config(i), self.cfg.style)
    }

    /// The source text of routine `i`: the `pgvn-lang` pretty-printer's
    /// rendering of the generated AST.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn source(&self, i: usize) -> String {
        assert!(i < self.count, "routine index out of range");
        let routine = crate::generate_routine(&self.routine_name(i), &self.gen_config(i));
        pgvn_lang::print_routine(&routine)
    }

    /// Iterates over all routines.
    pub fn routines(&self) -> impl Iterator<Item = Function> + '_ {
        (0..self.count).map(|i| self.routine(i))
    }
}

fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Writes every routine of `bench` as a `.pg` source file under `dir`
/// (using the `pgvn-lang` pretty-printer), so the suite can be inspected
/// or replayed through the `pgvn` CLI.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_benchmark(bench: &Benchmark, dir: &std::path::Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for i in 0..bench.len() {
        std::fs::write(dir.join(format!("{}.pg", bench.routine_name(i))), bench.source(i))?;
        written += 1;
    }
    Ok(written)
}

/// Builds the scaled SPEC CINT2000 stand-in suite.
pub fn spec_suite(cfg: SuiteConfig) -> Vec<Benchmark> {
    SPEC_CINT2000
        .iter()
        .map(|&profile| Benchmark {
            profile,
            cfg,
            count: ((profile.base_routines as f64 * cfg.scale).round() as usize).max(1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_benchmarks_scaled() {
        let suite = spec_suite(SuiteConfig { scale: 0.01, ..Default::default() });
        assert_eq!(suite.len(), 10);
        let gcc = suite.iter().find(|b| b.profile.name == "176.gcc").unwrap();
        let mcf = suite.iter().find(|b| b.profile.name == "181.mcf").unwrap();
        assert!(gcc.len() > mcf.len(), "gcc dominates the suite");
        assert_eq!(mcf.len(), 1, "scale floor is one routine");
    }

    #[test]
    fn routines_are_deterministic() {
        let cfg = SuiteConfig { scale: 0.02, ..Default::default() };
        let a = spec_suite(cfg)[0].routine(0);
        let b = spec_suite(cfg)[0].routine(0);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn different_benchmarks_differ() {
        let cfg = SuiteConfig { scale: 0.02, ..Default::default() };
        let suite = spec_suite(cfg);
        assert_ne!(suite[0].routine(0).to_string(), suite[1].routine(0).to_string());
    }

    #[test]
    fn dumped_sources_recompile_equivalently() {
        use pgvn_ir::{HashedOpaques, Interpreter};
        let cfg = SuiteConfig { scale: 0.004, ..Default::default() };
        let bench = &spec_suite(cfg)[0];
        let dir = std::env::temp_dir().join("pgvn-suite-dump-test");
        let n = dump_benchmark(bench, &dir).expect("dump succeeds");
        assert_eq!(n, bench.len());
        for i in 0..bench.len() {
            let name = format!("b{}_{i}.pg", bench.profile.name.replace('.', "_"));
            let text = std::fs::read_to_string(dir.join(&name)).expect("file written");
            // Negative literals print as `0 - n`, so the recompiled
            // function is not textually identical — check semantics.
            let reparsed = pgvn_lang::compile(&text, cfg.style).expect("recompiles");
            let original = bench.routine(i);
            for args in [[0i64, 0, 0], [5, -3, 9]] {
                let mut o1 = HashedOpaques::new(7);
                let mut o2 = HashedOpaques::new(7);
                let a = Interpreter::new(&original).fuel(5_000_000).run(&args, &mut o1).unwrap();
                let b = Interpreter::new(&reparsed).fuel(5_000_000).run(&args, &mut o2).unwrap();
                assert_eq!(a, b, "{name} args {args:?}");
            }
        }
    }

    #[test]
    fn all_small_scale_routines_verify() {
        let cfg = SuiteConfig { scale: 0.005, ..Default::default() };
        for bench in spec_suite(cfg) {
            for f in bench.routines() {
                pgvn_ir::verify(&f).unwrap_or_else(|e| panic!("{}: {e}", f.name()));
            }
        }
    }
}
