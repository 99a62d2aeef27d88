//! # pgvn-lang — front end for the pgvn project
//!
//! A small imperative language — assignments, `if`/`else`, `while`,
//! `do`-`while`, `break`/`continue`, `return`, integer expressions and the
//! `opaque(k)` intrinsic — sufficient to express every example program in
//! Gargi's PLDI 2002 paper verbatim (see [`fixtures`]).
//!
//! The pipeline is `source → tokens → AST → VarFunction → SSA Function`:
//!
//! ```
//! use pgvn_lang::compile;
//! use pgvn_ssa::SsaStyle;
//! use pgvn_ir::{Interpreter, HashedOpaques};
//!
//! let f = compile("routine triple(x) { return x * 3; }", SsaStyle::Pruned)?;
//! let r = Interpreter::new(&f).run(&[14], &mut HashedOpaques::new(0))?;
//! assert_eq!(r, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod fixtures;
pub mod lower;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::{Capacity, Case, Expr, ExprId, Routine, Span, Stmt, Sym};
pub use lower::lower;
pub use parser::{parse, ParseError, MAX_NESTING};
pub use printer::print_routine;
pub use token::{lex, LexError, Token};

use pgvn_ir::Function;
use pgvn_ssa::{build_ssa, SsaStyle};

/// A front-end error: parsing or SSA construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Lexical or syntactic error.
    Parse(ParseError),
    /// SSA construction failed.
    Build(pgvn_ssa::BuildError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<pgvn_ssa::BuildError> for CompileError {
    fn from(e: pgvn_ssa::BuildError) -> Self {
        CompileError::Build(e)
    }
}

/// Compiles a routine from source text to an SSA [`Function`].
///
/// # Errors
///
/// Returns a [`CompileError`] on parse failure or malformed control flow.
pub fn compile(src: &str, style: SsaStyle) -> Result<Function, CompileError> {
    let routine = parse(src)?;
    let vf = lower(&routine);
    Ok(build_ssa(&vf, style)?)
}
