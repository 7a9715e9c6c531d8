//! Python-subset frontend producing PIGEON ASTs.
//!
//! The tokenizer is indentation-aware (INDENT/DEDENT layout tokens with
//! implicit line joining inside brackets, as in CPython's tokenizer) and
//! the node kinds mirror the CPython `ast` module — the parser the
//! paper's PIGEON tool used for Python.
//!
//! # Supported subset
//!
//! `def` / `class` definitions with decorators (skipped) and default
//! parameters; `if`/`elif`/`else`, `while`, `for` (with tuple targets),
//! `with ... as`, `try`/`except`/`finally`, `return`, `raise`, `pass`,
//! `break`, `continue`, `global`, `del`, imports; assignment (chained,
//! tuple-unpacking and augmented) and an expression grammar with boolean
//! operators, comparisons (`in`, `is`, chains), arithmetic tiers, unary
//! operators, calls with keyword arguments, attributes, subscripts and
//! slices, list/dict/tuple literals, lambdas and conditional expressions.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), pigeon_python::ParseError> {
//! let ast = pigeon_python::parse("o, e = p.communicate()\n")?;
//! assert!(pigeon_ast::sexp(&ast).contains("TupleStore"));
//! # Ok(())
//! # }
//! ```

mod lexer;
mod parser;

pub use lexer::{is_keyword, tokenize, KEYWORDS};
pub use parser::parse;
pub use pigeon_ast::syntax::{ParseError, Token, TokenKind};
