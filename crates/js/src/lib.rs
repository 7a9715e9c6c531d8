//! JavaScript-subset frontend producing PIGEON ASTs.
//!
//! The node-kind vocabulary follows UglifyJS — the parser the paper's
//! PIGEON tool used for JavaScript — so the paths this frontend yields
//! render exactly like the paper's examples:
//! `SymbolRef ↑ UnaryPrefix! ↑ While ↓ If ↓ Assign= ↓ SymbolRef`.
//!
//! # Supported subset
//!
//! Declarations (`var`/`let`/`const`, functions), the full statement suite
//! the corpus exercises (`if`/`else`, `while`, `do`, the three `for`
//! forms, `switch`, `try`/`catch`/`finally`, `return`, `break`,
//! `continue`, `throw`, blocks, expression statements) and an expression
//! grammar with assignment (simple and compound), conditional, the
//! logical/equality/relational/additive/multiplicative tiers, prefix and
//! postfix unaries, calls, `new`, named and computed member access, array
//! and object literals, function expressions and arrow functions.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), pigeon_js::ParseError> {
//! let ast = pigeon_js::parse("while (!d) { d = true; }")?;
//! assert_eq!(
//!     pigeon_ast::sexp(&ast),
//!     "(Toplevel (While (UnaryPrefix! (SymbolRef d)) \
//!      (Assign= (SymbolRef d) (True true))))"
//! );
//! # Ok(())
//! # }
//! ```

mod lexer;
mod parser;

pub use lexer::{is_keyword, tokenize, KEYWORDS};
pub use parser::parse;
pub use pigeon_ast::syntax::{ParseError, Token, TokenKind};
