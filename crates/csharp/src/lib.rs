//! C#-subset frontend producing PIGEON ASTs.
//!
//! Node kinds are Roslyn-flavoured (the parser the paper's PIGEON tool
//! used for C#). Compared to the Java frontend, declarations and calls
//! carry extra wrapper layers (`VariableDeclaration` →
//! `VariableDeclarator` → `EqualsValueClause`; `InvocationExpression` →
//! `ArgumentList` → `Argument`), reproducing the paper's observation that
//! "the C# AST is slightly more elaborate than the one we used for Java"
//! (§5.5) — which is why C#'s best path parameters are wider.
//!
//! # Supported subset
//!
//! `using` directives, namespaces, class/interface/struct declarations
//! with base lists; fields, methods (including expression-bodied),
//! constructors, auto- and bodied properties; predefined, named, generic,
//! nullable and array types plus contextual `var`; the usual statement
//! suite (`if`, `while`, `do`, `for`, `foreach`, `switch`,
//! `try`/`catch`/`finally`, `return`, `break`, `continue`, `throw`);
//! and expressions with assignment, conditional, `??`, binary tiers,
//! `is`/`as`, unary/postfix operators, invocations, member and element
//! access, object/array creation and lambdas.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), pigeon_csharp::ParseError> {
//! let ast = pigeon_csharp::parse("class A { bool done = false; }")?;
//! assert!(pigeon_ast::sexp(&ast).contains("(Identifier done)"));
//! # Ok(())
//! # }
//! ```

mod lexer;
mod parser;

pub use lexer::{is_keyword, tokenize, KEYWORDS, PREDEFINED_TYPES};
pub use parser::parse;
pub use pigeon_ast::syntax::{ParseError, Token, TokenKind};
