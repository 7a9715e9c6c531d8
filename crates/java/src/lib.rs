//! Java-subset frontend producing PIGEON ASTs.
//!
//! Node kinds are JavaParser-flavoured (the parser the paper's PIGEON tool
//! used for Java). Declared names get dedicated terminal kinds —
//! `NameVar`, `NameParam`, `NameField`, `NameMethod`, `NameClass` — while
//! references are `NameRef` / `NameCall`, so AST paths can distinguish a
//! definition site from a use site.
//!
//! # Supported subset
//!
//! Package/import headers; class and interface declarations with
//! `extends`/`implements`; fields, methods, constructors with modifiers
//! and `throws`; structured types (primitives, qualified class types,
//! generics, arrays); the statement suite (locals, `if`, `while`, `do`,
//! classic `for`, `for`-each, `switch`, `try`/`catch`/`finally`,
//! `return`, `break`, `continue`, `throw`); and an expression grammar
//! with assignment, conditional, binary tiers, `instanceof`, casts,
//! unary/postfix operators, method calls, field and array access, and
//! object/array creation. Annotations are accepted and skipped.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), pigeon_java::ParseError> {
//! let ast = pigeon_java::parse("class A { boolean done = false; }")?;
//! assert!(pigeon_ast::sexp(&ast).contains("(NameField done)"));
//! # Ok(())
//! # }
//! ```

mod lexer;
mod parser;

pub use lexer::{is_keyword, tokenize, KEYWORDS, PRIMITIVES};
pub use parser::parse;
pub use pigeon_ast::syntax::{ParseError, Token, TokenKind};
