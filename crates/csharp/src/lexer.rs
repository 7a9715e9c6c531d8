//! Tokenizer for the C# subset.

use pigeon_ast::syntax::{Lexicon, ParseError, Scanner, Token, TokenKind};

/// C# reserved keywords recognised by the parser. Contextual keywords
/// (`var`, `get`, `set`) are deliberately absent: they remain valid
/// identifiers, as in the language.
pub const KEYWORDS: &[&str] = &[
    "using",
    "namespace",
    "public",
    "private",
    "protected",
    "internal",
    "static",
    "readonly",
    "sealed",
    "abstract",
    "override",
    "virtual",
    "class",
    "interface",
    "struct",
    "void",
    "int",
    "long",
    "short",
    "float",
    "double",
    "decimal",
    "bool",
    "string",
    "char",
    "byte",
    "object",
    "new",
    "if",
    "else",
    "while",
    "do",
    "for",
    "foreach",
    "in",
    "return",
    "break",
    "continue",
    "this",
    "base",
    "null",
    "true",
    "false",
    "try",
    "catch",
    "finally",
    "throw",
    "switch",
    "case",
    "default",
    "is",
    "as",
    "out",
    "ref",
];

/// Whether `text` is a reserved word.
pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// Predefined (built-in) type keywords.
pub const PREDEFINED_TYPES: &[&str] = &[
    "int", "long", "short", "float", "double", "decimal", "bool", "string", "char", "byte",
    "object", "void",
];

/// The C# lexicon.
pub(crate) struct CSharp;

impl Lexicon for CSharp {
    const KEYWORDS: &'static [&'static str] = KEYWORDS;
    const PUNCT: &'static [&'static str] = &[
        "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "=>", "??",
        "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "<", ">", "+", "-", "*", "/", "%", "!",
        "?", ":", "&", "|", "^", "~", "@",
    ];
    const IDENT_EXTRA: &'static [u8] = b"";
    const NUMBER_EXTRA: &'static [u8] = b"_";
    const QUOTES: &'static [(char, TokenKind)] =
        &[('"', TokenKind::String), ('\'', TokenKind::Char)];
    const ESCAPES: &'static [(char, char)] = &[('n', '\n'), ('t', '\t'), ('r', '\r'), ('0', '\0')];
    const SINGLE_LINE_LITERALS: bool = false;
}

/// Tokenizes `source`, skipping whitespace and comments.
///
/// # Errors
///
/// Returns [`ParseError`] on unterminated literals or comments, or on a
/// character outside the subset's alphabet.
pub fn tokenize(source: &str) -> Result<Vec<Token>, ParseError> {
    let mut s = Scanner::<CSharp>::new(source);
    let mut tokens = Vec::new();
    while s.skip_trivia()? {
        tokens.push(s.token()?);
    }
    tokens.push(s.eof());
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_line() {
        assert_eq!(texts("var count = 0;"), ["var", "count", "=", "0", ";"]);
    }

    #[test]
    fn lambda_arrow_and_null_coalesce() {
        assert_eq!(texts("x => y ?? z"), ["x", "=>", "y", "??", "z"]);
    }

    #[test]
    fn contextual_keywords_stay_identifiers() {
        assert!(!is_keyword("var"));
        assert!(!is_keyword("get"));
        assert!(!is_keyword("set"));
        assert!(is_keyword("foreach"));
    }

    #[test]
    fn string_and_char_literals() {
        let toks = tokenize("string s = \"hi\"; char c = 'x';").unwrap();
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::String && t.text == "hi"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "x"));
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(texts("a // x\n b /* y */ c"), ["a", "b", "c"]);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(tokenize("\"abc").is_err());
        assert!(tokenize("a $ b").is_err());
    }
}
