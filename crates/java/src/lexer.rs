//! Tokenizer for the Java subset.

use pigeon_ast::syntax::{Lexicon, ParseError, Scanner, Token, TokenKind};

/// Java keywords recognised by the parser.
pub const KEYWORDS: &[&str] = &[
    "package",
    "import",
    "public",
    "private",
    "protected",
    "static",
    "final",
    "abstract",
    "class",
    "interface",
    "extends",
    "implements",
    "void",
    "int",
    "long",
    "short",
    "byte",
    "float",
    "double",
    "boolean",
    "char",
    "if",
    "else",
    "while",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "new",
    "this",
    "super",
    "null",
    "true",
    "false",
    "try",
    "catch",
    "finally",
    "throw",
    "throws",
    "switch",
    "case",
    "default",
    "instanceof",
    "synchronized",
];

/// Whether `text` is a reserved word.
pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// The primitive type keywords.
pub const PRIMITIVES: &[&str] = &[
    "int", "long", "short", "byte", "float", "double", "boolean", "char", "void",
];

/// The Java lexicon.
pub(crate) struct Java;

impl Lexicon for Java {
    const KEYWORDS: &'static [&'static str] = KEYWORDS;
    const PUNCT: &'static [&'static str] = &[
        "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "->", "::",
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
    let mut s = Scanner::<Java>::new(source);
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
    fn basic_java_line() {
        assert_eq!(texts("int count = 0;"), ["int", "count", "=", "0", ";"]);
    }

    #[test]
    fn char_and_string_literals() {
        let toks = tokenize("char c = 'x'; String s = \"hi\";").unwrap();
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "x"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::String && t.text == "hi"));
    }

    #[test]
    fn escapes_in_char_literal() {
        let toks = tokenize("'\\n'").unwrap();
        assert_eq!(toks[0].text, "\n");
    }

    #[test]
    fn numbers_with_suffixes_and_decimals() {
        assert_eq!(texts("1L 2.5 3.5f 0x1F"), ["1L", "2.5", "3.5f", "0x1F"]);
    }

    #[test]
    fn generics_tokens() {
        assert_eq!(
            texts("List<Integer> xs"),
            ["List", "<", "Integer", ">", "xs"]
        );
    }

    #[test]
    fn arrow_and_double_colon() {
        assert_eq!(texts("x -> y::z"), ["x", "->", "y", "::", "z"]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(texts("a /* x */ b // y\n c"), ["a", "b", "c"]);
    }

    #[test]
    fn unterminated_char_errors() {
        assert!(tokenize("'a").is_err());
    }

    #[test]
    fn keyword_table() {
        assert!(is_keyword("instanceof"));
        assert!(!is_keyword("count"));
        assert!(PRIMITIVES.contains(&"boolean"));
    }
}
