//! Tokenizer for the JavaScript subset.

use pigeon_ast::syntax::{Lexicon, ParseError, Scanner, Token, TokenKind};

/// JavaScript keywords recognised by the parser.
pub const KEYWORDS: &[&str] = &[
    "var",
    "let",
    "const",
    "function",
    "return",
    "if",
    "else",
    "while",
    "do",
    "for",
    "break",
    "continue",
    "new",
    "typeof",
    "delete",
    "in",
    "of",
    "null",
    "true",
    "false",
    "this",
    "instanceof",
    "switch",
    "case",
    "default",
    "try",
    "catch",
    "finally",
    "throw",
];

/// Whether `text` is a reserved word.
pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// The JavaScript lexicon.
pub(crate) struct Js;

impl Lexicon for Js {
    const KEYWORDS: &'static [&'static str] = KEYWORDS;
    const PUNCT: &'static [&'static str] = &[
        "===", "!==", "**=", "...", "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
        "*=", "/=", "%=", "=>", "**", "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "<", ">",
        "+", "-", "*", "/", "%", "!", "?", ":", "&", "|", "^", "~",
    ];
    const IDENT_EXTRA: &'static [u8] = b"$";
    // `1.toFixed` is not in the subset, so every `.` continues a number.
    const NUMBER_EXTRA: &'static [u8] = b".";
    const QUOTES: &'static [(char, TokenKind)] =
        &[('"', TokenKind::String), ('\'', TokenKind::String)];
    const ESCAPES: &'static [(char, char)] = &[('n', '\n'), ('t', '\t'), ('r', '\r')];
    const SINGLE_LINE_LITERALS: bool = false;
}

/// Tokenizes `source`, skipping whitespace and comments. The final token
/// is always [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns [`ParseError`] on an unterminated string or comment, or on a
/// character outside the subset's alphabet.
pub fn tokenize(source: &str) -> Result<Vec<Token>, ParseError> {
    let mut s = Scanner::<Js>::new(source);
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
    fn idents_numbers_strings() {
        assert_eq!(texts("var x = 42;"), ["var", "x", "=", "42", ";"]);
        assert_eq!(texts("s = 'hi'"), ["s", "=", "hi"]);
        assert_eq!(texts("s = \"a\\nb\""), ["s", "=", "a\nb"]);
    }

    #[test]
    fn multi_char_punct_wins() {
        assert_eq!(texts("a === b"), ["a", "===", "b"]);
        assert_eq!(texts("a == b"), ["a", "==", "b"]);
        assert_eq!(texts("i++ + 1"), ["i", "++", "+", "1"]);
        assert_eq!(texts("f => g"), ["f", "=>", "g"]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(texts("a // line\n b"), ["a", "b"]);
        assert_eq!(texts("a /* block \n more */ b"), ["a", "b"]);
    }

    #[test]
    fn dollar_and_underscore_idents() {
        assert_eq!(texts("$el _x"), ["$el", "_x"]);
    }

    #[test]
    fn offsets_point_into_source() {
        let toks = tokenize("ab cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }

    #[test]
    fn unterminated_string_errors() {
        let err = tokenize("'abc").unwrap_err();
        assert!(err.message.contains("unterminated string"));
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = tokenize("/* abc").unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
    }

    #[test]
    fn unknown_character_errors() {
        let err = tokenize("a # b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn keywords_are_recognised() {
        assert!(is_keyword("while"));
        assert!(!is_keyword("whileish"));
    }

    #[test]
    fn eof_is_last() {
        let toks = tokenize("x").unwrap();
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }
}
