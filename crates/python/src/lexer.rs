//! Indentation-aware tokenizer for the Python subset.
//!
//! Follows the CPython tokenizer's structure: a stack of indentation
//! levels emits `Indent`/`Dedent` tokens at the start of logical lines,
//! `Newline` tokens terminate logical lines, and both are suppressed
//! inside brackets (implicit line joining).

use pigeon_ast::syntax::{Lexicon, ParseError, Scanner, Token, TokenKind};

/// Python keywords recognised by the parser.
pub const KEYWORDS: &[&str] = &[
    "def", "class", "return", "if", "elif", "else", "while", "for", "in", "break", "continue",
    "pass", "import", "from", "as", "try", "except", "finally", "raise", "with", "not", "and",
    "or", "is", "None", "True", "False", "lambda", "del", "global", "yield",
];

/// Whether `text` is a reserved word.
pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// The Python lexicon.
pub(crate) struct Python;

impl Lexicon for Python {
    const KEYWORDS: &'static [&'static str] = KEYWORDS;
    const PUNCT: &'static [&'static str] = &[
        "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "//", "**", "->", "(", ")", "[", "]",
        "{", "}", ":", ",", ".", ";", "=", "<", ">", "+", "-", "*", "/", "%", "@", "&", "|", "^",
        "~",
    ];
    const IDENT_EXTRA: &'static [u8] = b"";
    const NUMBER_EXTRA: &'static [u8] = b"_";
    const QUOTES: &'static [(char, TokenKind)] =
        &[('"', TokenKind::String), ('\'', TokenKind::String)];
    const ESCAPES: &'static [(char, char)] = &[('n', '\n'), ('t', '\t'), ('r', '\r')];
    const SINGLE_LINE_LITERALS: bool = true;
}

/// Tokenizes `source` with layout tokens.
///
/// # Errors
///
/// Returns [`ParseError`] on inconsistent dedents, unterminated strings,
/// or characters outside the subset's alphabet.
pub fn tokenize(source: &str) -> Result<Vec<Token>, ParseError> {
    let mut s = Scanner::<Python>::new(source);
    let mut tokens: Vec<Token> = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    let mut bracket_depth = 0usize;
    let mut at_line_start = true;

    while s.peek().is_some() {
        if at_line_start && bracket_depth == 0 {
            // Measure indentation; skip blank and comment-only lines.
            let line_start = s.pos();
            let mut col = 0usize;
            while let Some(b @ (b' ' | b'\t')) = s.peek() {
                col += if b == b'\t' { 8 - col % 8 } else { 1 };
                s.advance(1);
            }
            match s.peek() {
                None => break,
                Some(b'\n') => {
                    s.advance(1);
                    continue;
                }
                Some(b'#') => {
                    s.skip_line();
                    continue;
                }
                Some(_) => {}
            }
            let current = *indents.last().expect("indent stack never empty");
            if col > current {
                indents.push(col);
                tokens.push(s.layout(TokenKind::Indent, line_start));
            } else {
                while col < *indents.last().expect("indent stack never empty") {
                    indents.pop();
                    tokens.push(s.layout(TokenKind::Dedent, line_start));
                }
                if col != *indents.last().expect("indent stack never empty") {
                    return Err(s.error_at(line_start, "inconsistent dedent"));
                }
            }
            at_line_start = false;
        }

        match (s.peek(), s.peek_at(1)) {
            (Some(b'\n'), _) => {
                s.advance(1);
                if bracket_depth == 0 {
                    // Suppress empty logical lines.
                    if !matches!(
                        tokens.last().map(|t| t.kind),
                        None | Some(TokenKind::Newline)
                            | Some(TokenKind::Indent)
                            | Some(TokenKind::Dedent)
                    ) {
                        tokens.push(s.layout(TokenKind::Newline, s.pos() - 1));
                    }
                    at_line_start = true;
                }
            }
            (Some(b' ' | b'\t' | b'\r'), _) => s.advance(1),
            (Some(b'#'), _) => s.skip_line(),
            // Explicit line joining.
            (Some(b'\\'), Some(b'\n')) => s.advance(2),
            _ => {
                let t = s.token()?;
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => bracket_depth += 1,
                        ")" | "]" | "}" => bracket_depth = bracket_depth.saturating_sub(1),
                        _ => {}
                    }
                }
                tokens.push(t);
            }
        }
    }

    // Terminate the last logical line and close open blocks.
    if !matches!(
        tokens.last().map(|t| t.kind),
        None | Some(TokenKind::Newline) | Some(TokenKind::Dedent)
    ) {
        tokens.push(s.layout(TokenKind::Newline, source.len()));
    }
    while indents.len() > 1 {
        indents.pop();
        tokens.push(s.layout(TokenKind::Dedent, source.len()));
    }
    tokens.push(s.eof());
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_line() {
        use TokenKind::*;
        assert_eq!(kinds("x = 1"), [Ident, Punct, Number, Newline, Eof]);
    }

    #[test]
    fn indent_dedent_pairs() {
        use TokenKind::*;
        let src = "if x:\n    y = 1\nz = 2\n";
        assert_eq!(
            kinds(src),
            [
                Ident, Ident, Punct, Newline, // if x :
                Indent, Ident, Punct, Number, Newline, // y = 1
                Dedent, Ident, Punct, Number, Newline, // z = 2
                Eof
            ]
        );
    }

    #[test]
    fn nested_blocks_fully_dedent_at_eof() {
        let toks = tokenize("def f():\n    if x:\n        return 1\n").unwrap();
        let dedents = toks.iter().filter(|t| t.kind == TokenKind::Dedent).count();
        let indents = toks.iter().filter(|t| t.kind == TokenKind::Indent).count();
        assert_eq!(dedents, indents);
        assert_eq!(indents, 2);
    }

    #[test]
    fn blank_and_comment_lines_do_not_affect_layout() {
        let src = "if x:\n\n    # comment\n    y = 1\n";
        let toks = tokenize(src).unwrap();
        let indents = toks.iter().filter(|t| t.kind == TokenKind::Indent).count();
        assert_eq!(indents, 1);
    }

    #[test]
    fn brackets_suppress_newlines() {
        let src = "f(a,\n  b)\n";
        let toks = tokenize(src).unwrap();
        let newlines = toks.iter().filter(|t| t.kind == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
        assert!(toks.iter().all(|t| t.kind != TokenKind::Indent));
    }

    #[test]
    fn inconsistent_dedent_is_an_error() {
        let src = "if x:\n        y = 1\n    z = 2\n";
        let err = tokenize(src).unwrap_err();
        assert!(err.message.contains("inconsistent dedent"));
    }

    #[test]
    fn strings_and_escapes() {
        let toks = tokenize("s = 'a\\nb'").unwrap();
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::String && t.text == "a\nb"));
    }

    #[test]
    fn unterminated_string_at_newline_errors() {
        assert!(tokenize("s = 'abc\n").is_err());
    }

    #[test]
    fn explicit_line_joining() {
        let toks = tokenize("x = 1 + \\\n    2\n").unwrap();
        let newlines = toks.iter().filter(|t| t.kind == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn keywords_recognised() {
        assert!(is_keyword("elif"));
        assert!(is_keyword("None"));
        assert!(!is_keyword("retcode"));
    }
}
