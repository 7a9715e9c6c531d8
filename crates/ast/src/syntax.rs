//! The scaffold the language frontends share: tokens, the one parse
//! error, a table-driven scanner and a token cursor with the nesting
//! bound.
//!
//! A frontend contributes data — a [`Lexicon`] of keywords, punctuation
//! and literal rules — plus a short `tokenize` loop and its grammar.
//! Nothing here branches on the language.

use std::fmt;
use std::marker::PhantomData;
use std::ops::DerefMut;

/// How deep a grammar may nest before parsing stops with a
/// [`ParseError`]: the bound that keeps a hostile input from overflowing
/// a thread's stack, in the parser or in any tree walk after it.
/// DESIGN.md §6 records how it was sized.
pub const MAX_NESTING: usize = 100;

/// The lexical category of a [`Token`], over all frontends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// An identifier or keyword (keywords are distinguished by text).
    Ident,
    /// A numeric literal.
    Number,
    /// A string literal (text excludes the quotes).
    String,
    /// A character literal (text excludes the quotes).
    Char,
    /// A punctuation or operator token.
    Punct,
    /// End of a logical line (layout-sensitive languages).
    Newline,
    /// Increase of indentation depth.
    Indent,
    /// Decrease of indentation depth.
    Dedent,
    /// End of input.
    Eof,
}

/// One lexical token with its text and byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical category.
    pub kind: TokenKind,
    /// The token's source text: the unquoted, unescaped contents for
    /// literals, empty for layout tokens and end of input.
    pub text: String,
    /// Byte offset of the first character in the source.
    pub offset: u32,
}

/// An error produced while tokenizing or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset the error occurred at.
    pub offset: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One language's lexical tables, which drive the [`Scanner`]. They are
/// associated constants, so each frontend's scanner is compiled with its
/// own tables folded in, as a hand-written one would be.
pub trait Lexicon {
    /// Reserved words; [`Cursor::ident`] rejects them.
    const KEYWORDS: &'static [&'static str];
    /// Operators and delimiters. The scanner takes the longest entry
    /// that matches.
    const PUNCT: &'static [&'static str];
    /// Bytes besides ASCII letters, digits and `_` that may start or
    /// continue an identifier.
    const IDENT_EXTRA: &'static [u8];
    /// Bytes besides ASCII letters and digits that continue a number. A
    /// `.` followed by a digit always does.
    const NUMBER_EXTRA: &'static [u8];
    /// Opening quotes and the literal kind each one starts.
    const QUOTES: &'static [(char, TokenKind)];
    /// Escape letters and what they stand for; any other escaped
    /// character stands for itself.
    const ESCAPES: &'static [(char, char)];
    /// Whether a raw newline inside a quoted literal leaves it
    /// unterminated.
    const SINGLE_LINE_LITERALS: bool;
}

/// For each ASCII byte, the set of `punct` entries (as bits of their
/// indices) that start with it, so the scanner never walks the table.
const fn first_byte_sets(punct: &[&str]) -> [u64; 128] {
    assert!(punct.len() <= 64, "at most 64 punctuation entries");
    let mut sets = [0; 128];
    let mut i = 0;
    while i < punct.len() {
        let first = punct[i].as_bytes()[0];
        assert!(first < 128, "punctuation starts with an ASCII byte");
        sets[first as usize] |= 1 << i;
        i += 1;
    }
    sets
}

#[inline]
fn is_ident_byte(extra: &[u8], b: u8) -> bool {
    b == b'_' || extra.contains(&b)
}

/// A scanner over one source text. Each language's `tokenize` loop
/// decides what to skip and calls [`Scanner::token`] where a token
/// starts.
#[derive(Debug)]
pub struct Scanner<'a, L> {
    source: &'a str,
    pos: usize,
    lexicon: PhantomData<L>,
}

impl<'a, L: Lexicon> Scanner<'a, L> {
    /// A scanner at the start of `source`.
    pub fn new(source: &'a str) -> Self {
        Scanner {
            source,
            pos: 0,
            lexicon: PhantomData,
        }
    }

    /// The current byte offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The byte `n` places ahead of the current one, if any.
    #[inline]
    pub fn peek_at(&self, n: usize) -> Option<u8> {
        self.source.as_bytes().get(self.pos + n).copied()
    }

    /// The current byte, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.peek_at(0)
    }

    /// Moves past `n` bytes; the caller has seen them all be ASCII.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    /// Skips to the next `\n` (not past it) or the end of input.
    #[inline]
    pub fn skip_line(&mut self) {
        self.pos = self.source[self.pos..]
            .find('\n')
            .map_or(self.source.len(), |i| self.pos + i);
    }

    /// Skips ASCII whitespace, `//` line comments and `/* */` block
    /// comments, and reports whether a token follows.
    ///
    /// # Errors
    ///
    /// An unterminated block comment, reported at its opening `/*`.
    #[inline]
    pub fn skip_trivia(&mut self) -> Result<bool, ParseError> {
        while let Some(b) = self.peek() {
            match (b, self.peek_at(1)) {
                (b, _) if b.is_ascii_whitespace() => self.pos += 1,
                (b'/', Some(b'/')) => self.skip_line(),
                (b'/', Some(b'*')) => match self.source[self.pos + 2..].find("*/") {
                    Some(i) => self.pos += 2 + i + 2,
                    None => return Err(self.error_at(self.pos, "unterminated block comment")),
                },
                _ => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Scans the token that starts at the current byte: an identifier,
    /// a number, a quoted literal or the longest matching punctuation.
    ///
    /// # Errors
    ///
    /// An unterminated literal, or a character no token starts with.
    #[inline]
    pub fn token(&mut self) -> Result<Token, ParseError> {
        let start = self.pos;
        let bytes = self.source.as_bytes();
        let b = bytes[start];
        if b.is_ascii_alphabetic() || is_ident_byte(L::IDENT_EXTRA, b) {
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || is_ident_byte(L::IDENT_EXTRA, b))
            {
                self.pos += 1;
            }
            return Ok(self.slice_token(TokenKind::Ident, start));
        }
        if b.is_ascii_digit() {
            while let Some(b) = self.peek() {
                let decimal_point =
                    b == b'.' && self.peek_at(1).is_some_and(|n| n.is_ascii_digit());
                if b.is_ascii_alphanumeric() || L::NUMBER_EXTRA.contains(&b) || decimal_point {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            return Ok(self.slice_token(TokenKind::Number, start));
        }
        let quote = L::QUOTES.iter().find(|&&(q, _)| q == char::from(b));
        if let Some(&(quote, kind)) = quote {
            return self.quoted(quote, kind);
        }
        let rest = &self.source[start..];
        let sets = const { first_byte_sets(L::PUNCT) };
        let mut candidates = sets.get(usize::from(b)).copied().unwrap_or(0);
        let mut longest = 0;
        while candidates != 0 {
            let entry = L::PUNCT[candidates.trailing_zeros() as usize];
            candidates &= candidates - 1;
            if entry.len() > longest && rest.starts_with(entry) {
                longest = entry.len();
            }
        }
        if longest > 0 {
            self.pos += longest;
            return Ok(self.slice_token(TokenKind::Punct, start));
        }
        let c = rest
            .chars()
            .next()
            .expect("a token starts before the end of input");
        Err(self.error_at(start, &format!("unexpected character {c:?}")))
    }

    /// The end-of-input token.
    #[inline]
    pub fn eof(&self) -> Token {
        self.layout(TokenKind::Eof, self.source.len())
    }

    /// A text-less token of `kind` at byte `offset`, for layout tokens
    /// a `tokenize` loop emits itself.
    #[inline]
    pub fn layout(&self, kind: TokenKind, offset: usize) -> Token {
        Token {
            kind,
            text: String::new(),
            offset: offset as u32,
        }
    }

    /// An error at byte `offset`.
    #[inline]
    pub fn error_at(&self, offset: usize, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: offset as u32,
        }
    }

    #[inline]
    fn slice_token(&self, kind: TokenKind, start: usize) -> Token {
        Token {
            kind,
            text: self.source[start..self.pos].to_owned(),
            offset: start as u32,
        }
    }

    /// A quoted literal, decoded one Unicode scalar at a time.
    fn quoted(&mut self, quote: char, kind: TokenKind) -> Result<Token, ParseError> {
        let start = self.pos;
        let mut chars = self.source[start + quote.len_utf8()..].chars();
        let mut text = String::new();
        let terminated = loop {
            match chars.next() {
                Some(c) if c == quote => break true,
                Some('\n') if L::SINGLE_LINE_LITERALS => break false,
                Some('\\') => {
                    // A trailing backslash escapes nothing; the literal is
                    // then unterminated.
                    if let Some(escaped) = chars.next() {
                        let meaning = L::ESCAPES.iter().find(|(e, _)| *e == escaped);
                        text.push(meaning.map_or(escaped, |&(_, m)| m));
                    }
                }
                Some(c) => text.push(c),
                None => break false,
            }
        };
        if !terminated {
            let noun = if kind == TokenKind::Char {
                "char"
            } else {
                "string"
            };
            return Err(self.error_at(start, &format!("unterminated {noun} literal")));
        }
        self.pos = self.source.len() - chars.as_str().len();
        Ok(Token {
            kind,
            text,
            offset: start as u32,
        })
    }
}

/// A cursor over one token stream. It owns the nesting counter behind
/// [`Cursor::deepen`] and [`Grammar::nested`].
#[derive(Debug)]
pub struct Cursor<L> {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    lexicon: PhantomData<L>,
}

impl<L: Lexicon> Cursor<L> {
    /// A cursor at the first of `tokens`, which must end with
    /// [`TokenKind::Eof`].
    pub fn new(tokens: Vec<Token>) -> Self {
        debug_assert_eq!(tokens.last().map(|t| t.kind), Some(TokenKind::Eof));
        Cursor {
            tokens,
            pos: 0,
            depth: 0,
            lexicon: PhantomData,
        }
    }

    /// The current token.
    #[inline]
    pub fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The token `n` places ahead, or the end-of-input token past it.
    #[inline]
    pub fn peek_at(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    /// Whether the current token is the end of input.
    #[inline]
    pub fn at_eof(&self) -> bool {
        self.at_kind(TokenKind::Eof)
    }

    /// Whether the current token is the identifier, keyword or
    /// punctuation `text` (never a literal that happens to spell it).
    #[inline]
    pub fn at(&self, text: &str) -> bool {
        let t = self.peek();
        matches!(t.kind, TokenKind::Ident | TokenKind::Punct) && t.text == text
    }

    /// The operator at the current token and its tier, looked up in
    /// `tiers` (loosest first) from tier `min_tier` on.
    #[inline]
    pub fn operator(
        &self,
        tiers: &[&[&'static str]],
        min_tier: usize,
    ) -> Option<(usize, &'static str)> {
        let t = self.peek();
        if !matches!(t.kind, TokenKind::Ident | TokenKind::Punct) {
            return None;
        }
        tiers
            .iter()
            .enumerate()
            .skip(min_tier)
            .find_map(|(tier, ops)| ops.iter().find(|&&op| t.text == op).map(|&op| (tier, op)))
    }

    /// Whether the current token is of `kind`.
    #[inline]
    pub fn at_kind(&self, kind: TokenKind) -> bool {
        self.peek().kind == kind
    }

    /// Whether `text` is a reserved word of this cursor's language.
    #[inline]
    pub fn is_keyword(&self, text: &str) -> bool {
        L::KEYWORDS.contains(&text)
    }

    /// Consumes and returns the current token; the end-of-input token is
    /// never consumed.
    #[inline]
    pub fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token if it is `text`.
    #[inline]
    pub fn eat(&mut self, text: &str) -> bool {
        let hit = self.at(text);
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes the current token if it is of `kind`.
    #[inline]
    pub fn eat_kind(&mut self, kind: TokenKind) -> bool {
        let hit = self.at_kind(kind);
        if hit {
            self.bump();
        }
        hit
    }

    /// Consumes `text` or fails naming what was found instead.
    ///
    /// # Errors
    ///
    /// The current token is not `text`.
    #[inline]
    pub fn expect(&mut self, text: &str) -> Result<Token, ParseError> {
        if self.at(text) {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected `{text}`, found `{}`", self.describe())))
        }
    }

    /// Consumes a token of `kind` or fails naming what was found.
    ///
    /// # Errors
    ///
    /// The current token is not of `kind`.
    #[inline]
    pub fn expect_kind(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.at_kind(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected {kind:?}, found `{}`", self.describe())))
        }
    }

    /// Consumes a non-keyword identifier and returns its text.
    ///
    /// # Errors
    ///
    /// The current token is a keyword or not an identifier.
    #[inline]
    pub fn ident(&mut self) -> Result<String, ParseError> {
        let t = self.peek();
        if t.kind == TokenKind::Ident && !self.is_keyword(&t.text) {
            Ok(self.bump().text)
        } else {
            Err(self.error(&format!("expected identifier, found `{}`", self.describe())))
        }
    }

    /// An error at the current token.
    #[inline]
    pub fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.peek().offset,
        }
    }

    /// The current token as error messages quote it: its text, or a
    /// placeholder for text-less tokens.
    pub fn describe(&self) -> String {
        let t = self.peek();
        match t.kind {
            TokenKind::Newline => "<newline>".into(),
            TokenKind::Indent => "<indent>".into(),
            TokenKind::Dedent => "<dedent>".into(),
            TokenKind::Eof => "<eof>".into(),
            _ => t.text.clone(),
        }
    }

    /// Takes one more nesting level, for an operand folded into a chain,
    /// until the enclosing [`Grammar::nested`] rule returns.
    ///
    /// # Errors
    ///
    /// The nesting bound is reached.
    #[inline]
    pub fn deepen(&mut self) -> Result<(), ParseError> {
        if self.depth < MAX_NESTING {
            self.depth += 1;
            Ok(())
        } else {
            Err(self.too_deep())
        }
    }

    #[cold]
    #[inline(never)]
    fn too_deep(&self) -> ParseError {
        self.error(&format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// The current position, to return to with [`Cursor::rewind`].
    #[inline]
    pub fn mark(&self) -> usize {
        self.pos
    }

    /// Returns to a position taken with [`Cursor::mark`].
    #[inline]
    pub fn rewind(&mut self, mark: usize) {
        self.pos = mark;
    }

    /// Whether the current token is an `open` whose matching `close` is
    /// directly followed by `next` — how a parenthesised parameter list
    /// (`(a, b) => …`) is told apart from a parenthesised expression.
    pub fn group_followed_by(&self, open: &str, close: &str, next: &str) -> bool {
        if !self.at(open) {
            return false;
        }
        let mut depth = 0usize;
        for (i, t) in self.tokens[self.pos..].iter().enumerate() {
            if t.kind != TokenKind::Punct {
                continue;
            }
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    let after = self.peek_at(i + 1);
                    return after.kind == TokenKind::Punct && after.text == next;
                }
            }
        }
        false
    }

    /// Skips from the current `open` token past its matching `close`, or
    /// to the end of input if it has none.
    pub fn skip_group(&mut self, open: &str, close: &str) {
        debug_assert!(self.at(open));
        let mut depth = 0usize;
        while !self.at_eof() {
            if self.at(open) {
                depth += 1;
            } else if self.at(close) {
                depth -= 1;
            }
            self.bump();
            if depth == 0 {
                return;
            }
        }
    }
}

/// A recursive-descent grammar: a parser that dereferences to its
/// [`Cursor`]. Implementing it (no methods needed) gives the parser the
/// nesting guard.
///
/// The guard's counter tracks how deep the tree under construction is:
/// every rule the grammar nests adds a level, and so does every operand
/// a loop folds into a left-deep chain (`a + b + c`, `a.b.c`), which
/// costs no parser recursion but makes every tree walk downstream
/// recurse once more.
pub trait Grammar<L: Lexicon>: DerefMut<Target = Cursor<L>> + Sized {
    /// Runs `rule` one nesting level deeper. Past [`MAX_NESTING`] levels
    /// it fails instead of recursing. When `rule` returns, with `Err` as
    /// well as `Ok`, the counter is back where it was, so a grammar may
    /// backtrack over a failed rule; this also releases the levels
    /// [`Cursor::deepen`] took inside it.
    ///
    /// # Errors
    ///
    /// The nesting bound is reached, or `rule` fails.
    #[inline]
    fn nested<T>(
        &mut self,
        rule: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let depth = self.depth;
        self.deepen()?;
        let result = rule(self);
        self.depth = depth;
        result
    }
}

/// Declares `struct $parser(Cursor<$lexicon>)` as a [`Grammar`]: its
/// rules reach the cursor's methods through `Deref`.
#[macro_export]
macro_rules! grammar {
    ($parser:ident, $lexicon:ty) => {
        struct $parser($crate::syntax::Cursor<$lexicon>);

        impl ::std::ops::Deref for $parser {
            type Target = $crate::syntax::Cursor<$lexicon>;
            fn deref(&self) -> &Self::Target {
                &self.0
            }
        }

        impl ::std::ops::DerefMut for $parser {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.0
            }
        }

        impl $crate::syntax::Grammar<$lexicon> for $parser {}
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tiny;

    impl Lexicon for Tiny {
        const KEYWORDS: &'static [&'static str] = &["if"];
        const PUNCT: &'static [&'static str] = &["(", ")", "=", "==", "===", "=>"];
        const IDENT_EXTRA: &'static [u8] = b"$";
        const NUMBER_EXTRA: &'static [u8] = b"_";
        const QUOTES: &'static [(char, TokenKind)] =
            &[('"', TokenKind::String), ('\'', TokenKind::Char)];
        const ESCAPES: &'static [(char, char)] = &[('n', '\n')];
        const SINGLE_LINE_LITERALS: bool = true;
    }

    fn scan(source: &str) -> Result<Vec<Token>, ParseError> {
        let mut s = Scanner::<Tiny>::new(source);
        let mut tokens = Vec::new();
        while s.skip_trivia()? {
            tokens.push(s.token()?);
        }
        tokens.push(s.eof());
        Ok(tokens)
    }

    fn texts(source: &str) -> Vec<String> {
        scan(source).unwrap().into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn punctuation_takes_the_longest_entry() {
        assert_eq!(texts("a====b=>c"), ["a", "===", "=", "b", "=>", "c", ""]);
    }

    #[test]
    fn identifiers_numbers_and_comments() {
        assert_eq!(
            texts("$x1 /* c */ 1_000.5 // d\n$"),
            ["$x1", "1_000.5", "$", ""]
        );
    }

    #[test]
    fn literals_decode_scalars_and_escapes() {
        let tokens = scan("\"caf\u{e9}\\n\" 'é'").unwrap();
        assert_eq!(
            (tokens[0].kind, tokens[0].text.as_str()),
            (TokenKind::String, "café\n")
        );
        assert_eq!(
            (tokens[1].kind, tokens[1].text.as_str()),
            (TokenKind::Char, "é")
        );
        assert_eq!(tokens[1].offset, 10);
    }

    #[test]
    fn unterminated_literals_and_comments_are_errors_at_their_start() {
        let err = scan("x 'ab\ncd'").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (2, "unterminated char literal")
        );
        let err = scan("x \"ab\\").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (2, "unterminated string literal")
        );
        let err = scan("x /* y").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (2, "unterminated block comment")
        );
        let err = scan("x # y").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at byte 2: unexpected character '#'"
        );
    }

    crate::grammar!(Parser, Tiny);

    /// Counts the parenthesis levels around an identifier.
    fn parens(p: &mut Parser) -> Result<usize, ParseError> {
        if p.eat("(") {
            let depth = p.nested(parens)? + 1;
            p.expect(")")?;
            Ok(depth)
        } else {
            p.ident().map(|_| 0)
        }
    }

    fn parser(source: &str) -> Parser {
        Parser(Cursor::new(scan(source).unwrap()))
    }

    #[test]
    fn nesting_is_bounded_and_released_on_errors() {
        let ok = format!("{}x{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert_eq!(parens(&mut parser(&ok)).unwrap(), MAX_NESTING);
        let deep = format!("({ok})");
        let err = parens(&mut parser(&deep)).unwrap_err();
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_NESTING} levels")
        );

        // A failed rule gives its levels back, so a grammar can backtrack.
        let mut p = parser("((if))");
        let mark = p.mark();
        assert!(p.nested(parens).is_err());
        assert_eq!(p.depth, 0);
        p.rewind(mark);
        for _ in 0..MAX_NESTING {
            p.deepen().unwrap();
        }
        assert!(p.deepen().is_err());
        assert_eq!(p.nested(|_| Ok(())).unwrap_err().offset, 0);
    }

    #[test]
    fn cursor_messages_name_what_was_found() {
        let mut p = parser("if");
        assert_eq!(
            p.ident().unwrap_err().message,
            "expected identifier, found `if`"
        );
        p.bump();
        assert_eq!(
            p.expect(")").unwrap_err().message,
            "expected `)`, found `<eof>`"
        );
        assert_eq!(p.bump().kind, TokenKind::Eof);
        assert!(p.at_eof());
    }

    #[test]
    fn groups_are_matched_across_nesting() {
        let p = parser("((a)(b)) => (c)");
        assert!(p.group_followed_by("(", ")", "=>"));
        let mut p = parser("((a) => b) c");
        assert!(!p.group_followed_by("(", ")", "=>"));
        p.skip_group("(", ")");
        assert_eq!(p.peek().text, "c");
    }
}
