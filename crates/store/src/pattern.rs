//! Glob-style pattern matching, the engine behind `grep Expression Path`.
//!
//! Supported syntax (a pragmatic subset of POSIX glob):
//!
//! * `?` — any single character;
//! * `*` — any run of characters (including empty);
//! * `[a-z]`, `[abc]`, `[!0-9]` — character classes, with negation;
//! * any other character matches itself.
//!
//! [`Pattern::matches`] anchors at both ends; [`Pattern::search`] finds the
//! pattern anywhere in a line (grep semantics).  Matching is
//! iterative-with-backtracking over `*`, O(n·m) worst case, no regex crate.

use crate::error::StoreError;

/// One compiled pattern element.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    Literal(char),
    AnyChar,
    AnyRun,
    Class { negated: bool, ranges: Vec<(char, char)> },
}

/// A compiled glob pattern.
///
/// # Examples
///
/// ```
/// use sdr_store::Pattern;
///
/// let pat = Pattern::compile("err*[0-9]").unwrap();
/// assert!(pat.matches("error42"));
/// assert!(!pat.matches("error"));
/// // `search` finds the pattern anywhere in a line (grep semantics).
/// assert!(pat.search("2024-01-01 error42: disk full"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    tokens: Vec<Token>,
    source: String,
}

impl Pattern {
    /// Compiles `source`; fails on an unterminated character class.
    pub fn compile(source: &str) -> Result<Self, StoreError> {
        let mut tokens = Vec::new();
        let mut chars = source.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '?' => tokens.push(Token::AnyChar),
                '*' => {
                    // Collapse runs of `*`.
                    if tokens.last() != Some(&Token::AnyRun) {
                        tokens.push(Token::AnyRun);
                    }
                }
                '[' => {
                    let negated = chars.peek() == Some(&'!');
                    if negated {
                        chars.next();
                    }
                    let mut ranges = Vec::new();
                    let mut closed = false;
                    let mut prev: Option<char> = None;
                    while let Some(cc) = chars.next() {
                        if cc == ']' && !ranges.is_empty() {
                            closed = true;
                            break;
                        }
                        if cc == ']' && prev.is_none() && ranges.is_empty() {
                            // A literal `]` first in the class.
                            ranges.push((']', ']'));
                            prev = Some(']');
                            continue;
                        }
                        if cc == '-' && prev.is_some() && chars.peek() != Some(&']') {
                            let lo = prev.take().expect("checked");
                            let hi = chars.next().expect("peeked");
                            ranges.pop();
                            ranges.push((lo, hi));
                            continue;
                        }
                        ranges.push((cc, cc));
                        prev = Some(cc);
                    }
                    if !closed {
                        return Err(StoreError::BadPattern("unterminated character class"));
                    }
                    tokens.push(Token::Class { negated, ranges });
                }
                '\\' => {
                    // Escape: next char is literal.
                    let lit = chars
                        .next()
                        .ok_or(StoreError::BadPattern("trailing backslash"))?;
                    tokens.push(Token::Literal(lit));
                }
                other => tokens.push(Token::Literal(other)),
            }
        }
        Ok(Pattern {
            tokens,
            source: source.to_string(),
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether the whole of `text` matches (anchored both ends).
    pub fn matches(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        Self::match_from(&self.tokens, &chars)
    }

    /// Whether the pattern occurs anywhere in `text` (grep semantics).
    ///
    /// A pattern already bracketed by `*` behaves identically to
    /// [`Pattern::matches`].
    pub fn search(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        // Equivalent to matching `*pattern*`.
        let mut padded = Vec::with_capacity(self.tokens.len() + 2);
        if self.tokens.first() != Some(&Token::AnyRun) {
            padded.push(Token::AnyRun);
        }
        padded.extend(self.tokens.iter().cloned());
        if padded.last() != Some(&Token::AnyRun) {
            padded.push(Token::AnyRun);
        }
        Self::match_from(&padded, &chars)
    }

    fn token_matches(tok: &Token, c: char) -> bool {
        match tok {
            Token::Literal(l) => *l == c,
            Token::AnyChar => true,
            Token::AnyRun => unreachable!("AnyRun handled by the driver"),
            Token::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&c));
                inside != *negated
            }
        }
    }

    /// Iterative glob matcher with single-star backtracking.
    fn match_from(tokens: &[Token], text: &[char]) -> bool {
        let (mut ti, mut ci) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None; // (token after *, char pos)
        while ci < text.len() {
            if ti < tokens.len() && tokens[ti] == Token::AnyRun {
                star = Some((ti + 1, ci));
                ti += 1;
            } else if ti < tokens.len() && Self::token_matches(&tokens[ti], text[ci]) {
                ti += 1;
                ci += 1;
            } else if let Some((st, sc)) = star {
                // Backtrack: let the star swallow one more character.
                ti = st;
                ci = sc + 1;
                star = Some((st, sc + 1));
            } else {
                return false;
            }
        }
        while ti < tokens.len() && tokens[ti] == Token::AnyRun {
            ti += 1;
        }
        ti == tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Pattern::compile(pat).unwrap().matches(text)
    }
    fn s(pat: &str, text: &str) -> bool {
        Pattern::compile(pat).unwrap().search(text)
    }

    #[test]
    fn literals() {
        assert!(m("hello", "hello"));
        assert!(!m("hello", "hell"));
        assert!(!m("hello", "helloo"));
    }

    #[test]
    fn question_mark() {
        assert!(m("h?llo", "hello"));
        assert!(m("h?llo", "hallo"));
        assert!(!m("h?llo", "hllo"));
    }

    #[test]
    fn star() {
        assert!(m("he*o", "hello"));
        assert!(m("he*o", "heo"));
        assert!(m("*", ""));
        assert!(m("*", "anything"));
        assert!(m("a*b*c", "aXXbYYc"));
        assert!(!m("a*b*c", "aXXcYYb"));
    }

    #[test]
    fn star_backtracking() {
        assert!(m("*aab", "aaab"));
        assert!(m("a*a*a", "aaa"));
        assert!(!m("a*a*a", "aa"));
    }

    #[test]
    fn classes() {
        assert!(m("[a-c]at", "bat"));
        assert!(!m("[a-c]at", "rat"));
        assert!(m("[!0-9]x", "ax"));
        assert!(!m("[!0-9]x", "5x"));
        assert!(m("file[0-9][0-9]", "file42"));
    }

    #[test]
    fn class_with_literal_members() {
        assert!(m("[abc]", "b"));
        assert!(!m("[abc]", "d"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"a\*b", "a*b"));
        assert!(!m(r"a\*b", "aXb"));
        assert!(m(r"a\[b", "a[b"));
    }

    #[test]
    fn bad_patterns_rejected() {
        assert!(Pattern::compile("[abc").is_err());
        assert!(Pattern::compile("trailing\\").is_err());
    }

    #[test]
    fn search_finds_substrings() {
        assert!(s("error", "2024-01-01 error: disk full"));
        assert!(s("err*full", "error: disk full"));
        assert!(!s("warning", "error: disk full"));
        // Anchored star patterns behave the same under search.
        assert!(s("*disk*", "error: disk full"));
    }

    #[test]
    fn unicode_safe() {
        assert!(m("gr?ß", "gruß"));
        assert!(s("日本", "こんにちは日本語"));
    }

    #[test]
    fn consecutive_stars_collapse() {
        let p = Pattern::compile("a**b").unwrap();
        assert!(p.matches("ab"));
        assert!(p.matches("aXXb"));
    }

    #[test]
    fn empty_pattern_matches_empty_only() {
        assert!(m("", ""));
        assert!(!m("", "x"));
    }
}
