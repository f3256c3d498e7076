//! The lexer both query dialects share: the subgraph DSL (`dsl` module,
//! whose docs state the lexical rules) and the RPQ dialect (`rpq` module).
//! Each parser is a set of grammar functions over one [`Lexer`]; every
//! token read here skips the whitespace and comments before it.

use crate::error::QueryError;
use streamworks_graph::Duration;

/// True for the characters of an identifier. A keyword ends at a word
/// boundary: it must not be followed by one of these.
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// A cursor over query text that counts 1-based lines.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Lexer {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// A [`QueryError::Parse`] at the current line.
    pub(crate) fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    /// The text not read yet.
    pub(crate) fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Consumes and returns the next `len` bytes, counting their line breaks.
    pub(crate) fn bump(&mut self, len: usize) -> &'a str {
        let taken = &self.rest()[..len];
        self.line += taken.matches('\n').count();
        self.pos += len;
        taken
    }

    /// Length in bytes of the longest prefix of the rest made of `accept`ed
    /// characters.
    fn span(&self, accept: impl Fn(char) -> bool) -> usize {
        let rest = self.rest();
        rest.find(|c| !accept(c)).unwrap_or(rest.len())
    }

    /// Skips whitespace and `#` comments, which run to the end of the line.
    pub(crate) fn skip_ws(&mut self) {
        loop {
            let len = if self.rest().starts_with('#') {
                self.span(|c| c != '\n')
            } else {
                self.span(char::is_whitespace)
            };
            if len == 0 {
                return;
            }
            self.bump(len);
        }
    }

    /// The next character after whitespace and comments, not consumed.
    pub(crate) fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    /// Consumes `c` if it comes next.
    pub(crate) fn eat_char(&mut self, c: char) -> bool {
        let found = self.peek() == Some(c);
        if found {
            self.bump(c.len_utf8());
        }
        found
    }

    pub(crate) fn expect_char(&mut self, c: char) -> Result<(), QueryError> {
        if self.eat_char(c) {
            return Ok(());
        }
        let found = self.rest().chars().next();
        let found = found.map_or_else(|| "end of input".into(), String::from);
        Err(self.error(format!("expected `{c}`, found `{found}`")))
    }

    /// Consumes `keyword`, in any ASCII case, if it comes next as a whole
    /// word.
    pub(crate) fn eat_keyword(&mut self, keyword: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        let found = rest
            .get(..keyword.len())
            .is_some_and(|word| word.eq_ignore_ascii_case(keyword))
            && !rest[keyword.len()..].starts_with(is_ident_char);
        if found {
            self.bump(keyword.len());
        }
        found
    }

    pub(crate) fn parse_identifier(&mut self) -> Result<String, QueryError> {
        self.skip_ws();
        match self.span(is_ident_char) {
            0 => Err(self.error("expected identifier")),
            len => Ok(self.bump(len).to_owned()),
        }
    }

    /// An unsigned decimal number.
    pub(crate) fn parse_number(&mut self) -> Result<u64, QueryError> {
        self.skip_ws();
        match self.span(|c| c.is_ascii_digit()) {
            0 => Err(self.error("expected number")),
            len => (self.bump(len).parse()).map_err(|_| self.error("number out of range")),
        }
    }

    /// `<n>(ms|s|m|min|h)`, with no space before the unit; a bare number
    /// counts seconds.
    pub(crate) fn parse_duration(&mut self) -> Result<Duration, QueryError> {
        let value = self.parse_number()?;
        let unit = self.bump(self.span(|c| c.is_ascii_alphabetic()));
        let micros: i64 = match unit {
            "ms" => 1_000,
            "s" | "" => 1_000_000,
            "m" | "min" => 60_000_000,
            "h" => 3_600_000_000,
            other => return Err(self.error(format!("unknown duration unit `{other}`"))),
        };
        (i64::try_from(value).ok())
            .and_then(|value| value.checked_mul(micros))
            .map(Duration::from_micros)
            .ok_or_else(|| self.error(format!("duration {value}{unit} out of range")))
    }

    /// The header both dialects open with, `<keyword> <name> [WINDOW
    /// <duration>]`, as the name and the window (one hour by default).
    pub(crate) fn parse_header(&mut self, keyword: &str) -> Result<(String, Duration), QueryError> {
        if !self.eat_keyword(keyword) {
            return Err(self.error(format!("query must start with `{keyword} <name>`")));
        }
        let name = self.parse_identifier()?;
        let window = if self.eat_keyword("WINDOW") {
            self.parse_duration()?
        } else {
            Duration::from_hours(1)
        };
        Ok((name, window))
    }

    /// Fails unless only whitespace and comments are left.
    pub(crate) fn finish(&mut self) -> Result<(), QueryError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error(format!(
                "unexpected trailing input: `{}`",
                self.rest().chars().take(20).collect::<String>()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_unicode_whitespace_count_lines() {
        let mut lex = Lexer::new("# one\n\u{a0}\t# two\r\n  QUERY\u{2003}x");
        assert!(lex.eat_keyword("query"));
        assert_eq!(lex.parse_identifier().unwrap(), "x");
        assert_eq!(lex.line, 3);
        assert!(lex.finish().is_ok());
    }

    #[test]
    fn keywords_need_a_word_boundary() {
        for text in ["PATHS", "PATH_", "PATH2", "PATHé", "PAT", "PAé"] {
            assert!(!Lexer::new(text).eat_keyword("PATH"), "{text}");
        }
        for text in ["PATH", "path(", "Path a", "PATH*"] {
            assert!(Lexer::new(text).eat_keyword("PATH"), "{text}");
        }
    }

    #[test]
    fn durations_are_checked() {
        let window = |text: &str| Lexer::new(text).parse_duration();
        assert_eq!(window("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(window("45").unwrap(), Duration::from_secs(45));
        assert_eq!(window("3min").unwrap(), Duration::from_mins(3));
        assert_eq!(
            window("2562047788h").unwrap(),
            Duration::from_hours(2_562_047_788)
        );
        for text in [
            "2562047789h",
            "3000000000h",
            "9223372036854775808ms",
            "99999999999999999999",
        ] {
            let err = window(text).unwrap_err().to_string();
            assert!(err.contains("out of range"), "{text}: {err}");
        }
        assert!(window("5fortnights").is_err());
        assert!(window("h").is_err());
    }
}
