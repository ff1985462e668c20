//! The one text codec: every convention `treu-core` uses to write text to
//! disk or to a worker pipe, and the readers that invert them.
//!
//! Trails, cache entries, attestation links, layouts and keys, trace
//! streams and svc frames all share:
//!
//! * three escape tables ([`Esc`]): line value, line key, JSON string;
//! * `hex64`: `0x` plus exactly 16 lowercase hex digits ([`hex64`]);
//! * decimal integers with no sign, no leading zero and no whitespace;
//! * one payload-exact `f64` text form ([`f64_text`]);
//! * one flat-JSON-object grammar — string, integer, boolean and decimal
//!   values, no nesting, no whitespace — read field by field, in the
//!   order the renderer writes them, by [`Cursor`];
//! * the canonical rule ([`canonical`]): a reader decodes what it can,
//!   then accepts the text only if rendering the decoded value gives back
//!   the same bytes.
//!
//! The canonical rule is what makes every reader exact: a sign, a leading
//! zero, an upper-case digit, a CR, an extra space, a duplicate, missing
//! or reordered field or line, an unknown escape — anything the renderer
//! would not write — fails with an [`Error`] at the first byte that
//! differs, naming what the renderer writes there. No reader panics on
//! input.

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Why and where a text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the parsed text (never past its end).
    pub offset: usize,
    /// What was wrong there.
    pub reason: String,
}

impl Error {
    /// An error at `offset`.
    pub fn new(offset: usize, reason: impl Into<String>) -> Self {
        Self { offset, reason: reason.into() }
    }

    /// The same error, `by` bytes further into an enclosing text.
    pub fn shift(mut self, by: usize) -> Self {
        self.offset += by;
        self
    }

    /// `line L, byte O: reason`, with `L` the 1-based line of the offset
    /// in `text` (the text the error was reported against).
    pub fn locate(&self, text: &str) -> String {
        let before = &text.as_bytes()[..self.offset.min(text.len())];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        format!("line {line}, byte {}: {}", self.offset, self.reason)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for Error {}

/// An escape table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Esc {
    /// Value position on a line: `\\`, `\n`, `\r` — keeps a line one line.
    Value,
    /// Key position on a line, left of a ` = ` or ` <- ` separator or of
    /// an address: the value set plus `\=` and `\<`, so the first
    /// unescaped separator is always the real one.
    Key,
    /// A JSON string body: `\"`, `\\`, `\n`, `\t`, `\r`, and `\u00xx`
    /// (lowercase) for every other control character.
    Json,
}

/// `s` escaped under `esc`.
pub fn escape(s: &str, esc: Esc) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match (c, esc) {
            ('\\', _) => out.push_str("\\\\"),
            ('\n', _) => out.push_str("\\n"),
            ('\r', _) => out.push_str("\\r"),
            ('=', Esc::Key) => out.push_str("\\="),
            ('<', Esc::Key) => out.push_str("\\<"),
            ('"', Esc::Json) => out.push_str("\\\""),
            ('\t', Esc::Json) => out.push_str("\\t"),
            (c, Esc::Json) if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            (c, _) => out.push(c),
        }
    }
    out
}

/// Exact inverse of [`escape`]: accepts only what `escape(_, esc)` writes,
/// so a raw character the table escapes, an unknown escape or a dangling
/// backslash is an error, never a guess.
pub fn unescape(s: &str, esc: Esc) -> Result<String, Error> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        // Decode loosely; the canonical check below rejects every escape
        // this table would not have written.
        out.push(match chars.next() {
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32).unwrap_or('\u{fffd}')
            }
            Some(e) => e,
            None => '\u{fffd}',
        });
    }
    canonical(s, &escape(&out, esc))?;
    Ok(out)
}

/// Renders a content address: `0x` plus 16 lowercase hex digits.
pub fn hex64(v: u64) -> String {
    format!("{v:#018x}")
}

/// Renders bytes as lowercase hex digit pairs.
pub fn hex_bytes(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The payload-exact `f64` text form: Rust's shortest round-trip
/// `Display` (`-0`, `inf`, `-inf` and `NaN` included), except that a NaN
/// with any payload other than `f64::NAN`'s carries its bits as
/// `NaN#<16 lowercase hex digits>`.
pub fn f64_text(v: f64) -> String {
    if v.is_nan() && v.to_bits() != f64::NAN.to_bits() {
        format!("NaN#{:016x}", v.to_bits())
    } else {
        format!("{v}")
    }
}

/// The canonical rule: `text` is accepted only when it is exactly the
/// `rendered` bytes of what was decoded from it. Otherwise the error
/// points at the first differing byte and says what belongs there.
pub fn canonical(text: &str, rendered: &str) -> Result<(), Error> {
    let (a, b) = (text.as_bytes(), rendered.as_bytes());
    let at = match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(at) => at,
        None if a.len() == b.len() => return Ok(()),
        None => a.len().min(b.len()),
    };
    let expected = String::from_utf8_lossy(&b[at..b.len().min(at + 16)]);
    Err(Error::new(at, format!("not canonical: the renderer writes {expected:?} here")))
}

/// A slice of a parsed text and its offset there, awaiting a typed read.
/// Reads decode loosely; the caller's [`canonical`] check makes them exact.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// Offset of the slice in the whole text.
    pub at: usize,
    /// The slice.
    pub text: &'a str,
}

impl Token<'_> {
    fn err(&self, what: &str) -> Error {
        Error::new(self.at, format!("expected {what}"))
    }

    /// The unescaped text under `esc`.
    pub fn unescape(self, esc: Esc) -> Result<String, Error> {
        unescape(self.text, esc).map_err(|e| e.shift(self.at))
    }

    /// A number or a boolean (anything `FromStr` reads).
    pub fn value<T: FromStr>(self) -> Result<T, Error> {
        self.text.parse().map_err(|_| self.err("a value"))
    }

    /// A `hex64` address.
    pub fn hex64(self) -> Result<u64, Error> {
        let digits = self.text.strip_prefix("0x").ok_or_else(|| self.err("0x"))?;
        u64::from_str_radix(digits, 16).map_err(|_| self.err("hex digits"))
    }

    /// Bytes as hex digit pairs.
    pub fn hex_bytes(self) -> Result<Vec<u8>, Error> {
        let pairs = self.text.as_bytes().chunks(2);
        pairs
            .map(|pair| std::str::from_utf8(pair).ok().and_then(|p| u8::from_str_radix(p, 16).ok()))
            .collect::<Option<_>>()
            .ok_or_else(|| self.err("hex digit pairs"))
    }

    /// An `f64` in the [`f64_text`] form.
    pub fn f64(self) -> Result<f64, Error> {
        match self.text.strip_prefix("NaN#") {
            Some(bits) => u64::from_str_radix(bits, 16).map(f64::from_bits).ok(),
            None => self.text.parse().ok(),
        }
        .ok_or_else(|| self.err("a number"))
    }
}

/// A left-to-right reader over one text: literal tags, tokens up to a
/// line-local delimiter, and flat JSON objects whose fields are read in
/// the order the renderer writes them.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// True right after [`Cursor::open`]: the next field takes no comma.
    first: bool,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0, first: false }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True once every byte is consumed.
    pub fn done(&self) -> bool {
        self.pos == self.text.len()
    }

    /// An error at the current offset.
    pub fn err(&self, reason: impl Into<String>) -> Error {
        Error::new(self.pos, reason)
    }

    /// Consumes the rest of the text.
    pub fn rest(&mut self) -> &'a str {
        let rest = &self.text[self.pos..];
        self.pos = self.text.len();
        rest
    }

    /// Consumes `lit` if the text continues with it.
    pub fn eat(&mut self, lit: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// Consumes `lit`, or fails.
    pub fn tag(&mut self, lit: &str) -> Result<(), Error> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    /// The token before the first `delim` on the current line (the line's
    /// `\n` included); consumes both.
    pub fn until(&mut self, delim: &str) -> Result<Token<'a>, Error> {
        self.split(delim, false)
    }

    /// The token before the last `delim` on the current line; consumes
    /// both.
    pub fn until_last(&mut self, delim: &str) -> Result<Token<'a>, Error> {
        self.split(delim, true)
    }

    fn split(&mut self, delim: &str, last: bool) -> Result<Token<'a>, Error> {
        let rest = &self.text[self.pos..];
        let line = &rest[..rest.find('\n').map_or(rest.len(), |n| n + 1)];
        let found = if last { line.rfind(delim) } else { line.find(delim) };
        let n = found
            .ok_or_else(|| Error::new(self.pos + line.len(), format!("expected {delim:?}")))?;
        let token = Token { at: self.pos, text: &rest[..n] };
        self.pos += n + delim.len();
        Ok(token)
    }

    /// Opens a flat JSON object.
    pub fn open(&mut self) -> Result<(), Error> {
        self.tag("{")?;
        self.first = true;
        Ok(())
    }

    /// Closes the open JSON object and the line it ends.
    pub fn close(&mut self) -> Result<(), Error> {
        self.tag("}\n")
    }

    /// The next field's key, when the open object has one more field.
    pub fn peek_key(&self) -> Option<&'a str> {
        let rest = &self.text[self.pos..];
        let rest = if self.first { rest } else { rest.strip_prefix(',')? };
        rest.strip_prefix('"')?.split_once('"').map(|(key, _)| key)
    }

    fn key(&mut self, key: &str) -> Result<(), Error> {
        let at = self.pos;
        if (self.first || self.eat(",")) && self.eat("\"") && self.eat(key) && self.eat("\":") {
            self.first = false;
            Ok(())
        } else {
            self.pos = at;
            Err(self.err(format!("expected field {key:?}")))
        }
    }

    /// A string field.
    pub fn str(&mut self, key: &str) -> Result<String, Error> {
        self.key(key)?;
        self.tag("\"")?;
        let body = &self.text[self.pos..];
        let bytes = body.as_bytes();
        let mut n = 0;
        while n < bytes.len() && bytes[n] != b'"' {
            n += if bytes[n] == b'\\' { 2 } else { 1 };
        }
        if n >= bytes.len() {
            return Err(Error::new(self.text.len(), "unterminated string"));
        }
        let token = Token { at: self.pos, text: &body[..n] };
        self.pos += n + 1;
        token.unescape(Esc::Json)
    }

    /// A string field holding a token, such as an `f64` or a `hex64`.
    pub fn str_as<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(Token<'_>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let at = self.pos + key.len() + 4 + usize::from(!self.first);
        read(Token { at, text: &self.str(key)? })
    }

    /// A string field holding one of `all`'s labels.
    pub fn label<T: Copy>(
        &mut self,
        key: &str,
        all: &[T],
        name: impl Fn(T) -> &'static str,
    ) -> Result<T, Error> {
        let at = self.pos;
        let s = self.str(key)?;
        let found = all.iter().copied().find(|&t| name(t) == s);
        found.ok_or_else(|| Error::new(at, format!("unknown {key} {s:?}")))
    }

    /// A bare field: an integer, a decimal such as `0.015000`, or a
    /// boolean.
    pub fn value<T: FromStr>(&mut self, key: &str) -> Result<T, Error> {
        self.key(key)?;
        let rest = &self.text[self.pos..];
        let n = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        self.pos += n;
        Token { at: self.pos - n, text: &rest[..n] }.value()
    }
}

/// Appends `"key":` and the JSON-escaped string `s` as a field.
pub fn json_field(out: &mut String, key: &str, s: &str) {
    out.push_str(&format!("\"{key}\":\"{}\"", escape(s, Esc::Json)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(text: &str) -> Token<'_> {
        Token { at: 0, text }
    }

    #[test]
    fn every_table_round_trips_adversarial_text() {
        let nasty = "a = b <- c \\ \"q\" \t\r\n\u{1}\u{1f}\u{7f} naïve 💥 = <";
        for esc in [Esc::Value, Esc::Key, Esc::Json] {
            let e = escape(nasty, esc);
            assert!(!e.contains('\n') && !e.contains('\r'), "{esc:?}: {e:?}");
            assert_eq!(unescape(&e, esc).as_deref(), Ok(nasty), "{esc:?}");
        }
        assert_eq!(escape("\u{1}", Esc::Json), "\\u0001");
        assert_eq!(escape("a=<", Esc::Key), "a\\=\\<");
        assert_eq!(escape("a=<\"", Esc::Value), "a=<\"");
    }

    #[test]
    fn unescape_rejects_what_escape_never_writes() {
        let bad = [
            ("trailing\\", Esc::Value, 8),
            ("unknown \\q", Esc::Value, 8),
            ("raw\rcr", Esc::Value, 3),
            ("raw = eq", Esc::Key, 4),
            ("esc\\=", Esc::Value, 3),
            ("T\\u00zz1", Esc::Json, 1),
            ("\\u000a", Esc::Json, 1),
            ("\\u001F", Esc::Json, 5),
            ("\\u0041", Esc::Json, 0),
            ("bad\\qname", Esc::Json, 3),
            ("raw\"quote", Esc::Json, 3),
            ("raw\ttab", Esc::Json, 3),
            ("\\u00", Esc::Json, 4),
            ("\\t", Esc::Value, 0),
        ];
        for (s, esc, at) in bad {
            let err = unescape(s, esc).unwrap_err();
            assert_eq!(err.offset, at, "{s:?} under {esc:?}: {err}");
            assert!(!err.reason.is_empty());
        }
    }

    #[test]
    fn f64_text_is_payload_exact() {
        let payload = f64::from_bits(0x7ff8_0000_0000_beef);
        let values = [0.1 + 0.2, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, payload, 5e-324];
        for v in values {
            let s = f64_text(v);
            let back = tok(&s).f64().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
            assert_eq!(f64_text(back), s);
        }
        assert_eq!(f64_text(payload), "NaN#7ff800000000beef");
        assert_eq!(f64_text(f64::from_bits(0xfff8_0000_0000_0000)), "NaN#fff8000000000000");
    }

    #[test]
    fn cursor_reads_flat_json_in_order() {
        let line = "{\"ev\":\"x\",\"n\":-3,\"u\":7,\"ok\":true,\"f\":\"0.5\",\"d\":0.015000}\n";
        let mut c = Cursor::new(line);
        c.open().unwrap();
        assert_eq!(c.peek_key(), Some("ev"));
        assert_eq!(c.str("ev").unwrap(), "x");
        assert_eq!(c.value::<i64>("n").unwrap(), -3);
        assert_eq!(c.value::<u32>("u").unwrap(), 7);
        assert!(c.value::<bool>("ok").unwrap());
        assert_eq!(c.str_as("f", |t| t.f64()).unwrap(), 0.5);
        assert!((c.value::<f64>("d").unwrap() - 0.015).abs() < 1e-12);
        c.close().unwrap();
        assert!(c.done());
        for bad in [
            "{\"ev\":\"a\",\"ev\":\"b\"}\n",
            "{\"ev\":{\"x\":1}}\n",
            "{\"ev\":\"unterminated}\n",
            "{ \"ev\":\"a\"}\n",
            "{\"e\":\"a\"}\n",
        ] {
            let mut c = Cursor::new(bad);
            let read = c.open().and_then(|()| c.str("ev")).and_then(|_| c.close());
            let err = read.unwrap_err();
            assert!(err.offset <= bad.len() && !err.reason.is_empty(), "{bad}: {err}");
        }
    }

    #[test]
    fn tokens_split_on_the_current_line_only() {
        let mut c = Cursor::new("name with spaces 0x1\nnext = line\n");
        assert_eq!(c.until_last(" ").unwrap().text, "name with spaces");
        assert_eq!(c.until("\n").unwrap().text, "0x1");
        assert_eq!(c.until(" = ").unwrap().text, "next");
        let err = Cursor::new("a\nb = c\n").until(" = ").unwrap_err();
        assert_eq!(err.offset, 2, "{err}");
    }

    #[test]
    fn canonical_points_at_the_first_difference() {
        assert_eq!(canonical("abc\n", "abc\n"), Ok(()));
        assert_eq!(canonical("abc\r\n", "abc\n").unwrap_err().offset, 3);
        assert_eq!(canonical("abc", "abc\n").unwrap_err().offset, 3);
        assert_eq!(canonical("abc\nx", "abc\n").unwrap_err().offset, 4);
        let err = canonical("seed +1\n", "seed 1\n").unwrap_err();
        assert_eq!(err.reason, "not canonical: the renderer writes \"1\\n\" here");
        assert_eq!(err.locate("seed +1\n"), format!("line 1, byte 5: {}", err.reason));
    }
}
