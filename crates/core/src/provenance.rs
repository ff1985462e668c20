//! Provenance trails: append-only records of what a run actually did.
//!
//! A [`Trail`] collects ordered [`Event`]s — parameters read, RNG streams
//! opened, metrics recorded, free-form notes — and can produce a stable
//! 64-bit [`Trail::fingerprint`] over its canonical encoding. Two runs of
//! the same experiment are *reproductions of each other* exactly when their
//! fingerprints match; the experiment runner uses this to implement
//! determinism checks, and the badge evaluator uses it as evidence for the
//! "Results Reproduced" badge.
//!
//! Metric values are hashed via their IEEE-754 bit patterns, so the
//! fingerprint is sensitive to any numeric difference, including ones far
//! below printing precision.
//!
//! The rendered text form escapes structural characters with the
//! [`crate::codec`] line tables (backslash, newline, carriage return, and
//! — in key position — `=` and `<`) so that [`Trail::decode`] is the
//! exact inverse of [`Trail::render`] for *any* event content: a
//! parameter key containing `" = "` or a note containing an embedded
//! newline can no longer forge extra lines or re-split into different
//! events. This matters beyond cosmetics: the attestation layer
//! ([`crate::attest`]) content-addresses rendered trail text, so the
//! text form must be injective.

use crate::codec::{self, escape, Cursor, Esc};

/// One provenance event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A named parameter was set or read, with its rendered value.
    Param {
        /// Parameter key.
        key: String,
        /// Canonical rendering of the value.
        value: String,
    },
    /// A derived RNG stream was opened.
    RngStream {
        /// The tag the stream was derived with.
        tag: String,
        /// The derived 64-bit seed.
        seed: u64,
    },
    /// A scalar metric was recorded.
    Metric {
        /// Metric name.
        name: String,
        /// Metric value.
        value: f64,
    },
    /// A free-form annotation.
    Note(String),
}

/// An append-only sequence of provenance events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trail {
    events: Vec<Event>,
}

impl Trail {
    /// Creates an empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Records a parameter event.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.push(Event::Param { key: key.to_string(), value: value.to_string() });
    }

    /// Records an RNG-stream event.
    pub fn rng_stream(&mut self, tag: &str, seed: u64) {
        self.push(Event::RngStream { tag: tag.to_string(), seed });
    }

    /// Records a metric event.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.push(Event::Metric { name: name.to_string(), value });
    }

    /// Records a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.push(Event::Note(text.into()));
    }

    /// All events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All metric events as `(name, value)` pairs, in recording order.
    pub fn metrics(&self) -> Vec<(&str, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Metric { name, value } => Some((name.as_str(), *value)),
                _ => None,
            })
            .collect()
    }

    /// The most recent value of a named metric, if recorded.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.events.iter().rev().find_map(|e| match e {
            Event::Metric { name: n, value } if n == name => Some(*value),
            _ => None,
        })
    }

    /// Stable 64-bit fingerprint of the canonical encoding of the trail.
    ///
    /// FNV-1a over a type-tagged byte serialization. Equal trails always
    /// produce equal fingerprints; differing numeric values (at the bit
    /// level) produce differing fingerprints with overwhelming probability.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in &self.events {
            match e {
                Event::Param { key, value } => {
                    feed(b"P");
                    feed(key.as_bytes());
                    feed(b"=");
                    feed(value.as_bytes());
                }
                Event::RngStream { tag, seed } => {
                    feed(b"R");
                    feed(tag.as_bytes());
                    feed(&seed.to_le_bytes());
                }
                Event::Metric { name, value } => {
                    feed(b"M");
                    feed(name.as_bytes());
                    feed(&value.to_bits().to_le_bytes());
                }
                Event::Note(text) => {
                    feed(b"N");
                    feed(text.as_bytes());
                }
            }
            feed(&[0u8]); // event separator
        }
        h
    }

    /// Parses a trail back from its [`Trail::render`] text; `None` when
    /// [`Trail::decode`] rejects it.
    pub fn parse(text: &str) -> Option<Trail> {
        Self::decode(text).ok()
    }

    /// Exact inverse of [`Trail::render`]: keys and values are unescaped
    /// after splitting on the first unescaped separator, metric values
    /// round-trip bitwise (non-canonical NaN payloads included), and any
    /// text `render` would not write back byte for byte is an error.
    pub fn decode(text: &str) -> Result<Trail, codec::Error> {
        let mut t = Trail::new();
        let mut c = Cursor::new(text);
        while !c.done() {
            if c.eat("  param  ") {
                let key = c.until(" = ")?.unescape(Esc::Key)?;
                t.param(&key, c.until("\n")?.unescape(Esc::Value)?);
            } else if c.eat("  rng    ") {
                let tag = c.until(" <- ")?.unescape(Esc::Key)?;
                t.rng_stream(&tag, c.until("\n")?.hex64()?);
            } else if c.eat("  metric ") {
                let name = c.until(" = ")?.unescape(Esc::Key)?;
                t.metric(&name, c.until("\n")?.f64()?);
            } else if c.eat("  note   ") {
                t.note(c.until("\n")?.unescape(Esc::Value)?);
            } else {
                return Err(c.err("expected a param, rng, metric or note line"));
            }
        }
        codec::canonical(text, &t.render())?;
        Ok(t)
    }

    /// Renders the trail as indented plain text for reports and debugging.
    ///
    /// Structural characters in event content are escaped (see the module
    /// docs), so the rendered form is injective: distinct trails render to
    /// distinct text and [`Trail::parse`] recovers the events exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&match e {
                Event::Param { key, value } => {
                    format!("  param  {} = {}\n", escape(key, Esc::Key), escape(value, Esc::Value))
                }
                Event::RngStream { tag, seed } => {
                    format!("  rng    {} <- {}\n", escape(tag, Esc::Key), codec::hex64(*seed))
                }
                Event::Metric { name, value } => {
                    format!("  metric {} = {}\n", escape(name, Esc::Key), codec::f64_text(*value))
                }
                Event::Note(text) => format!("  note   {}\n", escape(text, Esc::Value)),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trail() -> Trail {
        let mut t = Trail::new();
        t.param("n", 100);
        t.rng_stream("data", 0xDEAD);
        t.metric("accuracy", 0.93);
        t.note("finished");
        t
    }

    #[test]
    fn events_are_ordered() {
        let t = sample_trail();
        assert_eq!(t.len(), 4);
        assert!(matches!(t.events()[0], Event::Param { .. }));
        assert!(matches!(t.events()[3], Event::Note(_)));
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        let a = sample_trail();
        let b = sample_trail();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample_trail();
        c.metric("accuracy", 0.93 + 1e-15);
        assert_ne!(a.fingerprint(), c.fingerprint(), "tiny numeric change must alter fingerprint");
    }

    #[test]
    fn fingerprint_sensitive_to_order() {
        let mut a = Trail::new();
        a.note("x");
        a.note("y");
        let mut b = Trail::new();
        b.note("y");
        b.note("x");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_event_kinds() {
        // A note "n=1" must not collide with a param n=1.
        let mut a = Trail::new();
        a.note("n=1");
        let mut b = Trail::new();
        b.param("n", 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn metric_lookup_returns_latest() {
        let mut t = Trail::new();
        t.metric("loss", 1.0);
        t.metric("loss", 0.5);
        assert_eq!(t.metric_value("loss"), Some(0.5));
        assert_eq!(t.metric_value("missing"), None);
        assert_eq!(t.metrics().len(), 2);
    }

    #[test]
    fn render_contains_all_events() {
        let s = sample_trail().render();
        assert!(s.contains("param  n = 100"));
        assert!(s.contains("metric accuracy"));
        assert!(s.contains("note   finished"));
    }

    #[test]
    fn render_parse_roundtrip_preserves_fingerprint() {
        let t = sample_trail();
        let parsed = Trail::parse(&t.render()).expect("parses");
        assert_eq!(parsed, t);
        assert_eq!(parsed.fingerprint(), t.fingerprint());
    }

    #[test]
    fn parse_roundtrips_awkward_metric_values() {
        let mut t = Trail::new();
        t.metric("tiny", 1e-300);
        t.metric("neg", -0.1);
        t.metric("third", 1.0 / 3.0);
        let parsed = Trail::parse(&t.render()).expect("parses");
        assert_eq!(parsed.fingerprint(), t.fingerprint(), "bitwise metric roundtrip");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Trail::parse("nonsense line"), None);
        assert_eq!(Trail::parse("  metric broken\n"), None);
        assert_eq!(Trail::decode("  rng    x <- zz\n").unwrap_err().offset, 14);
        // Empty text parses to the empty trail.
        assert_eq!(Trail::parse(""), Some(Trail::new()));
    }

    #[test]
    fn parse_rejects_malformed_seeds() {
        // Each line is a rendered rng line but for its seed, so the error
        // must land on the seed, which starts at byte 14.
        let seed_error = |seed: &str| {
            let line = format!("  rng    x <- {seed}\n");
            let err = Trail::decode(&line).unwrap_err();
            assert!((14..14 + seed.len()).contains(&err.offset), "{seed}: {err}");
        };
        // Exactly one 0x prefix: the old trim_start_matches("0x") accepted
        // a repeated prefix, silently reading 0x0x2a as 0x2a.
        seed_error("0x0x2a");
        // from_str_radix's leading-sign leniency must not leak through.
        seed_error("0x+2a");
        // The prefix is mandatory and the digits exactly 16, lowercase.
        seed_error("2a");
        seed_error("0x");
        seed_error("0x00000000000000001");
        seed_error("0x2a");
        seed_error("0x000000000000002A");
        // Only the rendered form parses: this line is unindented,
        // unterminated and its seed is short, so it is rejected too.
        assert_eq!(Trail::parse("rng    x <- 0x2a"), None);
        let t = Trail::parse("  rng    x <- 0x000000000000002a\n").expect("valid seed");
        assert_eq!(t.events()[0], Event::RngStream { tag: "x".into(), seed: 0x2a });
    }

    #[test]
    fn adversarial_content_roundtrips_exactly() {
        let mut t = Trail::new();
        t.param("key = with separator", "value\nwith newline");
        t.param("tricky\\=", " leading and trailing ");
        t.metric("name <- arrow", f64::NAN);
        t.metric("naïve ünicode", f64::NEG_INFINITY);
        t.metric("neg zero", -0.0);
        t.rng_stream("tag <- fake", 0xDEAD);
        t.note("note that looks like\n  param  x = 1");
        t.note("");
        let rendered = t.render();
        let parsed = Trail::parse(&rendered).expect("escaped text parses");
        // NaN breaks PartialEq, so compare the canonical encodings.
        assert_eq!(parsed.render(), rendered);
        assert_eq!(parsed.fingerprint(), t.fingerprint());
        assert_eq!(parsed.len(), t.len());
        // The forged note must still be one note, not a param event.
        assert!(matches!(&parsed.events()[6], Event::Note(n) if n.contains("param  x = 1")));
    }

    #[test]
    fn injection_cannot_forge_events() {
        // Before escaping, this key re-split into a different param and the
        // value's newline forged a second line that parse rejected (or
        // worse, accepted as a foreign event).
        let mut t = Trail::new();
        t.param("a = b", "c");
        let parsed = Trail::parse(&t.render()).expect("parses");
        assert_eq!(parsed, t);
        assert_eq!(parsed.events().len(), 1);
        assert_eq!(parsed.events()[0], Event::Param { key: "a = b".into(), value: "c".into() });
    }

    #[test]
    fn unescape_fails_closed() {
        assert_eq!(codec::unescape("trailing\\", Esc::Key).ok(), None);
        assert_eq!(codec::unescape("unknown \\q escape", Esc::Key).ok(), None);
        assert_eq!(
            codec::unescape("fine \\\\ \\n \\r \\= \\<", Esc::Key).ok(),
            Some("fine \\ \n \r = <".into())
        );
    }

    #[test]
    fn noncanonical_nan_roundtrips_bitwise() {
        let payload = f64::from_bits(0x7FF8_0000_0000_BEEF);
        let mut t = Trail::new();
        t.metric("weird", payload);
        let rendered = t.render();
        assert!(rendered.contains("NaN#7ff800000000beef"), "{rendered}");
        let parsed = Trail::parse(&rendered).expect("parses");
        assert_eq!(parsed.fingerprint(), t.fingerprint(), "bitwise NaN payload roundtrip");
        // A NaN# form whose bits are not actually a NaN is malformed: the
        // error lands on the value, which starts at byte 13.
        let err = Trail::decode("  metric x = NaN#0000000000000001\n").unwrap_err();
        assert_eq!(err.offset, 13, "{err}");
    }

    #[test]
    fn empty_trail() {
        let t = Trail::new();
        assert!(t.is_empty());
        assert_eq!(t.fingerprint(), Trail::new().fingerprint());
    }
}
