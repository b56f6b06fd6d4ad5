//! The one place a persisted artifact's framing and line grammar live.
//!
//! Every artifact this workspace writes — model text, selector text,
//! learner checkpoints, publication frames and metric expositions — is
//! strict line-oriented text. Codecs describe their
//! fields; how the text is framed and split is decided here only:
//!
//! * **One envelope.** [`seal`] writes `<header>`, `bytes <len> checksum
//!   <fnv64>`, the body, `<footer>`. [`open`] verifies one in memory and
//!   borrows its body; [`read_sealed`] reads one from a stream. Both run
//!   the same meta-line parse and checksum check, in the same order.
//! * **One line grammar.** [`LineReader`] splits `\n`-terminated lines into
//!   fixed token shapes ([`LineReader::shape`]), `key value` lines, counted
//!   hex-float vectors, rest-of-line strings and counts bounded by the
//!   input left. A missing line, a wrong
//!   literal, a last line without its newline and content past the
//!   declared end are errors that name the line.
//! * **Canonical numerals.** [`decimal`] takes ASCII digits only; the hex
//!   parsers take exactly the lower-case width their writers emit. The meta
//!   line is outside the checksum, so only this makes a substituted byte
//!   there an error rather than another spelling of the same value. Floats
//!   travel as IEEE-754 bit patterns, so restored state is bit-identical.
//!
//! It lives in `prosel-mart`, the lowest crate that persists an artifact
//! (model text), and is re-exported as `prosel_core::textio`.

use std::fmt::{Display, Write as _};
use std::io::{BufRead, Read};
use std::str::FromStr;

/// FNV-1a 64-bit hash: the checksum of every sealed artifact. Any
/// single-byte substitution changes it; it is not a signature.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render an `f32` as its IEEE-754 bit pattern in lowercase hex.
pub fn f32_to_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

/// Parse an `f32` from [`f32_to_hex`] output. Exact inverse, NaN included.
pub fn f32_from_hex(s: &str) -> Result<f32, String> {
    hex("an f32 bit pattern", s, 8).map(|bits| f32::from_bits(bits as u32))
}

/// Render an `f64` as its IEEE-754 bit pattern in lowercase hex.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parse an `f64` from [`f64_to_hex`] output. Exact inverse, NaN included.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    hex("an f64 bit pattern", s, 16).map(f64::from_bits)
}

/// Exactly `width` lower-case hex digits — the spelling `{:0width$x}`
/// writes, and no other.
fn hex(what: &str, raw: &str, width: usize) -> Result<u64, String> {
    if raw.len() != width || !raw.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(format!("expected {width} lower-case hex digits for {what}, got {raw:?}"));
    }
    u64::from_str_radix(raw, 16).map_err(|e| e.to_string())
}

/// Parse one `Display`-written value (a model's floats), naming the field
/// in the error.
pub fn parse<T: FromStr>(field: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("{field}: bad value {raw:?}: {e}"))
}

/// Parse a decimal field: ASCII digits only — no sign, no spaces — into an
/// unsigned integer type; a value past the type's range is an error.
pub fn decimal<T: FromStr>(field: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{field}: bad value {raw:?}: expected decimal digits"));
    }
    parse(field, raw)
}

/// Append the line [`LineReader::f32s`] reads: `<label> <n> <hex> …`.
pub fn write_f32s(out: &mut String, label: &str, values: &[f32]) {
    let _ = write!(out, "{label} {}", values.len());
    for v in values {
        let _ = write!(out, " {:08x}", v.to_bits());
    }
    out.push('\n');
}

/// Wrap `body` in the envelope [`open`] and [`read_sealed`] verify:
///
/// ```text
/// <header>
/// bytes <body length> checksum <fnv64 of the body, 16 hex digits>
/// <body><footer>
/// ```
///
/// `body` is either empty or ends in a newline, so the footer starts a
/// line.
pub fn seal(header: &str, body: &str, footer: &str) -> String {
    format!(
        "{header}\nbytes {} checksum {:016x}\n{body}{footer}\n",
        body.len(),
        fnv64(body.as_bytes())
    )
}

/// Why [`read_sealed`] refused an artifact ([`open`] says the same in
/// text).
#[derive(Debug)]
pub enum SealError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// Header, meta line or footer is wrong, or the body is shorter than
    /// declared: where the artifact ends is unknown.
    Torn(String),
    /// The framing is intact; the body does not hash to the checksum.
    ChecksumMismatch {
        /// Checksum on the meta line.
        declared: u64,
        /// Checksum of the body as received.
        computed: u64,
    },
}

impl Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Io(e) => write!(f, "i/o error: {e}"),
            SealError::Torn(detail) => f.write_str(detail),
            SealError::ChecksumMismatch { declared, computed } => {
                write!(f, "checksum mismatch: declared {declared:016x}, computed {computed:016x}")
            }
        }
    }
}

impl std::error::Error for SealError {}

impl From<std::io::Error> for SealError {
    fn from(e: std::io::Error) -> Self {
        SealError::Io(e)
    }
}

/// The body length and checksum of a `bytes <len> checksum <hex>` line.
fn meta(line: &str) -> Result<(usize, u64), String> {
    let (len, sum) = line
        .strip_prefix("bytes ")
        .and_then(|r| r.split_once(" checksum "))
        .ok_or_else(|| format!("bad meta line (want `bytes <len> checksum <hex>`): {line:?}"))?;
    Ok((decimal("bytes", len)?, hex("the checksum", sum, 16)?))
}

/// The last gate of both forms.
fn verify(body: &[u8], declared: u64) -> Result<(), SealError> {
    match fnv64(body) {
        computed if computed == declared => Ok(()),
        computed => Err(SealError::ChecksumMismatch { declared, computed }),
    }
}

/// Verify a [`seal`]ed artifact held in memory and borrow its body.
/// Strict: header, meta line, byte count, footer and checksum must all
/// match, and only whitespace may follow the footer's newline — a
/// truncated, corrupted, version-drifted or concatenated artifact is an
/// error, never a different body.
pub fn open<'a>(text: &'a str, header: &str, footer: &str) -> Result<&'a str, String> {
    let rest = text
        .strip_prefix(header)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| format!("missing `{header}` header"))?;
    let (line, after_meta) =
        rest.split_once('\n').ok_or("truncated before the bytes/checksum line")?;
    let (len, declared) = meta(line)?;
    // `None` past the end of the input and inside a multi-byte character
    // alike: neither can be the length `seal` wrote.
    let (body, tail) = after_meta.split_at_checked(len).ok_or_else(|| {
        format!(
            "truncated body: {len} bytes declared, {} present, or the count splits a character",
            after_meta.len()
        )
    })?;
    let after_footer = tail
        .strip_prefix(footer)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| format!("missing `{footer}` terminator"))?;
    verify(body.as_bytes(), declared).map_err(|e| e.to_string())?;
    if !after_footer.trim().is_empty() {
        return Err(format!("trailing garbage after `{footer}`: {after_footer:?}"));
    }
    Ok(body)
}

/// Read one [`seal`]ed artifact from a stream and return its body.
///
/// `Ok(None)` is a clean end of stream where an artifact would start, and
/// what follows the footer line is left unread. The body buffer grows with
/// the bytes that arrive, never with the declared length. After
/// [`SealError::ChecksumMismatch`] the artifact has been consumed whole;
/// after the other errors the stream position is undefined.
pub fn read_sealed(
    reader: &mut dyn BufRead,
    header: &str,
    footer: &str,
) -> Result<Option<Vec<u8>>, SealError> {
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut buf = Vec::new();
    let line = stream_line(reader, &mut buf)?;
    if line != header {
        return Err(SealError::Torn(format!("missing `{header}` header, got {line:?}")));
    }
    let (len, declared) = meta(stream_line(reader, &mut buf)?).map_err(SealError::Torn)?;
    let mut body = Vec::new();
    (&mut *reader).take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(SealError::Torn(format!(
            "truncated body: {len} bytes declared, the stream held {}",
            body.len()
        )));
    }
    let line = stream_line(reader, &mut buf)?;
    if line != footer {
        return Err(SealError::Torn(format!(
            "missing `{footer}` terminator after {len} body bytes, got {line:?}"
        )));
    }
    verify(&body, declared)?;
    Ok(Some(body))
}

/// The next line of a stream, without its newline; one the stream cut off
/// (or that is not text) is torn.
fn stream_line<'b>(reader: &mut dyn BufRead, buf: &'b mut Vec<u8>) -> Result<&'b str, SealError> {
    buf.clear();
    reader.read_until(b'\n', buf)?;
    match buf.strip_suffix(b"\n").map(std::str::from_utf8) {
        Some(Ok(line)) => Ok(line),
        _ => Err(SealError::Torn(format!(
            "stream ended inside a line: {:?}",
            String::from_utf8_lossy(buf)
        ))),
    }
}

/// A line cursor for strict text codecs: lines end in `\n`, and every
/// error names the offending line.
pub struct LineReader<'a> {
    rest: &'a str,
    line_no: usize,
    /// The line last returned ran to the end of the input without a
    /// newline.
    unterminated: bool,
}

impl<'a> LineReader<'a> {
    /// Start reading `text` from its first line.
    pub fn new(text: &'a str) -> Self {
        LineReader { rest: text, line_no: 0, unterminated: false }
    }

    /// The 1-based number of the most recently returned line.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Next line, or an error if the input ends early.
    pub fn next_line(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        if self.rest.is_empty() {
            return Err(format!("unexpected end of input at line {}", self.line_no));
        }
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.unterminated = line.len() == self.rest.len();
        self.rest = rest;
        Ok(line)
    }

    /// Require the next line to equal `literal` exactly (after trimming
    /// trailing whitespace).
    pub fn expect(&mut self, literal: &str) -> Result<(), String> {
        let line = self.next_line()?;
        if line.trim_end() != literal {
            return Err(format!("line {}: expected {literal:?}, got {line:?}", self.line_no));
        }
        Ok(())
    }

    /// Match the next line's whitespace-separated tokens one for one
    /// against `pattern`'s space-separated ones, handing the token at each
    /// `_` to `take`.
    fn matched(&mut self, pattern: &str, mut take: impl FnMut(&'a str)) -> Result<(), String> {
        let line = self.next_line()?;
        let mut got = line.split_whitespace();
        let fits = pattern.split(' ').all(|want| match got.next() {
            Some(value) if want == "_" => {
                take(value);
                true
            }
            Some(token) => token == want,
            None => false,
        });
        if fits && got.next().is_none() {
            Ok(())
        } else {
            Err(format!("line {}: expected `{pattern}`, got {line:?}", self.line_no))
        }
    }

    /// Parse the next line against `pattern`: literal tokens, each of which
    /// must appear verbatim, and `_` slots, each taking one value —
    /// `"node _ _ _ _ _ _"`, `"record query _ pipeline _"`. The token count
    /// is exact, so field drift (a renamed, reordered, added or dropped
    /// field) is an error, never a misread.
    pub fn shape<const N: usize>(&mut self, pattern: &str) -> Result<[&'a str; N], String> {
        debug_assert_eq!(pattern.split(' ').filter(|t| *t == "_").count(), N, "{pattern}");
        let mut values = [""; N];
        let mut slots = values.iter_mut();
        self.matched(pattern, |v| slots.next().map_or((), |slot| *slot = v))?;
        Ok(values)
    }

    /// Parse the counted vector line [`write_f32s`] writes.
    pub fn f32s(&mut self, label: &str) -> Result<Vec<f32>, String> {
        let line = self.next_line()?;
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some(label) {
            return Err(format!(
                "line {}: expected a {label:?} vector line, got {line:?}",
                self.line_no
            ));
        }
        let n: usize = decimal(label, tokens.next().unwrap_or(""))?;
        let mut values = Vec::with_capacity(n.min(line.len()));
        for raw in tokens {
            values.push(f32_from_hex(raw)?);
        }
        if values.len() != n {
            return Err(format!("{label}: declared {n} values, found {}", values.len()));
        }
        Ok(values)
    }

    /// The rest of a `<label> <text>` line verbatim: the text may hold
    /// spaces, and `<label>` alone is the empty string.
    pub fn rest_of_line(&mut self, label: &str) -> Result<&'a str, String> {
        let line = self.next_line()?;
        let text = match line.strip_prefix(label) {
            Some("") => Some(""),
            Some(rest) => rest.strip_prefix(' '),
            None => None,
        };
        text.ok_or_else(|| {
            format!("line {}: expected a {label:?} line, got {line:?}", self.line_no)
        })
    }

    /// Parse `raw` as a count of things to read, each at least a byte of
    /// what is left: a larger count is refused before anything is sized.
    pub fn count(&self, what: &str, raw: &str) -> Result<usize, String> {
        let (n, room) = (decimal(what, raw)?, self.rest.len());
        if n > room {
            return Err(format!("{what} {n}: more than the {room} bytes left could hold"));
        }
        Ok(n)
    }

    /// Consume the remainder, rejecting anything but trailing whitespace,
    /// and refuse an input whose last line lost its newline: neither a
    /// concatenated artifact nor a prefix cut inside its last line parses.
    pub fn finish(mut self) -> Result<(), String> {
        if self.unterminated {
            return Err(format!("line {}: truncated: no newline at the end", self.line_no));
        }
        while !self.rest.is_empty() {
            let line = self.next_line()?;
            if !line.trim().is_empty() {
                return Err(format!(
                    "line {}: trailing garbage after the declared end: {line:?}",
                    self.line_no
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn float_hex_round_trips_are_bit_exact() {
        for v in [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::NAN, f32::INFINITY, -123.456] {
            let back = f32_from_hex(&f32_to_hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        for v in [0.0f64, -0.0, 1.5e-300, f64::NAN, f64::NEG_INFINITY, 987.654321] {
            let back = f64_from_hex(&f64_to_hex(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        assert!(f32_from_hex("123").is_err());
        assert!(f32_from_hex("zzzzzzzz").is_err());
        assert!(f64_from_hex("0123").is_err());
    }

    #[test]
    fn line_reader_enforces_the_codec_discipline() {
        let mut r = LineReader::new("header v1\ncount 3 seed 7\n");
        r.expect("header v1").unwrap();
        let vals = r.shape::<2>("count _ seed _").unwrap();
        assert_eq!(vals, ["3", "7"]);
        assert_eq!(parse::<usize>("count", vals[0]).unwrap(), 3);
        r.finish().unwrap();

        let mut r = LineReader::new("wrong\n");
        assert!(r.expect("header v1").unwrap_err().contains("line 1"));

        let mut r = LineReader::new("header v1\nseed 7 count 3\n");
        r.expect("header v1").unwrap();
        assert!(r.shape::<2>("count _ seed _").is_err(), "reordered keys are field drift");

        let mut r = LineReader::new("header v1\n\n  \njunk\n");
        r.expect("header v1").unwrap();
        assert!(r.finish().unwrap_err().contains("trailing garbage"));

        let mut r = LineReader::new("one");
        r.next_line().unwrap();
        assert!(r.next_line().unwrap_err().contains("end of input"));
    }

    #[test]
    fn envelope_opens_what_it_sealed_and_nothing_else() {
        for body in ["", "a 1\nb 2\n", "h\u{e9}llo\n"] {
            let text = seal("demo v1", body, "enddemo");
            assert_eq!(open(&text, "demo v1", "enddemo"), Ok(body));
            assert_eq!(open(&format!("{text}\n  \n"), "demo v1", "enddemo"), Ok(body));
            for cut in 0..text.len() {
                if let Some(prefix) = text.get(..cut) {
                    assert!(open(prefix, "demo v1", "enddemo").is_err(), "prefix {cut}");
                }
            }
            assert!(open(&text, "demo v2", "enddemo").unwrap_err().contains("header"));
            assert!(open(&text, "demo v1", "end").unwrap_err().contains("terminator"));
            let err = open(&format!("{text}x\n"), "demo v1", "enddemo").unwrap_err();
            assert!(err.contains("trailing garbage"), "{err}");
        }
        let text = seal("demo v1", "a 1\n", "enddemo");
        let err = open(&text.replace("a 1", "a 2"), "demo v1", "enddemo").unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // Hostile byte counts: past the end (up to `usize::MAX`) and
        // inside the two-byte `\u{e9}` are errors, not slice panics.
        for n in ["18446744073709551615", "1000000000000", "99999999999999999999", "2"] {
            let text =
                format!("demo v1\nbytes {n} checksum 0000000000000000\nh\u{e9}llo\nenddemo\n");
            assert!(open(&text, "demo v1", "enddemo").is_err(), "bytes {n}");
        }
    }

    #[test]
    fn meta_line_numerals_have_one_spelling() {
        // A checksum that opens with `0` and holds a letter. Flipping the
        // letter's case (`^ 0x20`), putting `+` for the `0`, or a `+` before
        // the byte count names the same number to `from_str_radix` and
        // `str::parse`; none is what `seal` wrote, and none opens.
        let at = "demo v1\nbytes 5 checksum ".len();
        let text = (10..100)
            .map(|i| seal("demo v1", &format!("a {i}\n"), "enddemo"))
            .find(|t| t[at..].starts_with('0') && t[at..at + 16].contains(char::is_lowercase))
            .unwrap();
        let letter = at + text[at..].find(char::is_lowercase).unwrap();
        let mut flipped = text.clone();
        flipped[letter..=letter].make_ascii_uppercase();
        let plus = format!("{}+{}", &text[..at], &text[at + 1..]);
        for altered in [flipped, plus, text.replacen("bytes ", "bytes +", 1)] {
            assert!(open(&altered, "demo v1", "enddemo").is_err(), "{altered:?}");
            let streamed = read_sealed(&mut altered.as_bytes(), "demo v1", "enddemo");
            assert!(matches!(streamed, Err(SealError::Torn(_))), "{altered:?}");
        }
        for bad in ["+3", " 3", "", "\u{663}", "256"] {
            assert!(decimal::<u8>("n", bad).is_err(), "{bad:?}");
        }
    }
}
