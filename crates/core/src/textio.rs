//! Shared helpers for the workspace's strict line-oriented text codecs.
//!
//! Every persisted artifact in this workspace (selector text, MART model
//! text, learning checkpoints, publication frames) uses the same
//! deliberately simple serde-free format: a versioned header line,
//! whitespace-separated key/value fields validated positionally, and a
//! hard "nothing after the declared end" rule so torn or concatenated
//! files can never parse as a different artifact. This module collects
//! the pieces those codecs share:
//!
//! * [`fnv64`] — the FNV-1a checksum stamped into checkpoint and
//!   publication frames (same hash family the bench traffic harness uses
//!   for digests);
//! * [`f32_to_hex`] / [`f32_from_hex`] (and the `f64` pair) — float
//!   round-tripping via IEEE-754 bit patterns, so restored state is
//!   **bit-identical**, not merely close (Display-printed floats are fine
//!   for models that are re-scored, but checkpoint/restore promises the
//!   same reservoir and the same next retrain output);
//! * [`seal`] / [`open`] — the checksummed envelope (`header`, `bytes <n>
//!   checksum <fnv64>`, body, `footer`) around harvest states, metric
//!   expositions and learner checkpoints;
//! * [`LineReader`] — a cursor over lines that turns "missing line",
//!   "wrong literal" and "trailing garbage" into typed `Err(String)`s
//!   with line numbers, instead of panics or silent acceptance.

/// FNV-1a 64-bit hash over a byte slice.
///
/// Used as the integrity checksum in publication frames and checkpoint
/// footers: cheap, dependency-free, and plenty for detecting torn writes
/// and bit rot (it is *not* a cryptographic signature).
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
    if s.len() != 8 {
        return Err(format!("expected 8 hex digits for an f32 bit pattern, got {s:?}"));
    }
    u32::from_str_radix(s, 16).map(f32::from_bits).map_err(|e| format!("bad f32 hex {s:?}: {e}"))
}

/// Render an `f64` as its IEEE-754 bit pattern in lowercase hex.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parse an `f64` from [`f64_to_hex`] output. Exact inverse, NaN included.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("expected 16 hex digits for an f64 bit pattern, got {s:?}"));
    }
    u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|e| format!("bad f64 hex {s:?}: {e}"))
}

/// Wrap `body` in the checksummed envelope [`open`] verifies:
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

/// Verify a [`seal`]ed artifact and return its body. Strict: the header
/// line, the declared byte count, the checksum and the footer line must
/// all match, and only whitespace may follow the footer's newline — a
/// truncated, corrupted, version-drifted or concatenated artifact is an
/// error, never a different body.
pub fn open<'a>(text: &'a str, header: &str, footer: &str) -> Result<&'a str, String> {
    let rest = text
        .strip_prefix(header)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| format!("missing `{header}` header"))?;
    let (meta, after_meta) =
        rest.split_once('\n').ok_or("truncated before the bytes/checksum line")?;
    let parts: Vec<&str> = meta.split_whitespace().collect();
    let ["bytes", v_bytes, "checksum", v_sum] = parts.as_slice() else {
        return Err(format!("bad meta line (want `bytes <len> checksum <hex>`): {meta:?}"));
    };
    let n_bytes: usize = parse("bytes", v_bytes)?;
    let declared =
        u64::from_str_radix(v_sum, 16).map_err(|e| format!("checksum {v_sum:?}: {e}"))?;
    // `None` past the end of the input and inside a multi-byte character
    // alike: neither can be the length `seal` wrote.
    let (body, tail) = after_meta.split_at_checked(n_bytes).ok_or_else(|| {
        format!(
            "truncated body: {n_bytes} bytes declared, {} present, or the count splits a \
             character",
            after_meta.len()
        )
    })?;
    let computed = fnv64(body.as_bytes());
    if computed != declared {
        return Err(format!(
            "checksum mismatch: declared {declared:016x}, computed {computed:016x}"
        ));
    }
    let after_footer = tail
        .strip_prefix(footer)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or_else(|| format!("missing `{footer}` terminator"))?;
    if !after_footer.trim().is_empty() {
        return Err(format!("trailing garbage after `{footer}`: {after_footer:?}"));
    }
    Ok(body)
}

/// A line cursor for strict text codecs.
///
/// Wraps `str::lines()` with a running line number so every error names
/// the offending line, and enforces the workspace codec discipline:
/// missing lines, mismatched literals, wrong field keys, and content
/// after the declared end are all hard errors.
pub struct LineReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> LineReader<'a> {
    /// Start reading `text` from its first line.
    pub fn new(text: &'a str) -> Self {
        LineReader { lines: text.lines(), line_no: 0 }
    }

    /// The 1-based number of the most recently returned line.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Next line, or an error if the input ends early.
    pub fn next_line(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        self.lines.next().ok_or_else(|| format!("unexpected end of input at line {}", self.line_no))
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

    /// Parse the next line as `key1 v1 key2 v2 ...` with the given keys in
    /// order, returning the raw value strings.
    ///
    /// Mirrors `model_io`'s positional meta-line validation: both the key
    /// *names* and their order are part of the format, so field drift
    /// (renamed, reordered, added or dropped fields) is rejected instead
    /// of being silently misread.
    pub fn fields(&mut self, keys: &[&str]) -> Result<Vec<&'a str>, String> {
        let line = self.next_line()?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 2 * keys.len() {
            return Err(format!(
                "line {}: expected {} `key value` pairs ({}), got {line:?}",
                self.line_no,
                keys.len(),
                keys.join(", ")
            ));
        }
        let mut values = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            if parts[2 * i] != *key {
                return Err(format!(
                    "line {}: field {} must be {key:?}, got {:?}",
                    self.line_no,
                    i + 1,
                    parts[2 * i]
                ));
            }
            values.push(parts[2 * i + 1]);
        }
        Ok(values)
    }

    /// Consume the remainder, rejecting anything but trailing whitespace.
    ///
    /// The strictness that makes torn and concatenated artifacts
    /// unrepresentable: content past the declared end is an error, never
    /// ignored.
    pub fn finish(mut self) -> Result<(), String> {
        for line in self.lines.by_ref() {
            self.line_no += 1;
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

/// Parse one whitespace-separated value with a field name in the error.
pub fn parse<T: std::str::FromStr>(field: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("{field}: bad value {raw:?}: {e}"))
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
        let vals = r.fields(&["count", "seed"]).unwrap();
        assert_eq!(vals, vec!["3", "7"]);
        assert_eq!(parse::<usize>("count", vals[0]).unwrap(), 3);
        r.finish().unwrap();

        let mut r = LineReader::new("wrong\n");
        assert!(r.expect("header v1").unwrap_err().contains("line 1"));

        let mut r = LineReader::new("header v1\nseed 7 count 3\n");
        r.expect("header v1").unwrap();
        assert!(r.fields(&["count", "seed"]).is_err(), "reordered keys are field drift");

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
}
