//! Borrowed, zero-copy view of an HTTP(S) URL.
//!
//! [`UrlRef`] is the allocation-free twin of [`crate::url::Url`]: every
//! component is a subslice of the input, query pairs come out of a lazy
//! [`QueryIter`], and percent-decoding is deferred — either validated in
//! place ([`UrlRef::validate_query`]) or decoded into a caller-owned
//! scratch buffer ([`crate::scratch::UrlScratch`]). The owned parser is a
//! thin wrapper over this one, so the two can never disagree on the
//! grammar.
//!
//! This module is the monitor's reject path: at production scale nearly
//! every observed request is *not* an nURL, and rejecting one must not
//! touch the heap. A dedicated lint rule (`alloc-in-reject-path`) keeps
//! every token in this file borrow-only.

use crate::url::UrlParseError;

/// A parsed URL borrowing the input string: scheme flag plus host, path
/// and raw query subslices. Construction performs no percent-decoding and
/// no allocation; escape errors surface later, from
/// [`UrlRef::validate_query`] or the scratch decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlRef<'a> {
    https: bool,
    host: &'a str,
    path: &'a str,
    query: &'a str,
}

impl<'a> UrlRef<'a> {
    /// Parses the structural layer of a URL — scheme, host, path, raw
    /// query — without decoding anything. Accepts exactly the inputs the
    /// owned parser accepts structurally; a URL that only fails on a bad
    /// percent-escape parses here and fails at decode/validate time.
    ///
    /// Unlike the owned parser the host keeps its original case; compare
    /// with `eq_ignore_ascii_case` or lowercase at the call site.
    pub fn parse(input: &'a str) -> Result<UrlRef<'a>, UrlParseError> {
        let (https, rest) = if let Some(r) = input.strip_prefix("https://") {
            (true, r)
        } else if let Some(r) = input.strip_prefix("http://") {
            (false, r)
        } else {
            return Err(UrlParseError::Scheme);
        };

        let (authority, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        // Strip an optional port; reject empty hosts and whitespace —
        // byte-for-byte the owned parser's host rule.
        let host = authority.split(':').next().unwrap_or("");
        if host.is_empty() || !host.bytes().all(is_host_byte) {
            return Err(UrlParseError::Host);
        }

        // Fragment first (never used, but must not pollute the query),
        // then the query.
        let path_query = match path_query.find('#') {
            Some(i) => &path_query[..i],
            None => path_query,
        };
        let (path, query) = match path_query.find('?') {
            Some(i) => (&path_query[..i], &path_query[i + 1..]),
            None => (path_query, ""),
        };

        Ok(UrlRef {
            https,
            host,
            path,
            query,
        })
    }

    /// `true` for `https`.
    pub fn is_https(&self) -> bool {
        self.https
    }

    /// Host subslice, port stripped, **original case** (the owned parser
    /// lowercases; borrowing cannot).
    pub fn host_raw(&self) -> &'a str {
        self.host
    }

    /// Path subslice, always starting with `/`, fragment stripped.
    pub fn path(&self) -> &'a str {
        self.path
    }

    /// The raw query string after `?` (before `#`), undecoded. Empty when
    /// the URL carries no query.
    pub fn query_str(&self) -> &'a str {
        self.query
    }

    /// Lazy iterator over raw `(key, value)` query pairs: split on `&`
    /// (empty components skipped), each pair split at its first `=`.
    /// Components are *not* percent-decoded.
    pub fn query_pairs(&self) -> QueryIter<'a> {
        QueryIter { rest: self.query }
    }

    /// Validates every query component exactly as the owned parser's
    /// decoder would — same escape grammar, same `+`-to-space rule, same
    /// UTF-8 acceptance, same [`UrlParseError::Escape`] positions — but
    /// without writing a single decoded byte. `UrlRef::parse` followed by
    /// `validate_query` accepts precisely the inputs `Url::parse`
    /// accepts.
    pub fn validate_query(&self) -> Result<(), UrlParseError> {
        // Escape-free queries — the common case — cannot fail: they are
        // already valid UTF-8 subslices, and `+`-to-space substitution
        // maps ASCII to ASCII.
        if !self.query.as_bytes().contains(&b'%') {
            return Ok(());
        }
        for (k, v) in self.query_pairs() {
            validate_component(k)?;
            validate_component(v)?;
        }
        Ok(())
    }

    /// First raw value whose *decoded* key equals `key`; the zero-copy
    /// analogue of `Url::query`. Keys with invalid escapes simply don't
    /// match. The returned value is raw (undecoded).
    pub fn query_raw(&self, key: &str) -> Option<&'a str> {
        self.query_pairs()
            .find(|(k, _)| decoded_eq(k, key))
            .map(|(_, v)| v)
    }
}

/// Iterator over raw query pairs — see [`UrlRef::query_pairs`].
#[derive(Debug, Clone)]
pub struct QueryIter<'a> {
    /// Unconsumed query text. `pub(crate)` so the scratch module's
    /// escape-free fast path can split a borrowed query with this exact
    /// grammar instead of duplicating it.
    pub(crate) rest: &'a str,
}

impl<'a> Iterator for QueryIter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        loop {
            if self.rest.is_empty() {
                return None;
            }
            let (pair, rest) = match self.rest.find('&') {
                Some(i) => (&self.rest[..i], &self.rest[i + 1..]),
                None => (self.rest, ""),
            };
            self.rest = rest;
            if pair.is_empty() {
                continue;
            }
            return Some(match pair.find('=') {
                Some(i) => (&pair[..i], &pair[i + 1..]),
                None => (pair, ""),
            });
        }
    }
}

/// True when `b` may appear in a hostname: `A–Z a–z 0–9 . - _`.
fn is_host_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_'
}

/// Decodes the byte at raw position `i` of a component, advancing `i`
/// past it. Mirrors the owned decoder's escape grammar: `%XX` hex pairs,
/// `+` to space, everything else verbatim. Errors carry the raw position
/// of the bad escape, like [`crate::url::percent_decode`].
pub(crate) fn decode_byte_at(bytes: &[u8], i: &mut usize) -> Result<u8, UrlParseError> {
    match bytes[*i] {
        b'%' => {
            if *i + 2 > bytes.len() {
                return Err(UrlParseError::Escape(*i));
            }
            let hi = bytes.get(*i + 1).and_then(|b| (*b as char).to_digit(16));
            let lo = bytes.get(*i + 2).and_then(|b| (*b as char).to_digit(16));
            match (hi, lo) {
                (Some(h), Some(l)) => {
                    *i += 3;
                    Ok(((h << 4) | l) as u8)
                }
                _ => Err(UrlParseError::Escape(*i)),
            }
        }
        b'+' => {
            *i += 1;
            Ok(b' ')
        }
        b => {
            *i += 1;
            Ok(b)
        }
    }
}

/// Validates one component without materialising the decoded bytes:
/// escape grammar errors carry the raw position, UTF-8 errors carry the
/// *decoded* position of the first invalid sequence — the exact values
/// `percent_decode` reports (its UTF-8 error is `valid_up_to()` of the
/// decoded buffer).
fn validate_component(raw: &str) -> Result<(), UrlParseError> {
    // Only `%` escapes can produce errors: without them the decoded
    // bytes are the input (a valid `&str`) with `+` → ASCII space.
    if !raw.as_bytes().contains(&b'%') {
        return Ok(());
    }
    let bytes = raw.as_bytes();
    let mut i = 0;
    let mut utf8 = Utf8Check::new();
    while i < bytes.len() {
        let b = decode_byte_at(bytes, &mut i)?;
        utf8.push(b).map_err(UrlParseError::Escape)?;
    }
    utf8.finish().map_err(UrlParseError::Escape)
}

/// The decoded byte length of a component with valid escapes: `%XX`
/// counts one byte, everything else counts itself. Lets callers compute
/// decoded sizes (e.g. transport features) without a decode buffer.
pub fn decoded_len(raw: &str) -> usize {
    // `+` → space is one-to-one; only `%XX` shrinks.
    if !raw.as_bytes().contains(&b'%') {
        return raw.len();
    }
    let bytes = raw.as_bytes();
    let mut i = 0;
    let mut n = 0;
    while i < bytes.len() {
        if decode_byte_at(bytes, &mut i).is_err() {
            // Malformed tail: count the remaining raw bytes verbatim so
            // the function is total (callers validate first anyway).
            n += bytes.len() - i;
            break;
        }
        n += 1;
    }
    n
}

/// True when `raw` percent-decodes exactly to `target`, without
/// allocating. Invalid escapes never match.
fn decoded_eq(raw: &str, target: &str) -> bool {
    if !raw.bytes().any(|c| c == b'%' || c == b'+') {
        return raw == target;
    }
    let bytes = raw.as_bytes();
    let want = target.as_bytes();
    let mut i = 0;
    let mut w = 0;
    while i < bytes.len() {
        let Ok(b) = decode_byte_at(bytes, &mut i) else {
            return false;
        };
        if w >= want.len() || want[w] != b {
            return false;
        }
        w += 1;
    }
    w == want.len()
}

/// Incremental UTF-8 acceptor tracking positions in *decoded* bytes,
/// tuned to report exactly what `std::str::from_utf8`'s `valid_up_to()`
/// reports: the decoded offset where the first invalid or incomplete
/// sequence starts.
struct Utf8Check {
    /// Decoded bytes accepted so far.
    pos: usize,
    /// Decoded offset where the in-flight multi-byte sequence began.
    seq_start: usize,
    /// Continuation bytes still expected.
    need: u8,
    /// Allowed range for the next continuation byte (the second byte of
    /// a sequence is range-restricted per the RFC 3629 table; later ones
    /// are always `0x80..=0xBF`).
    lo: u8,
    hi: u8,
}

impl Utf8Check {
    fn new() -> Utf8Check {
        Utf8Check {
            pos: 0,
            seq_start: 0,
            need: 0,
            lo: 0,
            hi: 0,
        }
    }

    fn start(&mut self, need: u8, lo: u8, hi: u8) {
        self.seq_start = self.pos;
        self.need = need;
        self.lo = lo;
        self.hi = hi;
        self.pos += 1;
    }

    fn push(&mut self, b: u8) -> Result<(), usize> {
        if self.need > 0 {
            if b < self.lo || b > self.hi {
                return Err(self.seq_start);
            }
            self.need -= 1;
            self.lo = 0x80;
            self.hi = 0xBF;
            self.pos += 1;
            return Ok(());
        }
        match b {
            0x00..=0x7F => self.pos += 1,
            0xC2..=0xDF => self.start(1, 0x80, 0xBF),
            0xE0 => self.start(2, 0xA0, 0xBF),
            0xE1..=0xEC => self.start(2, 0x80, 0xBF),
            0xED => self.start(2, 0x80, 0x9F),
            0xEE..=0xEF => self.start(2, 0x80, 0xBF),
            0xF0 => self.start(3, 0x90, 0xBF),
            0xF1..=0xF3 => self.start(3, 0x80, 0xBF),
            0xF4 => self.start(3, 0x80, 0x8F),
            _ => return Err(self.pos),
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), usize> {
        if self.need > 0 {
            Err(self.seq_start)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subslices_without_copying() {
        let raw = "https://Tags.MathTag.com:8080/notify/js?price=1&q=a+b#frag";
        let u = UrlRef::parse(raw).unwrap();
        assert!(u.is_https());
        assert_eq!(u.host_raw(), "Tags.MathTag.com");
        assert_eq!(u.path(), "/notify/js");
        assert_eq!(u.query_str(), "price=1&q=a+b");
        // Subslice identity: components point into the input.
        let host_off = u.host_raw().as_ptr() as usize - raw.as_ptr() as usize;
        assert_eq!(
            &raw[host_off..host_off + u.host_raw().len()],
            "Tags.MathTag.com"
        );
    }

    #[test]
    fn query_iter_matches_owned_split_rules() {
        let u = UrlRef::parse("http://x.com/p?a=1&&flag&k=&b=2=3").unwrap();
        let pairs: Vec<_> = u.query_pairs().collect();
        assert_eq!(
            pairs,
            vec![("a", "1"), ("flag", ""), ("k", ""), ("b", "2=3")]
        );
    }

    #[test]
    fn structural_errors_match_owned() {
        assert_eq!(UrlRef::parse("ftp://x.com/"), Err(UrlParseError::Scheme));
        assert_eq!(UrlRef::parse("not a url"), Err(UrlParseError::Scheme));
        assert_eq!(UrlRef::parse("http:///path"), Err(UrlParseError::Host));
        assert_eq!(
            UrlRef::parse("http://ex ample.com/"),
            Err(UrlParseError::Host)
        );
    }

    #[test]
    fn host_charset_is_exactly_alnum_dot_dash_underscore() {
        use crate::url::Url;
        for c in (0u8..0x80).map(char::from) {
            // `/` and `:` end the host, so they never reach the charset check.
            if matches!(c, '/' | ':') {
                continue;
            }
            let raw = format!("http://a{c}z.example/");
            let want = if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                None
            } else {
                Some(UrlParseError::Host)
            };
            assert_eq!(UrlRef::parse(&raw).err(), want, "{c:?}");
            assert_eq!(Url::parse(&raw).err(), want, "owned parser, {c:?}");
        }
        let raw = "http://é.example/";
        assert_eq!(UrlRef::parse(raw).err(), Some(UrlParseError::Host));
        assert_eq!(Url::parse(raw).err(), Some(UrlParseError::Host));
    }

    #[test]
    fn validate_query_accepts_and_rejects_like_decode() {
        let ok = UrlRef::parse("http://x.com/p?cb=http%3A%2F%2Fb.e%2Ft&q=a+b").unwrap();
        assert_eq!(ok.validate_query(), Ok(()));
        let bad = UrlRef::parse("http://x.com/?a=%zz").unwrap();
        assert!(matches!(
            bad.validate_query(),
            Err(UrlParseError::Escape(_))
        ));
        let trunc = UrlRef::parse("http://x.com/?a=%f").unwrap();
        assert!(matches!(
            trunc.validate_query(),
            Err(UrlParseError::Escape(_))
        ));
        // Decodes to invalid UTF-8 (lone continuation byte).
        let utf8 = UrlRef::parse("http://x.com/?a=%80").unwrap();
        assert_eq!(utf8.validate_query(), Err(UrlParseError::Escape(0)));
    }

    #[test]
    fn query_raw_compares_decoded_keys() {
        let u = UrlRef::parse("http://x.com/p?re%64ir=http%3A%2F%2Fe").unwrap();
        assert_eq!(u.query_raw("redir"), Some("http%3A%2F%2Fe"));
        assert_eq!(u.query_raw("red"), None);
        assert_eq!(u.query_raw("redirx"), None);
    }

    #[test]
    fn decoded_len_counts_decoded_bytes() {
        assert_eq!(decoded_len("a+b"), 3);
        assert_eq!(decoded_len("%41%42c"), 3);
        assert_eq!(decoded_len(""), 0);
    }

    #[test]
    fn utf8_check_agrees_with_std() {
        // Exhaustive-ish corpus of valid/invalid sequences: the decoded
        // error position must equal `from_utf8`'s `valid_up_to()`.
        let cases: &[&[u8]] = &[
            b"plain ascii",
            "καλημέρα κόσμε".as_bytes(),
            "🦀🦀".as_bytes(),
            &[0x61, 0x80],
            &[0x61, 0xC2],
            &[0x61, 0xC2, 0x41],
            &[0xE0, 0x80, 0x80],
            &[0xE0, 0xA0],
            &[0xED, 0xA0, 0x80],
            &[0xF0, 0x8F, 0x80, 0x80],
            &[0xF4, 0x90, 0x80, 0x80],
            &[0xF1, 0x80, 0x80],
            &[0xFE, 0xFF],
            &[0xC0, 0xAF],
        ];
        for bytes in cases {
            let mut check = Utf8Check::new();
            let mut incremental: Result<(), usize> = Ok(());
            for &b in *bytes {
                if let Err(e) = check.push(b) {
                    incremental = Err(e);
                    break;
                }
            }
            if incremental.is_ok() {
                incremental = check.finish();
            }
            let std_result = std::str::from_utf8(bytes);
            match (incremental, std_result) {
                (Ok(()), Ok(_)) => {}
                (Err(pos), Err(e)) => {
                    assert_eq!(pos, e.valid_up_to(), "position for {bytes:?}")
                }
                (inc, std) => panic!("disagree on {bytes:?}: {inc:?} vs {std:?}"),
            }
        }
    }
}
