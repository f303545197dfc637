//! Caller-owned scratch storage for percent-decoding borrowed URLs.
//!
//! [`UrlScratch`] is the reusable half of the zero-copy pipeline: a
//! [`crate::urlref::UrlRef`] defers all decoding, and when a caller does
//! need decoded query pairs (only for the rare URL that survives host and
//! path screening) it decodes them *into* a scratch it already owns —
//! one flat byte buffer plus a span table, both reused across requests,
//! so steady-state decoding performs no allocation at all.
//!
//! The split between this module and `urlref` is deliberate: `urlref.rs`
//! must stay strictly allocation-free (the `alloc-in-reject-path` lint
//! rule enforces it token by token), while the scratch owns the only
//! buffers in the borrowed pipeline.

use crate::urlref::{decode_byte_at, QueryIter, UrlParseError, UrlRef};

/// Reusable decode storage: decoded component bytes plus `(key, value)`
/// span bounds per pair. Hold one per ingestion loop and feed it every
/// URL; capacity grows to the high-water mark and stays.
#[derive(Debug, Clone, Default)]
pub struct UrlScratch {
    bytes: Vec<u8>,
    /// `[key_start, key_end, val_start, val_end]` into `bytes`, per pair.
    spans: Vec<[u32; 4]>,
}

impl UrlScratch {
    /// An empty scratch.
    pub fn new() -> UrlScratch {
        UrlScratch::default()
    }

    /// Percent-decodes every query pair of `url` into this scratch,
    /// replacing its previous contents, and returns a view over the
    /// decoded pairs. Pairs decode in order, key before value, and the
    /// first failure wins: a bad escape reports its raw position in the
    /// component, invalid UTF-8 the decoded position where the invalid
    /// sequence starts. [`UrlRef::validate_query`] reports the same
    /// error without decoding.
    pub fn decode<'s, 'a: 's>(
        &'s mut self,
        url: &UrlRef<'a>,
    ) -> Result<DecodedPairs<'s>, UrlParseError> {
        self.bytes.clear();
        self.spans.clear();
        let query = url.query_str();
        if !query.bytes().any(|c| c == b'%' || c == b'+') {
            // Whole-query fast path: with no escapes and no `+`, every
            // component's decoded bytes *are* its raw bytes, so the view
            // borrows the query itself and splits pairs lazily at
            // iteration time — no span table is built, no byte is copied
            // or re-validated (the query is already `&str`).
            return Ok(DecodedPairs {
                raw: Some(query),
                text: "",
                spans: &[],
            });
        }
        for (k, v) in url.query_pairs() {
            let (ks, ke) = decode_component(k, &mut self.bytes)?;
            let (vs, ve) = decode_component(v, &mut self.bytes)?;
            self.spans.push([ks, ke, vs, ve]);
        }
        // One validation pass over the whole buffer builds the `&str`
        // view every later span access slices in O(1). Each component was
        // checked at decode time, and valid UTF-8 concatenates to valid
        // UTF-8, so this cannot fail; the error arm keeps the path
        // panic-free rather than asserting.
        let text = match std::str::from_utf8(&self.bytes) {
            Ok(text) => text,
            Err(e) => return Err(UrlParseError::Escape(e.valid_up_to())),
        };
        Ok(DecodedPairs {
            raw: None,
            text,
            spans: &self.spans,
        })
    }
}

/// Decodes one component onto the end of `buf`, returning its span.
/// UTF-8 is validated per component so error positions are relative to
/// the component's decoded bytes.
fn decode_component(raw: &str, buf: &mut Vec<u8>) -> Result<(u32, u32), UrlParseError> {
    let start = buf.len();
    let bytes = raw.as_bytes();
    if !bytes.contains(&b'%') {
        // Escape-free fast path: the decoded bytes are the raw bytes
        // with `+` → space (ASCII to ASCII, so the component stays the
        // valid UTF-8 it already was — no validation pass needed).
        if bytes.contains(&b'+') {
            buf.extend(bytes.iter().map(|&b| if b == b'+' { b' ' } else { b }));
        } else {
            buf.extend_from_slice(bytes);
        }
        return Ok((start as u32, buf.len() as u32));
    }
    // Escaped path: bulk-copy plain runs, decode each escape, validate
    // the component's decoded bytes.
    let mut i = 0;
    while i < bytes.len() {
        let run = i;
        i = match bytes[i..].iter().position(|&c| c == b'%' || c == b'+') {
            Some(off) => i + off,
            None => bytes.len(),
        };
        buf.extend_from_slice(&bytes[run..i]);
        if i < bytes.len() {
            let b = decode_byte_at(bytes, &mut i)?;
            buf.push(b);
        }
    }
    match std::str::from_utf8(&buf[start..]) {
        Ok(_) => Ok((start as u32, buf.len() as u32)),
        Err(e) => Err(UrlParseError::Escape(e.valid_up_to())),
    }
}

/// Borrowed view over one URL's decoded query pairs, living inside a
/// [`UrlScratch`] — or, for escape-free queries, directly inside the
/// borrowed URL. The escaped form was UTF-8-validated at decode time, so
/// every span access is a bounds-checked O(1) slice; the raw form splits
/// pairs lazily with the exact [`UrlRef::query_pairs`] grammar, and its
/// raw bytes *are* the decoded bytes (no `%`, no `+`).
#[derive(Debug)]
pub struct DecodedPairs<'s> {
    /// `Some(query)` on the escape-free fast path.
    raw: Option<&'s str>,
    text: &'s str,
    spans: &'s [[u32; 4]],
}

impl<'s> DecodedPairs<'s> {
    /// Number of pairs. O(pairs) for an escape-free query (pairs are
    /// never materialized), O(1) otherwise.
    pub fn len(&self) -> usize {
        match self.raw {
            Some(query) => (QueryIter { rest: query }).count(),
            None => self.spans.len(),
        }
    }

    /// True when the URL carried no query pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All decoded `(key, value)` pairs in order.
    pub fn iter(&self) -> PairsIter<'s> {
        match self.raw {
            Some(query) => PairsIter::Raw(QueryIter { rest: query }),
            None => PairsIter::Spans {
                text: self.text,
                spans: self.spans.iter(),
            },
        }
    }

    /// First value for `key`.
    pub fn get(&self, key: &str) -> Option<&'s str> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Iterator behind [`DecodedPairs::iter`]: lazy raw splitting for
/// escape-free queries, span slicing for decoded ones.
#[derive(Debug)]
pub enum PairsIter<'s> {
    /// Splitting the borrowed query on the fly.
    Raw(QueryIter<'s>),
    /// Walking the scratch-resident span table.
    Spans {
        /// The decoded text every span indexes into.
        text: &'s str,
        /// Remaining `[key_start, key_end, val_start, val_end]` rows.
        spans: std::slice::Iter<'s, [u32; 4]>,
    },
}

impl<'s> Iterator for PairsIter<'s> {
    type Item = (&'s str, &'s str);

    fn next(&mut self) -> Option<(&'s str, &'s str)> {
        match self {
            PairsIter::Raw(inner) => inner.next(),
            PairsIter::Spans { text, spans } => spans
                .next()
                .map(|s| (span_str(text, s[0], s[1]), span_str(text, s[2], s[3]))),
        }
    }
}

/// A decoded span as `&str`. Span bounds are component boundaries by
/// construction (hence char boundaries); the fallback is unreachable but
/// keeps the crate free of panic paths.
fn span_str(text: &str, a: u32, b: u32) -> &str {
    text.get(a as usize..b as usize).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_escapes_plus_and_bare_keys() {
        let raw = "http://t.co/n?cb=http%3A%2F%2Fbeacon.example%2Ft&q=a+b&flag&k=";
        let url = UrlRef::parse(raw).unwrap();
        let mut scratch = UrlScratch::new();
        let pairs = scratch.decode(&url).unwrap();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs.get("cb"), Some("http://beacon.example/t"));
        assert_eq!(pairs.get("q"), Some("a b"));
        assert_eq!(pairs.get("flag"), Some(""));
        assert_eq!(pairs.get("k"), Some(""));
        assert_eq!(pairs.get("missing"), None);
        let all: Vec<_> = pairs.iter().collect();
        assert_eq!(all[0], ("cb", "http://beacon.example/t"));
        assert_eq!(all[3], ("k", ""));
    }

    #[test]
    fn errors_carry_component_positions() {
        // A bad escape reports its raw offset in the component, invalid
        // UTF-8 the decoded offset where the bad sequence starts, and the
        // key fails before its value. `tests/parity.rs` checks the same
        // against an independent decoder on every corpus input.
        let mut scratch = UrlScratch::new();
        for (q, want) in [
            ("a=o+k%zz", 3),
            ("a=ok%f", 2),
            ("a=%41%80", 1),
            ("%zz=%80", 0),
        ] {
            let input = format!("http://x.com/?{q}");
            let url = UrlRef::parse(&input).unwrap();
            let got = scratch.decode(&url).map(|_| ()).unwrap_err();
            assert_eq!(got, UrlParseError::Escape(want), "{q}");
            assert_eq!(url.validate_query(), Err(got), "{q}");
        }
    }

    #[test]
    fn escape_free_query_takes_fast_path_identically() {
        // No `%` or `+` anywhere: the bulk-copy fast path serves every
        // span, including empty keys/values (which alias the zero span)
        // and a pair with no `=` (whose value is the static `""`).
        let url = UrlRef::parse("http://x.com/n?a=1&flag&k=&=v&q=hello").unwrap();
        let mut scratch = UrlScratch::new();
        let pairs = scratch.decode(&url).unwrap();
        assert_eq!(pairs.len(), 5);
        let all: Vec<_> = pairs.iter().collect();
        assert_eq!(
            all,
            [
                ("a", "1"),
                ("flag", ""),
                ("k", ""),
                ("", "v"),
                ("q", "hello")
            ]
        );
        assert_eq!(pairs.get("q"), Some("hello"));
        assert_eq!(pairs.get("flag"), Some(""));
    }

    #[test]
    fn scratch_reuse_replaces_contents() {
        let mut scratch = UrlScratch::new();
        let a = UrlRef::parse("http://x.com/?a=1&b=2").unwrap();
        assert_eq!(scratch.decode(&a).unwrap().len(), 2);
        let b = UrlRef::parse("http://x.com/?only=once").unwrap();
        let pairs = scratch.decode(&b).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs.get("a"), None);
        assert_eq!(pairs.get("only"), Some("once"));
    }
}
