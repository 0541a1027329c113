//! FSST-style symbol-table string compression.
//!
//! A [`SymbolTable`] holds up to 255 symbols of 1..=8 bytes each, learned
//! from a sample of the strings it will compress. Encoding replaces each
//! longest-matching symbol occurrence with its one-byte code; bytes matched
//! by no symbol are escaped as `ESCAPE` followed by the literal byte, so
//! every input is representable and the worst-case expansion is 2×.
//!
//! Two properties matter to the callers in `payg-core`:
//!
//! * **Determinism.** Encoding is a pure greedy longest-match (ties broken
//!   by lowest code), so equal inputs always produce equal outputs: the
//!   same keys always build the same chain bytes.
//! * **Streaming prefix stability.** The greedy parse at position `i`
//!   depends only on bytes `i..i+8`, so strings sharing a long prefix
//!   compress to outputs sharing a long prefix (divergence backs up at most
//!   7 bytes). Front coding therefore still finds most of its shared
//!   prefixes in the compressed domain.
//!
//! Compressed bytes do **not** preserve `memcmp` order; an ordering probe
//! streams the decoder against the raw probe instead
//! ([`SymbolTable::cmp_decoded`]: symbol by symbol, no output, early exit),
//! which is how `prefix`'s block search orders compressed entries.
//!
//! The trainer is a simplified deterministic variant of the FSST
//! construction (Boncz, Neumann, Leis: "FSST: Fast Random Access String
//! Compression"): a few rounds of greedy re-parsing the sample with the
//! current table while counting single segments and adjacent-segment
//! concatenations, keeping the 255 candidates with the highest
//! `frequency × length` gain.

use crate::{EncodingError, Result};
use std::cmp::Ordering;
use std::collections::HashMap;

/// The escape code: in compressed output this byte is followed by one
/// literal byte. All symbol codes are `0..=254`.
pub const ESCAPE: u8 = 0xFF;

/// Maximum number of symbols a table may hold (codes `0..=254`).
pub const MAX_SYMBOLS: usize = 255;

/// Maximum length of one symbol in bytes.
pub const MAX_SYMBOL_LEN: usize = 8;

/// Number of training rounds: each round re-parses the sample with the
/// table learned so far, letting symbols grow up to 8 bytes (1 → 2 → 4 → 8
/// needs three growth rounds; one extra round stabilizes the final set).
const TRAIN_ROUNDS: usize = 4;

/// A learned symbol table: the codec state for one dictionary chain.
#[derive(Clone, PartialEq, Eq)]
pub struct SymbolTable {
    /// Symbol byte strings, indexed by code. `symbols.len() <= 255`.
    symbols: Vec<Vec<u8>>,
    /// For each possible first byte, the codes of all symbols starting with
    /// that byte, longest first (then lowest code) — the greedy match order.
    first: Vec<Vec<u8>>,
    /// Decoder table: symbol bytes padded to 8, plus the true length, so
    /// decode is two indexed loads per code.
    dec_bytes: Vec<[u8; MAX_SYMBOL_LEN]>,
    dec_len: Vec<u8>,
}

impl std::fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymbolTable({} symbols)", self.symbols.len())
    }
}

impl SymbolTable {
    /// Builds the codec state for a fixed symbol set. Symbols must be
    /// non-empty, at most 8 bytes, distinct, and at most 255 in number.
    fn from_symbols(symbols: Vec<Vec<u8>>) -> Result<Self> {
        if symbols.len() > MAX_SYMBOLS {
            return Err(corrupt("symbol table exceeds 255 symbols"));
        }
        let mut first: Vec<Vec<u8>> = vec![Vec::new(); 256];
        let mut dec_bytes = Vec::with_capacity(symbols.len());
        let mut dec_len = Vec::with_capacity(symbols.len());
        for (code, s) in symbols.iter().enumerate() {
            if s.is_empty() || s.len() > MAX_SYMBOL_LEN {
                return Err(corrupt("symbol length outside 1..=8"));
            }
            first[s[0] as usize].push(code as u8);
            let mut padded = [0u8; MAX_SYMBOL_LEN];
            padded[..s.len()].copy_from_slice(s);
            dec_bytes.push(padded);
            dec_len.push(s.len() as u8);
        }
        // Greedy match order: longest symbol first; ties (equal bytes are
        // impossible for distinct symbols) by lowest code for determinism.
        for codes in &mut first {
            codes.sort_by_key(|&c| {
                (std::cmp::Reverse(symbols[c as usize].len()), c)
            });
        }
        Ok(SymbolTable { symbols, first, dec_bytes, dec_len })
    }

    /// Trains a table on a sample of strings.
    ///
    /// Deterministic: the same sample always yields the same table. An
    /// empty or incompressible sample yields a table that still encodes
    /// correctly (possibly all-escape output).
    pub fn train<S: AsRef<[u8]>>(samples: &[S]) -> Self {
        let mut table =
            SymbolTable::from_symbols(Vec::new()).unwrap_or_else(|_| unreachable!("empty is valid"));
        for _ in 0..TRAIN_ROUNDS {
            table = table.train_round(samples);
        }
        table
    }

    /// One training round: greedy-parse every sample with the current
    /// table, counting each parsed segment and each adjacent-segment
    /// concatenation (≤ 8 bytes); keep the top candidates by gain.
    fn train_round<S: AsRef<[u8]>>(&self, samples: &[S]) -> SymbolTable {
        // Candidate key: up to 8 bytes packed little-endian into a u64,
        // paired with the length — cheap, hashable, deterministic.
        let mut counts: HashMap<(u64, u8), u64> = HashMap::new();
        let bump = |bytes: &[u8], counts: &mut HashMap<(u64, u8), u64>| {
            if bytes.is_empty() || bytes.len() > MAX_SYMBOL_LEN {
                return;
            }
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            *counts.entry((u64::from_le_bytes(word), bytes.len() as u8)).or_insert(0) += 1;
        };
        for s in samples {
            let s = s.as_ref();
            let mut pos = 0usize;
            let mut prev: Option<(usize, usize)> = None; // (start, len) of previous segment
            while pos < s.len() {
                let len = match self.match_at(s, pos) {
                    Some(code) => self.dec_len[code as usize] as usize,
                    None => 1,
                };
                bump(&s[pos..pos + len], &mut counts);
                if let Some((pstart, _plen)) = prev {
                    // Concatenation of the previous and current segment,
                    // truncated to the symbol length cap — this is how
                    // symbols grow across rounds (1 → 2 → 4 → 8 bytes).
                    let end = (pos + len).min(pstart + MAX_SYMBOL_LEN);
                    bump(&s[pstart..end], &mut counts);
                }
                prev = Some((pos, len));
                pos += len;
            }
        }
        // Gain = saved bytes ≈ freq × (len − 1); single bytes gain nothing
        // by themselves but earn a slot when frequent enough to avoid the
        // 2× escape penalty: weight them freq × 1.
        let mut ranked: Vec<((u64, u8), u64)> = counts
            .into_iter()
            .map(|(key, freq)| {
                let len = key.1 as u64;
                (key, freq * len.max(2).saturating_sub(1))
            })
            .filter(|&(_, gain)| gain > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(MAX_SYMBOLS);
        let symbols: Vec<Vec<u8>> = ranked
            .into_iter()
            .map(|((word, len), _)| word.to_le_bytes()[..len as usize].to_vec())
            .collect();
        SymbolTable::from_symbols(symbols).unwrap_or_else(|_| unreachable!("bounded candidates"))
    }

    /// The longest symbol matching at `input[pos..]`, if any.
    #[inline]
    fn match_at(&self, input: &[u8], pos: usize) -> Option<u8> {
        let rest = &input[pos..];
        for &code in &self.first[rest[0] as usize] {
            let len = self.dec_len[code as usize] as usize;
            if rest.len() >= len && rest[..len] == self.dec_bytes[code as usize][..len] {
                return Some(code);
            }
        }
        None
    }

    /// Number of symbols in the table.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the table holds no symbols (every byte escapes).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Appends the compressed form of `input` to `out`.
    ///
    /// Deterministic greedy longest-match: equal inputs always yield equal
    /// outputs. Worst case appends `2 × input.len()` bytes.
    pub fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        let mut pos = 0usize;
        while pos < input.len() {
            match self.match_at(input, pos) {
                Some(code) => {
                    out.push(code);
                    pos += self.dec_len[code as usize] as usize;
                }
                None => {
                    out.push(ESCAPE);
                    out.push(input[pos]);
                    pos += 1;
                }
            }
        }
    }

    /// The compressed form of `input` as a fresh vector.
    pub fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len());
        self.encode_into(input, &mut out);
        out
    }

    /// Appends the decompressed form of `compressed` to `out`.
    ///
    /// Fails on a truncated escape sequence or a code past the table.
    pub fn decode_into(&self, compressed: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let mut pos = 0usize;
        while pos < compressed.len() {
            let code = compressed[pos];
            if code == ESCAPE {
                let Some(&literal) = compressed.get(pos + 1) else {
                    return Err(corrupt("truncated escape at end of compressed data"));
                };
                out.push(literal);
                pos += 2;
            } else {
                let Some(&len) = self.dec_len.get(code as usize) else {
                    return Err(corrupt("symbol code past end of table"));
                };
                out.extend_from_slice(&self.dec_bytes[code as usize][..len as usize]);
                pos += 1;
            }
        }
        Ok(())
    }

    /// The decompressed form of `compressed` as a fresh vector.
    pub fn decode(&self, compressed: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(compressed.len() * 2);
        self.decode_into(compressed, &mut out)?;
        Ok(out)
    }

    /// Orders the decompressed form of `compressed` against `key` without
    /// producing it: each symbol is compared with the probe bytes it would
    /// decode over, and the first difference decides. Nothing is written
    /// anywhere, and the codes after the deciding one are not read — which
    /// is what lets a search order FSST entries it never decodes
    /// (compressed bytes themselves are not `memcmp`-ordered).
    ///
    /// Fails on a code past the table or a truncated escape, when the
    /// comparison gets that far.
    pub fn cmp_decoded(&self, compressed: &[u8], key: &[u8]) -> Result<Ordering> {
        Ok(match self.cmp_stream(compressed, key, false)? {
            Ok(ord) => ord,
            Err(matched) if matched == key.len() => Ordering::Equal,
            Err(_) => Ordering::Less,
        })
    }

    /// [`SymbolTable::cmp_decoded`] for the leading part of a compressed
    /// value whose tail — at least one more byte — is stored elsewhere: a
    /// lone trailing [`ESCAPE`] has its literal in that tail and ends the
    /// stream. `None` when what is here is a proper prefix of `key`, so
    /// only the tail can decide.
    pub fn cmp_decoded_prefix(&self, compressed: &[u8], key: &[u8]) -> Result<Option<Ordering>> {
        Ok(match self.cmp_stream(compressed, key, true)? {
            Ok(ord) => Some(ord),
            Err(matched) if matched == key.len() => Some(Ordering::Greater),
            Err(_) => None,
        })
    }

    /// The ordering decided at the first decoded byte that differs from
    /// `key` (or past `key`'s end), or — the stream exhausted first — the
    /// number of `key` bytes it matched. `open_ended`: a lone trailing
    /// escape ends the stream instead of failing.
    fn cmp_stream(
        &self,
        compressed: &[u8],
        key: &[u8],
        open_ended: bool,
    ) -> Result<std::result::Result<Ordering, usize>> {
        let mut matched = 0usize;
        let mut pos = 0usize;
        while pos < compressed.len() {
            let code = compressed[pos];
            if code == ESCAPE {
                let Some(&literal) = compressed.get(pos + 1) else {
                    if open_ended {
                        break;
                    }
                    return Err(corrupt("truncated escape at end of compressed data"));
                };
                match key.get(matched) {
                    Some(&k) if k == literal => matched += 1,
                    Some(k) => return Ok(Ok(literal.cmp(k))),
                    None => return Ok(Ok(Ordering::Greater)),
                }
                pos += 2;
            } else {
                let Some(&len) = self.dec_len.get(code as usize) else {
                    return Err(corrupt("symbol code past end of table"));
                };
                let len = len as usize;
                let symbol = &self.dec_bytes[code as usize];
                let rest = &key[matched..];
                if let Some(window) = rest.first_chunk::<MAX_SYMBOL_LEN>() {
                    // Symbols are zero-padded to 8 bytes: one big-endian
                    // word compare of the probe's next `len` bytes.
                    let probe = u64::from_be_bytes(*window) & (!0u64 << (64 - 8 * len));
                    let symbol = u64::from_be_bytes(*symbol);
                    if symbol != probe {
                        return Ok(Ok(symbol.cmp(&probe)));
                    }
                } else {
                    let n = len.min(rest.len());
                    match symbol[..n].cmp(&rest[..n]) {
                        // The probe ends inside this symbol.
                        Ordering::Equal if n < len => return Ok(Ok(Ordering::Greater)),
                        Ordering::Equal => {}
                        ord => return Ok(Ok(ord)),
                    }
                }
                matched += len;
                pos += 1;
            }
        }
        Ok(Err(matched))
    }

    /// Total compressed size of `samples`, divided by their total raw size
    /// — the decision input for "is this dictionary worth compressing".
    /// Returns 1.0 for an empty sample.
    pub fn compression_ratio<S: AsRef<[u8]>>(&self, samples: &[S]) -> f64 {
        let mut raw = 0usize;
        let mut packed = 0usize;
        let mut buf = Vec::new();
        for s in samples {
            let s = s.as_ref();
            raw += s.len();
            buf.clear();
            self.encode_into(s, &mut buf);
            packed += buf.len();
        }
        if raw == 0 {
            1.0
        } else {
            packed as f64 / raw as f64
        }
    }

    /// Serializes the table: `version:u8 | count:u8 | (len:u8 bytes){count}`.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.symbols.len() * 9);
        out.push(1); // version
        out.push(self.symbols.len() as u8);
        for s in &self.symbols {
            out.push(s.len() as u8);
            out.extend_from_slice(s);
        }
        out
    }

    /// Reconstructs a table produced by [`SymbolTable::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let (&version, rest) =
            bytes.split_first().ok_or_else(|| corrupt("empty symbol table blob"))?;
        if version != 1 {
            return Err(corrupt("unknown symbol table version"));
        }
        let (&count, mut rest) =
            rest.split_first().ok_or_else(|| corrupt("symbol table missing count"))?;
        let mut symbols = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (&len, tail) =
                rest.split_first().ok_or_else(|| corrupt("symbol table truncated"))?;
            if len == 0 || len as usize > MAX_SYMBOL_LEN || tail.len() < len as usize {
                return Err(corrupt("symbol entry malformed"));
            }
            symbols.push(tail[..len as usize].to_vec());
            rest = &tail[len as usize..];
        }
        if !rest.is_empty() {
            return Err(corrupt("trailing bytes after symbol table"));
        }
        SymbolTable::from_symbols(symbols)
    }
}

fn corrupt(reason: &str) -> EncodingError {
    EncodingError::CorruptBlock { reason: format!("fsst: {reason}") }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_urls() -> Vec<String> {
        (0..400)
            .map(|i| format!("http://www.example.com/catalog/item-{:05}/details.html", i * 7))
            .collect()
    }

    #[test]
    fn roundtrip_urls() {
        let samples = sample_urls();
        let t = SymbolTable::train(&samples);
        assert!(!t.is_empty());
        for s in &samples {
            let enc = t.encode(s.as_bytes());
            assert_eq!(t.decode(&enc).unwrap(), s.as_bytes());
        }
        // Strings outside the training sample still roundtrip (escapes).
        for odd in ["", "\u{00}\u{01}\u{02}", "ZZZ-unseen-\u{7f}", "日本語テキスト"] {
            let enc = t.encode(odd.as_bytes());
            assert_eq!(t.decode(&enc).unwrap(), odd.as_bytes());
        }
    }

    #[test]
    fn compresses_repetitive_text() {
        let samples = sample_urls();
        let t = SymbolTable::train(&samples);
        let ratio = t.compression_ratio(&samples);
        assert!(ratio < 0.6, "expected ≥40% shrink on urls, got ratio {ratio}");
    }

    #[test]
    fn deterministic_training_and_encoding() {
        let samples = sample_urls();
        let a = SymbolTable::train(&samples);
        let b = SymbolTable::train(&samples);
        assert_eq!(a.serialize(), b.serialize());
        for s in &samples {
            assert_eq!(a.encode(s.as_bytes()), b.encode(s.as_bytes()));
        }
    }

    #[test]
    fn equal_inputs_equal_outputs_unequal_inputs_unequal_outputs() {
        let samples = sample_urls();
        let t = SymbolTable::train(&samples);
        // Deterministic encode makes compressed equality ⇔ raw equality:
        // decode(encode(x)) == x means encode is injective.
        for (i, a) in samples.iter().enumerate().step_by(17) {
            for (j, b) in samples.iter().enumerate().step_by(23) {
                let ea = t.encode(a.as_bytes());
                let eb = t.encode(b.as_bytes());
                assert_eq!(ea == eb, i == j || a == b);
            }
        }
    }

    #[test]
    fn shared_prefixes_survive_compression() {
        let samples = sample_urls();
        let t = SymbolTable::train(&samples);
        let a = t.encode(b"http://www.example.com/catalog/item-00001/a");
        let b = t.encode(b"http://www.example.com/catalog/item-00001/b");
        let shared = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        // The raw shared prefix is 43 bytes; the compressed forms must
        // share the bulk of it (divergence backs up at most 7 raw bytes).
        assert!(shared * 2 >= a.len().min(b.len()), "shared {shared} of {}", a.len());
    }

    #[test]
    fn empty_table_escapes_everything() {
        let t = SymbolTable::train::<&[u8]>(&[]);
        assert!(t.is_empty());
        let enc = t.encode(b"abc");
        assert_eq!(enc, vec![ESCAPE, b'a', ESCAPE, b'b', ESCAPE, b'c']);
        assert_eq!(t.decode(&enc).unwrap(), b"abc");
    }

    #[test]
    fn serialize_roundtrip() {
        let samples = sample_urls();
        let t = SymbolTable::train(&samples);
        let blob = t.serialize();
        let back = SymbolTable::deserialize(&blob).unwrap();
        assert_eq!(back.serialize(), blob);
        for s in samples.iter().take(50) {
            assert_eq!(back.encode(s.as_bytes()), t.encode(s.as_bytes()));
        }
    }

    #[test]
    fn deserialize_rejects_malformed() {
        assert!(SymbolTable::deserialize(&[]).is_err());
        assert!(SymbolTable::deserialize(&[9, 0]).is_err()); // bad version
        assert!(SymbolTable::deserialize(&[1, 1]).is_err()); // missing entry
        assert!(SymbolTable::deserialize(&[1, 1, 0]).is_err()); // zero-length symbol
        assert!(SymbolTable::deserialize(&[1, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(SymbolTable::deserialize(&[1, 1, 1, b'a', b'x']).is_err()); // trailing
    }

    #[test]
    fn decode_rejects_malformed() {
        let t = SymbolTable::train(&["aaaa"; 64]);
        assert!(t.decode(&[ESCAPE]).is_err());
        assert!(t.decode(&[254]).is_err()); // code past table end
    }

    #[test]
    fn max_expansion_is_two_x() {
        let t = SymbolTable::train(&sample_urls());
        let adversarial: Vec<u8> = (0u8..=254).rev().cycle().take(1000).collect();
        let enc = t.encode(&adversarial);
        assert!(enc.len() <= 2 * adversarial.len());
        assert_eq!(t.decode(&enc).unwrap(), adversarial);
    }
}
