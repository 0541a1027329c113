//! Order-preserving byte encoding of typed values.
//!
//! Main-fragment dictionaries are order-preserving: value identifiers are
//! assigned in the sort order of the values (§2). Encoding every supported
//! type to a byte string whose `memcmp` order equals the value order lets a
//! single dictionary layout (prefix-encoded byte-string blocks) serve
//! INTEGER, DECIMAL, DOUBLE and CHAR/VARCHAR columns alike, and makes the
//! separator helper dictionary (`ipDict_Value`) a plain byte-string index.
//!
//! Encodings are also *decodable*: the dictionary must materialize original
//! values during late materialization.

/// Encodes a signed 64-bit integer; lexicographic byte order equals numeric
/// order (sign bit flipped, big-endian).
pub fn encode_i64(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Inverse of [`encode_i64`].
pub fn decode_i64(b: &[u8]) -> crate::Result<i64> {
    let arr: [u8; 8] = b.try_into().map_err(|_| crate::EncodingError::CorruptBlock {
        reason: format!("i64 key must be 8 bytes, got {}", b.len()),
    })?;
    Ok(i64_of(arr))
}

/// [`decode_i64`] of a key already known to be 8 bytes — a numeric
/// dictionary's slot: nothing to check, nothing to fail.
#[inline]
pub fn i64_of(key: [u8; 8]) -> i64 {
    (u64::from_be_bytes(key) ^ (1u64 << 63)) as i64
}

/// Encodes a signed 128-bit fixed-point decimal (the value scaled to an
/// integer, e.g. cents); byte order equals numeric order.
pub fn encode_i128(v: i128) -> [u8; 16] {
    ((v as u128) ^ (1u128 << 127)).to_be_bytes()
}

/// Inverse of [`encode_i128`].
pub fn decode_i128(b: &[u8]) -> crate::Result<i128> {
    let arr: [u8; 16] = b.try_into().map_err(|_| crate::EncodingError::CorruptBlock {
        reason: format!("i128 key must be 16 bytes, got {}", b.len()),
    })?;
    Ok(i128_of(arr))
}

/// [`decode_i128`] of a key already known to be 16 bytes.
#[inline]
pub fn i128_of(key: [u8; 16]) -> i128 {
    (u128::from_be_bytes(key) ^ (1u128 << 127)) as i128
}

/// Encodes an `f64` in IEEE-754 total order (negative values reversed by
/// flipping all bits; positives get the sign bit set). NaNs sort above all
/// numbers; `-0.0` sorts below `+0.0`.
pub fn encode_f64(v: f64) -> [u8; 8] {
    let bits = v.to_bits();
    let flipped = if bits & (1u64 << 63) != 0 { !bits } else { bits | (1u64 << 63) };
    flipped.to_be_bytes()
}

/// Inverse of [`encode_f64`].
pub fn decode_f64(b: &[u8]) -> crate::Result<f64> {
    let arr: [u8; 8] = b.try_into().map_err(|_| crate::EncodingError::CorruptBlock {
        reason: format!("f64 key must be 8 bytes, got {}", b.len()),
    })?;
    Ok(f64_of(arr))
}

/// [`decode_f64`] of a key already known to be 8 bytes.
#[inline]
pub fn f64_of(key: [u8; 8]) -> f64 {
    let flipped = u64::from_be_bytes(key);
    let bits = if flipped & (1u64 << 63) != 0 { flipped & !(1u64 << 63) } else { !flipped };
    f64::from_bits(bits)
}

/// Strings encode as their UTF-8 bytes; byte order is the canonical string
/// order for this engine.
pub fn encode_str(s: &str) -> &[u8] {
    s.as_bytes()
}

/// Inverse of [`encode_str`]: the key's bytes, checked as UTF-8 where they
/// lie — the caller copies them once, into whatever holds the value.
pub fn decode_str(b: &[u8]) -> crate::Result<&str> {
    std::str::from_utf8(b).map_err(|e| crate::EncodingError::CorruptBlock {
        reason: format!("invalid utf-8 in string key: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_order_preserved() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(encode_i64(w[0]) < encode_i64(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(decode_i64(&encode_i64(v)).unwrap(), v);
        }
    }

    #[test]
    fn i128_order_preserved() {
        let vals = [i128::MIN, -12345678901234567890, -1, 0, 7, i128::MAX];
        for w in vals.windows(2) {
            assert!(encode_i128(w[0]) < encode_i128(w[1]));
        }
        for v in vals {
            assert_eq!(decode_i128(&encode_i128(v)).unwrap(), v);
        }
    }

    #[test]
    fn f64_order_preserved() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(encode_f64(w[0]) < encode_f64(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in vals {
            let back = decode_f64(&encode_f64(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        // NaN sorts above +inf and round-trips bit-exactly.
        assert!(encode_f64(f64::NAN) > encode_f64(f64::INFINITY));
        assert!(decode_f64(&encode_f64(f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn wrong_lengths_are_corrupt() {
        assert!(decode_i64(&[0; 7]).is_err());
        assert!(decode_i128(&[0; 15]).is_err());
        assert!(decode_f64(&[0; 9]).is_err());
        assert!(decode_str(&[0xFF, 0xFE]).is_err());
    }
}
