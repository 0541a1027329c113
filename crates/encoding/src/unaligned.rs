//! Unaligned little-endian word loads — the decode hot path.
//!
//! Chunk decode and SWAR scans consume pages as `n` consecutive
//! little-endian `u64` words per 64-value chunk. Pages hand out `&[u8]`
//! with no alignment guarantee, so the safe spelling is a per-word
//! `[u8; 8]` copy through `u64::from_le_bytes`; on the scan path that
//! slice-and-convert dance is the single hottest loop in the tree. The
//! loaders here do one bounds check per *call*, then issue raw
//! [`core::ptr::read_unaligned`] loads — the compiler lowers each to a
//! single unaligned move on every target we build for.
//!
//! This module and the VBMI scan kernels (`simd`) are the only unsafe code
//! in the workspace. The invariants are purely arithmetic (every read
//! stays inside the borrowed slice), the crate denies
//! `unsafe_op_in_unsafe_fn`, and CI runs the module's tests under Miri,
//! which checks exactly this kind of raw-pointer arithmetic for
//! out-of-bounds and misaligned access.

/// Reads the little-endian `u64` at byte offset `off` of `bytes` without
/// a bounds check.
///
/// # Safety
///
/// `off + 8 <= bytes.len()` must hold; the read is otherwise out of
/// bounds. No alignment requirement: the load is `read_unaligned`.
#[inline]
pub unsafe fn read_le_u64_unchecked(bytes: &[u8], off: usize) -> u64 {
    debug_assert!(off + 8 <= bytes.len(), "read past slice end");
    // SAFETY: the caller guarantees `off + 8 <= bytes.len()`, so the
    // 8-byte read starting at `as_ptr() + off` stays inside the borrowed
    // slice. `u64` has no validity invariants and `read_unaligned`
    // tolerates any alignment.
    let raw = unsafe { core::ptr::read_unaligned(bytes.as_ptr().add(off).cast::<u64>()) };
    u64::from_le(raw)
}

/// Fills `out` with consecutive little-endian `u64` words read from the
/// front of `bytes`.
///
/// # Panics
///
/// Panics if `bytes` is shorter than `8 * out.len()`.
#[inline]
pub fn fill_le_words(bytes: &[u8], out: &mut [u64]) {
    assert!(bytes.len() >= out.len() * 8, "fill_le_words: source too short");
    for (i, w) in out.iter_mut().enumerate() {
        // SAFETY: `i < out.len()` and the assert above gives
        // `out.len() * 8 <= bytes.len()`, so `i * 8 + 8 <= bytes.len()`.
        *w = unsafe { read_le_u64_unchecked(bytes, i * 8) };
    }
}

/// Appends `bytes.len() / 8` little-endian words to `out`. Remainder
/// bytes past the last full word are ignored, mirroring
/// `chunks_exact(8)`: chunk framing guarantees word-integral inputs, so
/// a remainder is the caller's framing bug to surface elsewhere.
#[inline]
pub fn extend_le_words(bytes: &[u8], out: &mut Vec<u64>) {
    let n = bytes.len() / 8;
    out.reserve(n);
    for i in 0..n {
        // SAFETY: `i < n = bytes.len() / 8` implies `i * 8 + 8 <= bytes.len()`.
        out.push(unsafe { read_le_u64_unchecked(bytes, i * 8) });
    }
}

/// Reads the little-endian `u64` at byte offset `off`, zero-padding any
/// bytes past the end of `bytes` — the safe tail path for callers whose
/// last word may be partial. Offsets at or past the end read as zero.
#[inline]
pub fn le_u64_padded(bytes: &[u8], off: usize) -> u64 {
    if off.checked_add(8).is_some_and(|end| end <= bytes.len()) {
        // SAFETY: the guard above is exactly the unchecked loader's
        // precondition `off + 8 <= bytes.len()`.
        unsafe { read_le_u64_unchecked(bytes, off) }
    } else {
        // Safe tail: at most 7 bytes remain; copy them into a zeroed word.
        let mut buf = [0u8; 8];
        if let Some(tail) = bytes.get(off..) {
            buf[..tail.len()].copy_from_slice(tail);
        }
        u64::from_le_bytes(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(bytes: &[u8], off: usize) -> u64 {
        let mut buf = [0u8; 8];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = bytes.get(off + i).copied().unwrap_or(0);
        }
        u64::from_le_bytes(buf)
    }

    #[test]
    fn matches_from_le_bytes_at_every_offset() {
        let bytes: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for off in 0..bytes.len() - 8 {
            // SAFETY: loop bound keeps off + 8 <= bytes.len().
            let got = unsafe { read_le_u64_unchecked(&bytes, off) };
            assert_eq!(got, reference(&bytes, off), "offset {off}");
            assert_eq!(le_u64_padded(&bytes, off), reference(&bytes, off));
        }
    }

    #[test]
    fn fill_and_extend_agree_with_chunked_decode() {
        let bytes: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(193)).collect();
        let expected: Vec<u64> =
            bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        let mut filled = vec![0u64; expected.len()];
        fill_le_words(&bytes, &mut filled);
        assert_eq!(filled, expected);
        let mut extended = Vec::new();
        extend_le_words(&bytes, &mut extended);
        assert_eq!(extended, expected);
        // A 3-byte remainder is ignored by extend, zero-padded by the tail
        // loader.
        let mut ragged = Vec::new();
        extend_le_words(&bytes[..19], &mut ragged);
        assert_eq!(ragged, expected[..2]);
        assert_eq!(le_u64_padded(&bytes[..19], 16), reference(&bytes[..19], 16));
    }

    #[test]
    fn padded_loads_at_and_past_the_end_are_zero() {
        let bytes = [0xAAu8; 5];
        assert_eq!(le_u64_padded(&bytes, 0), reference(&bytes, 0));
        assert_eq!(le_u64_padded(&bytes, 5), 0);
        assert_eq!(le_u64_padded(&bytes, 64), 0);
        assert_eq!(le_u64_padded(&bytes, usize::MAX - 3), 0);
        assert_eq!(le_u64_padded(&[], 0), 0);
    }

    #[test]
    fn unaligned_source_offsets_round_trip() {
        // Start reads at offset 1 of an 8-aligned Vec so every load is
        // genuinely misaligned — the case Miri checks the pointer math on.
        let backing: Vec<u8> = (0..65u8).map(|i| i.wrapping_mul(101).wrapping_add(7)).collect();
        let bytes = &backing[1..];
        let mut words = vec![0u64; bytes.len() / 8];
        fill_le_words(bytes, &mut words);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(*w, reference(bytes, i * 8));
        }
    }
}
