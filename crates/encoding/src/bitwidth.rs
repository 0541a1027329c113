//! Bit widths for uniform n-bit compression.

use crate::EncodingError;

/// Number of bits used to encode every value of an n-bit packed vector.
///
/// Valid widths are `0..=64`. Width 0 is used for columns with a single
/// distinct value (every identifier is 0 and occupies no storage), mirroring
/// the paper's cardinality-1 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitWidth(u8);

impl BitWidth {
    /// The zero width: every encoded value is 0 and occupies no bits.
    pub const ZERO: BitWidth = BitWidth(0);
    /// The maximum supported width (a full 64-bit word per value).
    pub const MAX: BitWidth = BitWidth(64);

    /// Creates a width, validating it lies in `0..=64`.
    pub fn new(bits: u32) -> crate::Result<Self> {
        if bits <= 64 {
            Ok(BitWidth(bits as u8))
        } else {
            Err(EncodingError::InvalidBitWidth(bits))
        }
    }

    /// The smallest width able to represent `max_value`.
    ///
    /// `for_max_value(0) == 0`, `for_max_value(1) == 1`,
    /// `for_max_value(255) == 8`, …
    pub fn for_max_value(max_value: u64) -> Self {
        BitWidth((64 - max_value.leading_zeros()) as u8)
    }

    /// The smallest width able to index a dictionary of `cardinality`
    /// distinct values (identifiers `0..cardinality`).
    pub fn for_cardinality(cardinality: u64) -> Self {
        if cardinality <= 1 {
            BitWidth::ZERO
        } else {
            Self::for_max_value(cardinality - 1)
        }
    }

    /// The width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        u32::from(self.0)
    }

    /// The largest value representable at this width.
    #[inline]
    pub fn max_value(self) -> u64 {
        if self.0 == 0 {
            0
        } else if self.0 == 64 {
            u64::MAX
        } else {
            (1u64 << self.0) - 1
        }
    }

    /// A mask with the low `bits()` bits set.
    #[inline]
    pub fn mask(self) -> u64 {
        self.max_value()
    }
}

impl std::fmt::Display for BitWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_max_value_boundaries() {
        assert_eq!(BitWidth::for_max_value(0).bits(), 0);
        assert_eq!(BitWidth::for_max_value(1).bits(), 1);
        assert_eq!(BitWidth::for_max_value(2).bits(), 2);
        assert_eq!(BitWidth::for_max_value(3).bits(), 2);
        assert_eq!(BitWidth::for_max_value(4).bits(), 3);
        assert_eq!(BitWidth::for_max_value(255).bits(), 8);
        assert_eq!(BitWidth::for_max_value(256).bits(), 9);
        assert_eq!(BitWidth::for_max_value(u64::MAX).bits(), 64);
    }

    #[test]
    fn for_cardinality_boundaries() {
        assert_eq!(BitWidth::for_cardinality(0).bits(), 0);
        assert_eq!(BitWidth::for_cardinality(1).bits(), 0);
        assert_eq!(BitWidth::for_cardinality(2).bits(), 1);
        assert_eq!(BitWidth::for_cardinality(3).bits(), 2);
        assert_eq!(BitWidth::for_cardinality(1 << 20).bits(), 20);
    }

    #[test]
    fn max_value_round_trip() {
        for bits in 0..=64 {
            let w = BitWidth::new(bits).unwrap();
            if bits > 0 && bits < 64 {
                assert_eq!(BitWidth::for_max_value(w.max_value()).bits(), bits);
            }
        }
        assert!(BitWidth::new(65).is_err());
    }
}
