//! Page-size and layout configuration.

use crate::meta::{MetaReader, MetaWriter};
use crate::CoreResult;

/// Page sizes (bytes) used when persisting column structures.
///
/// The paper uses 1 MB dictionary pages on a 100 M-row, 256 GB testbed; this
/// reproduction's default dataset is ~100× smaller, so default pages are
/// scaled down proportionally to keep the page *count* per column — and with
/// it the piecewise-loading behaviour — comparable. All sizes are tunable.
///
/// Sizes only: which codec a chain uses (FSST or plain front-coding for a
/// dictionary, Elias-Fano postings) is decided by the builder from the data
/// and recorded in the chain descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Pages of the data vector chain.
    pub datavec_page: usize,
    /// Pages of the dictionary chain (paper: 1 MB).
    pub dict_page: usize,
    /// Pages of the dictionary overflow chain (off-page string pieces).
    pub overflow_page: usize,
    /// Pages of the two helper-dictionary chains.
    pub helper_page: usize,
    /// Pages of the inverted-index chain.
    pub index_page: usize,
    /// Maximum on-page bytes per dictionary value; longer suffixes spill to
    /// the overflow chain (the paper's large-string split).
    pub inline_limit: usize,
}

/// Sampled compression ratio (compressed ÷ raw) at or above which FSST is
/// not applied: near-incompressible dictionaries stay plain, keeping the
/// decode off their lookup path.
pub const FSST_SKIP_RATIO: f64 = 0.95;

impl Default for PageConfig {
    fn default() -> Self {
        PageConfig {
            datavec_page: 16 * 1024,
            dict_page: 16 * 1024,
            overflow_page: 16 * 1024,
            helper_page: 4 * 1024,
            index_page: 16 * 1024,
            inline_limit: 512,
        }
    }
}

impl PageConfig {
    /// A tiny-page configuration that forces many pages even on small test
    /// data, exercising every page-boundary code path.
    pub fn tiny() -> Self {
        PageConfig {
            datavec_page: 256,
            dict_page: 768,
            overflow_page: 128,
            helper_page: 512,
            index_page: 256,
            inline_limit: 24,
        }
    }

    /// Appends the checkpoint encoding: the six sizes as `u64`s.
    pub fn write_meta(&self, w: &mut MetaWriter) {
        for v in [
            self.datavec_page,
            self.dict_page,
            self.overflow_page,
            self.helper_page,
            self.index_page,
            self.inline_limit,
        ] {
            w.u64(v as u64);
        }
    }

    /// Reads back what [`PageConfig::write_meta`] wrote.
    pub fn read_meta(r: &mut MetaReader<'_>) -> CoreResult<PageConfig> {
        let mut size = || r.u64().map(|v| v as usize);
        Ok(PageConfig {
            datavec_page: size()?,
            dict_page: size()?,
            overflow_page: size()?,
            helper_page: size()?,
            index_page: size()?,
            inline_limit: size()?,
        })
    }

    /// Validates invariants the writers rely on.
    pub fn validate(&self) -> Result<(), String> {
        if self.datavec_page < 8 {
            // One chunk at width 1 needs 8 bytes; the data-vector writer
            // additionally checks that a chunk at the column's actual width
            // fits its page.
            return Err(format!("datavec_page of {} bytes cannot hold any chunk", self.datavec_page));
        }
        if self.inline_limit == 0 {
            return Err("inline_limit must be at least 1".into());
        }
        // A dictionary page must always fit one 16-entry block even when
        // every entry is fully spilled: header (12) + one offset (4) +
        // block count (1) + 3 restart offsets (6) +
        // 16 × (7 fixed + 10 spill header + 12 pointer).
        const MIN_BLOCK_PAGE: usize = 12 + 4 + 1 + 6 + 16 * (7 + 10 + 12);
        if self.dict_page < MIN_BLOCK_PAGE {
            return Err(format!("dict_page must be at least {MIN_BLOCK_PAGE} bytes"));
        }
        if self.helper_page < MIN_BLOCK_PAGE {
            return Err(format!("helper_page must be at least {MIN_BLOCK_PAGE} bytes"));
        }
        if self.inline_limit + 64 > self.dict_page {
            return Err("inline_limit too close to dict_page size".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PageConfig::default().validate().unwrap();
        PageConfig::tiny().validate().unwrap();
    }

    #[test]
    fn checkpoint_encoding_round_trips() {
        for cfg in [PageConfig::default(), PageConfig::tiny()] {
            let mut w = MetaWriter::new();
            cfg.write_meta(&mut w);
            let bytes = w.finish();
            let mut r = MetaReader::new(&bytes);
            assert_eq!(PageConfig::read_meta(&mut r).unwrap(), cfg);
            r.expect_end().unwrap();
            assert!(PageConfig::read_meta(&mut MetaReader::new(&bytes[..40])).is_err());
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = PageConfig { inline_limit: 0, ..PageConfig::default() };
        assert!(c.validate().is_err());
        let c = PageConfig { dict_page: 100, ..PageConfig::default() };
        assert!(c.validate().is_err());
    }
}
