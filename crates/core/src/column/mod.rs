//! Column assembly: data vector + dictionary + optional inverted index.
//!
//! Every column is persisted once (page chains for all three structures)
//! and read in one of two modes chosen at build time ([`LoadPolicy`]), a
//! field of the one [`Column`] type:
//!
//! * **fully resident** — the paper's *default column*: on first access
//!   the whole column is loaded into contiguous memory (direct store reads,
//!   no buffer pool) and registered with the resource manager as a
//!   **single** resource; under pressure it is evicted whole.
//! * **page loadable** — the paper's *page loadable column*: reads pin
//!   individual pages through the buffer pool; the mandatory memory
//!   footprint is the metadata only.
//!
//! Each [`ColumnRead`] operation is written once: only its innermost step
//! differs, reading the resident image or pinned pages. The difference is
//! invisible to queries.
//!
//! A column whose rows are their value identifiers — a unique key stored in
//! key order — persists its dictionary alone: the data vector and the
//! postings would both be the identity ([`ColumnBuilder::build_encoded`]
//! decides from the data).

mod builder;
mod materialize;
mod parts;
mod read;
mod resident;

pub use builder::{ColumnBuild, ColumnBuilder, EncodedRows};
pub use crate::waves::WAVE_PAGES;
pub use materialize::materialize;
pub use read::ColumnRead;

use crate::meta::{MetaReader, MetaWriter};
use crate::{CoreError, CoreResult, DataType, PageConfig};
pub(crate) use parts::{ColumnParts, StoredRows};
use payg_encoding::dispatch::CodecKind;
use payg_resman::Disposition;
use payg_storage::{BufferPool, StorageError};
use resident::{Image, Resident};
use std::sync::Arc;

/// Load behaviour chosen at column creation (paper §1: "the preferred
/// loading behavior of a column is specified at creation time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPolicy {
    /// Load the entire column into memory on first access (default column).
    FullyResident,
    /// Load pages on demand (PAGE LOADABLE column).
    PageLoadable,
}

/// A column in either load mode: its persisted parts, and its load policy
/// — the load state of a fully resident column, or nothing for a page
/// loadable one, whose pages the pool holds.
pub struct Column {
    pub(crate) parts: Arc<ColumnParts>,
    /// `Some` exactly when the policy is [`LoadPolicy::FullyResident`].
    resident: Option<Resident>,
}

impl Column {
    pub(crate) fn new(parts: Arc<ColumnParts>, policy: LoadPolicy, disposition: Disposition) -> Self {
        let resident = match policy {
            LoadPolicy::FullyResident => Some(Resident::new(&parts, disposition)),
            LoadPolicy::PageLoadable => None,
        };
        Column { parts, resident }
    }

    /// The parts of a page-loadable column, read page by page; `None` for
    /// a resident one.
    fn paged(&self) -> Option<&ColumnParts> {
        self.resident.is_none().then_some(&*self.parts)
    }

    /// The image of a resident column, loaded on first access; `None` for
    /// a page-loadable one.
    fn image(&self) -> CoreResult<Option<Arc<Image>>> {
        self.resident.as_ref().map(|r| r.image(&self.parts)).transpose()
    }

    /// The column's load policy.
    pub fn policy(&self) -> LoadPolicy {
        match self.resident {
            Some(_) => LoadPolicy::FullyResident,
            None => LoadPolicy::PageLoadable,
        }
    }

    /// For resident columns: force the full load now (otherwise it happens
    /// on first access). No-op for paged columns.
    pub fn ensure_loaded(&self) -> CoreResult<()> {
        self.image().map(|_| ())
    }

    /// For resident columns: drop the loaded image (it reloads on next
    /// access). No-op for paged columns, whose pages the resource manager
    /// evicts piecewise.
    pub fn unload(&self) {
        if let Some(r) = &self.resident {
            r.unload(&self.parts);
        }
    }

    /// True when a resident column's image is in memory; false for a paged
    /// column.
    pub fn is_loaded(&self) -> bool {
        self.resident.as_ref().is_some_and(Resident::is_loaded)
    }

    /// Heap bytes of a resident column's loaded image, summed now from its
    /// structures — the figure the load registered with the resource
    /// manager. `None` while the column is not loaded, and for a paged
    /// column.
    pub fn loaded_bytes(&self) -> Option<usize> {
        self.resident.as_ref().and_then(Resident::loaded_bytes)
    }

    /// How many times a resident column has been (re)loaded — each one is
    /// the paper's expensive whole-column load; 0 for a paged column.
    pub fn load_count(&self) -> u64 {
        self.resident.as_ref().map_or(0, Resident::load_count)
    }

    /// The rows at `rposs` (any order) in the encoded domain — the column's
    /// whole sorted dictionary and each row's identifier in it — as a delta
    /// merge reads its old main: a resident column from its image, a paged
    /// one by decoding its data-vector pages in waves and reading its
    /// dictionary chain in key order straight from the store. No rows read
    /// nothing.
    pub fn encoded_rows(&self, rposs: &[u64]) -> CoreResult<EncodedRows> {
        if rposs.is_empty() {
            return Ok(EncodedRows::default());
        }
        materialize::encoded_rows(self, rposs)
    }

    /// The codec of the dictionary's persisted chain. Both load
    /// modes share one persisted format, so this reports the on-disk codec
    /// even for resident columns (whose in-memory image is decoded).
    pub fn dict_codec(&self) -> CodecKind {
        self.parts.dict.codec_kind()
    }

    /// The codec of the persisted posting chain, if the column stores
    /// postings.
    pub fn index_codec(&self) -> Option<CodecKind> {
        match &self.parts.rows {
            StoredRows::Plain { index: Some(i), .. } => Some(i.codec_kind()),
            _ => None,
        }
    }

    /// The store chains backing this column, labeled by role (`data`,
    /// `dict*`, `index`). Both load modes persist the same chains, so
    /// EXPLAIN ANALYZE can attribute traced page events either way.
    pub fn chains(&self) -> Vec<(&'static str, u64)> {
        self.parts.chains()
    }

    /// Serializes everything needed to reopen this column over the same
    /// store after a process restart (catalog checkpoint): type, load
    /// policy, page geometry, the dictionary's metadata, then a row-layout
    /// tag: plain, with the data vector's and the optional index's
    /// metadata, or identity, with whether an index was asked for.
    /// The page chains themselves already live in the store.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let parts = &self.parts;
        let disposition = self.resident.as_ref().map_or(Disposition::MidTerm, Resident::disposition);
        let mut w = MetaWriter::new();
        w.u8(data_type_tag(parts.data_type));
        w.u8(policy_tag(self.policy()));
        w.u8(disposition_tag(disposition));
        w.u64(parts.len);
        w.u64(parts.cardinality);
        parts.config.write_meta(&mut w);
        w.bytes(&parts.dict.meta_bytes());
        match &parts.rows {
            StoredRows::Identity { indexed } => {
                w.u8(ROWS_IDENTITY);
                w.u8(u8::from(*indexed));
            }
            StoredRows::Plain { data, index } => {
                w.u8(ROWS_PLAIN);
                w.bytes(&data.meta_bytes());
                match index {
                    None => w.u8(0),
                    Some(i) => {
                        w.u8(1);
                        w.bytes(&i.meta_bytes());
                    }
                }
            }
        }
        w.finish()
    }

    /// Reopens a column from checkpointed metadata over `pool`'s store.
    pub fn open(pool: &BufferPool, bytes: &[u8]) -> CoreResult<Column> {
        let mut r = MetaReader::new(bytes);
        let data_type = data_type_from(r.u8()?)?;
        let policy = policy_from(r.u8()?)?;
        let disposition = disposition_from(r.u8()?)?;
        let len = r.u64()?;
        let cardinality = r.u64()?;
        let config = PageConfig::read_meta(&mut r)?;
        let dict = crate::dict::PagedDictionary::open(pool, data_type, &r.bytes()?)?;
        let corrupt =
            |what: String| CoreError::Storage(StorageError::corrupt(format!("catalog: {what}")));
        let flag = |r: &mut MetaReader, what: &str| match r.u8()? {
            t @ (0 | 1) => Ok(t == 1),
            t => Err(corrupt(format!("unknown {what} tag {t}"))),
        };
        let rows = match r.u8()? {
            ROWS_IDENTITY => StoredRows::Identity { indexed: flag(&mut r, "index")? },
            ROWS_PLAIN => {
                let data = crate::datavec::PagedDataVector::open(pool, &r.bytes()?)?;
                let index = match flag(&mut r, "index")? {
                    false => None,
                    true => Some(crate::invidx::PagedInvertedIndex::open(pool, &r.bytes()?)?),
                };
                StoredRows::Plain { data, index }
            }
            t => return Err(corrupt(format!("unknown row layout tag {t}"))),
        };
        r.expect_end()?;
        let rows_len = match &rows {
            StoredRows::Identity { .. } => cardinality,
            StoredRows::Plain { data, .. } => data.len(),
        };
        if rows_len != len || dict.cardinality() != cardinality {
            return Err(corrupt("column metadata inconsistent with structures".into()));
        }
        let parts = Arc::new(ColumnParts {
            data_type,
            len,
            cardinality,
            pool: pool.clone(),
            config,
            dict,
            rows,
        });
        Ok(Column::new(parts, policy, disposition))
    }
}

impl Drop for Column {
    /// Deregisters a resident image's budget when the column is dropped
    /// while loaded — retired main fragments must not strand resman bytes.
    fn drop(&mut self) {
        self.unload();
    }
}

/// Row-layout tag of a column that stores a data vector (and optionally an
/// inverted index).
const ROWS_PLAIN: u8 = 0;
/// Row-layout tag of a column whose rows are their value identifiers.
const ROWS_IDENTITY: u8 = 1;

/// Maps data types to stable catalog tags.
pub fn data_type_tag(t: DataType) -> u8 {
    match t {
        DataType::Integer => 0,
        DataType::Decimal => 1,
        DataType::Double => 2,
        DataType::Varchar => 3,
    }
}

/// Inverse of [`data_type_tag`].
pub fn data_type_from(t: u8) -> CoreResult<DataType> {
    Ok(match t {
        0 => DataType::Integer,
        1 => DataType::Decimal,
        2 => DataType::Double,
        3 => DataType::Varchar,
        _ => {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "catalog: unknown data type tag {t}"
            ))))
        }
    })
}

/// Maps load policies to stable catalog tags.
pub fn policy_tag(p: LoadPolicy) -> u8 {
    match p {
        LoadPolicy::FullyResident => 0,
        LoadPolicy::PageLoadable => 1,
    }
}

/// Inverse of [`policy_tag`].
pub fn policy_from(t: u8) -> CoreResult<LoadPolicy> {
    Ok(match t {
        0 => LoadPolicy::FullyResident,
        1 => LoadPolicy::PageLoadable,
        _ => {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "catalog: unknown load policy tag {t}"
            ))))
        }
    })
}

/// Maps dispositions to stable catalog tags.
pub fn disposition_tag(d: Disposition) -> u8 {
    match d {
        Disposition::NonSwappable => 0,
        Disposition::LongTerm => 1,
        Disposition::MidTerm => 2,
        Disposition::ShortTerm => 3,
        Disposition::Temporary => 4,
        Disposition::PagedAttribute => 5,
    }
}

/// Inverse of [`disposition_tag`].
pub fn disposition_from(t: u8) -> CoreResult<Disposition> {
    Ok(match t {
        0 => Disposition::NonSwappable,
        1 => Disposition::LongTerm,
        2 => Disposition::MidTerm,
        3 => Disposition::ShortTerm,
        4 => Disposition::Temporary,
        5 => Disposition::PagedAttribute,
        _ => {
            return Err(CoreError::Storage(StorageError::corrupt(format!(
                "catalog: unknown disposition tag {t}"
            ))))
        }
    })
}
