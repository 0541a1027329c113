//! Column assembly: data vector + dictionary + optional inverted index.
//!
//! Every column is persisted once (page chains for all three structures) and
//! accessed in one of two modes chosen at build time ([`LoadPolicy`]):
//!
//! * [`ResidentColumn`] — the paper's *default column*: on first access the
//!   whole column is loaded into contiguous memory (direct store reads, no
//!   buffer pool) and registered with the resource manager as a **single**
//!   resource; under pressure it is evicted whole.
//! * [`PagedColumn`] — the paper's *page loadable column*: reads pin
//!   individual pages through the buffer pool; the mandatory memory
//!   footprint is the metadata only.
//!
//! Both implement [`ColumnRead`]; the difference is invisible to queries.
//!
//! A column whose rows are their value identifiers — a unique key stored in
//! key order — persists its dictionary alone: the data vector and the
//! postings would both be the identity ([`ColumnBuilder::build_encoded`]
//! decides from the data).

mod builder;
mod materialize;
mod paged;
mod read;
mod resident;

pub use builder::{ColumnBuild, ColumnBuilder, EncodedRows};
pub use crate::waves::WAVE_PAGES;
pub use materialize::materialize;
pub use paged::PagedColumn;
pub use read::ColumnRead;
pub use resident::ResidentColumn;

use crate::datavec::ScanOptions;
use crate::meta::{MetaReader, MetaWriter};
use crate::{CoreError, CoreResult, DataType, KeyPredicate, PageConfig, Value, ValuePredicate};
pub(crate) use paged::StoredRows;
use payg_encoding::dispatch::{CodecKind, ScanPath};
use payg_encoding::VidSet;
use payg_resman::Disposition;
use payg_storage::{BufferPool, StorageError};
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

/// A column in either load mode.
pub enum Column {
    /// A fully-resident (default) column.
    Resident(ResidentColumn),
    /// A page-loadable column.
    Paged(PagedColumn),
}

impl Column {
    /// The persisted parts, whichever mode reads them.
    fn parts(&self) -> &paged::ColumnParts {
        match self {
            Column::Resident(c) => c.parts(),
            Column::Paged(c) => c.parts(),
        }
    }

    /// The column's load policy.
    pub fn policy(&self) -> LoadPolicy {
        match self {
            Column::Resident(_) => LoadPolicy::FullyResident,
            Column::Paged(_) => LoadPolicy::PageLoadable,
        }
    }

    /// For resident columns: force the full load now (otherwise it happens
    /// on first access). No-op for paged columns.
    pub fn ensure_loaded(&self) -> CoreResult<()> {
        if let Column::Resident(c) = self {
            c.load()?;
        }
        Ok(())
    }

    /// For resident columns: drop the loaded image (it reloads on next
    /// access). No-op for paged columns, whose pages the resource manager
    /// evicts piecewise.
    pub fn unload(&self) {
        if let Column::Resident(c) = self {
            c.unload();
        }
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
        match self {
            Column::Resident(c) => c.encoded_rows(rposs),
            Column::Paged(c) => materialize::encoded_rows_paged(c.parts(), rposs),
        }
    }

    /// The codec of the dictionary's persisted chain. Both load
    /// modes share one persisted format, so this reports the on-disk codec
    /// even for resident columns (whose in-memory image is decoded).
    pub fn dict_codec(&self) -> CodecKind {
        self.parts().dict.codec_kind()
    }

    /// The codec of the persisted posting chain, if the column stores
    /// postings.
    pub fn index_codec(&self) -> Option<CodecKind> {
        match &self.parts().rows {
            StoredRows::Plain { index: Some(i), .. } => Some(i.codec_kind()),
            _ => None,
        }
    }

    /// The store chains backing this column, labeled by role (`data`,
    /// `dict*`, `index`). Both load modes persist the same chains, so
    /// EXPLAIN ANALYZE can attribute traced page events either way.
    pub fn chains(&self) -> Vec<(&'static str, u64)> {
        self.parts().chains()
    }

    /// The strategy a row search for `pred` runs with. Resident columns
    /// always decode-then-scan — their image is already decompressed in
    /// memory — so only page-loadable columns ever seek compressed postings.
    pub fn scan_path(&self, pred: &KeyPredicate) -> ScanPath {
        match self {
            Column::Resident(_) => ScanPath::DecodeThenScan,
            Column::Paged(c) => c.scan_path(pred),
        }
    }

    /// Serializes everything needed to reopen this column over the same
    /// store after a process restart (catalog checkpoint): type, load
    /// policy, page geometry, the dictionary's metadata, then a row-layout
    /// tag: plain, with the data vector's and the optional index's
    /// metadata, or identity, with whether an index was asked for.
    /// The page chains themselves already live in the store.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let parts = self.parts();
        let disposition = match self {
            Column::Resident(c) => c.disposition(),
            Column::Paged(_) => Disposition::MidTerm,
        };
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
        let parts = Arc::new(paged::ColumnParts {
            data_type,
            len,
            cardinality,
            pool: pool.clone(),
            config,
            dict,
            rows,
        });
        Ok(match policy {
            LoadPolicy::PageLoadable => Column::Paged(PagedColumn::new(parts)),
            LoadPolicy::FullyResident => Column::Resident(ResidentColumn::new(parts, disposition)),
        })
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

impl ColumnRead for Column {
    fn len(&self) -> u64 {
        match self {
            Column::Resident(c) => c.len(),
            Column::Paged(c) => c.len(),
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            Column::Resident(c) => c.data_type(),
            Column::Paged(c) => c.data_type(),
        }
    }

    fn cardinality(&self) -> u64 {
        match self {
            Column::Resident(c) => c.cardinality(),
            Column::Paged(c) => c.cardinality(),
        }
    }

    fn has_index(&self) -> bool {
        match self {
            Column::Resident(c) => c.has_index(),
            Column::Paged(c) => c.has_index(),
        }
    }

    fn get_values(&self, rposs: &[u64]) -> CoreResult<Vec<Value>> {
        match self {
            Column::Resident(c) => c.get_values(rposs),
            Column::Paged(c) => c.get_values(rposs),
        }
    }

    fn vid_counts(&self, rposs: &[u64]) -> CoreResult<Vec<(u64, u64)>> {
        match self {
            Column::Resident(c) => c.vid_counts(rposs),
            Column::Paged(c) => c.vid_counts(rposs),
        }
    }

    fn values_by_vid(&self, vids: &[u64]) -> CoreResult<Vec<Value>> {
        match self {
            Column::Resident(c) => c.values_by_vid(vids),
            Column::Paged(c) => c.values_by_vid(vids),
        }
    }

    fn vid_set_for(&self, pred: &ValuePredicate) -> CoreResult<VidSet> {
        match self {
            Column::Resident(c) => c.vid_set_for(pred),
            Column::Paged(c) => c.vid_set_for(pred),
        }
    }

    fn find_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<Vec<u64>> {
        match self {
            Column::Resident(c) => c.find_key_rows(pred, from, to),
            Column::Paged(c) => c.find_key_rows(pred, from, to),
        }
    }

    fn count_key_rows(&self, pred: &KeyPredicate, from: u64, to: u64) -> CoreResult<u64> {
        match self {
            Column::Resident(c) => c.count_key_rows(pred, from, to),
            Column::Paged(c) => c.count_key_rows(pred, from, to),
        }
    }

    fn count_rows_par(
        &self,
        pred: &ValuePredicate,
        from: u64,
        to: u64,
        opts: ScanOptions,
    ) -> CoreResult<u64> {
        match self {
            Column::Resident(c) => c.count_rows(pred, from, to),
            Column::Paged(c) => c.count_rows_par(pred, from, to, opts),
        }
    }
}
