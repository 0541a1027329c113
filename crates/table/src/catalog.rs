//! Catalog checkpoints: persist a table's metadata so it can be reopened
//! over the same (durable) page store after a process restart.
//!
//! The page chains of every main-fragment structure already live in the
//! store; what a restart loses is the in-memory metadata — schema,
//! partition specs, and each column's chain references and resident
//! residue. [`Table::checkpoint`] serializes exactly that into a dedicated
//! catalog chain; [`Table::open`] reads it back.
//!
//! Checkpoints require *quiesced* tables: empty deltas and no pending
//! deletions (run [`Table::delta_merge_all`] first). This mirrors HANA's
//! recovery model, where main fragments restore from their persisted pages
//! and deltas replay from the redo log — a log is out of scope here, so the
//! checkpoint is taken at a merge boundary.

use crate::fragment::MainFragment;
use crate::partition::{PartitionRange, PartitionSpec};
use crate::schema::{ColumnSpec, Schema};
use crate::table::Table;
use crate::{TableError, TableResult};
use payg_core::column::{
    data_type_from, data_type_tag, disposition_from, disposition_tag, policy_from, policy_tag,
    Column,
};
use payg_core::meta::{MetaReader, MetaWriter};
use payg_core::{CoreError, PageConfig, Value};
use payg_storage::{BufferPool, ChainId, PageKey, StorageError};

const CATALOG_MAGIC: &[u8; 8] = b"PAYGCAT6";

fn corrupt(what: &str) -> TableError {
    TableError::Core(CoreError::Storage(StorageError::corrupt(format!("catalog: {what}"))))
}

fn write_value(w: &mut MetaWriter, v: &Value) {
    w.u8(data_type_tag(v.data_type()));
    w.bytes(&v.to_key());
}

fn read_value(r: &mut MetaReader) -> TableResult<Value> {
    let ty = data_type_from(r.u8()?)?;
    let key = r.bytes()?;
    Ok(Value::from_key(ty, &key)?)
}

impl Table {
    /// Writes a catalog checkpoint to a fresh chain in the table's store
    /// and returns its id. Fails unless every delta is empty and every main
    /// fragment is deletion-free (run [`Table::delta_merge_all`] first).
    pub fn checkpoint(&self) -> TableResult<ChainId> {
        // One pinned version for the whole checkpoint: validation and
        // serialization see the same fragments.
        let parts = self.partitions();
        for (i, p) in parts.iter().enumerate() {
            if !p.delta_view().is_empty()
                || p.main_frag().visible_rows() != p.main_frag().rows()
            {
                return Err(TableError::Invalid(format!(
                    "checkpoint requires a merged table; partition {i} has pending changes \
                     (run delta_merge_all first)"
                )));
            }
        }
        let mut w = MetaWriter::new();
        // Schema.
        let schema = self.schema();
        w.u64(schema.arity() as u64);
        for c in schema.columns() {
            w.str(&c.name);
            w.u8(data_type_tag(c.data_type));
            w.u8(u8::from(c.with_index));
            w.u8(match c.load_policy {
                None => 0,
                Some(p) => 1 + policy_tag(p),
            });
        }
        for opt in [schema.primary_key(), schema.partition_column()] {
            match opt {
                Some(i) => {
                    w.u8(1);
                    w.u64(i as u64);
                }
                None => w.u8(0),
            }
        }
        // Page configuration.
        let cfg = self.page_config();
        cfg.write_meta(&mut w);
        // Partitions.
        w.u64(parts.len() as u64);
        for p in &parts {
            let spec = p.spec();
            w.str(&spec.name);
            match &spec.range {
                PartitionRange::All => w.u8(0),
                PartitionRange::Below(v) => {
                    w.u8(1);
                    write_value(&mut w, v);
                }
                PartitionRange::AtLeast(v) => {
                    w.u8(2);
                    write_value(&mut w, v);
                }
                PartitionRange::Between(lo, hi) => {
                    w.u8(3);
                    write_value(&mut w, lo);
                    write_value(&mut w, hi);
                }
            }
            w.u8(policy_tag(spec.load_policy));
            w.u8(disposition_tag(spec.disposition));
            w.u64(p.main_frag().rows());
            for col in p.main_frag().columns() {
                w.bytes(&col.meta_bytes());
            }
        }
        let body = w.finish();

        // Persist: magic + total length + body, split across catalog pages.
        let store = self.pool().store();
        let page_size = cfg.dict_page.max(4096);
        let chain = store.create_chain(page_size).map_err(CoreError::Storage)?;
        let mut framed = Vec::with_capacity(body.len() + 16);
        framed.extend_from_slice(CATALOG_MAGIC);
        framed.extend_from_slice(&(body.len() as u64).to_le_bytes());
        framed.extend_from_slice(&body);
        for piece in framed.chunks(page_size) {
            store.append_page(chain, piece).map_err(CoreError::Storage)?;
        }
        self.name_durable_chains(&parts);
        Ok(chain)
    }

    /// Reopens a checkpointed table over `pool`'s store.
    pub fn open(pool: BufferPool, catalog: ChainId) -> TableResult<Table> {
        // Read the whole catalog chain directly from the store.
        let store = pool.store();
        let pages = store.chain_len(catalog).map_err(CoreError::Storage)?;
        let page_size = store.page_size(catalog).map_err(CoreError::Storage)?;
        let mut raw = Vec::with_capacity((pages as usize) * page_size);
        for p in 0..pages {
            raw.extend_from_slice(&store.read_page(PageKey::new(catalog, p)).map_err(CoreError::Storage)?);
        }
        if raw.len() < 16 || raw[..7] != CATALOG_MAGIC[..7] {
            return Err(corrupt("bad magic"));
        }
        if raw[7] != CATALOG_MAGIC[7] {
            let (found, ours) = (raw[7..8].escape_ascii(), CATALOG_MAGIC[7..].escape_ascii());
            return Err(corrupt(&format!(
                "checkpoint is version {found}, this build reads only version {ours}: open it \
                 with a build that reads version {found}"
            )));
        }
        let body_len = u64::from_le_bytes(raw[8..16].try_into().unwrap()) as usize;
        if raw.len() < 16 + body_len {
            return Err(corrupt("truncated catalog chain"));
        }
        let body = &raw[16..16 + body_len];
        let mut r = MetaReader::new(body);

        // Schema.
        let ncols = r.read_len().map_err(TableError::Core)?;
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = r.str().map_err(TableError::Core)?;
            let data_type = data_type_from(r.u8().map_err(TableError::Core)?)?;
            let with_index = r.u8().map_err(TableError::Core)? != 0;
            let load_policy = match r.u8().map_err(TableError::Core)? {
                0 => None,
                t => Some(policy_from(t - 1)?),
            };
            cols.push(ColumnSpec { name, data_type, with_index, load_policy });
        }
        let mut schema = Schema::new(cols.clone())?;
        for primary_key in [true, false] {
            let present = r.u8().map_err(TableError::Core)? != 0;
            if present {
                let idx = r.u64().map_err(TableError::Core)? as usize;
                if idx >= cols.len() {
                    return Err(corrupt("schema index out of range"));
                }
                let name = cols[idx].name.clone();
                schema = if primary_key {
                    schema.with_primary_key(&name)?
                } else {
                    schema.with_partition_column(&name)?
                };
            }
        }
        // Page configuration.
        let config = PageConfig::read_meta(&mut r).map_err(TableError::Core)?;
        // Partitions.
        let nparts = r.read_len().map_err(TableError::Core)?;
        let mut partitions = Vec::with_capacity(nparts);
        for _ in 0..nparts {
            let name = r.str().map_err(TableError::Core)?;
            let range = match r.u8().map_err(TableError::Core)? {
                0 => PartitionRange::All,
                1 => PartitionRange::Below(read_value(&mut r)?),
                2 => PartitionRange::AtLeast(read_value(&mut r)?),
                3 => PartitionRange::Between(read_value(&mut r)?, read_value(&mut r)?),
                t => return Err(corrupt(&format!("unknown range tag {t}"))),
            };
            let load_policy = policy_from(r.u8().map_err(TableError::Core)?)?;
            let disposition =
                disposition_from(r.u8().map_err(TableError::Core)?).map_err(TableError::Core)?;
            let rows = r.u64().map_err(TableError::Core)?;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let frame = r.bytes().map_err(TableError::Core)?;
                columns.push(Column::open(&pool, &frame).map_err(TableError::Core)?);
            }
            let spec = PartitionSpec { name, range, load_policy, disposition };
            partitions.push((spec, MainFragment::from_columns(columns, rows)));
        }
        r.expect_end().map_err(TableError::Core)?;
        Ok(Table::from_parts(schema, pool, config, partitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Projection, Query};
    use payg_core::{DataType, LoadPolicy, ValuePredicate};
    use payg_resman::ResourceManager;
    use payg_storage::MemStore;
    use std::sync::Arc;

    fn aged_table(pool: &BufferPool) -> Table {
        let schema = Schema::new(vec![
            ColumnSpec::new("id", DataType::Integer),
            ColumnSpec::new("name", DataType::Varchar),
            ColumnSpec::new("temp", DataType::Integer),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap()
        .with_partition_column("temp")
        .unwrap();
        let t = Table::create(
            pool.clone(),
            PageConfig::tiny(),
            schema,
            vec![
                PartitionSpec::hot("hot", PartitionRange::AtLeast(Value::Integer(100))),
                PartitionSpec::cold("cold", PartitionRange::Below(Value::Integer(100))),
            ],
        )
        .unwrap();
        for i in 0..400i64 {
            t.insert(vec![
                Value::Integer(i),
                Value::Varchar(format!("name-{:03}", i % 61).into()),
                Value::Integer(if i % 3 == 0 { 50 } else { 150 }),
            ])
            .unwrap();
        }
        t.delta_merge_all().unwrap();
        t
    }

    #[test]
    fn checkpoint_and_reopen_roundtrip() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = aged_table(&pool);
        let q = Query::filtered(
            "name",
            ValuePredicate::Eq(Value::Varchar("name-007".into())),
            Projection::All,
        );
        let before = format!("{:?}", t.execute(&q).unwrap());
        let catalog = t.checkpoint().unwrap();
        drop(t); // the "process restart": all in-memory metadata is gone

        let reopened = Table::open(pool, catalog).unwrap();
        assert_eq!(reopened.visible_rows(), 400);
        assert_eq!(reopened.partitions().len(), 2);
        assert_eq!(reopened.partitions()[0].spec().name, "hot");
        assert_eq!(
            reopened.partitions()[1].main().column(0).policy(),
            LoadPolicy::PageLoadable
        );
        assert_eq!(format!("{:?}", reopened.execute(&q).unwrap()), before);
        // The reopened table is fully writable again.
        reopened
            .insert(vec![
                Value::Integer(1_000),
                Value::Varchar("fresh".into()),
                Value::Integer(150),
            ])
            .unwrap();
        reopened.delta_merge_all().unwrap();
        assert_eq!(reopened.visible_rows(), 401);
    }

    #[test]
    fn checkpoint_rejects_unmerged_tables() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = aged_table(&pool);
        t.insert(vec![
            Value::Integer(999),
            Value::Varchar("pending".into()),
            Value::Integer(150),
        ])
        .unwrap();
        assert!(matches!(t.checkpoint(), Err(TableError::Invalid(_))));
        t.delta_merge_all().unwrap();
        assert!(t.checkpoint().is_ok());
    }

    #[test]
    fn corrupt_catalogs_error_cleanly() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = aged_table(&pool);
        let catalog = t.checkpoint().unwrap();
        // A bogus chain id.
        assert!(Table::open(pool.clone(), ChainId(9_999)).is_err());
        // A chain that is not a catalog.
        let store = pool.store();
        let junk = store.create_chain(4096).unwrap();
        store.append_page(junk, b"definitely not a catalog").unwrap();
        assert!(Table::open(pool.clone(), junk).is_err());
        // The good catalog still opens.
        assert!(Table::open(pool, catalog).is_ok());
    }

    #[test]
    fn an_older_catalog_names_its_version_and_a_foreign_header_is_bad_magic() {
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let catalog = aged_table(&pool).checkpoint().unwrap();
        let store = pool.store();
        // The previous formats (`PAYGCAT2`: dictionary metadata without a
        // layout tag; `PAYGCAT3`: every column with a data vector and both
        // string helper chains; `PAYGCAT4`: value blocks with fixed-width
        // entry headers and a restart every four entries; `PAYGCAT5`:
        // dictionary pages whose block starts count from the page's first
        // byte, not from its body) are refused by their version byte, never
        // parsed.
        for (header, expected) in [
            (
                b"PAYGCAT2",
                "catalog: checkpoint is version 2, this build reads only version 6: open it \
                 with a build that reads version 2",
            ),
            (
                b"PAYGCAT3",
                "catalog: checkpoint is version 3, this build reads only version 6: open it \
                 with a build that reads version 3",
            ),
            (
                b"PAYGCAT4",
                "catalog: checkpoint is version 4, this build reads only version 6: open it \
                 with a build that reads version 4",
            ),
            (
                b"PAYGCAT5",
                "catalog: checkpoint is version 5, this build reads only version 6: open it \
                 with a build that reads version 5",
            ),
            (b"NOTMAGIC", "catalog: bad magic"),
        ] {
            let copy = store.create_chain(store.page_size(catalog).unwrap()).unwrap();
            for p in 0..store.chain_len(catalog).unwrap() {
                let mut page = store.read_page(PageKey::new(catalog, p)).unwrap().to_vec();
                if p == 0 {
                    page[..8].copy_from_slice(header);
                }
                store.append_page(copy, &page).unwrap();
            }
            match Table::open(pool.clone(), copy) {
                Err(TableError::Core(CoreError::Storage(StorageError::Corrupt(what)))) => {
                    assert_eq!(what, expected)
                }
                other => panic!("expected a corrupt-catalog error, got {:?}", other.map(|_| ())),
            }
        }
        assert!(Table::open(pool, catalog).is_ok());
    }
}
