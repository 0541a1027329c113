//! A traced delta merge attributes its time: under the `merge` span sit one
//! `merge-freeze`, one `merge-column` per schema column and one
//! `merge-publish`, so a trace splits a merge's wall clock by column.

use page_as_you_go::core::{LoadPolicy, PageConfig};
use page_as_you_go::obs::{SpanKind, SpanRecord};
use page_as_you_go::resman::ResourceManager;
use page_as_you_go::storage::{BufferPool, MemStore};
use page_as_you_go::table::{PartitionSpec, Table};
use page_as_you_go::workload::{generate_rows, TableProfile};
use std::sync::Arc;

const COLUMNS: usize = 13;

#[test]
fn a_traced_merge_records_one_span_per_column_within_the_merge_span() {
    for policy in [LoadPolicy::FullyResident, LoadPolicy::PageLoadable] {
        let profile = TableProfile::erp(2_000, COLUMNS, 17);
        let pool = BufferPool::new(Arc::new(MemStore::new()), ResourceManager::new());
        let t = Table::create(
            pool,
            PageConfig::tiny(),
            profile.schema(true).unwrap(),
            vec![PartitionSpec::single(policy)],
        )
        .unwrap();
        let mut rows = generate_rows(&profile);
        let delta = rows.split_off(1_500);
        t.insert_all(rows).unwrap();
        t.delta_merge_all().unwrap();
        t.insert_all(delta).unwrap();

        // The traced merge: an old main plus a delta.
        let tracer = t.registry().tracer();
        tracer.enable();
        tracer.drain_spans();
        t.delta_merge_all().unwrap();
        let spans = tracer.drain_spans();
        tracer.disable();

        let of = |kind| -> Vec<&SpanRecord> { spans.iter().filter(|s| s.kind == kind).collect() };
        let merges = of(SpanKind::Merge);
        assert_eq!(merges.len(), 1, "{policy:?}: one merge span");
        let merge = merges[0];
        let inside = |s: &&SpanRecord| {
            s.parent == merge.id && s.start_ns >= merge.start_ns && s.end_ns <= merge.end_ns
        };
        for kind in [SpanKind::MergeFreeze, SpanKind::MergePublish] {
            let steps = of(kind);
            assert_eq!(steps.len(), 1, "{policy:?}: one {} span", kind.name());
            assert!(
                steps.iter().all(inside),
                "{policy:?}: {} inside the merge",
                kind.name()
            );
        }
        let columns = of(SpanKind::MergeColumn);
        assert!(
            columns.iter().all(inside),
            "{policy:?}: column spans inside the merge"
        );
        let mut detail: Vec<u64> = columns.iter().map(|s| s.detail).collect();
        detail.sort_unstable();
        assert_eq!(
            detail,
            (0..COLUMNS as u64).collect::<Vec<_>>(),
            "{policy:?}: one span per column"
        );
        let column_ns: u64 = columns.iter().map(|s| s.duration_ns()).sum();
        assert!(
            column_ns <= merge.duration_ns(),
            "{policy:?}: columns {column_ns} ns within the merge's {} ns",
            merge.duration_ns()
        );
    }
}
