//! Obs-vocabulary fixture against the real `payg_obs::names` table: an
//! undeclared wire name (line 8), a labelled registration missing the
//! declared `kind` key (line 9), and one passing a `codec` key the gauge
//! does not declare (line 13). Lines 7, 10, 11, and 12 are clean.

fn register(reg: &Registry, l: &[(&str, String)]) {
    reg.counter_labeled(names::POOL_LOADS, l).add(1);
    reg.counter("payg_fixture_bogus").add(1);
    reg.counter_labeled(names::POOL_LOAD_FAULTS, &[("pool", pool_label)]).add(1);
    reg.histogram(names::TABLE_MERGE_NS).record(3);
    reg.counter_labeled(names::POOL_PAGE_BYTES, &[("pool", p), ("codec", c)]).add(4);
    reg.gauge_labeled(names::PEF_CHUNK_BITS, &[("pool", p)]).set(5);
    reg.gauge_labeled(names::DICT_FSST_RATIO, &[("pool", p), ("codec", c)]).set(6);
}
