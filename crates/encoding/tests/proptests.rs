//! Property-based tests for the encoding primitives.

use payg_encoding::fsst::{SymbolTable, ESCAPE};
use payg_encoding::prefix::{OverflowRef, ValueBlockBuilder, ValueBlockView};
use payg_encoding::scan::search;
use payg_encoding::{okey, BitPackedVec, BitWidth, VidSet};
use proptest::prelude::*;
use std::collections::HashMap;

fn width_and_values() -> impl Strategy<Value = (u32, Vec<u64>)> {
    (0u32..=64).prop_flat_map(|bits| {
        let max = BitWidth::new(bits).unwrap().max_value();
        (Just(bits), prop::collection::vec(0..=max, 0..300))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The raw unaligned word loaders agree with the safe
    /// `u64::from_le_bytes` spelling on arbitrary byte strings and offsets
    /// — including deliberately misaligned ones. This is the property the
    /// CI Miri job checks the pointer arithmetic of.
    #[test]
    fn unaligned_loads_match_safe_decode(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        skew in 0usize..8,
        off in 0usize..256,
    ) {
        use payg_encoding::unaligned;
        let view = &bytes[skew.min(bytes.len())..];
        let safe = |o: usize| {
            let mut buf = [0u8; 8];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = view.get(o + i).copied().unwrap_or(0);
            }
            u64::from_le_bytes(buf)
        };
        prop_assert_eq!(unaligned::le_u64_padded(view, off), safe(off));
        let mut words = vec![0u64; view.len() / 8];
        unaligned::fill_le_words(view, &mut words);
        let mut extended = Vec::new();
        unaligned::extend_le_words(view, &mut extended);
        prop_assert_eq!(&extended, &words);
        for (i, w) in words.iter().enumerate() {
            prop_assert_eq!(*w, safe(i * 8));
        }
    }

    /// Packing then unpacking returns the original values at every width.
    #[test]
    fn bitpack_roundtrip((bits, values) in width_and_values()) {
        let w = BitWidth::new(bits).unwrap();
        let v = BitPackedVec::from_values_with_width(&values, w);
        prop_assert_eq!(v.len() as usize, values.len());
        for (i, &expect) in values.iter().enumerate() {
            prop_assert_eq!(v.get(i as u64), expect);
        }
        let iterated: Vec<u64> = v.iter().collect();
        prop_assert_eq!(iterated, values.clone());
        // Round-trip through raw words (the persistence path).
        let back = BitPackedVec::from_words(w, v.len(), v.words().to_vec()).unwrap();
        prop_assert_eq!(&back, &v);
    }

    /// mget on an arbitrary sub-range equals the slice of the source.
    #[test]
    fn bitpack_mget((bits, values) in width_and_values(), a in 0usize..300, b in 0usize..300) {
        prop_assume!(!values.is_empty());
        let (x, y) = (a % values.len(), b % values.len());
        let (from, to) = (x.min(y), x.max(y) + 1);
        let v = BitPackedVec::from_values(&values);
        let _ = bits;
        let mut out = Vec::new();
        v.mget(from as u64, to as u64, &mut out);
        prop_assert_eq!(&out[..], &values[from..to]);
    }

    /// SWAR/chunked search matches a naive scan for every predicate shape.
    #[test]
    fn search_matches_naive(
        (bits, values) in width_and_values(),
        probe_seed in any::<u64>(),
        lo in any::<u64>(),
        span in 0u64..100,
    ) {
        prop_assume!(!values.is_empty());
        let w = BitWidth::new(bits).unwrap();
        let v = BitPackedVec::from_values_with_width(&values, w);
        let lo = lo & w.mask();
        let hi = lo.saturating_add(span) & w.mask();
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let probe = values[(probe_seed % values.len() as u64) as usize];
        let sets = [
            VidSet::Single(probe),
            VidSet::range(lo, hi),
            VidSet::from_vids(values.iter().step_by(3).copied().collect()),
        ];
        for set in sets {
            let mut got = Vec::new();
            search(&v, 0, v.len(), &set, &mut got);
            let expect: Vec<u64> = (0..values.len() as u64)
                .filter(|&i| set.contains(values[i as usize]))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// VidSet::from_vids preserves exact membership regardless of the
    /// representation it picks.
    #[test]
    fn vidset_membership(vids in prop::collection::vec(0u64..500, 0..60)) {
        let set = VidSet::from_vids(vids.clone());
        for v in 0..520u64 {
            prop_assert_eq!(set.contains(v), vids.contains(&v));
        }
        let mut sorted = vids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let listed: Vec<u64> = set.iter().collect();
        prop_assert_eq!(listed, sorted);
    }

    /// Order-preserving keys: compare-as-bytes equals compare-as-values.
    #[test]
    fn okey_i64_order(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(okey::encode_i64(a).cmp(&okey::encode_i64(b)), a.cmp(&b));
        prop_assert_eq!(okey::decode_i64(&okey::encode_i64(a)).unwrap(), a);
    }

    /// f64 keys follow IEEE-754 total order exactly (including -0.0 < +0.0
    /// and signed NaNs at the extremes).
    #[test]
    fn okey_f64_order(a in any::<f64>(), b in any::<f64>()) {
        let (ka, kb) = (okey::encode_f64(a), okey::encode_f64(b));
        prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b));
        prop_assert_eq!(okey::decode_f64(&ka).unwrap().to_bits(), a.to_bits());
    }

    #[test]
    fn okey_i128_order(a in any::<i128>(), b in any::<i128>()) {
        prop_assert_eq!(okey::encode_i128(a).cmp(&okey::encode_i128(b)), a.cmp(&b));
        prop_assert_eq!(okey::decode_i128(&okey::encode_i128(a)).unwrap(), a);
    }

    /// Value blocks round-trip arbitrary sorted keys, including ones that
    /// spill to overflow pages, read entry by entry and by one walk, and
    /// the block search agrees with binary search of the keys.
    #[test]
    fn value_block_roundtrip(
        mut keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..16),
        inline_limit in 1usize..64,
        probe in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        keys.sort();
        keys.dedup();
        let mut pages: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut next = 0u64;
        let mut builder = ValueBlockBuilder::new();
        for k in &keys {
            builder.push(k, inline_limit, &mut |bytes: &[u8]| {
                bytes
                    .chunks(32)
                    .map(|c| {
                        let p = next;
                        next += 1;
                        pages.insert(p, c.to_vec());
                        OverflowRef { page_no: p, len: c.len() as u32 }
                    })
                    .collect()
            });
        }
        let bytes = builder.finish();
        let view = ValueBlockView::parse(&bytes).unwrap();
        prop_assert_eq!(view.len(), keys.len());
        let mut fetch = |r: &OverflowRef| Ok(pages[&r.page_no].clone());
        let mut acc = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let (offpage, total) = view.materialize_onpage_into(i, &mut acc).unwrap();
            for r in &offpage {
                acc.extend_from_slice(&fetch(r).unwrap());
            }
            prop_assert_eq!(acc.len() as u64, total);
            prop_assert_eq!(&acc, k);
        }
        prop_assert_eq!(&whole_block(&view, None, &mut fetch), &keys);
        let got = view.lower_bound(&probe, None, &mut acc, &mut fetch).unwrap();
        let expect = keys.binary_search(&probe);
        prop_assert_eq!(got, expect);
    }
}

/// Every key of a block, read by one walk: on-page part, off-page pieces,
/// then decompressed when `table` says the entries are FSST-coded.
fn whole_block(
    view: &ValueBlockView<'_>,
    table: Option<&SymbolTable>,
    fetch: &mut dyn FnMut(&OverflowRef) -> payg_encoding::Result<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let (mut walk, mut acc, mut keys) = (view.walk(), Vec::new(), Vec::new());
    while let Some(entry) = walk.next_into(&mut acc).unwrap() {
        for r in entry.offpage_refs() {
            acc.extend_from_slice(&fetch(&r).unwrap());
        }
        keys.push(table.map_or_else(|| acc.clone(), |t| t.decode(&acc).unwrap()));
    }
    keys
}

/// Strings over a small alphabet with shared stems (what a trained table
/// finds symbols in), the odd arbitrary byte mixed in (what it escapes).
fn texty() -> impl Strategy<Value = Vec<u8>> {
    const STEMS: [&[u8]; 6] = [b"order/", b"item-", b"00", b"x", b"/2016", b""];
    prop::collection::vec((0usize..6, any::<u8>(), 0u8..8), 0..10).prop_map(|parts| {
        let mut out = Vec::new();
        for (stem, byte, roll) in parts {
            out.extend_from_slice(STEMS[stem]);
            if roll == 0 {
                out.push(byte);
            }
        }
        out
    })
}

/// The three tables a chain can carry: trained on the strings it compresses,
/// trained on nothing (every byte escapes), and trained on text that shares
/// no byte with them (symbols exist, none ever matches).
fn table_for(kind: u8, sample: &[Vec<u8>]) -> SymbolTable {
    match kind {
        0 => SymbolTable::train(sample),
        1 => SymbolTable::train::<&[u8]>(&[]),
        _ => SymbolTable::train(&[[0xF0u8, 0xF1, 0xF2, 0xF3].repeat(8)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Streaming the decoder against a probe orders exactly as decoding
    /// first would — equal strings, strict prefixes and extensions
    /// included — and the open-ended form says `None` exactly when the
    /// bytes at hand are a proper prefix of the probe. A truncated trailing
    /// escape the comparison reaches is corruption, not an ordering.
    #[test]
    fn fsst_streaming_compare_equals_decoded_order(
        sample in prop::collection::vec(texty(), 0..12),
        a in texty(),
        b in texty(),
        kind in 0u8..3,
        cut in any::<usize>(),
        tail in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let mut sample = sample;
        sample.extend([a.clone(), b.clone()]);
        if kind == 2 {
            // Keep the probed strings clear of the foreign table's bytes.
            prop_assume!(a.iter().chain(&b).all(|&x| !(0xF0..=0xF3).contains(&x)));
        }
        let table = table_for(kind, &sample);
        let enc = table.encode(&a);
        prop_assert_eq!(table.decode(&enc).unwrap(), a.clone());
        let prefix = a[..cut % (a.len() + 1)].to_vec();
        let extension = [a.as_slice(), &tail].concat();
        for probe in [&b, &a, &prefix, &extension, &Vec::new()] {
            prop_assert_eq!(table.cmp_decoded(&enc, probe).unwrap(), a.as_slice().cmp(probe));
        }
        // An escape whose literal is missing: reached (the probe goes on
        // past `a`), it is an error; decided earlier, it is never read.
        let dangling = [enc.as_slice(), &[ESCAPE]].concat();
        for probe in [&b, &a, &prefix, &extension] {
            let decided = (!probe.starts_with(&a)).then(|| a.as_slice().cmp(probe));
            prop_assert_eq!(table.cmp_decoded(&dangling, probe).ok(), decided);
        }
        // The on-page part of a spilled value: a compressed prefix whose
        // tail (≥ 1 byte, possibly the literal of a trailing escape) is
        // elsewhere.
        if !enc.is_empty() {
            let here = &enc[..cut % enc.len()];
            let decoded = table.decode(here).or_else(|_| table.decode(&here[..here.len() - 1])).unwrap();
            for probe in [&b, &a, &prefix, &extension] {
                let n = decoded.len().min(probe.len());
                let expect = match decoded[..n].cmp(&probe[..n]) {
                    std::cmp::Ordering::Equal if n == probe.len() => Some(std::cmp::Ordering::Greater),
                    std::cmp::Ordering::Equal => None,
                    ord => Some(ord),
                };
                prop_assert_eq!(table.cmp_decoded_prefix(here, probe).unwrap(), expect);
            }
        }
    }

    /// The one block search ≡ binary search of the sorted keys, over raw
    /// and FSST-compressed blocks, with entries inline and spilled; one walk
    /// over the block reads the keys back.
    #[test]
    fn block_lower_bound_equals_binary_search(
        keys in prop::collection::vec(texty(), 1..16),
        probes in prop::collection::vec(texty(), 1..8),
        kind in 0u8..4,
        inline_limit in 1usize..40,
    ) {
        let mut keys = keys;
        keys.sort();
        keys.dedup();
        // `kind == 3`: a raw block.
        let table = (kind < 3).then(|| table_for(kind, &keys));
        if kind == 2 {
            prop_assume!(keys.iter().chain(&probes).flatten().all(|&x| !(0xF0..=0xF3).contains(&x)));
        }
        let mut pages: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut builder = ValueBlockBuilder::new();
        for k in &keys {
            let stored = table.as_ref().map_or(k.clone(), |t| t.encode(k));
            builder.push_unordered(&stored, inline_limit, &mut |bytes: &[u8]| {
                bytes
                    .chunks(5)
                    .map(|c| {
                        let p = pages.len() as u64;
                        pages.insert(p, c.to_vec());
                        OverflowRef { page_no: p, len: c.len() as u32 }
                    })
                    .collect()
            });
        }
        let bytes = builder.finish();
        let view = ValueBlockView::parse(&bytes).unwrap();
        let mut fetch = |r: &OverflowRef| Ok(pages[&r.page_no].clone());
        prop_assert_eq!(&whole_block(&view, table.as_ref(), &mut fetch), &keys);
        let mut acc = Vec::new();
        let mut all = probes;
        for k in &keys {
            all.extend([k.clone(), k[..k.len() / 2].to_vec(), [k.as_slice(), &[0]].concat()]);
        }
        for probe in &all {
            let expect = keys.binary_search(probe);
            let got = view.lower_bound(probe, table.as_ref(), &mut acc, &mut fetch).unwrap();
            prop_assert_eq!(got, expect, "probe {:?}", probe);
            prop_assert_eq!(
                view.cmp_first(probe, table.as_ref(), &mut acc, &mut fetch).unwrap(),
                keys[0].as_slice().cmp(probe)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// search_bitmap and position-materializing search agree on arbitrary
    /// vectors and predicates.
    #[test]
    fn bitmap_and_position_search_agree(
        values in prop::collection::vec(0u64..300, 1..400),
        lo in 0u64..300,
        span in 0u64..80,
    ) {
        use payg_encoding::scan::{search, search_bitmap};
        let v = BitPackedVec::from_values(&values);
        let set = VidSet::range(lo, lo + span);
        let mut positions = Vec::new();
        search(&v, 0, v.len(), &set, &mut positions);
        let mut words = Vec::new();
        search_bitmap(&v, 0, v.len(), &set, &mut words);
        let mut from_bitmap = Vec::new();
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                from_bitmap.push(wi as u64 * 64 + w.trailing_zeros() as u64);
                w &= w - 1;
            }
        }
        prop_assert_eq!(from_bitmap, positions);
    }
}

/// A width and a value vector whose last chunk is usually partial, covering
/// the specialized table (1..=32) and the generic fallback (33..).
fn kernel_width_and_values() -> impl Strategy<Value = (u32, Vec<u64>)> {
    (1u32..=36).prop_flat_map(|bits| {
        let max = BitWidth::new(bits).unwrap().max_value();
        (Just(bits), prop::collection::vec(0..=max, 1..300))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The width-specialized kernels, the generic reference kernel, and a
    /// naive per-value decode agree bit-for-bit on every chunk — including
    /// the trailing partial chunk — for equality, range, and in-set
    /// predicates at random widths.
    #[test]
    fn specialized_generic_and_naive_kernels_agree(
        (bits, values) in kernel_width_and_values(),
        probe_seed in any::<u64>(),
        lo_raw in any::<u64>(),
        span in 0u64..200,
    ) {
        use payg_encoding::kernels::{boundary_mask, chunk_bitmap_generic, KernelPredicate};
        let w = BitWidth::new(bits).unwrap();
        let v = BitPackedVec::from_values_with_width(&values, w);
        let lo = lo_raw & w.mask();
        let hi = lo.saturating_add(span).min(w.max_value());
        let probe = values[(probe_seed % values.len() as u64) as usize];
        let sets = [
            VidSet::Single(probe),
            VidSet::Single(probe_seed & w.mask()),
            VidSet::range(lo, hi),
            VidSet::from_vids(values.iter().step_by(7).copied().collect()),
        ];
        let n = bits as usize;
        let chunks = v.chunk_count() as usize;
        for set in sets {
            let pred = KernelPredicate::new(w, &set);
            let mut specialized = Vec::new();
            pred.scan_chunks(v.words(), &mut specialized);
            prop_assert_eq!(specialized.len(), chunks);
            for (ci, &spec_bm) in specialized.iter().enumerate() {
                // Padding slots past len() hold zero and may "match"; mask
                // every kernel the same way before comparing.
                let live = boundary_mask(ci as u64, 0, v.len());
                let chunk = &v.words()[ci * n..(ci + 1) * n];
                let generic = chunk_bitmap_generic(chunk, w, &set);
                let mut naive = 0u64;
                for slot in 0..64usize {
                    let row = ci * 64 + slot;
                    if row < values.len() {
                        naive |= u64::from(set.contains(values[row])) << slot;
                    }
                }
                prop_assert_eq!(
                    spec_bm & live, naive,
                    "specialized != naive: width {} chunk {} {:?}", bits, ci, &set
                );
                prop_assert_eq!(
                    generic & live, naive,
                    "generic != naive: width {} chunk {} {:?}", bits, ci, &set
                );
                let mut alone = Vec::new();
                pred.scan_chunks(chunk, &mut alone);
                prop_assert_eq!(alone[0] & live, naive);
            }
        }
    }

    /// COUNT never materializes positions yet always equals the length of
    /// the materialized search over the same sub-range, and the bits of the
    /// full-range result bitmaps are exactly the searched positions.
    #[test]
    fn count_rank_select_agree_with_search(
        (bits, values) in kernel_width_and_values(),
        a in any::<u64>(),
        b in any::<u64>(),
        lo_raw in any::<u64>(),
        span in 0u64..200,
    ) {
        use payg_encoding::kernels::count_matches;
        use payg_encoding::scan::search_bitmap;
        let w = BitWidth::new(bits).unwrap();
        let v = BitPackedVec::from_values_with_width(&values, w);
        let (x, y) = (a % (v.len() + 1), b % (v.len() + 1));
        let (from, to) = (x.min(y), x.max(y));
        let lo = lo_raw & w.mask();
        let set = VidSet::range(lo, lo.saturating_add(span).min(w.max_value()));

        let mut positions = Vec::new();
        search(&v, from, to, &set, &mut positions);
        prop_assert_eq!(count_matches(&v, from, to, &set), positions.len() as u64);

        // Full-range bitmaps: their set bits are exactly the searched
        // positions.
        let mut bitmaps = Vec::new();
        search_bitmap(&v, 0, v.len(), &set, &mut bitmaps);
        let mut full = Vec::new();
        search(&v, 0, v.len(), &set, &mut full);
        let mut from_bitmap = Vec::new();
        for (wi, &w) in bitmaps.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                from_bitmap.push(wi as u64 * 64 + u64::from(w.trailing_zeros()));
                w &= w - 1;
            }
        }
        prop_assert_eq!(from_bitmap, full);
    }
}
