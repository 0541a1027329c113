//! The four workloads, each a closed loop of one client thread over
//! `Table::session()` → `Snapshot::execute`.
//!
//! An untraced run is `setup_repeats` segments, each of which sets the table
//! up afresh, warms up on an op list from a different sub-seed and repeats
//! fixed-size rounds of generated ops for its share of `--seconds`; a traced
//! read run is one such segment (`ingest_merge` keeps its segments, so that
//! traced and untraced runs do the same write work). Every answer is checked
//! against the generator's. Untraced runs report the end-to-end metrics;
//! traced runs cycle the rounds through plain / benchmark-spans /
//! library-tracer-on (/ resident twin) modes, run the isolated probes and
//! report the per-layer metrics.

use crate::api::{
    domain_value, MemoryStats, PoolLimits, Projection, Query, QueryResult, Table, TableProfile,
    ValuePredicate, TABLE_SESSIONS_REJECTED,
};
use crate::layers::{self, Probes};
use crate::metrics::{
    end_to_end, per_layer, ratio, rounds_note, setups_note, Ingest, Lat, LayerInputs, Mode, Peaks,
    Round, MIB,
};
use crate::ops::{digest, sub_seed, Expect, Op, OpGen, Oracle};
use crate::report::Outcome;
use crate::setup::{self, Served, Serving, Variant};
use crate::trace::{self, TraceBuf};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2 point mix, everything fits: the paper's steady state.
    PointWarm,
    /// Unindexed `COUNT(*)` scans and a 1 % `SUM`, warm.
    ScanWarm,
    /// Table 3 PK ranges + point reads, pool ≪ working set, slow reads.
    ColdPressure,
    /// Batch inserts and merges beside a reader running the point mix.
    IngestMerge,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PointWarm,
        Workload::ScanWarm,
        Workload::ColdPressure,
        Workload::IngestMerge,
    ];

    /// The workloads `BENCHMARK.json` gates. `ingest_merge` keeps two threads
    /// busy on the reference box's two vCPUs, and ten same-commit runs of it
    /// spread further than any bound the benchmark may set: it runs by hand
    /// (and in the smoke test), reported but not gated.
    pub const GATED: [Workload; 3] = [
        Workload::PointWarm,
        Workload::ScanWarm,
        Workload::ColdPressure,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWarm => "point_warm",
            Workload::ScanWarm => "scan_warm",
            Workload::ColdPressure => "cold_pressure",
            Workload::IngestMerge => "ingest_merge",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Dataset and op-count sizes. Op counts are fixed per round (not per
/// second) so single-client counters repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the read workloads' table.
    pub rows: u64,
    /// Columns, key included.
    pub cols: usize,
    /// Page size of every chain, bytes.
    pub page: usize,
    /// Segments (set-up, warm-up, timed slice) per untraced run; `setup_s`
    /// is the fastest of their set-ups.
    pub setup_repeats: usize,
    /// Ops per `point_warm` round (and per `ingest_merge` reader list).
    pub point_ops: usize,
    /// Ops per `scan_warm` round.
    pub scan_ops: usize,
    /// Ops per `cold_pressure` round.
    pub cold_ops: usize,
    /// `cold_pressure` paged-pool watermarks, bytes.
    pub cold_limits: (usize, usize),
    /// `cold_pressure` latency per physical read call, µs.
    pub cold_read_latency_us: u64,
    /// Rows `ingest_merge` starts from.
    pub ingest_base_rows: u64,
    /// Rows per `ingest_merge` insert batch (one merge follows each).
    pub ingest_batch_rows: u64,
    /// `ingest_merge` insert+merge cycles per second of `--seconds`.
    pub ingest_cycles_per_s: f64,
}

impl Scale {
    /// The scale `BENCHMARK.json` is measured at, sized so that set-up,
    /// warm-up and `run_seconds` of rounds fit the driver's time cap.
    pub fn reference() -> Self {
        Scale {
            rows: 100_000,
            cols: 33,
            page: 4096,
            setup_repeats: 4,
            point_ops: 12_000,
            scan_ops: 700,
            cold_ops: 120,
            cold_limits: (512 << 10, 1 << 20),
            cold_read_latency_us: 150,
            ingest_base_rows: 30_000,
            ingest_batch_rows: 2_500,
            ingest_cycles_per_s: 1.0,
        }
    }

    /// A seconds-long scale for the smoke test.
    pub fn smoke() -> Self {
        Scale {
            rows: 2_000,
            cols: 17,
            page: 1024,
            setup_repeats: 1,
            point_ops: 240,
            scan_ops: 70,
            cold_ops: 48,
            cold_limits: (24 << 10, 48 << 10),
            cold_read_latency_us: 20,
            ingest_base_rows: 1_000,
            ingest_batch_rows: 200,
            ingest_cycles_per_s: 3.0,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the dataset and of every op list.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Directory the run may write under (store files, trace).
    pub data_root: PathBuf,
    /// Test hook: corrupt the first op's expected answer.
    pub corrupt_expected: bool,
}

/// Removes the run's store directory when the run ends, however it ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the rounds on one table accumulate.
#[derive(Default)]
struct Acc {
    lat: Lat,
    peaks: Peaks,
    attempted: u64,
    failed: u64,
}

/// One request: fresh session, execute, drop. Returns the four timestamps
/// (start, session open, executed, session dropped) and whether the answer
/// was the generator's. The result is dropped after the last timestamp.
fn exec(table: &Table, op: &Op) -> ([Instant; 4], bool) {
    let t0 = Instant::now();
    let snap = table.session();
    let t1 = Instant::now();
    let res: Option<QueryResult> = match &snap {
        Ok(s) => s.execute(&op.query).ok(),
        Err(_) => None,
    };
    let t2 = Instant::now();
    drop(snap);
    let t3 = Instant::now();
    ([t0, t1, t2, t3], res.is_some_and(|r| op.check(&r)))
}

/// Runs ops from `ops` (cyclically, starting at `*cursor`) on `served` until
/// `stop(done)` says so, in `mode`.
fn run_round(
    served: &Served,
    ops: &[Op],
    cursor: &mut usize,
    stop: &mut dyn FnMut(usize) -> bool,
    mode: Mode,
    acc: &mut Acc,
    spans: &mut TraceBuf,
) -> Round {
    let pool0 = served.table.pool().metrics();
    let io0 = served.store.counters();
    let tracer = served.table.registry().tracer();
    match mode {
        Mode::Spans => served.store.set_spans(true),
        Mode::Tracer => tracer.enable(),
        Mode::Plain | Mode::Twin => {}
    }
    let (mut busy_ns, mut done) = (0u64, 0usize);
    while !stop(done) {
        let op = &ops[*cursor % ops.len()];
        *cursor += 1;
        let (t, ok) = exec(&served.table, op);
        busy_ns += (t[3] - t[0]).as_nanos() as u64;
        done += 1;
        acc.attempted += 1;
        acc.failed += u64::from(!ok);
        match mode {
            Mode::Plain | Mode::Twin => acc.lat.record(op, &t),
            Mode::Spans => spans.op(&served.clock, t),
            Mode::Tracer => {}
        }
        let mem = served.resman.stats();
        acc.peaks.total = acc.peaks.total.max(mem.total_bytes);
        acc.peaks.paged = acc.peaks.paged.max(mem.paged_bytes);
    }
    acc.lat.end_round();
    let mut read_union_ns = 0;
    match mode {
        Mode::Spans => {
            served.store.set_spans(false);
            let store_spans = served.store.take_spans();
            let reads = store_spans.iter().filter(|s| s.name == "store.read");
            read_union_ns = trace::union_ns(reads.map(|s| (s.start_ns, s.end_ns)).collect());
            spans.extend(store_spans);
        }
        Mode::Tracer => {
            tracer.disable();
            // Empty the rings so the next traced round starts from the same state.
            drop(tracer.drain());
            drop(tracer.drain_spans());
        }
        Mode::Plain | Mode::Twin => {}
    }
    Round {
        mode,
        ops: done as u64,
        busy_ns,
        pool: served.table.pool().metrics().delta(&pool0),
        io: served.store.counters().delta(&io0),
        read_union_ns,
    }
}

/// One untimed pass over `ops`; returns how many answers were wrong.
fn warm_up(served: &Served, ops: &[Op]) -> u64 {
    let mut scratch = Acc::default();
    let all = &mut |done| done == ops.len();
    run_round(
        served,
        ops,
        &mut 0,
        all,
        Mode::Plain,
        &mut scratch,
        &mut TraceBuf::default(),
    );
    served.resman.quiesce();
    scratch.failed
}

/// How many set-up → warm-up → timed-slice segments a run makes: one when
/// traced, `setup_repeats` otherwise, so that `setup_s` has several samples
/// and both it and the timed slices are spread over the run's whole wall
/// time, not one stretch of it a slowed host could cover.
fn segments(cfg: &RunConfig) -> usize {
    if cfg.trace {
        1
    } else {
        cfg.scale.setup_repeats.max(1)
    }
}

/// Resource-manager movement since `before`: `(proactive, reactive, bytes)`.
fn evictions_since(served: &Served, before: &MemoryStats) -> (u64, u64, u64) {
    let now = served.resman.stats();
    (
        now.proactive_evictions - before.proactive_evictions,
        now.reactive_evictions - before.reactive_evictions,
        now.evicted_bytes - before.evicted_bytes,
    )
}

fn sessions_rejected(served: &Served) -> u64 {
    served
        .table
        .registry()
        .counter(TABLE_SESSIONS_REJECTED)
        .get()
}

fn run_dir(cfg: &RunConfig) -> PathBuf {
    cfg.data_root
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()))
}

fn write_trace(cfg: &RunConfig, spans: &TraceBuf) -> Result<(), String> {
    let path = cfg
        .data_root
        .join(format!("{}.trace.json", cfg.workload.name()));
    trace::write_json(&path, cfg.workload.name(), spans).map_err(|e| format!("write trace: {e}"))
}

fn corrupt(op: &mut Op) {
    op.expect = match op.expect {
        Expect::Digest(d) => Expect::Digest(!d),
        Expect::Count { hi, .. } => Expect::Count {
            lo: hi + 1,
            hi: hi + 1,
        },
    };
}

#[derive(Clone, Copy)]
enum Mix {
    Table2,
    Scan,
    Table3,
}

struct ReadSpec {
    variant: Variant,
    mix: Mix,
    ops: usize,
    serving: Serving,
    /// Draw a fresh op list every round (pool state evolves) instead of
    /// repeating one list (counters repeat exactly).
    fresh_ops: bool,
    twin: bool,
}

fn draw(gen: &mut OpGen<'_>, mix: Mix, n: usize) -> Vec<Op> {
    match mix {
        Mix::Table2 => gen.table2_mix(n),
        Mix::Scan => gen.scan_mix(n),
        Mix::Table3 => gen.table3_mix(n),
    }
}

fn size_note(served: &Served, limits: Option<PoolLimits>) -> Result<String, String> {
    let disk = setup::dir_bytes(&served.dir).map_err(|e| format!("size store directory: {e}"))?;
    let files = disk as f64 / MIB;
    Ok(match limits {
        Some(l) => format!(
            "chain files {files:.2} MiB, paged-pool limits {:.2}/{:.2} MiB (upper = 1/{:.1} of the files)",
            l.lower_bytes as f64 / MIB,
            l.upper_bytes as f64 / MIB,
            disk as f64 / l.upper_bytes as f64
        ),
        None => format!("chain files {files:.2} MiB, no pool limit"),
    })
}

fn run_read(cfg: &RunConfig, spec: &ReadSpec) -> Result<Outcome, String> {
    let scale = &cfg.scale;
    let profile = TableProfile::erp(scale.rows, scale.cols, cfg.seed);
    let dir = run_dir(cfg);
    let _cleanup = DirGuard(dir.clone());
    let oracle = Oracle::new(profile, scale.rows);
    let mut gen = OpGen::new(&oracle, sub_seed(cfg.seed, 2));
    let mut ops = draw(&mut gen, spec.mix, spec.ops);

    // Untimed warm-up on ops from a different sub-seed than the timed ones;
    // where the rounds replay one list, that list too, so that a timed
    // slice starts in the state every later round sees.
    let mut warm_ops = draw(
        &mut OpGen::new(&oracle, sub_seed(cfg.seed, 1)),
        spec.mix,
        spec.ops,
    );
    if !spec.fresh_ops {
        warm_ops.extend(ops.iter().cloned());
    }
    if cfg.corrupt_expected {
        corrupt(&mut ops[0]);
    }
    let mut modes = vec![Mode::Plain];
    if cfg.trace {
        modes.extend([Mode::Spans, Mode::Tracer]);
        modes.extend(spec.twin.then_some(Mode::Twin));
    }

    let slice = Duration::from_secs_f64(cfg.seconds / segments(cfg) as f64);
    let (mut acc, mut twin_acc) = (Acc::default(), Acc::default());
    let mut spans = TraceBuf::default();
    let (mut setups, mut rounds) = (Vec::new(), Vec::new());
    let mut warm_failed = 0;
    let mut held = None;
    for _ in 0..segments(cfg) {
        // The previous segment's table goes before the next one is built.
        drop(held.take());
        let (served, stats) = setup::build(
            &oracle.profile,
            scale.rows,
            spec.variant,
            scale.page,
            &dir.join("paged"),
            &spec.serving,
        )?;
        setups.push(stats);
        let twin = if modes.contains(&Mode::Twin) {
            let (variant, dir) = (spec.variant.twin(), dir.join("twin"));
            let built = setup::build(
                &oracle.profile,
                scale.rows,
                variant,
                scale.page,
                &dir,
                &spec.serving,
            )?;
            Some(built.0)
        } else {
            None
        };
        warm_failed += std::iter::once(&served)
            .chain(&twin)
            .map(|t| warm_up(t, &warm_ops))
            .sum::<u64>();
        drop(served.store.take_samples());
        let mem0 = served.resman.stats();

        let first = rounds.len();
        let deadline = Instant::now() + slice;
        while rounds.len() - first < modes.len() || Instant::now() < deadline {
            let mode = modes[(rounds.len() - first) % modes.len()];
            if spec.fresh_ops && !rounds.is_empty() {
                ops = draw(&mut gen, spec.mix, spec.ops);
            }
            let (target, acc) = match (&twin, mode) {
                (Some(t), Mode::Twin) => (t, &mut twin_acc),
                _ => (&served, &mut acc),
            };
            let all = &mut |done| done == ops.len();
            rounds.push(run_round(target, &ops, &mut 0, all, mode, acc, &mut spans));
        }
        held = Some((served, twin, mem0));
    }
    let (served, twin, mem0) = held.ok_or("no set-up ran")?;

    let mut out = Outcome {
        workload: cfg.workload.name(),
        attempted: acc.attempted + twin_acc.attempted,
        failed: acc.failed + twin_acc.failed + warm_failed,
        checks_ok: true,
        ..Outcome::default()
    };
    let last = setups.last().ok_or("no set-up ran")?;
    out.notes.push(format!(
        "{} {} rows x {} cols, {} ops/round, {} rounds, {} set-ups; {}",
        spec.variant.label(),
        scale.rows,
        scale.cols,
        spec.ops,
        rounds.len(),
        setups.len(),
        size_note(&served, spec.serving.limits)?
    ));
    out.notes.push(setups_note(&setups));
    out.notes.push(rounds_note(&rounds));
    let ingest = Ingest::of_setups(&setups);
    if !cfg.trace {
        let disk_per_user = ratio(last.disk_bytes as f64, last.user_bytes as f64);
        out.end_to_end = end_to_end(&setups, &rounds, &acc.lat, acc.peaks, disk_per_user);
        return Ok(out);
    }
    let evictions = evictions_since(&served, &mem0);
    let read_samples_ns = served.store.take_samples().0;
    out.per_layer = per_layer(&LayerInputs {
        rounds: &rounds,
        lat: &acc.lat,
        peaks: acc.peaks,
        twin: twin.as_ref().map(|_| (&twin_acc.lat, twin_acc.peaks)),
        probes: &layers::probe(&served, &oracle.profile, scale.rows)?,
        ingest: &ingest,
        read_samples_ns: &read_samples_ns,
        append_samples_ns: &last.append_samples_ns,
        write_amplification: ratio(last.build_io.bytes_written as f64, last.user_bytes as f64),
        sessions_rejected: sessions_rejected(&served),
        limits: spec.serving.limits,
        evictions,
    });
    write_trace(cfg, &spans)?;
    Ok(out)
}

/// Checkpoints `served`, reopens it cold and checks the row count and 64
/// evenly spread sample rows against the generator.
fn check_reopened(served: Served, oracle: &Oracle) -> Result<bool, String> {
    let catalog = served
        .table
        .checkpoint()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    let (dir, page) = (served.dir.clone(), served.page);
    drop(served);
    let again = setup::reopen(&dir, catalog, page, &Serving::WARM)?;
    let total = oracle.profile.rows;
    let snap = again
        .table
        .session()
        .map_err(|e| format!("session after reopen: {e}"))?;
    let count = snap.execute(&Query::full(Projection::Count));
    let mut ok = matches!(count, Ok(QueryResult::Count(n)) if n == total);
    let pk = &oracle.profile.columns[0].name;
    for i in 0..64 {
        let row = i * (total - 1) / 63;
        let key = ValuePredicate::Eq(domain_value(&oracle.profile, 0, row));
        let q = Query::filtered(pk.clone(), key, Projection::All);
        ok &= snap.execute(&q).ok().and_then(|r| digest(&r)) == Some(oracle.star_digest(row));
    }
    Ok(ok)
}

/// What `ingest_merge`'s per-layer metrics read off the last segment's table
/// before it is checkpointed and reopened.
struct IngestTail {
    /// Bytes appended to the store during the cycles.
    written: u64,
    evictions: (u64, u64, u64),
    read_samples_ns: Vec<u64>,
    append_samples_ns: Vec<u64>,
    rejected: u64,
    probes: Probes,
    user_bytes: u64,
    disk_bytes: u64,
}

fn run_ingest(cfg: &RunConfig) -> Result<Outcome, String> {
    let scale = &cfg.scale;
    // Traced or not, the run is `setup_repeats` segments of set-up → warm-up
    // → a fixed number of insert + merge cycles → reopen check. The write
    // work per segment is sized from `--seconds`, not stopped by the clock:
    // the table's final size (hence merge cost, footprint and bytes on disk)
    // must not depend on speed.
    let parts = scale.setup_repeats.max(1);
    let cycles = ((cfg.seconds * scale.ingest_cycles_per_s / parts as f64).round() as u64).max(2);
    let (base, batch) = (scale.ingest_base_rows, scale.ingest_batch_rows);
    let profile = TableProfile::erp(base + cycles * batch, scale.cols, cfg.seed);
    let dir = run_dir(cfg);
    let _cleanup = DirGuard(dir.clone());
    let oracle = Oracle::new(profile, base);
    let warm_ops = OpGen::new(&oracle, sub_seed(cfg.seed, 1)).table2_mix(scale.point_ops);
    let mut ops = OpGen::new(&oracle, sub_seed(cfg.seed, 2)).table2_mix(scale.point_ops);
    if cfg.corrupt_expected {
        corrupt(&mut ops[0]);
    }

    let mut acc = Acc::default();
    let mut spans = TraceBuf::default();
    let (mut setups, mut rounds) = (Vec::new(), Vec::new());
    let mut ingest = Ingest {
        rows_per_s: Vec::new(),
        merge_ms: Vec::new(),
    };
    let (mut warm_failed, mut checks_ok) = (0, true);
    let mut tail = None;
    for _ in 0..parts {
        let (served, stats) = setup::build(
            &oracle.profile,
            base,
            Variant::PagedIndexed,
            scale.page,
            &dir.join("paged"),
            &Serving::WARM,
        )?;
        warm_failed += warm_up(&served, &warm_ops);
        drop(served.store.take_samples());
        let mem0 = served.resman.stats();
        let io0 = served.store.counters();

        let cycle = AtomicU64::new(0);
        let (written_bytes, writer_ok) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let (mut bytes, mut ok) = (0u64, true);
                let (mut rows_per_s, mut merge_ms) = (Vec::new(), Vec::new());
                for c in 0..cycles {
                    let from = base + c * batch;
                    let (rows, raw) = setup::generate(&oracle.profile, from..from + batch);
                    bytes += raw;
                    let t = Instant::now();
                    ok &= rows
                        .into_iter()
                        .try_for_each(|row| served.table.insert(row))
                        .is_ok();
                    rows_per_s.push(batch as f64 / t.elapsed().as_secs_f64());
                    let t = Instant::now();
                    ok &= served.table.delta_merge_all().is_ok();
                    merge_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    cycle.fetch_add(1, Ordering::SeqCst);
                }
                (rows_per_s, merge_ms, bytes, ok)
            });
            // The reader: one round per writer cycle, alternating plain and
            // span rounds when traced.
            let mut cursor = 0;
            loop {
                let now = cycle.load(Ordering::SeqCst);
                if now >= cycles {
                    break;
                }
                let mode = if cfg.trace && now % 2 == 1 {
                    Mode::Spans
                } else {
                    Mode::Plain
                };
                let next_cycle = &mut |_| cycle.load(Ordering::SeqCst) != now;
                rounds.push(run_round(
                    &served,
                    &ops,
                    &mut cursor,
                    next_cycle,
                    mode,
                    &mut acc,
                    &mut spans,
                ));
            }
            let (rows_per_s, merge_ms, bytes, ok) = writer.join().expect("writer thread panicked");
            ingest.rows_per_s.extend(rows_per_s);
            ingest.merge_ms.extend(merge_ms);
            (bytes, ok)
        });

        let (read_samples_ns, append_samples_ns) = served.store.take_samples();
        let mut last = IngestTail {
            written: served.store.counters().delta(&io0).bytes_written,
            evictions: evictions_since(&served, &mem0),
            read_samples_ns,
            append_samples_ns,
            rejected: sessions_rejected(&served),
            probes: if cfg.trace {
                layers::probe(&served, &oracle.profile, oracle.profile.rows)?
            } else {
                Probes::default()
            },
            user_bytes: stats.user_bytes + written_bytes,
            disk_bytes: 0,
        };
        setups.push(stats);
        let store_dir = served.dir.clone();
        checks_ok &= check_reopened(served, &oracle)? && writer_ok;
        last.disk_bytes =
            setup::dir_bytes(&store_dir).map_err(|e| format!("size store directory: {e}"))?;
        tail = Some(last);
    }
    let tail = tail.ok_or("no set-up ran")?;
    let built = setups.last().ok_or("no set-up ran")?;

    let mut out = Outcome {
        workload: cfg.workload.name(),
        attempted: acc.attempted,
        failed: acc.failed + warm_failed,
        checks_ok,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{parts} x (T_p^i {base} rows + {cycles} x {batch}-row batches x {} cols, one merge per batch), {} reader ops; chain files {:.2} MiB after the final checkpoint",
        scale.cols,
        acc.attempted,
        tail.disk_bytes as f64 / MIB
    ));
    out.notes.push(setups_note(&setups));
    out.notes.push(rounds_note(&rounds));
    if !cfg.trace {
        let disk_per_user = ratio(tail.disk_bytes as f64, tail.user_bytes as f64);
        out.end_to_end = end_to_end(&setups, &rounds, &acc.lat, acc.peaks, disk_per_user);
        return Ok(out);
    }
    let written = built.build_io.bytes_written + tail.written;
    out.per_layer = per_layer(&LayerInputs {
        rounds: &rounds,
        lat: &acc.lat,
        peaks: acc.peaks,
        twin: None,
        probes: &tail.probes,
        ingest: &ingest,
        read_samples_ns: &tail.read_samples_ns,
        append_samples_ns: &tail.append_samples_ns,
        write_amplification: ratio(written as f64, tail.user_bytes as f64),
        sessions_rejected: tail.rejected,
        limits: None,
        evictions: tail.evictions,
    });
    write_trace(cfg, &spans)?;
    Ok(out)
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let scale = &cfg.scale;
    let spec = match cfg.workload {
        Workload::PointWarm => ReadSpec {
            variant: Variant::PagedIndexed,
            mix: Mix::Table2,
            ops: scale.point_ops,
            serving: Serving::WARM,
            fresh_ops: false,
            twin: true,
        },
        Workload::ScanWarm => ReadSpec {
            variant: Variant::Paged,
            mix: Mix::Scan,
            ops: scale.scan_ops,
            serving: Serving::WARM,
            fresh_ops: false,
            twin: true,
        },
        Workload::ColdPressure => ReadSpec {
            variant: Variant::PagedIndexed,
            mix: Mix::Table3,
            ops: scale.cold_ops,
            serving: Serving {
                limits: Some(PoolLimits::new(scale.cold_limits.0, scale.cold_limits.1)),
                read_latency: Duration::from_micros(scale.cold_read_latency_us),
            },
            fresh_ops: true,
            twin: false,
        },
        Workload::IngestMerge => return run_ingest(cfg),
    };
    run_read(cfg, &spec)
}

/// The directory a run writes under: `$CARGO_TARGET_DIR/payg-perf`, or
/// `target/payg-perf` below the current directory.
pub fn default_data_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("payg-perf")
}
