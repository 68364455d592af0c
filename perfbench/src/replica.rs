//! `replica_follow`: a file-backed `Durability::Fsync` primary holds a
//! bulk-loaded journal, and a fresh in-process replica bootstraps from
//! it; then each step commits one single-statement write on the
//! primary, pumps the replica until it has caught up, and reads that
//! write back on the replica.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use exodus_db::{Client, Database, Durability, Replica, Response, Session, Value};
use exodus_server::{AdmissionConfig, RemoteSession, Server, TcpTransport};
use exodus_storage::Oid;

use crate::check::{Cell, Expected};
use crate::layers::{self, Delta, Reads, Sums, Wire};
use crate::report::{disk_mb, median, peak_rss_mb, user_cpu_ns, Failure, Report, Tally, WorkDir};
use crate::rng::Rng;
use crate::{Args, RESOLVE_PASSES, SETUPS};

/// Sizes of the replication workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Journal entries bulk-loaded on the primary before the replica
    /// bootstraps.
    pub base: usize,
    /// Untimed steps before the timed phase.
    pub warmup_steps: usize,
    /// Buffer-pool pages of the primary and of the replica.
    pub pool_pages: usize,
}

/// The measured scale.
pub const FULL: Scale = Scale {
    base: 10_000,
    warmup_steps: 50,
    pool_pages: 4096,
};

/// A scale small enough for the benchmark's own tests.
pub const TINY: Scale = Scale {
    base: 300,
    warmup_steps: 5,
    pool_pages: 256,
};

const DDL: &str = "define type Entry (n: int4, tag: varchar, v: int4); \
                   create { own ref Entry } Journal";

/// Built after loading: `bulk_append` does not maintain secondary
/// indexes, so an index defined first would silently miss every row.
const INDEX: &str = "define index journal_n on Journal (n); analyze Journal";

/// Position of `v` in an `Entry` tuple.
const V_POS: usize = 2;

/// The model: every entry appended so far, `n` being its index.
#[derive(Debug, Clone)]
pub struct Journal {
    /// `(tag, v)` of entry `n`.
    pub entries: Vec<(String, i64)>,
    rng: Rng,
}

impl Journal {
    /// A journal of `base` entries, all drawn from `seed`, as are the
    /// entries appended later.
    pub fn new(seed: u64, base: usize) -> Journal {
        let mut journal = Journal {
            entries: Vec::new(),
            rng: Rng::new(seed, 200),
        };
        for _ in 0..base {
            journal.draw();
        }
        journal
    }

    /// Draw the next entry; returns its `n` and the `append` statement.
    pub fn draw(&mut self) -> (i64, String) {
        let n = self.entries.len() as i64;
        let tag = format!("t{:08x}", self.rng.next_u64() as u32);
        let v = self.rng.below(1_000_000) as i64;
        let src = format!("append to Journal (n = {n}, tag = \"{tag}\", v = {v})");
        self.entries.push((tag, v));
        (n, src)
    }

    /// The tuples of the entries drawn so far, to bulk-load.
    fn rows(&self) -> Vec<Value> {
        self.entries
            .iter()
            .enumerate()
            .map(|(n, (tag, v))| {
                Value::Tuple(vec![
                    Value::Int(n as i64),
                    Value::Str(tag.clone()),
                    Value::Int(*v),
                ])
            })
            .collect()
    }

    /// Sum of `v` over the entries drawn so far.
    fn v_sum(&self) -> i64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    /// The read that fetches entry `n`, and what it must return.
    fn read(&self, n: i64) -> (String, Expected) {
        let (tag, v) = &self.entries[n as usize];
        (
            format!("retrieve (J.tag, J.v) from J in Journal where J.n = {n}"),
            Expected::exact(vec![vec![Cell::Str(tag.clone()), Cell::Int(*v)]]),
        )
    }
}

/// Commit `src` on the primary; the acknowledgment must be the append's.
fn commit(session: &mut Session, src: &str) -> Result<(), Failure> {
    match session.run(src) {
        Ok(mut r) => match r.pop() {
            Some(Response::Done(m)) if m == "appended 1 to Journal" => Ok(()),
            other => Err(Failure::Wrong(format!("append answered {other:?}"))),
        },
        Err(e) => Err(Failure::Error(e.to_string())),
    }
}

fn query(client: &mut dyn Client, src: &str, expected: &Expected) -> Result<(), Failure> {
    match client.query(src) {
        Ok(r) => expected.check(&r.rows),
        Err(e) => Err(Failure::Error(e.to_string())),
    }
}

/// A primary holding the journal, and a replica caught up with it.
struct Pair {
    primary: Arc<Database>,
    /// OIDs of the bulk-loaded entries, in model order.
    oids: Vec<Oid>,
    replica: Replica,
    /// Wall seconds the replica's bootstrap took.
    bootstrap_s: f64,
    /// The directory holding both volumes and logs.
    dir: PathBuf,
}

impl Pair {
    /// Load `journal` into a primary at `dir`, build its index, and
    /// bootstrap a fresh replica from it.
    fn build(scale: &Scale, journal: &Journal, dir: PathBuf) -> Result<Pair, String> {
        let primary = Database::builder()
            .path(dir.join("primary"))
            .durability(Durability::Fsync)
            .pool_pages(scale.pool_pages)
            .build()
            .map_err(|e| e.to_string())?;
        primary.run(DDL).map_err(|e| e.to_string())?;
        let oids = crate::scan::bulk_load(&primary, "Journal", journal.rows())?;
        primary.run(INDEX).map_err(|e| e.to_string())?;
        let replica_dir = dir.join("replica");
        std::fs::create_dir_all(&replica_dir).map_err(|e| e.to_string())?;
        let (replica, bootstrap_s) = layers::bootstrap(&primary, &replica_dir, scale.pool_pages)?;
        Ok(Pair {
            primary,
            oids,
            replica,
            bootstrap_s,
            dir,
        })
    }
}

/// Check that the replica holds as many entries as the primary, and
/// both as many as the model.
fn check_counts(
    primary: &mut Session,
    replica: &mut Session,
    journal: &Journal,
    tally: &mut Tally,
) {
    let src = "retrieve (n = count(J over J)) from J in Journal";
    let expected = Expected::exact(vec![vec![Cell::Int(journal.entries.len() as i64)]]);
    tally.record("primary_count", query(primary, src, &expected));
    tally.record("replica_count", query(replica, src, &expected));
}

/// Set the pair up `SETUPS` times, each in a fresh directory, and keep
/// the last; returns it with the median user CPU seconds of a set-up.
fn setup(scale: &Scale, journal: &Journal, work: &WorkDir) -> Result<(Pair, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<Pair> = None;
    for i in 0..SETUPS {
        // Free the previous pair first, the replica before its primary.
        if let Some(pair) = kept.take() {
            let Pair {
                primary,
                replica,
                dir,
                ..
            } = pair;
            drop(replica);
            drop(primary);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.sub(&format!("pair{i}")).map_err(|e| e.to_string())?;
        let cpu = user_cpu_ns();
        kept = Some(Pair::build(scale, journal, dir)?);
        times.push((user_cpu_ns() - cpu) as f64 / 1e9);
    }
    Ok((kept.expect("SETUPS > 0"), median(&mut times)))
}

/// One step: commit an entry on the primary, pump the replica until it
/// has caught up, and read the entry back on the replica.
fn step(
    journal: &mut Journal,
    writer: &mut Session,
    replica: &mut Replica,
    reader: &mut Session,
    tally: &mut Tally,
) {
    let (n, src) = journal.draw();
    let written = commit(writer, &src);
    let ok = written.is_ok();
    tally.record("append", written);
    if !ok {
        return;
    }
    let (read, expected) = journal.read(n);
    let seen = replica
        .pump_until_caught_up()
        .map_err(|e| Failure::Error(e.to_string()))
        .and_then(|()| query(reader, &read, &expected));
    tally.record("replica_read", seen);
}

/// The untraced run: `setup_s` (load the primary, build its index,
/// bootstrap a replica), `round_user_cpu_ms` (the process's user CPU time
/// per step), `disk_mb` and `peak_rss_mb`. Set-up and steps are timed in
/// CPU time, not wall time: both wait for `fsync`s, and their wall time
/// moved by up to 2.5 times with the host (README.md, "Left out").
pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let mut journal = Journal::new(args.seed, scale.base);
    let work = WorkDir::new("replica_follow").map_err(|e| e.to_string())?;
    let (mut pair, setup_s) = setup(scale, &journal, &work)?;
    let mut report = Report::default();
    let mut writer = pair.primary.session();
    let mut reader = pair.replica.database().session();
    check_counts(&mut writer, &mut reader, &journal, &mut report.tally);

    let tally = &mut report.tally;
    for _ in 0..scale.warmup_steps {
        step(
            &mut journal,
            &mut writer,
            &mut pair.replica,
            &mut reader,
            tally,
        );
    }
    // Measured after a fixed amount of work, so the figure depends on
    // what was logged and not on how fast.
    let disk = disk_mb(&pair.dir);
    let cpu = user_cpu_ns();
    let deadline = Instant::now() + args.seconds;
    let mut steps = 0u64;
    while steps == 0 || Instant::now() < deadline {
        step(
            &mut journal,
            &mut writer,
            &mut pair.replica,
            &mut reader,
            tally,
        );
        steps += 1;
    }
    let round_user_cpu_ms = (user_cpu_ns() - cpu) as f64 / 1e6 / steps as f64;
    check_counts(&mut writer, &mut reader, &journal, tally);

    report.put("setup_s", setup_s, "s");
    report.put("round_user_cpu_ms", round_user_cpu_ms, "ms");
    report.put("disk_mb", disk, "MB");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    drop(reader);
    drop(writer);
    drop(pair);
    Ok(report)
}

/// The traced run. The set-up's bootstrap and member resolution over
/// the loaded entries are timed first. Then, for half of `--seconds`,
/// the untraced run's steps repeat with registry snapshots around the
/// commit and the replica read (`trace.round_user_cpu_ms`, and the deltas);
/// for the other half each step's read is also replayed layer by layer
/// on the replica and sent over EXOD/1 to a server on the primary.
pub fn run_traced(args: &Args, scale: &Scale) -> Result<Report, String> {
    let mut journal = Journal::new(args.seed, scale.base);
    let work = WorkDir::new("replica_follow_traced").map_err(|e| e.to_string())?;
    let dir = work.sub("pair").map_err(|e| e.to_string())?;
    let mut pair = Pair::build(scale, &journal, dir)?;
    let mut report = Report::default();
    layers::put_replay(&mut report, &pair.replica, pair.bootstrap_s)?;
    layers::resolve(
        &pair.primary,
        &pair.oids,
        V_POS,
        journal.v_sum() as f64,
        RESOLVE_PASSES,
        &mut report,
    );
    let primary = pair.primary.clone();
    let replica_db = pair.replica.database();
    let mut writer = primary.session();
    let mut reader = replica_db.session();
    let tally = &mut report.tally;
    check_counts(&mut writer, &mut reader, &journal, tally);
    for _ in 0..scale.warmup_steps {
        step(
            &mut journal,
            &mut writer,
            &mut pair.replica,
            &mut reader,
            tally,
        );
    }
    let mut reads = Reads::new(1);
    let (read, expected) = journal.read(0);
    // Explained on the primary: a replica session runs only reads.
    tally.record(
        "read_explain",
        reads.explain(0, &mut writer, &read, &expected),
    );

    let half = args.seconds / 2;
    let mut mix = Sums::default();
    let cpu = user_cpu_ns();
    let deadline = Instant::now() + half;
    let mut steps = 0u64;
    while steps == 0 || Instant::now() < deadline {
        let (n, src) = journal.draw();
        let before = layers::snapshot(&primary)?;
        let written = commit(&mut writer, &src);
        let after = layers::snapshot(&primary)?;
        layers::add_stmts(
            &mut mix,
            &Delta {
                before: &before,
                after: &after,
            },
            2,
        );
        let ok = written.is_ok();
        tally.record("append", written);
        steps += 1;
        if !ok {
            continue;
        }
        let (read, expected) = journal.read(n);
        let seen = match pair.replica.pump_until_caught_up() {
            Ok(()) => reads.session(0, &replica_db, &mut reader, &read, &expected),
            Err(e) => Err(Failure::Error(e.to_string())),
        };
        tally.record("replica_read", seen);
    }
    let trace_round_user_cpu_ms = (user_cpu_ns() - cpu) as f64 / 1e6 / steps as f64;

    let transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut server = Server::spawn(primary.clone(), transport, AdmissionConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = RemoteSession::connect(server.addr(), "admin").map_err(|e| e.to_string())?;
    let mut wire = Wire::default();
    let deadline = Instant::now() + half;
    let mut passes = 0u64;
    while passes == 0 || Instant::now() < deadline {
        let n = journal.entries.len() as i64;
        step(
            &mut journal,
            &mut writer,
            &mut pair.replica,
            &mut reader,
            tally,
        );
        let (read, expected) = journal.read(n);
        tally.record(
            "read_layers",
            reads.replay(0, &replica_db, &[], &read, &expected),
        );
        tally.record(
            "wire_read",
            wire.read(&mut client, &primary, &read, &expected),
        );
        passes += 1;
    }
    drop(client);
    server.shutdown();
    check_counts(&mut writer, &mut reader, &journal, tally);

    reads.put(&mut report);
    layers::put_mix_metrics(&mut report, &mix);
    wire.put(&mut report);
    report.put("trace.round_user_cpu_ms", trace_round_user_cpu_ms, "ms");
    drop(reader);
    drop(writer);
    drop(replica_db);
    drop(primary);
    drop(pair);
    Ok(report)
}
