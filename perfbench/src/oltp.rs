//! `oltp_wire`: short statements from one closed-loop `RemoteSession`
//! per core, over EXOD/1 to an in-process `Server` on a file-backed
//! `Durability::Fsync` volume several times the buffer pool. Reads are
//! indexed point lookups; writes are one-row `replace`, `append` and
//! `delete`. Each connection owns a disjoint key range, so no
//! interleaving can change the answer a read expects.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use exodus_db::{Client, Database, Durability, Response, Value};
use exodus_server::{AdmissionConfig, RemoteSession, Server, TcpTransport};
use exodus_storage::Oid;

use crate::check::{Cell, Expected};
use crate::layers::{self, Delta, Reads, Sums, Wire};
use crate::report::{disk_mb, median, peak_rss_mb, user_cpu_ns, Failure, Report, Tally, WorkDir};
use crate::rng::Rng;
use crate::{Args, RESOLVE_PASSES, SETUPS};

/// Sizes of the accounts data.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Accounts loaded, split evenly across the connections' key ranges.
    pub rows: usize,
    /// Length of each account's `pad` string, in bytes.
    pub pad: usize,
    /// Buffer-pool pages (8 KiB each); the data is several times this.
    pub pool_pages: usize,
    /// Untimed rounds each connection runs before the timed phase.
    pub warmup_rounds: usize,
}

/// The measured scale: about 8 MB of volume against a 2 MiB pool.
pub const FULL: Scale = Scale {
    rows: 20_000,
    pad: 200,
    pool_pages: 256,
    warmup_rounds: 25,
};

/// A scale small enough for the benchmark's own tests.
pub const TINY: Scale = Scale {
    rows: 600,
    pad: 40,
    pool_pages: 64,
    warmup_rounds: 2,
};

const DDL: &str = "define type Account (key: int4, bal: int4, pad: varchar); \
                   create { own ref Account } Accounts";

/// Built after loading: `bulk_append` does not maintain secondary
/// indexes, so an index defined first would silently miss every row.
const INDEX: &str = "define index accounts_key on Accounts (key); analyze Accounts";

/// Update statements name the range variable `A`.
const RANGE: &str = "range of A is Accounts";

/// Keys of connection `c` are `c * KEY_SPAN + i`.
const KEY_SPAN: i64 = 10_000_000;

/// Balances are drawn from `0..MAX_BAL`.
const MAX_BAL: u64 = 1_000_000;

/// Position of `bal` in an `Account` tuple.
const BAL_POS: usize = 1;

/// Statement kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Indexed point `retrieve`.
    Read,
    /// One-row `replace`.
    Replace,
    /// One-row `append`.
    Append,
    /// One-row `delete`.
    Delete,
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Replace => "replace",
            Op::Append => "append",
            Op::Delete => "delete",
        }
    }
}

/// One connection's round: 17 reads, a replace, an append and a
/// delete, so the table neither grows nor shrinks.
pub const ROUND: [Op; 20] = [
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Replace,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Append,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Read,
    Op::Delete,
];

/// One statement, and what the model expects of it.
#[derive(Debug)]
pub struct Step {
    op: Op,
    src: String,
    /// Index into the live keys the statement touches (reads, replaces
    /// and deletes).
    idx: usize,
    key: i64,
    bal: i64,
}

/// One connection's share of the model: its live keys and balances.
#[derive(Debug, Clone)]
pub struct Keys {
    conn: i64,
    /// `(key, balance)` of every account the connection owns.
    pub live: Vec<(i64, i64)>,
    next: i64,
    rng: Rng,
    pad: String,
}

impl Keys {
    /// Connection `conn`'s initial `count` accounts for `seed`.
    pub fn new(conn: usize, count: usize, pad: usize, seed: u64) -> Keys {
        let mut rng = Rng::new(seed, 100 + conn as u64);
        let conn = conn as i64;
        let live = (0..count as i64)
            .map(|i| (conn * KEY_SPAN + i, rng.below(MAX_BAL) as i64))
            .collect();
        Keys {
            conn,
            live,
            next: count as i64,
            rng,
            pad: "x".repeat(pad),
        }
    }

    fn row(&self, key: i64, bal: i64) -> Value {
        Value::Tuple(vec![
            Value::Int(key),
            Value::Int(bal),
            Value::Str(self.pad.clone()),
        ])
    }

    /// The tuples to load for these accounts.
    pub fn rows(&self) -> Vec<Value> {
        self.live.iter().map(|&(k, b)| self.row(k, b)).collect()
    }

    /// The read of `key`, and the balance the model expects it to return.
    fn expect_read(step: &Step) -> Expected {
        Expected::exact(vec![vec![Cell::Int(step.bal)]])
    }

    /// Draw the next statement of kind `op`. Reads and replaces pick
    /// keys with skew (hot keys come first); deletes pick uniformly.
    pub fn plan(&mut self, op: Op) -> Step {
        let n = self.live.len();
        let (idx, key, bal) = match op {
            Op::Read => {
                let i = self.rng.skewed(n);
                (i, self.live[i].0, self.live[i].1)
            }
            Op::Replace => {
                let i = self.rng.skewed(n);
                (i, self.live[i].0, self.rng.below(MAX_BAL) as i64)
            }
            Op::Append => {
                let key = self.conn * KEY_SPAN + self.next;
                self.next += 1;
                (n, key, self.rng.below(MAX_BAL) as i64)
            }
            Op::Delete => {
                let i = self.rng.below(n as u64) as usize;
                (i, self.live[i].0, 0)
            }
        };
        let src = match op {
            Op::Read => format!("retrieve (A.bal) from A in Accounts where A.key = {key}"),
            Op::Replace => format!("replace A (bal = {bal}) where A.key = {key}"),
            Op::Append => format!(
                "append to Accounts (key = {key}, bal = {bal}, pad = \"{}\")",
                self.pad
            ),
            Op::Delete => format!("delete A where A.key = {key}"),
        };
        Step {
            op,
            src,
            idx,
            key,
            bal,
        }
    }

    /// Apply an acknowledged write to the model.
    fn apply(&mut self, step: &Step) {
        match step.op {
            Op::Read => {}
            Op::Replace => self.live[step.idx].1 = step.bal,
            Op::Append => self.live.push((step.key, step.bal)),
            Op::Delete => {
                self.live.swap_remove(step.idx);
            }
        }
    }
}

/// Run `step` on `client` and check the result against the model,
/// applying it to the model when acknowledged. Returns the
/// client-observed time in nanoseconds and the outcome.
fn execute(client: &mut dyn Client, keys: &mut Keys, step: &Step) -> (u64, Result<(), Failure>) {
    let t = Instant::now();
    let result = client.run(&step.src);
    let ns = t.elapsed().as_nanos() as u64;
    let outcome = match (step.op, result) {
        (_, Err(e)) => Err(Failure::Error(e.to_string())),
        (Op::Read, Ok(mut responses)) => match responses.pop() {
            Some(Response::Rows(r)) => Keys::expect_read(step).check(&r.rows),
            other => Err(Failure::Wrong(format!("read answered {other:?}"))),
        },
        (op, Ok(mut responses)) => {
            let ack = match op {
                Op::Replace => "replaced 1",
                Op::Append => "appended 1 to Accounts",
                _ => "deleted 1",
            };
            match responses.pop() {
                Some(Response::Done(m)) if m == ack => Ok(()),
                other => Err(Failure::Wrong(format!("expected '{ack}', got {other:?}"))),
            }
        }
    };
    if outcome.is_ok() {
        keys.apply(step);
    }
    (ns, outcome)
}

/// A loaded volume, the OIDs of the loaded accounts, and the server in
/// front of the volume.
struct Setup {
    db: Arc<Database>,
    oids: Vec<Oid>,
    server: Server,
}

fn build(scale: &Scale, keys: &[Keys], dir: &Path) -> Result<Setup, String> {
    let db = Database::builder()
        .path(dir.join("volume"))
        .durability(Durability::Fsync)
        .pool_pages(scale.pool_pages)
        .build()
        .map_err(|e| e.to_string())?;
    db.run(DDL).map_err(|e| e.to_string())?;
    let rows = keys.iter().flat_map(Keys::rows).collect();
    let oids = crate::scan::bulk_load(&db, "Accounts", rows)?;
    db.run(INDEX).map_err(|e| e.to_string())?;
    let transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let server = Server::spawn(db.clone(), transport, AdmissionConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(Setup { db, oids, server })
}

/// Set up `SETUPS` times, each on a fresh volume, and keep the last;
/// returns it with the median user CPU seconds of a set-up.
fn setup(scale: &Scale, keys: &[Keys], work: &WorkDir) -> Result<(Setup, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<Setup> = None;
    for i in 0..SETUPS {
        let dir = work.sub(&format!("volume{i}")).map_err(|e| e.to_string())?;
        let cpu = user_cpu_ns();
        kept = Some(build(scale, keys, &dir)?);
        times.push((user_cpu_ns() - cpu) as f64 / 1e9);
        if i + 1 < SETUPS {
            if let Some(mut s) = kept.take() {
                s.server.shutdown();
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok((kept.expect("SETUPS > 0"), median(&mut times)))
}

fn connect(server: &Server) -> Result<RemoteSession, String> {
    let mut client = RemoteSession::connect(server.addr(), "admin").map_err(|e| e.to_string())?;
    client.run(RANGE).map_err(|e| e.to_string())?;
    Ok(client)
}

/// Check the whole table against the model: its count and its sum.
fn audit(client: &mut dyn Client, keys: &[Keys], tally: &mut Tally) {
    let count: usize = keys.iter().map(|k| k.live.len()).sum();
    let sum: i64 = keys.iter().flat_map(|k| &k.live).map(|&(_, b)| b).sum();
    let outcome = match client
        .query("retrieve (n = count(A over A), s = sum(A.bal over A)) from A in Accounts")
    {
        Ok(r) => {
            Expected::exact(vec![vec![Cell::Int(count as i64), Cell::Int(sum)]]).check(&r.rows)
        }
        Err(e) => Err(Failure::Error(e.to_string())),
    };
    tally.record("audit", outcome);
}

/// What the connections did in a timed phase.
#[derive(Default)]
struct Measured {
    tally: Tally,
    /// Whole rounds completed, over all connections.
    rounds: u64,
    /// The process's user CPU time over the phase, in nanoseconds.
    user_ns: u64,
}

impl Measured {
    /// The process's user CPU time per round, in milliseconds.
    fn round_user_cpu_ms(&self) -> f64 {
        self.user_ns as f64 / 1e6 / self.rounds as f64
    }
}

/// Run the mix on one closed-loop wire connection per key range:
/// `warmup_rounds` untimed rounds each, then `between` while every
/// connection waits, then whole rounds until `seconds` have passed.
/// With `traced`, every timed statement is bracketed by two registry
/// snapshots of that database, as the traced run's are, so the CPU time
/// includes what tracing costs. Returns the keys and what was measured.
fn drive(
    server: &Server,
    keys: Vec<Keys>,
    warmup_rounds: usize,
    seconds: Duration,
    traced: Option<&Database>,
    between: impl FnOnce(),
) -> Result<(Vec<Keys>, Measured), String> {
    let clients = keys
        .iter()
        .map(|_| connect(server))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(keys.len() + 1);
    let (results, cpu): (Vec<(Keys, Measured)>, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(keys)
            .map(|(mut client, mut keys)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut m = Measured::default();
                    for _ in 0..warmup_rounds {
                        for op in ROUND {
                            let step = keys.plan(op);
                            let (_, outcome) = execute(&mut client, &mut keys, &step);
                            m.tally.record(op.label(), outcome);
                        }
                    }
                    barrier.wait(); // warm-up done
                    barrier.wait(); // go
                    let deadline = Instant::now() + seconds;
                    loop {
                        for op in ROUND {
                            let step = keys.plan(op);
                            let before = traced.map(layers::snapshot);
                            let (_, outcome) = execute(&mut client, &mut keys, &step);
                            let after = traced.map(layers::snapshot);
                            drop((before, after));
                            m.tally.record(op.label(), outcome);
                        }
                        m.rounds += 1;
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (keys, m)
                })
            })
            .collect();
        barrier.wait();
        between();
        let cpu = user_cpu_ns();
        barrier.wait();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (results, user_cpu_ns() - cpu)
    });
    let mut keys = Vec::new();
    let mut all = Measured {
        user_ns: cpu,
        ..Measured::default()
    };
    for (k, m) in results {
        all.tally.merge(&m.tally);
        all.rounds += m.rounds;
        keys.push(k);
    }
    Ok((keys, all))
}

/// Connection `c`'s keys, for `conns` connections sharing the rows.
fn key_ranges(scale: &Scale, conns: usize, seed: u64) -> Vec<Keys> {
    (0..conns)
        .map(|c| Keys::new(c, scale.rows / conns, scale.pad, seed))
        .collect()
}

/// The untraced run: `setup_s`, `round_user_cpu_ms` (the process's user
/// CPU time, client and server threads together, per round of 20
/// statements), `disk_mb` and `peak_rss_mb`, with every result checked.
/// Wall-time latencies and the statement rate are not reported: between
/// runs of one commit they moved by more than any bound allows, with the
/// host's CPU steal (README.md, "Left out").
pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let keys = key_ranges(scale, crate::cores(), args.seed);
    let work = WorkDir::new("oltp_wire").map_err(|e| e.to_string())?;
    let (setup, setup_s) = setup(scale, &keys, &work)?;
    let mut disk = 0.0;
    let (keys, measured) = drive(
        &setup.server,
        keys,
        scale.warmup_rounds,
        args.seconds,
        None,
        // Measured after a fixed amount of work, so the figure depends
        // on what was written and not on how fast.
        || disk = disk_mb(work.path()),
    )?;
    let mut report = Report::default();
    report.tally.merge(&measured.tally);
    let mut auditor = connect(&setup.server)?;
    audit(&mut auditor, &keys, &mut report.tally);
    drop(auditor);

    report.put("setup_s", setup_s, "s");
    report.put("round_user_cpu_ms", measured.round_user_cpu_ms(), "ms");
    report.put("disk_mb", disk, "MB");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    let Setup { db, mut server, .. } = setup;
    server.shutdown();
    drop(db);
    Ok(report)
}

/// The traced run. Member resolution over the loaded accounts and a
/// replica's bootstrap are timed first. Then, for half of `--seconds`,
/// one wire connection per core runs the mix as in the untraced run but
/// with registry snapshots around every statement (`trace.round_user_cpu_ms`).
/// For the other half, for attribution, one wire connection runs the mix
/// alone with snapshots around every statement, so each delta belongs to
/// one statement; an in-process session runs the same mix on a second
/// key range; and one read per round is replayed layer by layer.
pub fn run_traced(args: &Args, scale: &Scale) -> Result<Report, String> {
    let cores = crate::cores();
    let mut keys = key_ranges(scale, cores.max(2), args.seed);
    let work = WorkDir::new("oltp_wire_traced").map_err(|e| e.to_string())?;
    let dir = work.sub("volume").map_err(|e| e.to_string())?;
    let setup = build(scale, &keys, &dir)?;
    let db = &setup.db;
    let mut report = Report::default();
    let bal_sum: i64 = keys.iter().flat_map(|k| &k.live).map(|&(_, b)| b).sum();
    layers::resolve(
        db,
        &setup.oids,
        BAL_POS,
        bal_sum as f64,
        RESOLVE_PASSES,
        &mut report,
    );
    let replica_dir = work.sub("replica").map_err(|e| e.to_string())?;
    let (replica, secs) = layers::bootstrap(db, &replica_dir, scale.pool_pages)?;
    layers::put_replay(&mut report, &replica, secs)?;
    drop(replica);

    let spare = keys.split_off(cores);
    let half = args.seconds / 2;
    let (mut keys, traced) = drive(
        &setup.server,
        keys,
        scale.warmup_rounds,
        half,
        Some(db.as_ref()),
        || {},
    )?;
    keys.extend(spare);
    report.tally.merge(&traced.tally);

    let mut client = connect(&setup.server)?;
    let mut session = db.session();
    session.run(RANGE).map_err(|e| e.to_string())?;
    let tally = &mut report.tally;
    let (wire_keys, local_keys) = keys.split_at_mut(1);
    let (wire_keys, local_keys) = (&mut wire_keys[0], &mut local_keys[0]);

    let mut reads = Reads::new(1);
    let mut mix = Sums::default();
    let mut wire = Wire::default();
    let step = local_keys.plan(Op::Read);
    tally.record(
        "read_explain",
        reads.explain(0, &mut session, &step.src, &Keys::expect_read(&step)),
    );
    let deadline = Instant::now() + half;
    let mut rounds = 0u64;
    while rounds == 0 || Instant::now() < deadline {
        for op in ROUND {
            let step = wire_keys.plan(op);
            let before = layers::snapshot(db)?;
            let (ns, outcome) = execute(&mut client, wire_keys, &step);
            let after = layers::snapshot(db)?;
            tally.record(op.label(), outcome);
            let d = Delta {
                before: &before,
                after: &after,
            };
            layers::add_stmts(&mut mix, &d, 1);
            if op == Op::Read {
                wire.record(ns, &d);
            }
        }
        for (i, op) in ROUND.iter().enumerate() {
            let step = local_keys.plan(*op);
            if *op == Op::Read {
                let expected = Keys::expect_read(&step);
                tally.record(
                    "read",
                    reads.session(0, db, &mut session, &step.src, &expected),
                );
            } else {
                let (_, outcome) = execute(&mut session, local_keys, &step);
                tally.record(op.label(), outcome);
            }
            // One layer replay per round, of the round's first read.
            if i == 0 {
                let step = local_keys.plan(Op::Read);
                let expected = Keys::expect_read(&step);
                tally.record(
                    "read_layers",
                    reads.replay(0, db, &[], &step.src, &expected),
                );
            }
        }
        rounds += 1;
    }
    audit(&mut client, &keys, tally);

    reads.put(&mut report);
    layers::put_mix_metrics(&mut report, &mix);
    wire.put(&mut report);
    report.put("trace.round_user_cpu_ms", traced.round_user_cpu_ms(), "ms");
    drop(client);
    drop(session);
    let Setup { db, mut server, .. } = setup;
    server.shutdown();
    drop(db);
    Ok(report)
}
