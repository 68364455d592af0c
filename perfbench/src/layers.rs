//! The traced run's instruments, all on the benchmark's side of the
//! engine's public interface: a statement replayed one layer call at a
//! time, deltas of the metrics registry's counters, member resolution
//! called on the object store, and a replica's bootstrap. Every workload
//! puts every per-layer metric through these, so each metric means the
//! same on each workload.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use excess_algebra::{plan_retrieve_dop, PlannerConfig};
use excess_exec::{prepare, run_plan, Env, ExecCtx, QueryResult};
use excess_lang::{parse_statement, OperatorTable, Stmt};
use excess_sema::resolve::Resolver;
use excess_sema::{RangeEnv, SemaCtx};
use exodus_db::{
    CatalogView, Client, Database, MetricsSnapshot, QueryProfile, Replica, ReplicaOptions,
    SampleValue, Session, Value,
};
use exodus_storage::Oid;
use extra_model::ModelError;

use crate::check::Expected;
use crate::report::{median, Failure, Report};

/// Wall time of each layer call for one retrieve, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    /// `excess_lang::parse_statement`.
    pub parse: u64,
    /// `Resolver::check_retrieve`.
    pub check: u64,
    /// `excess_algebra::plan_retrieve_dop`.
    pub plan: u64,
    /// `excess_exec::prepare`.
    pub prepare: u64,
    /// `excess_exec::run_plan`.
    pub run: u64,
}

impl LayerNs {
    /// The five calls together.
    pub fn total(&self) -> u64 {
        self.parse + self.check + self.plan + self.prepare + self.run
    }
}

fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns = t.elapsed().as_nanos() as u64;
    out
}

/// Run retrieve `src` through the layers the way a session's
/// autocommit read does (snapshot, catalog read lock, the database's
/// batch size and degree of parallelism, the default planner rules),
/// timing each call. Authorization is skipped: it is not a layer.
/// `ranges` are the session's `range of` declarations, which
/// aggregates may name.
pub fn replay(
    db: &Arc<Database>,
    ranges: &[&str],
    src: &str,
) -> Result<(QueryResult, LayerNs), String> {
    let mut ns = LayerNs::default();
    let ops = OperatorTable::new();
    let mut local = RangeEnv::default();
    for decl in ranges {
        match parse_statement(decl, &ops).map_err(|e| e.to_string())? {
            Stmt::RangeOf {
                var,
                universal,
                path,
            } => local.declare(&var, universal, path),
            other => return Err(format!("not a range declaration: {other}")),
        }
    }
    let stmt = timed(&mut ns.parse, || parse_statement(src, &ops)).map_err(|e| e.to_string())?;
    let snap = db.store().storage().begin_snapshot();
    let cat = db.read_catalog();
    let view = CatalogView {
        cat: &cat,
        store: db.store(),
        db: Some(db),
    };
    let ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    if let Stmt::Retrieve { from, .. } = &stmt {
        for fb in from {
            local.declare(&fb.var, false, fb.path.clone());
        }
    }
    let resolver = Resolver::new(&ctx, &local);
    let checked =
        timed(&mut ns.check, || resolver.check_retrieve(&stmt)).map_err(|e| e.to_string())?;
    let plan = timed(&mut ns.plan, || {
        plan_retrieve_dop(
            &stmt,
            &checked,
            &ctx,
            PlannerConfig::default(),
            db.worker_threads(),
        )
    })
    .map_err(|e| e.to_string())?;
    let node =
        timed(&mut ns.prepare, || prepare(&plan, &ctx, &local)).map_err(|e| e.to_string())?;
    let exec = ExecCtx::new(db.store(), &cat.types, &cat.adts, &view)
        .with_batch_size(db.batch_size())
        .with_workers(db.worker_threads())
        .with_snapshot(snap.ts());
    let env = Env::new();
    let result = timed(&mut ns.run, || run_plan(&node, &exec, &env)).map_err(|e| e.to_string())?;
    Ok((result, ns))
}

/// A registry snapshot of `db` (metrics are on by default).
pub fn snapshot(db: &Database) -> Result<MetricsSnapshot, String> {
    db.metrics_snapshot()
        .ok_or_else(|| "the database was built without metrics".to_string())
}

/// Counter deltas between two snapshots, and histogram sums and counts.
pub struct Delta<'a> {
    /// Earlier snapshot.
    pub before: &'a MetricsSnapshot,
    /// Later snapshot.
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    /// How far counter `name` moved (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    /// `(sum, count)` added to histogram `name` (zeros if absent).
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        let get = |s: &MetricsSnapshot| match s.get(name).map(|m| &m.value) {
            Some(SampleValue::Histogram { sum, count, .. }) => (*sum, *count),
            _ => (0, 0),
        };
        let (s0, c0) = get(self.before);
        let (s1, c1) = get(self.after);
        (s1.saturating_sub(s0), c1.saturating_sub(c0))
    }

    /// Buffer-pool pins: hits plus misses.
    pub fn pins(&self) -> u64 {
        self.counter("storage_pool_hits_total") + self.counter("storage_pool_misses_total")
    }
}

/// Running sums of per-statement registry deltas for one statement class.
#[derive(Debug, Default, Clone)]
pub struct Sums {
    /// Statements folded in.
    pub stmts: u64,
    /// Named counter and histogram-sum totals.
    pub values: std::collections::BTreeMap<&'static str, u64>,
}

impl Sums {
    /// Add `v` under `key`.
    pub fn add(&mut self, key: &'static str, v: u64) {
        *self.values.entry(key).or_insert(0) += v;
    }

    /// Total under `key`.
    pub fn get(&self, key: &str) -> u64 {
        self.values.get(key).copied().unwrap_or(0)
    }

    /// Total under `key` per statement.
    pub fn per_stmt(&self, key: &str) -> f64 {
        self.get(key) as f64 / self.stmts.max(1) as f64
    }

    /// `num / den` of two totals (NaN when `den` is 0).
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        self.get(num) as f64 / self.get(den) as f64
    }
}

/// Fold the registry delta of `stmts` statements into `mix`, the totals
/// over the statements of a workload's mix: WAL bytes and records, and
/// fsyncs.
pub fn add_stmts(mix: &mut Sums, d: &Delta, stmts: u64) {
    let (_, fsyncs) = d.histogram("storage_wal_fsync_ns");
    mix.stmts += stmts;
    mix.add("wal_bytes", d.counter("storage_wal_append_bytes_total"));
    mix.add("wal_records", d.counter("storage_wal_appends_total"));
    mix.add("fsyncs", fsyncs);
}

/// Put the three `storage.*` log metrics of sums built by [`add_stmts`].
pub fn put_mix_metrics(report: &mut Report, mix: &Sums) {
    report.put("storage.wal_bytes_per_stmt", mix.per_stmt("wal_bytes"), "B");
    report.put(
        "storage.wal_records_per_stmt",
        mix.per_stmt("wal_records"),
        "count",
    );
    report.put("storage.fsyncs_per_stmt", mix.per_stmt("fsyncs"), "count");
}

/// Rows the plan's scan operators produced, from an `explain analyze`
/// profile: the rows the executor had to visit.
fn scanned_rows(profile: &QueryProfile) -> u64 {
    profile
        .nodes
        .iter()
        .filter(|n| {
            let op = n.label.split_whitespace().next().unwrap_or("");
            op.ends_with("Scan") || op == "Unnest"
        })
        .map(|n| n.rows_out)
        .sum()
}

/// What the traced run learns about a workload's reads. Read `i` is the
/// workload's `i`-th distinct read statement; a workload whose reads
/// differ only in their key has one.
#[derive(Debug)]
pub struct Reads {
    /// Per read: the layer-call times of each replay.
    layer: Vec<Vec<LayerNs>>,
    /// Per read: the wall time of each run through a session, in ns.
    session_ns: Vec<Vec<f64>>,
    /// Per read: the rows its scans visit.
    rows: Vec<u64>,
    /// Registry deltas summed over the session runs.
    sums: Sums,
}

impl Reads {
    /// Room for `n` distinct reads.
    pub fn new(n: usize) -> Reads {
        Reads {
            layer: vec![Vec::new(); n],
            session_ns: vec![Vec::new(); n],
            rows: vec![0; n],
            sums: Sums::default(),
        }
    }

    /// Run read `i` through `session` on `db` between two registry
    /// snapshots, and check its result.
    pub fn session(
        &mut self,
        i: usize,
        db: &Database,
        session: &mut Session,
        src: &str,
        expected: &Expected,
    ) -> Result<(), Failure> {
        let before = snapshot(db).map_err(Failure::Error)?;
        let t = Instant::now();
        let result = session.query(src);
        let ns = t.elapsed().as_nanos() as f64;
        let after = snapshot(db).map_err(Failure::Error)?;
        let d = Delta {
            before: &before,
            after: &after,
        };
        self.session_ns[i].push(ns);
        let s = &mut self.sums;
        s.stmts += 1;
        s.add("pins", d.pins());
        s.add("misses", d.counter("storage_pool_misses_total"));
        s.add("evictions", d.counter("storage_pool_evictions_total"));
        s.add("deref_hits", d.counter("exec_deref_cache_hits_total"));
        s.add("deref_misses", d.counter("exec_deref_cache_misses_total"));
        s.add("deref_dropped", d.counter("exec_deref_cache_full_total"));
        match result {
            Ok(r) => expected.check(&r.rows),
            Err(e) => Err(Failure::Error(e.to_string())),
        }
    }

    /// Replay read `i` on `db` one layer call at a time (see [`replay`]),
    /// and check its result.
    pub fn replay(
        &mut self,
        i: usize,
        db: &Arc<Database>,
        ranges: &[&str],
        src: &str,
        expected: &Expected,
    ) -> Result<(), Failure> {
        match replay(db, ranges, src) {
            Ok((result, ns)) => {
                self.layer[i].push(ns);
                expected.check(&result.rows)
            }
            Err(e) => Err(Failure::Error(e)),
        }
    }

    /// Count the rows read `i`'s scans visit, from one `explain analyze`
    /// through `session`; its result must have as many rows as expected.
    pub fn explain(
        &mut self,
        i: usize,
        session: &mut Session,
        src: &str,
        expected: &Expected,
    ) -> Result<(), Failure> {
        match session.explain_analyze(src) {
            Ok(e) => match e.profile {
                Some(p) if p.result_rows as usize == expected.len() => {
                    self.rows[i] = scanned_rows(&p);
                    Ok(())
                }
                Some(p) => Err(Failure::Wrong(format!(
                    "profile counted {} result rows, expected {}",
                    p.result_rows,
                    expected.len()
                ))),
                None => Err(Failure::Error("explain analyze gave no profile".into())),
            },
            Err(e) => Err(Failure::Error(e.to_string())),
        }
    }

    /// Put the `excess`, `sema`, `algebra`, `exec`, `exodus` and the
    /// pool's `storage` metrics: per read, the median of its samples,
    /// then the mean over the distinct reads.
    pub fn put(&self, report: &mut Report) {
        let med = |f: &dyn Fn(&LayerNs) -> u64| -> f64 {
            let per_read: Vec<f64> = self
                .layer
                .iter()
                .map(|s| median(&mut s.iter().map(|x| f(x) as f64).collect::<Vec<_>>()))
                .collect();
            per_read.iter().sum::<f64>() / per_read.len() as f64
        };
        let s = &self.sums;
        let rows = self.rows.iter().sum::<u64>() as f64 / self.rows.len() as f64;
        let run = med(&|x| x.run);
        report.put("excess.parse_us", med(&|x| x.parse) / 1e3, "us");
        report.put("sema.check_us", med(&|x| x.check) / 1e3, "us");
        report.put("algebra.plan_us", med(&|x| x.plan) / 1e3, "us");
        report.put("exec.prepare_us", med(&|x| x.prepare) / 1e3, "us");
        report.put("exec.run_us", run / 1e3, "us");
        report.put("exec.rows_per_stmt", rows, "count");
        report.put("exec.ns_per_row", run / rows, "ns");
        report.put(
            "exec.deref_lookups_per_stmt",
            (s.get("deref_hits") + s.get("deref_misses")) as f64 / s.stmts.max(1) as f64,
            "count",
        );
        report.put(
            "exec.deref_misses_per_stmt",
            s.per_stmt("deref_misses"),
            "count",
        );
        report.put(
            "exec.deref_dropped_per_stmt",
            s.per_stmt("deref_dropped"),
            "count",
        );
        report.put("storage.pins_per_stmt", s.per_stmt("pins"), "count");
        report.put("storage.pins_per_row", s.per_stmt("pins") / rows, "count");
        report.put(
            "storage.pool_miss_ratio",
            s.ratio("misses", "pins"),
            "ratio",
        );
        report.put("storage.pool_pins", s.get("pins") as f64, "count");
        report.put(
            "storage.evictions_per_stmt",
            s.per_stmt("evictions"),
            "count",
        );
        let session: Vec<f64> = self
            .session_ns
            .iter()
            .map(|v| median(&mut v.clone()))
            .collect();
        let session_us = session.iter().sum::<f64>() / session.len() as f64 / 1e3;
        report.put("exodus.session_us", session_us, "us");
        report.put(
            "exodus.pipeline_overhead_us",
            session_us - med(&|x| x.total()) / 1e3,
            "us",
        );
    }
}

/// Reads sent over EXOD/1: the client-observed time beside the
/// server's own `server_statement_ns`, and the frames exchanged.
#[derive(Debug, Default)]
pub struct Wire {
    gap_ns: Vec<f64>,
    frames: u64,
    stmts: u64,
}

impl Wire {
    /// Fold in one read that took `client_ns` at the client, given the
    /// serving database's registry delta around it.
    pub fn record(&mut self, client_ns: u64, d: &Delta) {
        let (server_ns, _) = d.histogram("server_statement_ns");
        self.gap_ns.push(client_ns.saturating_sub(server_ns) as f64);
        self.frames += d.counter("server_frames_in_total") + d.counter("server_frames_out_total");
        self.stmts += 1;
    }

    /// Run read `src` over `client` against a server on `db`, record it,
    /// and check its result.
    pub fn read(
        &mut self,
        client: &mut dyn Client,
        db: &Database,
        src: &str,
        expected: &Expected,
    ) -> Result<(), Failure> {
        let before = snapshot(db).map_err(Failure::Error)?;
        let t = Instant::now();
        let result = client.query(src);
        let ns = t.elapsed().as_nanos() as u64;
        let after = snapshot(db).map_err(Failure::Error)?;
        self.record(
            ns,
            &Delta {
                before: &before,
                after: &after,
            },
        );
        match result {
            Ok(r) => expected.check(&r.rows),
            Err(e) => Err(Failure::Error(e.to_string())),
        }
    }

    /// Put `server.wire_us` (the median gap) and `server.frames_per_stmt`.
    pub fn put(&self, report: &mut Report) {
        report.put(
            "server.wire_us",
            median(&mut self.gap_ns.clone()) / 1e3,
            "us",
        );
        report.put(
            "server.frames_per_stmt",
            self.frames as f64 / self.stmts.max(1) as f64,
            "count",
        );
    }
}

/// Time member resolution straight against `db`'s object store: field
/// `pos` of every member in `oids`, one member at a time through
/// `field_of_at` and in batches of the engine's batch size through
/// `fields_of_batch_at`. Each pass must read fields summing to
/// `expected`. Returns the nanoseconds per member of each path, the
/// median over `passes` passes, and puts them as
/// `extra.resolve_ns_per_member` and `extra.resolve_batch_ns_per_member`.
pub fn resolve(
    db: &Database,
    oids: &[Oid],
    pos: usize,
    expected: f64,
    passes: usize,
    report: &mut Report,
) {
    let store = db.store();
    let batch = db.batch_size().max(1);
    let check = |got: Result<Vec<Option<Value>>, ModelError>| -> Result<(), Failure> {
        let vals = got.map_err(|e| Failure::Error(e.to_string()))?;
        let sum = vals.into_iter().try_fold(0.0, |acc, v| match v {
            Some(Value::Float(f)) => Ok(acc + f),
            Some(Value::Int(i)) => Ok(acc + i as f64),
            other => Err(Failure::Wrong(format!("field read as {other:?}"))),
        })?;
        (sum == expected)
            .then_some(())
            .ok_or_else(|| Failure::Wrong(format!("fields sum to {sum}, expected {expected}")))
    };
    let per_member = |t: Instant| t.elapsed().as_nanos() as f64 / oids.len() as f64;
    let (mut single_ns, mut batch_ns) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let snap = store.storage().begin_snapshot();
        let t = Instant::now();
        let single = oids
            .iter()
            .map(|&oid| store.field_of_at(oid, pos, snap.ts()))
            .collect();
        single_ns.push(per_member(t));
        report.tally.record("resolve_single", check(single));
        let t = Instant::now();
        let batched = oids.chunks(batch).try_fold(Vec::new(), |mut acc, oids| {
            acc.extend(store.fields_of_batch_at(oids, pos, snap.ts())?);
            Ok(acc)
        });
        batch_ns.push(per_member(t));
        report.tally.record("resolve_batch", check(batched));
    }
    report.put("extra.resolve_ns_per_member", median(&mut single_ns), "ns");
    report.put(
        "extra.resolve_batch_ns_per_member",
        median(&mut batch_ns),
        "ns",
    );
}

/// Bootstrap a fresh replica of `primary` at `dir`. The constructor
/// returns only once the replica has caught up; returns it with the
/// wall seconds that took.
pub fn bootstrap(
    primary: &Arc<Database>,
    dir: &Path,
    pool_pages: usize,
) -> Result<(Replica, f64), String> {
    let opts = ReplicaOptions {
        pool_pages,
        ..ReplicaOptions::default()
    };
    let t = Instant::now();
    let replica =
        Replica::in_process(primary, dir.join("volume"), opts).map_err(|e| e.to_string())?;
    Ok((replica, t.elapsed().as_secs_f64()))
}

/// Put `repl.replay_us_per_record`: a bootstrap's wall time per WAL
/// record the replica replayed.
pub fn put_replay(report: &mut Report, replica: &Replica, secs: f64) -> Result<(), String> {
    let replayed = snapshot(&replica.database())?
        .counter("repl_replayed_records_total")
        .unwrap_or(0);
    report.put(
        "repl.replay_us_per_record",
        secs * 1e6 / replayed as f64,
        "us",
    );
    Ok(())
}
