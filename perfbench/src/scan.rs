//! `scan_analytics`: one in-process session replays a fixed rotation of
//! read-only, whole-collection statements over a seeded, analyzed
//! university on a file-backed volume that fits in the buffer pool.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use exodus_db::{Client, Database, Durability, Session, Value};
use exodus_server::{AdmissionConfig, RemoteSession, Server, TcpTransport};
use exodus_storage::Oid;

use crate::check::{Cell, Expected};
use crate::layers::{self, Delta, Reads, Sums, Wire};
use crate::report::{disk_mb, median, peak_rss_mb, user_cpu_ns, Failure, Report, WorkDir};
use crate::{Args, RESOLVE_PASSES, SETUPS};

/// Sizes of the generated university.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Departments (each employee's `dept` refers to one).
    pub departments: usize,
    /// Employees.
    pub employees: usize,
    /// Each employee has `0..=max_kids` nested kids.
    pub max_kids: u64,
    /// Employees of the flat schema.
    pub flat_emps: usize,
    /// Flat kids per flat employee (`Kids`, each with `parent: ref`).
    pub flat_kids_per_emp: usize,
    /// Buffer-pool pages; the whole data set fits, so no measured read
    /// goes to the file.
    pub pool_pages: usize,
}

/// The measured scale.
pub const FULL: Scale = Scale {
    departments: 20,
    employees: 20_000,
    max_kids: 3,
    flat_emps: 300,
    flat_kids_per_emp: 4,
    pool_pages: 8192,
};

/// A scale small enough for the benchmark's own tests.
pub const TINY: Scale = Scale {
    departments: 6,
    employees: 300,
    max_kids: 3,
    flat_emps: 20,
    flat_kids_per_emp: 3,
    pool_pages: 1024,
};

/// Position of `salary` in an `Employee` tuple (inherited `Person`
/// attributes come first). A wrong position fails the resolve check.
const SALARY_POS: usize = 4;

/// A department.
#[derive(Debug, Clone, PartialEq)]
pub struct Dept {
    /// `dname`.
    pub name: String,
    /// `floor`.
    pub floor: i64,
    /// `budget` (integer-valued).
    pub budget: f64,
}

/// An employee with nested kids.
#[derive(Debug, Clone, PartialEq)]
pub struct Emp {
    /// `name`.
    pub name: String,
    /// `age`.
    pub age: i64,
    /// Index of the employee's department.
    pub dept: usize,
    /// `salary` (integer-valued).
    pub salary: f64,
    /// Nested kids: `(name, age)`.
    pub kids: Vec<(String, i64)>,
}

/// The data the generator hands to the engine, kept as the model every
/// result is checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct University {
    /// Departments.
    pub depts: Vec<Dept>,
    /// Employees.
    pub emps: Vec<Emp>,
    /// Flat employees' names.
    pub flat_emps: Vec<String>,
    /// Flat kids: `(name, age, index of the parent flat employee)`.
    pub flat_kids: Vec<(String, i64, usize)>,
}

const DDL: &str = r#"
    define type Department (dname: varchar, floor: int4, budget: float8);
    define type Person (name: varchar, age: int4, kids: { own Person });
    define type Employee inherits Person (dept: ref Department, salary: float8);
    create { own ref Department } Departments;
    create { own ref Employee } Employees;
    define type FlatEmp (name: varchar);
    define type FlatKid (name: varchar, age: int4, parent: ref FlatEmp);
    create { own ref FlatEmp } Emps;
    create { own ref FlatKid } Kids;
"#;

/// The session's range declarations: the correlated payroll's
/// aggregate ranges over `E` inside a statement whose `from` binds only `D`.
pub const RANGES: &[&str] = &["range of E is Employees"];

/// Query worker threads. One: with a worker per core, each rotation took
/// half as much user CPU time again (1,240–1,480 ms against 760–910 ms
/// on the 2-CPU reference host) for as many rotations in ten seconds,
/// and how much more moved with how far the two workers overlapped on
/// the shared host, which a CPU-time metric cannot hold steady.
const WORKERS: usize = 1;

/// Members per `bulk_append` call. Each call is one transaction, and
/// the no-steal buffer gate refuses a transaction larger than the pool.
pub const LOAD_CHUNK: usize = 2_000;

/// Append `rows` to `collection` in chunks, returning the new OIDs.
pub fn bulk_load(db: &Database, collection: &str, rows: Vec<Value>) -> Result<Vec<Oid>, String> {
    let mut oids = Vec::with_capacity(rows.len());
    let mut rows = rows.into_iter().peekable();
    while rows.peek().is_some() {
        let chunk: Vec<Value> = rows.by_ref().take(LOAD_CHUNK).collect();
        oids.extend(
            db.bulk_append(collection, chunk)
                .map_err(|e| format!("loading {collection}: {e}"))?,
        );
    }
    Ok(oids)
}

/// A loaded database and the OIDs of its employees, in model order.
pub struct Loaded {
    /// The database.
    pub db: Arc<Database>,
    /// `Employees` member OIDs.
    pub emp_oids: Vec<Oid>,
}

impl University {
    /// Generate the university for `seed`.
    pub fn generate(scale: &Scale, seed: u64) -> University {
        let mut rng = crate::rng::Rng::new(seed, 1);
        let depts = (0..scale.departments)
            .map(|i| Dept {
                name: format!("dept{i:04}"),
                floor: (i % 10) as i64 + 1,
                budget: 10_000.0 * (1 + rng.below(90)) as f64,
            })
            .collect();
        let emps = (0..scale.employees)
            .map(|i| {
                let kids = (0..rng.below(scale.max_kids + 1))
                    .map(|k| (format!("kid{i}-{k}"), 1 + rng.below(17) as i64))
                    .collect();
                Emp {
                    name: format!("emp{i:06}"),
                    age: 20 + rng.below(45) as i64,
                    // The first employees staff one department each, so
                    // no department's payroll is empty.
                    dept: if i < scale.departments {
                        i
                    } else {
                        rng.below(scale.departments as u64) as usize
                    },
                    salary: (20_000 + rng.below(80_000)) as f64,
                    kids,
                }
            })
            .collect();
        let flat_emps = (0..scale.flat_emps)
            .map(|i| format!("flat{i:05}"))
            .collect();
        let flat_kids = (0..scale.flat_emps * scale.flat_kids_per_emp)
            .map(|k| {
                (
                    format!("fkid{k:06}"),
                    1 + rng.below(17) as i64,
                    rng.below(scale.flat_emps as u64) as usize,
                )
            })
            .collect();
        University {
            depts,
            emps,
            flat_emps,
            flat_kids,
        }
    }

    /// Build a database holding this university on an `Fsync` volume in
    /// `dir`: load it, then `analyze` every collection.
    pub fn load(&self, scale: &Scale, workers: usize, dir: &Path) -> Result<Loaded, String> {
        let db = Database::builder()
            .path(dir.join("volume"))
            .durability(Durability::Fsync)
            .pool_pages(scale.pool_pages)
            .worker_threads(workers)
            .build()
            .map_err(|e| e.to_string())?;
        db.run(DDL).map_err(|e| e.to_string())?;
        let dept_oids = bulk_load(
            &db,
            "Departments",
            self.depts
                .iter()
                .map(|d| {
                    Value::Tuple(vec![
                        Value::Str(d.name.clone()),
                        Value::Int(d.floor),
                        Value::Float(d.budget),
                    ])
                })
                .collect(),
        )?;
        let emp_rows = self
            .emps
            .iter()
            .map(|e| {
                let kids = e
                    .kids
                    .iter()
                    .map(|(name, age)| {
                        Value::Tuple(vec![
                            Value::Str(name.clone()),
                            Value::Int(*age),
                            Value::Set(vec![]),
                        ])
                    })
                    .collect();
                Value::Tuple(vec![
                    Value::Str(e.name.clone()),
                    Value::Int(e.age),
                    Value::Set(kids),
                    Value::Ref(dept_oids[e.dept]),
                    Value::Float(e.salary),
                ])
            })
            .collect();
        let emp_oids = bulk_load(&db, "Employees", emp_rows)?;
        let flat_oids = bulk_load(
            &db,
            "Emps",
            self.flat_emps
                .iter()
                .map(|n| Value::Tuple(vec![Value::Str(n.clone())]))
                .collect(),
        )?;
        bulk_load(
            &db,
            "Kids",
            self.flat_kids
                .iter()
                .map(|(name, age, parent)| {
                    Value::Tuple(vec![
                        Value::Str(name.clone()),
                        Value::Int(*age),
                        Value::Ref(flat_oids[*parent]),
                    ])
                })
                .collect(),
        )?;
        db.run("analyze Departments; analyze Employees; analyze Emps; analyze Kids")
            .map_err(|e| e.to_string())?;
        Ok(Loaded { db, emp_oids })
    }

    /// Sum of all salaries.
    pub fn salary_sum(&self) -> f64 {
        self.emps.iter().map(|e| e.salary).sum()
    }

    /// The rotation: `(label, statement, expected result)`.
    pub fn rotation(&self) -> Vec<(&'static str, &'static str, Expected)> {
        let s = |x: &str| Cell::Str(x.to_string());
        let dept = |e: &Emp| &self.depts[e.dept];
        let mut payroll = vec![0.0; self.depts.len()];
        let mut heads = vec![0usize; self.depts.len()];
        for e in &self.emps {
            payroll[e.dept] += e.salary;
            heads[e.dept] += 1;
        }
        vec![
            (
                "e1_ref_aggregate",
                "retrieve (total = sum(E.dept.budget over E)) from E in Employees",
                Expected::exact(vec![vec![Cell::Float(
                    self.emps.iter().map(|e| dept(e).budget).sum(),
                )]]),
            ),
            (
                "field_aggregate",
                "retrieve (total = sum(E.salary over E)) from E in Employees",
                Expected::exact(vec![vec![Cell::Float(self.salary_sum())]]),
            ),
            (
                "nested_count",
                "retrieve (n = count(C over C where C.age < 9)) from C in Employees.kids",
                Expected::exact(vec![vec![Cell::Int(
                    self.emps
                        .iter()
                        .flat_map(|e| &e.kids)
                        .filter(|(_, age)| *age < 9)
                        .count() as i64,
                )]]),
            ),
            (
                "path_select",
                "retrieve (E.name) from E in Employees where E.dept.floor = 2",
                Expected::exact(
                    self.emps
                        .iter()
                        .filter(|e| dept(e).floor == 2)
                        .map(|e| vec![s(&e.name)])
                        .collect(),
                ),
            ),
            (
                "grouped_avg",
                "retrieve (E.dept.dname, a = avg(E.salary over E by E.dept)) from E in Employees",
                Expected::within(
                    self.emps
                        .iter()
                        .map(|e| {
                            vec![
                                s(&dept(e).name),
                                Cell::Float(payroll[e.dept] / heads[e.dept] as f64),
                            ]
                        })
                        .collect(),
                    1e-9,
                ),
            ),
            (
                "correlated_payroll",
                "retrieve (D.dname, payroll = sum(E.salary over E where E.dept is D)) \
                 from D in Departments",
                Expected::exact(
                    self.depts
                        .iter()
                        .zip(&payroll)
                        .map(|(d, p)| vec![s(&d.name), Cell::Float(*p)])
                        .collect(),
                ),
            ),
            (
                "nested_projection",
                "retrieve (C.name, Employees.dept.dname) from C in Employees.kids",
                Expected::exact(
                    self.emps
                        .iter()
                        .flat_map(|e| e.kids.iter().map(move |(k, _)| (k, e)))
                        .map(|(k, e)| vec![s(k), s(&dept(e).name)])
                        .collect(),
                ),
            ),
            (
                "flat_is_join",
                "retrieve (F.name, K.name) from F in Emps, K in Kids where K.parent is F",
                Expected::exact(
                    self.flat_kids
                        .iter()
                        .map(|(k, _, p)| vec![s(&self.flat_emps[*p]), s(k)])
                        .collect(),
                ),
            ),
        ]
    }
}

/// A session on `db` with [`RANGES`] declared.
fn open_session(db: &Arc<Database>) -> Result<Session, String> {
    let mut session = db.session();
    for decl in RANGES {
        session.run(decl).map_err(|e| e.to_string())?;
    }
    Ok(session)
}

/// Run one statement through `client` and check its result.
fn query_checked(client: &mut dyn Client, stmt: &str, expected: &Expected) -> Result<(), Failure> {
    match client.query(stmt) {
        Ok(r) => expected.check(&r.rows),
        Err(e) => Err(Failure::Error(e.to_string())),
    }
}

/// Set the university up `SETUPS` times, each on a fresh volume, and
/// keep the last; returns it, its directory and the median user CPU
/// seconds of a set-up.
fn setup(
    uni: &University,
    scale: &Scale,
    work: &WorkDir,
) -> Result<(Loaded, PathBuf, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<(Loaded, PathBuf)> = None;
    for i in 0..SETUPS {
        // Free the previous copy first, so only one is ever resident.
        if let Some((loaded, dir)) = kept.take() {
            drop(loaded);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.sub(&format!("volume{i}")).map_err(|e| e.to_string())?;
        let cpu = user_cpu_ns();
        let loaded = uni.load(scale, WORKERS, &dir)?;
        times.push((user_cpu_ns() - cpu) as f64 / 1e9);
        kept = Some((loaded, dir));
    }
    let (loaded, dir) = kept.expect("SETUPS > 0");
    Ok((loaded, dir, median(&mut times)))
}

/// The untraced run: `setup_s`, `round_user_cpu_ms` (the process's user
/// CPU time per pass of the rotation), `disk_mb` and `peak_rss_mb`.
pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let uni = University::generate(scale, args.seed);
    let work = WorkDir::new("scan_analytics").map_err(|e| e.to_string())?;
    let (loaded, dir, setup_s) = setup(&uni, scale, &work)?;
    let rotation = uni.rotation();
    let mut session = open_session(&loaded.db)?;
    let mut report = Report::default();
    let mut round = |report: &mut Report| {
        for (label, stmt, expected) in &rotation {
            let outcome = query_checked(&mut session, stmt, expected);
            report.tally.record(label, outcome);
        }
    };
    // One untimed round first: lazy set-up inside the engine finishes
    // before anything is timed.
    round(&mut report);
    let disk = disk_mb(&dir);
    let cpu = user_cpu_ns();
    let deadline = Instant::now() + args.seconds;
    let mut rounds = 0u64;
    while rounds == 0 || Instant::now() < deadline {
        round(&mut report);
        rounds += 1;
    }
    let round_user_cpu_ms = (user_cpu_ns() - cpu) as f64 / 1e6 / rounds as f64;
    report.put("setup_s", setup_s, "s");
    report.put("round_user_cpu_ms", round_user_cpu_ms, "ms");
    report.put("disk_mb", disk, "MB");
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
    drop(session);
    drop(loaded);
    Ok(report)
}

/// The traced run. Member resolution and a replica's bootstrap are
/// timed first. Then for half of `--seconds` the untraced run's rounds
/// repeat with registry snapshots around every statement
/// (`trace.round_user_cpu_ms`, and the per-statement deltas); for the other
/// half each statement is replayed layer by layer and sent over EXOD/1
/// to a server on the same database.
pub fn run_traced(args: &Args, scale: &Scale) -> Result<Report, String> {
    let uni = University::generate(scale, args.seed);
    let work = WorkDir::new("scan_analytics_traced").map_err(|e| e.to_string())?;
    let dir = work.sub("volume").map_err(|e| e.to_string())?;
    let loaded = uni.load(scale, WORKERS, &dir)?;
    let db = &loaded.db;
    let mut report = Report::default();
    layers::resolve(
        db,
        &loaded.emp_oids,
        SALARY_POS,
        uni.salary_sum(),
        RESOLVE_PASSES,
        &mut report,
    );
    let replica_dir = work.sub("replica").map_err(|e| e.to_string())?;
    let (replica, secs) = layers::bootstrap(db, &replica_dir, scale.pool_pages)?;
    layers::put_replay(&mut report, &replica, secs)?;
    drop(replica);

    let rotation = uni.rotation();
    let mut session = open_session(db)?;
    let mut reads = Reads::new(rotation.len());
    let tally = &mut report.tally;
    for (i, (label, stmt, expected)) in rotation.iter().enumerate() {
        tally.record(label, reads.explain(i, &mut session, stmt, expected));
    }
    for (label, stmt, expected) in &rotation {
        tally.record(label, query_checked(&mut session, stmt, expected));
    }

    let half = args.seconds / 2;
    let mut mix = Sums::default();
    let cpu = user_cpu_ns();
    let deadline = Instant::now() + half;
    let mut rounds = 0u64;
    while rounds == 0 || Instant::now() < deadline {
        let before = layers::snapshot(db)?;
        for (i, (label, stmt, expected)) in rotation.iter().enumerate() {
            tally.record(label, reads.session(i, db, &mut session, stmt, expected));
        }
        let after = layers::snapshot(db)?;
        layers::add_stmts(
            &mut mix,
            &Delta {
                before: &before,
                after: &after,
            },
            rotation.len() as u64,
        );
        rounds += 1;
    }
    let trace_round_user_cpu_ms = (user_cpu_ns() - cpu) as f64 / 1e6 / rounds as f64;

    let transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut server = Server::spawn(db.clone(), transport, AdmissionConfig::default())
        .map_err(|e| e.to_string())?;
    let mut client = RemoteSession::connect(server.addr(), "admin").map_err(|e| e.to_string())?;
    for decl in RANGES {
        client.run(decl).map_err(|e| e.to_string())?;
    }
    let mut wire = Wire::default();
    let deadline = Instant::now() + half;
    let mut passes = 0u64;
    while passes == 0 || Instant::now() < deadline {
        for (i, (label, stmt, expected)) in rotation.iter().enumerate() {
            tally.record(label, reads.replay(i, db, RANGES, stmt, expected));
            tally.record(label, wire.read(&mut client, db, stmt, expected));
        }
        passes += 1;
    }
    drop(client);
    server.shutdown();

    reads.put(&mut report);
    layers::put_mix_metrics(&mut report, &mix);
    wire.put(&mut report);
    report.put("trace.round_user_cpu_ms", trace_round_user_cpu_ms, "ms");
    drop(session);
    drop(loaded);
    Ok(report)
}
