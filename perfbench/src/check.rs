//! Comparing engine results with results the model computed on its own.

use std::cmp::Ordering;

use extra_model::Value;

use crate::report::Failure;

/// One result cell in the model's terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer (counts, int4 attributes).
    Int(i64),
    /// A float (sums and averages of float8 attributes).
    Float(f64),
    /// A string.
    Str(String),
    /// SQL-style null (an aggregate over no rows).
    Null,
}

impl Cell {
    fn of(v: &Value) -> Result<Cell, String> {
        Ok(match v {
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s.clone()),
            Value::Null => Cell::Null,
            other => return Err(format!("unexpected value {other:?}")),
        })
    }

    fn is_float(&self) -> bool {
        matches!(self, Cell::Float(_))
    }

    fn order(&self, other: &Cell) -> Ordering {
        let rank = |c: &Cell| match c {
            Cell::Null => 0,
            Cell::Int(_) => 1,
            Cell::Float(_) => 2,
            Cell::Str(_) => 3,
        };
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Float(a), Cell::Float(b)) => a.total_cmp(b),
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// Row order for multiset comparison: non-float cells first, so rows
/// whose floats differ only within tolerance still pair up.
fn row_order(a: &[Cell], b: &[Cell]) -> Ordering {
    let keyed = |floats: bool| {
        a.iter()
            .zip(b)
            .filter(move |(x, _)| x.is_float() == floats)
            .map(|(x, y)| x.order(y))
            .find(|o| o.is_ne())
    };
    keyed(false)
        .or_else(|| keyed(true))
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// The result a statement should return, as a multiset of rows.
#[derive(Debug, Clone)]
pub struct Expected {
    rows: Vec<Vec<Cell>>,
    /// Relative tolerance for float cells; 0 demands exact equality.
    rel_tol: f64,
}

impl Expected {
    /// Rows compared exactly. Sums of integer-valued floats are exact in
    /// f64 in any order, so they belong here too.
    pub fn exact(rows: Vec<Vec<Cell>>) -> Expected {
        Expected::within(rows, 0.0)
    }

    /// Rows whose float cells may differ by `rel_tol` relative error
    /// (averages, whose final division may round differently).
    pub fn within(mut rows: Vec<Vec<Cell>>, rel_tol: f64) -> Expected {
        rows.sort_by(|a, b| row_order(a, b));
        Expected { rows, rel_tol }
    }

    /// Number of rows expected.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are expected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Check `got` against the expected multiset.
    pub fn check(&self, got: &[Vec<Value>]) -> Result<(), Failure> {
        if got.len() != self.rows.len() {
            return Err(Failure::Wrong(format!(
                "{} rows, expected {}",
                got.len(),
                self.rows.len()
            )));
        }
        let mut cells = got
            .iter()
            .map(|r| r.iter().map(Cell::of).collect::<Result<Vec<_>, _>>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(Failure::Wrong)?;
        cells.sort_by(|a, b| row_order(a, b));
        for (g, e) in cells.iter().zip(&self.rows) {
            let same = g.len() == e.len()
                && g.iter().zip(e).all(|(g, e)| match (g, e) {
                    (Cell::Float(a), Cell::Float(b)) => {
                        a == b || (a - b).abs() <= self.rel_tol * a.abs().max(b.abs())
                    }
                    _ => g == e,
                });
            if !same {
                return Err(Failure::Wrong(format!("row {g:?}, expected {e:?}")));
            }
        }
        Ok(())
    }
}
