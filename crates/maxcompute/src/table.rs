//! Columnar in-memory tables.

use crate::value::{ColumnType, Value};
use serde::{Deserialize, Serialize};

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        let columns: Vec<(String, ColumnType)> = columns
            .into_iter()
            .map(|(n, t)| (n.to_string(), t))
            .collect();
        for i in 0..columns.len() {
            for j in (i + 1)..columns.len() {
                assert_ne!(columns[i].0, columns[j].0, "duplicate column name");
            }
        }
        Self { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column name at index.
    pub fn name(&self, i: usize) -> &str {
        &self.columns[i].0
    }

    /// Column type at index.
    pub fn column_type(&self, i: usize) -> ColumnType {
        self.columns[i].1
    }

    /// All column names.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// A columnar table: one `Vec<Value>` per column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        Self {
            schema,
            columns: vec![Vec::new(); n],
        }
    }

    /// Build a table by pushing `rows` in order.
    ///
    /// # Panics
    /// Same contract as [`Table::push_row`].
    pub fn from_rows<I: IntoIterator<Item = Vec<Value>>>(schema: Schema, rows: I) -> Self {
        let mut t = Table::new(schema);
        for row in rows {
            t.push_row(row);
        }
        t
    }

    /// Canonical byte encoding of schema + contents. Two tables are
    /// **byte-identical** exactly when their encodings are equal: floats
    /// are encoded by IEEE bit pattern (so `-0.0 ≠ 0.0` and NaN payloads
    /// count), which is the equality the distributed SQL engine is gated
    /// on against its single-process reference.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_str = |out: &mut Vec<u8>, s: &str| {
            out.extend((s.len() as u64).to_le_bytes());
            out.extend(s.as_bytes());
        };
        out.extend((self.schema.len() as u64).to_le_bytes());
        for c in 0..self.schema.len() {
            push_str(&mut out, self.schema.name(c));
            out.push(match self.schema.column_type(c) {
                ColumnType::Int => 1,
                ColumnType::Float => 2,
                ColumnType::Text => 3,
                ColumnType::Bool => 4,
            });
        }
        out.extend((self.n_rows() as u64).to_le_bytes());
        for col in &self.columns {
            for v in col {
                match v {
                    Value::Null => out.push(0),
                    Value::Int(i) => {
                        out.push(1);
                        out.extend(i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        out.push(2);
                        out.extend(f.to_bits().to_le_bytes());
                    }
                    Value::Text(s) => {
                        out.push(3);
                        push_str(&mut out, s);
                    }
                    Value::Bool(b) => {
                        out.push(4);
                        out.push(*b as u8);
                    }
                }
            }
        }
        out
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics when the row width mismatches the schema or a value's type
    /// mismatches the column type (Null always allowed).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row width mismatch");
        for (i, v) in row.iter().enumerate() {
            if let Some(t) = v.column_type() {
                assert_eq!(
                    t,
                    self.schema.column_type(i),
                    "type mismatch in column {}",
                    self.schema.name(i)
                );
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// A whole column.
    pub fn column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// Materialise row `i`.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Iterate rows (materialised; fine at this scale).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows()).map(move |i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ("id", ColumnType::Int),
            ("city", ColumnType::Text),
            ("amount", ColumnType::Float),
        ]));
        t.push_row(vec![1.into(), "hz".into(), 10.5.into()]);
        t.push_row(vec![2.into(), "bj".into(), 20.0.into()]);
        t.push_row(vec![3.into(), Value::Null, 30.0.into()]);
        t
    }

    #[test]
    fn push_and_access() {
        let t = users_table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.cell(1, 1), &Value::Text("bj".into()));
        assert_eq!(t.column(2).len(), 3);
        assert_eq!(t.row(0), vec![1.into(), "hz".into(), 10.5.into()]);
    }

    #[test]
    fn nulls_are_allowed_in_any_column() {
        let t = users_table();
        assert_eq!(t.cell(2, 1), &Value::Null);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_rejected() {
        let mut t = users_table();
        t.push_row(vec![4.into(), 9i64.into(), 1.0.into()]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_rejected() {
        let mut t = users_table();
        t.push_row(vec![4.into()]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Schema::new(vec![("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }
}
