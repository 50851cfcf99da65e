//! A small SQL engine: `SELECT` with projections, aggregates, `WHERE`,
//! `GROUP BY`, `ORDER BY` and `LIMIT` over columnar tables.
//!
//! This is the "SQL command … submitted by web console" path of Figure 4.
//! The dialect is deliberately small but real — tokenizer, recursive-descent
//! parser, and a grouped-aggregate executor — covering what the TitAnt
//! offline stage needs: filtering transaction logs by day, counting fraud
//! reports per user, aggregating transfer pairs.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query   := SELECT proj (',' proj)* FROM ident [join]
//!            [WHERE pred] [GROUP BY ident (',' ident)*]
//!            [ORDER BY ident [ASC|DESC]] [LIMIT int]
//! join    := JOIN ident ON qual '=' qual    -- inner equi-join
//! qual    := ident '.' ident                -- table.column
//! proj    := '*' | ident | agg '(' (ident|'*') ')'
//! agg     := COUNT | SUM | AVG | MIN | MAX
//! pred    := cmp (AND cmp | OR cmp)*        -- left-assoc, AND binds tighter
//! cmp     := ident op literal | ident IS [NOT] NULL
//! op      := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//! literal := int | float | 'string' | TRUE | FALSE
//! ```
//!
//! ## Execution model
//!
//! The executor is factored into **decomposable pieces** so the distributed
//! coordinator/worker engine ([`crate::distsql`]) can reuse it verbatim:
//! [`plan`] validates and resolves a query against a schema once,
//! [`execute_partial`] runs the planned scan over any row range and emits a
//! mergeable [`Partial`] (projected rows, or per-group [`AggState`]s), and
//! [`finish`] merges partials and applies ORDER BY/LIMIT. Single-process
//! execution is literally the one-segment case of the same pipeline, which
//! is what makes distributed results byte-identical by construction:
//!
//! * aggregates keep decomposable states — COUNT→sum, SUM→exact sum
//!   ([`crate::exact::ExactSum`], so float merge order cannot change the
//!   result), AVG→(exact sum, count), MIN/MAX→running extremum with a
//!   **first-wins** rule on `sql_cmp`-equal ties;
//! * grouped merge walks the existing `BTreeMap` key order;
//! * ORDER BY/LIMIT is bounded top-K with a documented deterministic
//!   tie-break: equal sort keys preserve **input row order** (stable).

use crate::exact::ExactSum;
use crate::table::{Schema, Table};
use crate::value::{ColumnType, Value};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::ops::Range;

/// SQL layer errors.
#[derive(Debug, PartialEq)]
pub enum SqlError {
    /// Tokenizer/parser failure with context.
    Parse(String),
    /// Referenced column does not exist.
    UnknownColumn(String),
    /// Projection mixes aggregates and bare columns without GROUP BY, etc.
    Semantic(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            SqlError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// All columns.
    Star,
    /// A bare column.
    Column(String),
    /// `agg(column)`; `None` column means `COUNT(*)`.
    Aggregate(AggFn, Option<String>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// WHERE expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Cmp {
        column: String,
        op: CmpOp,
        literal: Value,
    },
    IsNull {
        column: String,
        negated: bool,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

/// An inner equi-join clause: `JOIN <table> ON left.<left_col> = <table>.<right_col>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Right-side (build) table name.
    pub table: String,
    /// Join key column on the FROM (probe) table.
    pub left_col: String,
    /// Join key column on the joined (build) table.
    pub right_col: String,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub projections: Vec<Projection>,
    pub table: String,
    pub join: Option<JoinClause>,
    pub filter: Option<Expr>,
    pub group_by: Vec<String>,
    pub order_by: Option<(String, bool)>, // (column, descending)
    pub limit: Option<usize>,
}

// ---------------------------------------------------------------- tokenizer

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' | '.' => {
                out.push(Token::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    _ => "*",
                }));
                i += 1;
            }
            '=' => {
                out.push(Token::Sym("="));
                i += 1;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token::Sym("!="));
                i += 2;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Sym("<="));
                    i += 2;
                } else if chars.get(i + 1) == Some(&'>') {
                    out.push(Token::Sym("!="));
                    i += 2;
                } else {
                    out.push(Token::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Sym(">="));
                    i += 2;
                } else {
                    out.push(Token::Sym(">"));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                        None => return Err(SqlError::Parse("unterminated string".into())),
                    }
                }
                out.push(Token::Str(s));
            }
            '-' | '0'..='9' => {
                let start = i;
                i += 1;
                let mut is_float = false;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    if chars[i] == '.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad float literal '{text}'"))
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|_| {
                        SqlError::Parse(format!("bad int literal '{text}'"))
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(chars[start..i].iter().collect()));
            }
            other => return Err(SqlError::Parse(format!("unexpected character '{other}'"))),
        }
    }
    Ok(out)
}

// ------------------------------------------------------------------- parser

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(SqlError::Parse(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }
}

fn agg_of(name: &str) -> Option<AggFn> {
    match name.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggFn::Count),
        "SUM" => Some(AggFn::Sum),
        "AVG" => Some(AggFn::Avg),
        "MIN" => Some(AggFn::Min),
        "MAX" => Some(AggFn::Max),
        _ => None,
    }
}

/// Parse a SELECT statement.
pub fn parse(input: &str) -> Result<Query, SqlError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    p.expect_keyword("SELECT")?;
    let mut projections = Vec::new();
    loop {
        if matches!(p.peek(), Some(Token::Sym("*"))) {
            p.next();
            projections.push(Projection::Star);
        } else {
            let name = p.ident()?;
            if let (Some(agg), Some(Token::Sym("("))) = (agg_of(&name), p.peek()) {
                p.next(); // (
                let col = if matches!(p.peek(), Some(Token::Sym("*"))) {
                    p.next();
                    None
                } else {
                    Some(p.ident()?)
                };
                match p.next() {
                    Some(Token::Sym(")")) => {}
                    other => return Err(SqlError::Parse(format!("expected ), got {other:?}"))),
                }
                projections.push(Projection::Aggregate(agg, col));
            } else {
                projections.push(Projection::Column(name));
            }
        }
        if matches!(p.peek(), Some(Token::Sym(","))) {
            p.next();
        } else {
            break;
        }
    }
    p.expect_keyword("FROM")?;
    let table = p.ident()?;

    let mut join = None;
    if p.keyword_is("JOIN") {
        p.next();
        let right_table = p.ident()?;
        p.expect_keyword("ON")?;
        let (qa, ca) = qualified_column(&mut p)?;
        match p.next() {
            Some(Token::Sym("=")) => {}
            other => return Err(SqlError::Parse(format!("expected = in ON, got {other:?}"))),
        }
        let (qb, cb) = qualified_column(&mut p)?;
        if right_table == table {
            return Err(SqlError::Parse(format!(
                "self-join of {table} is not supported"
            )));
        }
        // Either qualification order is accepted; both sides must be named.
        let (left_col, right_col) = if qa == table && qb == right_table {
            (ca, cb)
        } else if qa == right_table && qb == table {
            (cb, ca)
        } else {
            return Err(SqlError::Parse(format!(
                "ON must equate a {table} column with a {right_table} column, got {qa}.{ca} = {qb}.{cb}"
            )));
        };
        join = Some(JoinClause {
            table: right_table,
            left_col,
            right_col,
        });
    }

    let mut filter = None;
    if p.keyword_is("WHERE") {
        p.next();
        filter = Some(parse_or(&mut p)?);
    }

    let mut group_by = Vec::new();
    if p.keyword_is("GROUP") {
        p.next();
        p.expect_keyword("BY")?;
        loop {
            group_by.push(p.ident()?);
            if matches!(p.peek(), Some(Token::Sym(","))) {
                p.next();
            } else {
                break;
            }
        }
    }

    let mut order_by = None;
    if p.keyword_is("ORDER") {
        p.next();
        p.expect_keyword("BY")?;
        let col = p.ident()?;
        let mut desc = false;
        if p.keyword_is("DESC") {
            p.next();
            desc = true;
        } else if p.keyword_is("ASC") {
            p.next();
        }
        order_by = Some((col, desc));
    }

    let mut limit = None;
    if p.keyword_is("LIMIT") {
        p.next();
        match p.next() {
            Some(Token::Int(n)) if n >= 0 => limit = Some(n as usize),
            Some(Token::Int(n)) => {
                return Err(SqlError::Parse(format!(
                    "LIMIT must be a non-negative integer, got {n}"
                )))
            }
            other => return Err(SqlError::Parse(format!("bad LIMIT, got {other:?}"))),
        }
    }

    if p.peek().is_some() {
        return Err(SqlError::Parse(format!(
            "trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(Query {
        projections,
        table,
        join,
        filter,
        group_by,
        order_by,
        limit,
    })
}

/// `ident '.' ident` — a table-qualified column in an ON clause.
fn qualified_column(p: &mut Parser) -> Result<(String, String), SqlError> {
    let t = p.ident()?;
    match p.next() {
        Some(Token::Sym(".")) => {}
        other => {
            return Err(SqlError::Parse(format!(
                "expected qualified table.column, got {other:?}"
            )))
        }
    }
    let c = p.ident()?;
    Ok((t, c))
}

fn parse_or(p: &mut Parser) -> Result<Expr, SqlError> {
    let mut left = parse_and(p)?;
    while p.keyword_is("OR") {
        p.next();
        let right = parse_and(p)?;
        left = Expr::Or(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_and(p: &mut Parser) -> Result<Expr, SqlError> {
    let mut left = parse_cmp(p)?;
    while p.keyword_is("AND") {
        p.next();
        let right = parse_cmp(p)?;
        left = Expr::And(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_cmp(p: &mut Parser) -> Result<Expr, SqlError> {
    let column = p.ident()?;
    if p.keyword_is("IS") {
        p.next();
        let negated = if p.keyword_is("NOT") {
            p.next();
            true
        } else {
            false
        };
        p.expect_keyword("NULL")?;
        return Ok(Expr::IsNull { column, negated });
    }
    let op = match p.next() {
        Some(Token::Sym("=")) => CmpOp::Eq,
        Some(Token::Sym("!=")) => CmpOp::Ne,
        Some(Token::Sym("<")) => CmpOp::Lt,
        Some(Token::Sym("<=")) => CmpOp::Le,
        Some(Token::Sym(">")) => CmpOp::Gt,
        Some(Token::Sym(">=")) => CmpOp::Ge,
        other => return Err(SqlError::Parse(format!("expected operator, got {other:?}"))),
    };
    let literal = match p.next() {
        Some(Token::Int(v)) => Value::Int(v),
        Some(Token::Float(v)) => Value::Float(v),
        Some(Token::Str(s)) => Value::Text(s),
        Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Value::Bool(true),
        Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Value::Bool(false),
        other => return Err(SqlError::Parse(format!("expected literal, got {other:?}"))),
    };
    Ok(Expr::Cmp {
        column,
        op,
        literal,
    })
}

// ----------------------------------------------------------------- executor

/// Wrapper giving `Value` a total order for grouping keys.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrdValue(pub(crate) Value);
impl Eq for OrdValue {}
impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.sql_cmp(&other.0)
    }
}

/// A WHERE tree with column names resolved to indices once at plan time,
/// so per-row evaluation is infallible (workers cannot hit name errors).
#[derive(Debug, Clone)]
pub(crate) enum CompiledExpr {
    Cmp {
        col: usize,
        op: CmpOp,
        literal: Value,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
}

pub(crate) fn compile_filter(expr: &Expr, schema: &Schema) -> Result<CompiledExpr, SqlError> {
    let resolve = |column: &String| {
        schema
            .index_of(column)
            .ok_or_else(|| SqlError::UnknownColumn(column.clone()))
    };
    Ok(match expr {
        Expr::And(a, b) => CompiledExpr::And(
            Box::new(compile_filter(a, schema)?),
            Box::new(compile_filter(b, schema)?),
        ),
        Expr::Or(a, b) => CompiledExpr::Or(
            Box::new(compile_filter(a, schema)?),
            Box::new(compile_filter(b, schema)?),
        ),
        Expr::IsNull { column, negated } => CompiledExpr::IsNull {
            col: resolve(column)?,
            negated: *negated,
        },
        Expr::Cmp {
            column,
            op,
            literal,
        } => CompiledExpr::Cmp {
            col: resolve(column)?,
            op: *op,
            literal: literal.clone(),
        },
    })
}

impl CompiledExpr {
    pub(crate) fn eval(&self, table: &Table, row: usize) -> bool {
        match self {
            CompiledExpr::And(a, b) => a.eval(table, row) && b.eval(table, row),
            CompiledExpr::Or(a, b) => a.eval(table, row) || b.eval(table, row),
            CompiledExpr::IsNull { col, negated } => {
                (table.cell(row, *col) == &Value::Null) != *negated
            }
            CompiledExpr::Cmp { col, op, literal } => {
                let v = table.cell(row, *col);
                if v == &Value::Null {
                    return false; // SQL: NULL compares unknown -> filtered
                }
                let ord = v.sql_cmp(literal);
                use std::cmp::Ordering::*;
                match op {
                    CmpOp::Eq => ord == Equal,
                    CmpOp::Ne => ord != Equal,
                    CmpOp::Lt => ord == Less,
                    CmpOp::Le => ord != Greater,
                    CmpOp::Gt => ord == Greater,
                    CmpOp::Ge => ord != Less,
                }
            }
        }
    }
}

/// Execute a parsed query, supplying the JOIN right-side table if the query
/// has one. This is the single-process reference engine: it runs the exact
/// same plan → partial → merge pipeline the distributed engine fans out,
/// with one segment — so distributed results are byte-identical to it by
/// construction.
pub fn execute_with(
    query: &Query,
    table: &Table,
    right: Option<&Table>,
) -> Result<Table, SqlError> {
    let joined;
    let input: &Table = match (&query.join, right) {
        (Some(j), Some(r)) => {
            joined = join_tables(j, table, r)?;
            &joined
        }
        (Some(j), None) => {
            return Err(SqlError::Semantic(format!(
                "query joins table {} but no right-side table was provided",
                j.table
            )))
        }
        (None, _) => table,
    };
    let plan = plan(query, input.schema())?;
    let partial = execute_partial(&plan, input, 0..input.n_rows());
    Ok(finish(&plan, vec![partial]).0)
}

// ------------------------------------------------------------------ planning

/// Output of a projection position: a group key or an aggregate.
#[derive(Debug, Clone)]
pub(crate) enum OutputExpr {
    /// Index into the group key vector.
    Key(usize),
    /// Aggregate over an input column (`None` = `COUNT(*)`).
    Agg(AggFn, Option<usize>),
}

/// Query shape after validation: plain projection or grouped aggregation.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    Plain {
        cols: Vec<usize>,
    },
    Grouped {
        group_cols: Vec<usize>,
        outputs: Vec<OutputExpr>,
    },
}

/// A validated query with every name resolved against the input schema.
/// Planning happens once at the coordinator; workers execute infallibly.
#[derive(Debug, Clone)]
pub(crate) struct ExecPlan {
    pub(crate) filter: Option<CompiledExpr>,
    pub(crate) shape: Shape,
    /// Output schema (what [`finish`] builds).
    pub(crate) schema: Schema,
    /// ORDER BY resolved against the *output* schema: (column index, desc).
    pub(crate) order: Option<(usize, bool)>,
    pub(crate) limit: Option<usize>,
}

/// Validate `query` against `schema` and resolve all names to indices.
pub(crate) fn plan(query: &Query, schema: &Schema) -> Result<ExecPlan, SqlError> {
    let filter = query
        .filter
        .as_ref()
        .map(|e| compile_filter(e, schema))
        .transpose()?;

    let has_agg = query
        .projections
        .iter()
        .any(|p| matches!(p, Projection::Aggregate(..)));

    let (shape, out_schema) = if has_agg || !query.group_by.is_empty() {
        plan_grouped(query, schema)?
    } else {
        plan_plain(query, schema)?
    };

    let order = match &query.order_by {
        Some((col, desc)) => {
            let idx = out_schema
                .index_of(col)
                .ok_or_else(|| SqlError::UnknownColumn(col.clone()))?;
            Some((idx, *desc))
        }
        None => None,
    };

    Ok(ExecPlan {
        filter,
        shape,
        schema: out_schema,
        order,
        limit: query.limit,
    })
}

fn plan_plain(query: &Query, schema: &Schema) -> Result<(Shape, Schema), SqlError> {
    let mut cols: Vec<usize> = Vec::new();
    for p in &query.projections {
        match p {
            Projection::Star => cols.extend(0..schema.len()),
            Projection::Column(name) => cols.push(
                schema
                    .index_of(name)
                    .ok_or_else(|| SqlError::UnknownColumn(name.clone()))?,
            ),
            Projection::Aggregate(..) => unreachable!("handled by grouped path"),
        }
    }
    let out = Schema::new(
        cols.iter()
            .map(|&c| (schema.name(c), schema.column_type(c)))
            .collect(),
    );
    Ok((Shape::Plain { cols }, out))
}

fn plan_grouped(query: &Query, schema: &Schema) -> Result<(Shape, Schema), SqlError> {
    // Validate: bare columns must appear in GROUP BY; * cannot be aggregated.
    for p in &query.projections {
        if let Projection::Column(name) = p {
            if !query.group_by.contains(name) {
                return Err(SqlError::Semantic(format!(
                    "column {name} must appear in GROUP BY"
                )));
            }
        }
        if matches!(p, Projection::Star) {
            return Err(SqlError::Semantic("SELECT * cannot be aggregated".into()));
        }
    }
    let group_cols: Vec<usize> = query
        .group_by
        .iter()
        .map(|name| {
            schema
                .index_of(name)
                .ok_or_else(|| SqlError::UnknownColumn(name.clone()))
        })
        .collect::<Result<_, _>>()?;

    let mut outputs: Vec<OutputExpr> = Vec::new();
    let mut schema_cols: Vec<(String, ColumnType)> = Vec::new();
    for p in &query.projections {
        match p {
            Projection::Column(name) => {
                let gi = query.group_by.iter().position(|g| g == name).unwrap();
                outputs.push(OutputExpr::Key(gi));
                let c = group_cols[gi];
                schema_cols.push((name.clone(), schema.column_type(c)));
            }
            Projection::Aggregate(agg, col) => {
                let col_idx = match col {
                    Some(c) => Some(
                        schema
                            .index_of(c)
                            .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?,
                    ),
                    None => None,
                };
                let name = match col {
                    Some(c) => format!("{}_{}", agg_name(*agg), c),
                    None => "count".to_string(),
                };
                let ty = match agg {
                    AggFn::Count => ColumnType::Int,
                    AggFn::Sum | AggFn::Avg => ColumnType::Float,
                    AggFn::Min | AggFn::Max => match col_idx {
                        Some(c) => schema.column_type(c),
                        None => return Err(SqlError::Semantic("MIN/MAX need a column".into())),
                    },
                };
                outputs.push(OutputExpr::Agg(*agg, col_idx));
                schema_cols.push((name, ty));
            }
            Projection::Star => unreachable!(),
        }
    }
    let out = Schema::new(schema_cols.iter().map(|(n, t)| (n.as_str(), *t)).collect());
    Ok((
        Shape::Grouped {
            group_cols,
            outputs,
        },
        out,
    ))
}

// --------------------------------------------------- decomposable aggregates

/// Partial state of one aggregate — the worker-side half of a decomposed
/// aggregation. `update` folds in one input row, `merge` folds in another
/// partial (in segment order), `finalize` produces the output cell.
///
/// Every state is order-independent or first-wins, so merging S segment
/// partials in segment order is byte-identical to one full scan:
/// * `Count` adds `i64`s (associative);
/// * `Sum`/`Avg` accumulate into [`ExactSum`], which is exact — float
///   addition order cannot change the rounded result;
/// * `Min`/`Max` keep the **first** value of a `sql_cmp`-equal tie (e.g.
///   `Int(2)` vs `Float(2.0)`), in input row order.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum(ExactSum),
    Avg { sum: ExactSum, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(agg: AggFn) -> Self {
        match agg {
            AggFn::Count => AggState::Count(0),
            AggFn::Sum => AggState::Sum(ExactSum::new()),
            AggFn::Avg => AggState::Avg {
                sum: ExactSum::new(),
                n: 0,
            },
            AggFn::Min => AggState::Min(None),
            AggFn::Max => AggState::Max(None),
        }
    }

    /// Fold in one row's value; `None` means `COUNT(*)` (no column).
    pub(crate) fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => match v {
                None => *n += 1,        // COUNT(*): every row
                Some(Value::Null) => {} // COUNT(col): non-null only
                Some(_) => *n += 1,
            },
            AggState::Sum(sum) => {
                if let Some(x) = v.and_then(|v| v.as_f64()) {
                    sum.add(x);
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(x) = v.and_then(|v| v.as_f64()) {
                    sum.add(x);
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v.filter(|v| **v != Value::Null) {
                    match cur {
                        None => *cur = Some(v.clone()),
                        Some(c) => {
                            if v.sql_cmp(c) == std::cmp::Ordering::Less {
                                *cur = Some(v.clone()); // strict: first tie wins
                            }
                        }
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v.filter(|v| **v != Value::Null) {
                    match cur {
                        None => *cur = Some(v.clone()),
                        Some(c) => {
                            if v.sql_cmp(c) == std::cmp::Ordering::Greater {
                                *cur = Some(v.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fold in a later segment's partial. Must be called in segment order
    /// so the MIN/MAX first-wins tie rule matches a sequential scan.
    pub(crate) fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => a.merge(&b),
            (AggState::Avg { sum: a, n: an }, AggState::Avg { sum: b, n: bn }) => {
                a.merge(&b);
                *an += bn;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    match a {
                        None => *a = Some(bv),
                        Some(av) => {
                            if bv.sql_cmp(av) == std::cmp::Ordering::Less {
                                *a = Some(bv); // strict: earlier segment wins ties
                            }
                        }
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    match a {
                        None => *a = Some(bv),
                        Some(av) => {
                            if bv.sql_cmp(av) == std::cmp::Ordering::Greater {
                                *a = Some(bv);
                            }
                        }
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    pub(crate) fn finalize(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(sum) => Value::Float(sum.value()),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.value() / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

// ----------------------------------------------------- partials and merging

/// Per-group aggregate states keyed by the group key (BTreeMap = the
/// engine's canonical group output order).
pub(crate) type Groups = BTreeMap<Vec<OrdValue>, Vec<AggState>>;

/// What one worker ships back from its row-range segment.
#[derive(Debug)]
pub(crate) struct Partial {
    /// Rows examined (the whole segment; filters don't shrink this).
    pub(crate) scanned: u64,
    pub(crate) data: PartialData,
}

#[derive(Debug)]
pub(crate) enum PartialData {
    /// Projected rows tagged with their global input row index (the
    /// deterministic tie-break). With ORDER BY the list is sorted by
    /// (key, index) — bounded to LIMIT entries when a LIMIT is set.
    Rows(Vec<(usize, Vec<Value>)>),
    /// Grouped aggregate partials.
    Groups(Groups),
}

/// Run the planned scan over `range` (a contiguous row segment) and emit a
/// mergeable partial. Infallible: `plan` resolved every name already.
pub(crate) fn execute_partial(plan: &ExecPlan, table: &Table, range: Range<usize>) -> Partial {
    let scanned = range.len() as u64;
    let pass = |r: usize| plan.filter.as_ref().is_none_or(|f| f.eval(table, r));
    let data = match &plan.shape {
        Shape::Plain { cols } => {
            let project = |r: usize| -> Vec<Value> {
                cols.iter().map(|&c| table.cell(r, c).clone()).collect()
            };
            let rows = match (plan.order, plan.limit) {
                // ORDER BY + LIMIT: bounded top-K, never materializes more
                // than K rows per segment.
                (Some((key, desc)), Some(k)) => bounded_top_k(
                    range.filter(|&r| pass(r)).map(|r| (r, project(r))),
                    key,
                    desc,
                    k,
                ),
                // ORDER BY only: sort the segment so the coordinator can
                // k-way merge.
                (Some((key, desc)), None) => {
                    let mut rows: Vec<(usize, Vec<Value>)> = range
                        .filter(|&r| pass(r))
                        .map(|r| (r, project(r)))
                        .collect();
                    sort_rows(&mut rows, key, desc);
                    rows
                }
                // No ORDER BY: input order; a LIMIT caps what we keep (the
                // coordinator truncates the segment-order concatenation).
                (None, limit) => {
                    let cap = limit.unwrap_or(usize::MAX);
                    let mut rows = Vec::new();
                    for r in range {
                        if rows.len() >= cap {
                            break;
                        }
                        if pass(r) {
                            rows.push((r, project(r)));
                        }
                    }
                    rows
                }
            };
            PartialData::Rows(rows)
        }
        Shape::Grouped {
            group_cols,
            outputs,
        } => {
            let new_states = || -> Vec<AggState> {
                outputs
                    .iter()
                    .filter_map(|o| match o {
                        OutputExpr::Agg(agg, _) => Some(AggState::new(*agg)),
                        OutputExpr::Key(_) => None,
                    })
                    .collect()
            };
            let mut groups: Groups = BTreeMap::new();
            // Global aggregate: a single (possibly empty) group per segment;
            // empty-segment states are neutral under merge.
            if group_cols.is_empty() {
                groups.insert(Vec::new(), new_states());
            }
            for r in range {
                if !pass(r) {
                    continue;
                }
                let key: Vec<OrdValue> = group_cols
                    .iter()
                    .map(|&c| OrdValue(table.cell(r, c).clone()))
                    .collect();
                let states = groups.entry(key).or_insert_with(new_states);
                let mut si = 0;
                for o in outputs {
                    if let OutputExpr::Agg(_, col) = o {
                        states[si].update(col.map(|c| table.cell(r, c)));
                        si += 1;
                    }
                }
            }
            PartialData::Groups(groups)
        }
    };
    Partial { scanned, data }
}

/// Coordinator-side merge counters (the bench's counted-work gates).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FinishStats {
    /// Partials folded into the merge.
    pub(crate) partials: u64,
    /// Group keys that existed in more than one partial (per extra partial).
    pub(crate) group_keys_merged: u64,
    /// Rows shipped by workers into the final merge (for top-K queries this
    /// is ≤ LIMIT · segments, where a full sort would ship every row).
    pub(crate) rows_materialized: u64,
}

/// Merge worker partials **in segment order** and apply ORDER BY/LIMIT.
/// One segment ⇒ plain single-process execution; the result is identical
/// for any segmentation of the same input.
pub(crate) fn finish(plan: &ExecPlan, partials: Vec<Partial>) -> (Table, FinishStats) {
    let mut stats = FinishStats {
        partials: partials.len() as u64,
        ..FinishStats::default()
    };
    let rows: Vec<(usize, Vec<Value>)> = match &plan.shape {
        Shape::Grouped { outputs, .. } => {
            let mut merged: Groups = BTreeMap::new();
            for partial in partials {
                let PartialData::Groups(part) = partial.data else {
                    unreachable!("plain partial in grouped plan")
                };
                stats.rows_materialized += part.len() as u64;
                for (key, states) in part {
                    match merged.entry(key) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(states);
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            stats.group_keys_merged += 1;
                            for (a, b) in e.get_mut().iter_mut().zip(states) {
                                a.merge(b);
                            }
                        }
                    }
                }
            }
            // Finalize groups in key order; the ordinal doubles as the
            // ORDER BY tie-break (group order is already deterministic).
            let mut rows: Vec<(usize, Vec<Value>)> = Vec::with_capacity(merged.len());
            for (ordinal, (key, states)) in merged.into_iter().enumerate() {
                let mut states = states.into_iter();
                let row: Vec<Value> = outputs
                    .iter()
                    .map(|o| match o {
                        OutputExpr::Key(gi) => key[*gi].0.clone(),
                        OutputExpr::Agg(..) => {
                            states.next().expect("state per aggregate").finalize()
                        }
                    })
                    .collect();
                rows.push((ordinal, row));
            }
            match (plan.order, plan.limit) {
                (Some((key, desc)), Some(k)) => bounded_top_k(rows.into_iter(), key, desc, k),
                (Some((key, desc)), None) => {
                    let mut rows = rows;
                    sort_rows(&mut rows, key, desc);
                    rows
                }
                (None, Some(k)) => {
                    let mut rows = rows;
                    rows.truncate(k);
                    rows
                }
                (None, None) => rows,
            }
        }
        Shape::Plain { .. } => {
            let lists: Vec<Vec<(usize, Vec<Value>)>> = partials
                .into_iter()
                .map(|p| {
                    let PartialData::Rows(rows) = p.data else {
                        unreachable!("grouped partial in plain plan")
                    };
                    stats.rows_materialized += rows.len() as u64;
                    rows
                })
                .collect();
            match plan.order {
                Some((key, desc)) => merge_sorted(lists, key, desc, plan.limit),
                None => {
                    let cap = plan.limit.unwrap_or(usize::MAX);
                    let mut out = Vec::new();
                    for list in lists {
                        for row in list {
                            if out.len() >= cap {
                                break;
                            }
                            out.push(row);
                        }
                    }
                    out
                }
            }
        }
    };
    let table = Table::from_rows(plan.schema.clone(), rows.into_iter().map(|(_, r)| r));
    (table, stats)
}

// -------------------------------------------------- ORDER BY / LIMIT: top-K

/// A row ranked for ORDER BY. The total order is (sort key under `sql_cmp`,
/// reversed when descending) then **global input row index ascending** —
/// the documented deterministic tie-break: rows with equal keys keep their
/// input order, so per-segment top-K selections merge to exactly what a
/// stable full sort would produce.
struct Ranked {
    key: Value,
    idx: usize,
    desc: bool,
    row: Vec<Value>,
}

impl Ranked {
    fn output_order(&self, other: &Self) -> std::cmp::Ordering {
        let k = self.key.sql_cmp(&other.key);
        let k = if self.desc { k.reverse() } else { k };
        k.then(self.idx.cmp(&other.idx))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.output_order(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.output_order(other)
    }
}

/// Keep the first `k` rows in output order without materializing more than
/// `k + 1` entries: a max-heap of the current worst keeps eviction O(log k).
fn bounded_top_k(
    rows: impl Iterator<Item = (usize, Vec<Value>)>,
    key_col: usize,
    desc: bool,
    k: usize,
) -> Vec<(usize, Vec<Value>)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k + 1);
    for (idx, row) in rows {
        heap.push(Ranked {
            key: row[key_col].clone(),
            idx,
            desc,
            row,
        });
        if heap.len() > k {
            heap.pop(); // evict the worst of the k+1
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|r| (r.idx, r.row))
        .collect()
}

/// Full sort in output order (same key + input-index tie-break as
/// [`bounded_top_k`], so the two paths agree wherever both apply).
fn sort_rows(rows: &mut [(usize, Vec<Value>)], key_col: usize, desc: bool) {
    rows.sort_by(|a, b| {
        let k = a.1[key_col].sql_cmp(&b.1[key_col]);
        let k = if desc { k.reverse() } else { k };
        k.then(a.0.cmp(&b.0))
    });
}

/// K-way merge of per-segment lists already sorted in output order,
/// truncated to `limit`. Ties across segments resolve by global row index,
/// matching the single-segment sort exactly.
fn merge_sorted(
    lists: Vec<Vec<(usize, Vec<Value>)>>,
    key_col: usize,
    desc: bool,
    limit: Option<usize>,
) -> Vec<(usize, Vec<Value>)> {
    let cap = limit.unwrap_or(usize::MAX);
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::new();
    while out.len() < cap {
        let mut best: Option<usize> = None;
        for (p, list) in lists.iter().enumerate() {
            if heads[p] >= list.len() {
                continue;
            }
            best = match best {
                None => Some(p),
                Some(b) => {
                    let (bi, brow) = &lists[b][heads[b]];
                    let (pi, prow) = &list[heads[p]];
                    let k = prow[key_col].sql_cmp(&brow[key_col]);
                    let k = if desc { k.reverse() } else { k };
                    if k.then(pi.cmp(bi)) == std::cmp::Ordering::Less {
                        Some(p)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { break };
        out.push(lists[b][heads[b]].clone());
        heads[b] += 1;
    }
    out
}

fn agg_name(agg: AggFn) -> &'static str {
    match agg {
        AggFn::Count => "count",
        AggFn::Sum => "sum",
        AggFn::Avg => "avg",
        AggFn::Min => "min",
        AggFn::Max => "max",
    }
}

// ------------------------------------------------------- inner equi-join

/// A join with key columns resolved and the output schema computed.
#[derive(Debug, Clone)]
pub(crate) struct JoinPlan {
    pub(crate) left_col: usize,
    pub(crate) right_col: usize,
    /// Left columns as-is, then right columns; a right column whose name
    /// collides with a left one is prefixed `<right_table>_`.
    pub(crate) schema: Schema,
}

/// Resolve join key columns and build the joined output schema.
pub(crate) fn plan_join(
    join: &JoinClause,
    left: &Schema,
    right: &Schema,
) -> Result<JoinPlan, SqlError> {
    let left_col = left
        .index_of(&join.left_col)
        .ok_or_else(|| SqlError::UnknownColumn(join.left_col.clone()))?;
    let right_col = right
        .index_of(&join.right_col)
        .ok_or_else(|| SqlError::UnknownColumn(join.right_col.clone()))?;
    let mut cols: Vec<(String, ColumnType)> = (0..left.len())
        .map(|c| (left.name(c).to_string(), left.column_type(c)))
        .collect();
    for c in 0..right.len() {
        let base = right.name(c);
        let name = if cols.iter().any(|(n, _)| n == base) {
            format!("{}_{}", join.table, base)
        } else {
            base.to_string()
        };
        if cols.iter().any(|(n, _)| *n == name) {
            return Err(SqlError::Semantic(format!(
                "join output column name collision: {name}"
            )));
        }
        cols.push((name, right.column_type(c)));
    }
    let schema = Schema::new(cols.iter().map(|(n, t)| (n.as_str(), *t)).collect());
    Ok(JoinPlan {
        left_col,
        right_col,
        schema,
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Partition hash for join keys, consistent with `sql_cmp` equality:
/// numerically equal `Int`/`Float` keys (which `sql_cmp` treats as equal,
/// e.g. `Int(2)` and `Float(2.0)`) hash identically, so hash-partitioned
/// workers see every row of an equality class. NULL never reaches this
/// (inner-join semantics drop NULL keys first).
pub(crate) fn join_hash(v: &Value) -> u64 {
    let (tag, payload): (u64, u64) = match v {
        Value::Null => (0, 0),
        Value::Bool(b) => (1, *b as u64),
        Value::Int(i) => (2, (*i as f64).to_bits()),
        Value::Float(f) => (2, f.to_bits()),
        Value::Text(s) => {
            // FNV-1a over the bytes.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in s.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            (3, h)
        }
    };
    splitmix64(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ splitmix64(payload))
}

/// Hash-join one partition: build a key → row-index map from `right_rows`
/// (in index order), probe `left_rows` in index order. Output pairs are
/// `(left row index, combined row)`, sorted by left index by construction,
/// with matches for one left row in right index order — exactly the order
/// a full nested probe of the whole tables produces, which is why
/// per-partition outputs k-way-merge back to the single-process result.
/// NULL join keys on either side are dropped (SQL inner-join semantics).
pub(crate) fn join_probe(
    jp: &JoinPlan,
    left: &Table,
    right: &Table,
    left_rows: &[usize],
    right_rows: &[usize],
) -> Vec<(usize, Vec<Value>)> {
    let mut built: BTreeMap<OrdValue, Vec<usize>> = BTreeMap::new();
    for &r in right_rows {
        let k = right.cell(r, jp.right_col);
        if k == &Value::Null {
            continue;
        }
        built.entry(OrdValue(k.clone())).or_default().push(r);
    }
    let mut out = Vec::new();
    for &l in left_rows {
        let k = left.cell(l, jp.left_col);
        if k == &Value::Null {
            continue;
        }
        if let Some(matches) = built.get(&OrdValue(k.clone())) {
            for &r in matches {
                let mut row: Vec<Value> = (0..left.schema().len())
                    .map(|c| left.cell(l, c).clone())
                    .collect();
                row.extend((0..right.schema().len()).map(|c| right.cell(r, c).clone()));
                out.push((l, row));
            }
        }
    }
    out
}

/// Single-process inner equi-join: one partition covering both tables.
pub(crate) fn join_tables(
    join: &JoinClause,
    left: &Table,
    right: &Table,
) -> Result<Table, SqlError> {
    let jp = plan_join(join, left.schema(), right.schema())?;
    let left_rows: Vec<usize> = (0..left.n_rows()).collect();
    let right_rows: Vec<usize> = (0..right.n_rows()).collect();
    let rows = join_probe(&jp, left, right, &left_rows, &right_rows);
    Ok(Table::from_rows(
        jp.schema,
        rows.into_iter().map(|(_, r)| r),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn execute(query: &Query, table: &Table) -> Result<Table, SqlError> {
        execute_with(query, table, None)
    }

    fn tx_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ("user", ColumnType::Text),
            ("day", ColumnType::Int),
            ("amount", ColumnType::Float),
            ("fraud", ColumnType::Bool),
        ]));
        for (u, d, a, f) in [
            ("zoe", 1, 10.0, false),
            ("zoe", 2, 20.0, true),
            ("sam", 1, 5.0, false),
            ("sam", 2, 15.0, false),
            ("liam", 3, 100.0, true),
        ] {
            t.push_row(vec![u.into(), (d as i64).into(), a.into(), f.into()]);
        }
        t
    }

    fn run(sql: &str) -> Table {
        execute(&parse(sql).unwrap(), &tx_table()).unwrap()
    }

    #[test]
    fn select_star_with_where() {
        let r = run("SELECT * FROM tx WHERE day = 2");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.schema().len(), 4);
    }

    #[test]
    fn projection_selects_columns() {
        let r = run("SELECT user, amount FROM tx WHERE amount > 10");
        assert_eq!(r.schema().names(), vec!["user", "amount"]);
        assert_eq!(r.n_rows(), 3);
    }

    #[test]
    fn group_by_with_aggregates() {
        let r = run("SELECT user, COUNT(*), SUM(amount) FROM tx GROUP BY user");
        assert_eq!(r.n_rows(), 3);
        // BTreeMap ordering: liam, sam, zoe.
        assert_eq!(r.cell(0, 0).as_str(), Some("liam"));
        assert_eq!(r.cell(1, 0).as_str(), Some("sam"));
        assert_eq!(r.cell(1, 1).as_i64(), Some(2));
        assert_eq!(r.cell(1, 2).as_f64(), Some(20.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let r = run("SELECT COUNT(*), AVG(amount), MAX(amount) FROM tx WHERE fraud = true");
        assert_eq!(r.n_rows(), 1);
        assert_eq!(r.cell(0, 0).as_i64(), Some(2));
        assert_eq!(r.cell(0, 1).as_f64(), Some(60.0));
        assert_eq!(r.cell(0, 2).as_f64(), Some(100.0));
    }

    #[test]
    fn and_or_precedence() {
        // AND binds tighter: day = 1 OR (day = 2 AND fraud = true).
        let r = run("SELECT user FROM tx WHERE day = 1 OR day = 2 AND fraud = true");
        assert_eq!(r.n_rows(), 3); // zoe@1, sam@1, zoe@2
    }

    #[test]
    fn order_by_desc_and_limit() {
        let r = run("SELECT user, amount FROM tx ORDER BY amount DESC LIMIT 2");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.cell(0, 0).as_str(), Some("liam"));
        assert_eq!(r.cell(1, 1).as_f64(), Some(20.0));
    }

    #[test]
    fn is_null_filters() {
        let mut t = tx_table();
        t.push_row(vec![Value::Null, 9.into(), 1.0.into(), false.into()]);
        let q = parse("SELECT day FROM tx WHERE user IS NULL").unwrap();
        let r = execute(&q, &t).unwrap();
        assert_eq!(r.n_rows(), 1);
        let q = parse("SELECT day FROM tx WHERE user IS NOT NULL").unwrap();
        let r = execute(&q, &t).unwrap();
        assert_eq!(r.n_rows(), 5);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let q = parse("SELECT nope FROM tx").unwrap();
        assert!(matches!(
            execute(&q, &tx_table()),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ungrouped_bare_column_with_aggregate_rejected() {
        let q = parse("SELECT user, COUNT(*) FROM tx").unwrap();
        assert!(matches!(
            execute(&q, &tx_table()),
            Err(SqlError::Semantic(_))
        ));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELEC user FROM tx").is_err());
        assert!(parse("SELECT user FROM tx WHERE").is_err());
        assert!(parse("SELECT user FROM tx LIMIT x").is_err());
        assert!(parse("SELECT user FROM tx WHERE user = 'unterminated").is_err());
        assert!(parse("SELECT user FROM tx extra tokens").is_err());
    }

    #[test]
    fn string_and_comparison_operators() {
        let r = run("SELECT user FROM tx WHERE user = 'zoe' AND amount >= 10");
        assert_eq!(r.n_rows(), 2);
        let r = run("SELECT user FROM tx WHERE user != 'zoe'");
        assert_eq!(r.n_rows(), 3);
        let r = run("SELECT user FROM tx WHERE day <> 1");
        assert_eq!(r.n_rows(), 3);
    }

    #[test]
    fn negative_limit_is_a_typed_parse_error() {
        match parse("SELECT user FROM tx LIMIT -1") {
            Err(SqlError::Parse(msg)) => {
                assert!(msg.contains("non-negative"), "got message: {msg}")
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
        // LIMIT 0 stays valid and yields an empty result.
        let r = run("SELECT user FROM tx LIMIT 0");
        assert_eq!(r.n_rows(), 0);
    }

    #[test]
    fn order_by_tie_break_is_input_row_order() {
        // Two rows share day=1 and two share day=2; stable tie-break means
        // equal keys keep their input order, both with and without LIMIT.
        let full = run("SELECT user, day FROM tx ORDER BY day ASC");
        assert_eq!(full.cell(0, 0).as_str(), Some("zoe")); // row 0, day 1
        assert_eq!(full.cell(1, 0).as_str(), Some("sam")); // row 2, day 1
        assert_eq!(full.cell(2, 0).as_str(), Some("zoe")); // row 1, day 2
        assert_eq!(full.cell(3, 0).as_str(), Some("sam")); // row 3, day 2
        let top = run("SELECT user, day FROM tx ORDER BY day ASC LIMIT 3");
        for i in 0..3 {
            assert_eq!(top.row(i), full.row(i), "top-K must agree with full sort");
        }
    }

    fn labels_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ("user", ColumnType::Text),
            ("band", ColumnType::Int),
        ]));
        for (u, b) in [("zoe", 1), ("liam", 2), ("nobody", 9)] {
            t.push_row(vec![u.into(), (b as i64).into()]);
        }
        t.push_row(vec![Value::Null, 7.into()]); // NULL key: dropped by join
        t
    }

    fn run_join(sql_text: &str) -> Table {
        execute_with(
            &parse(sql_text).unwrap(),
            &tx_table(),
            Some(&labels_table()),
        )
        .unwrap()
    }

    #[test]
    fn join_parses_and_matches_rows() {
        let q = parse("SELECT user, band FROM tx JOIN labels ON tx.user = labels.user").unwrap();
        let j = q.join.as_ref().unwrap();
        assert_eq!(j.table, "labels");
        assert_eq!(j.left_col, "user");
        assert_eq!(j.right_col, "user");
        // zoe appears twice in tx, liam once; sam/nobody unmatched.
        let r = run_join("SELECT user, band FROM tx JOIN labels ON tx.user = labels.user");
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.cell(0, 0).as_str(), Some("zoe"));
        assert_eq!(r.cell(0, 1).as_i64(), Some(1));
        assert_eq!(r.cell(2, 0).as_str(), Some("liam"));
        assert_eq!(r.cell(2, 1).as_i64(), Some(2));
    }

    #[test]
    fn join_reversed_qualification_and_aggregation() {
        // ON sides may be written in either order.
        let r = run_join(
            "SELECT band, COUNT(*), SUM(amount) FROM tx \
             JOIN labels ON labels.user = tx.user GROUP BY band",
        );
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.cell(0, 0).as_i64(), Some(1)); // band 1 = zoe
        assert_eq!(r.cell(0, 1).as_i64(), Some(2));
        assert_eq!(r.cell(0, 2).as_f64(), Some(30.0));
        assert_eq!(r.cell(1, 2).as_f64(), Some(100.0)); // band 2 = liam
    }

    #[test]
    fn join_renames_colliding_right_columns() {
        let r = run_join("SELECT * FROM tx JOIN labels ON tx.user = labels.user");
        assert_eq!(
            r.schema().names(),
            vec!["user", "day", "amount", "fraud", "labels_user", "band"]
        );
    }

    #[test]
    fn join_null_keys_are_dropped() {
        let mut tx = tx_table();
        tx.push_row(vec![Value::Null, 5.into(), 1.0.into(), false.into()]);
        let q = parse("SELECT user, band FROM tx JOIN labels ON tx.user = labels.user").unwrap();
        let r = execute_with(&q, &tx, Some(&labels_table())).unwrap();
        assert_eq!(r.n_rows(), 3, "NULL keys must not match NULL keys");
    }

    #[test]
    fn join_errors_are_typed() {
        assert!(matches!(
            parse("SELECT a FROM tx JOIN tx ON tx.a = tx.a"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT a FROM tx JOIN lb ON other.a = lb.a"),
            Err(SqlError::Parse(_))
        ));
        assert!(matches!(
            parse("SELECT a FROM tx JOIN lb ON tx.a lb.a"),
            Err(SqlError::Parse(_))
        ));
        // Join query without a right-side table is a semantic error.
        let q = parse("SELECT user FROM tx JOIN labels ON tx.user = labels.user").unwrap();
        assert!(matches!(
            execute(&q, &tx_table()),
            Err(SqlError::Semantic(_))
        ));
        // Unknown join key column.
        let q = parse("SELECT user FROM tx JOIN labels ON tx.nope = labels.user").unwrap();
        assert!(matches!(
            execute_with(&q, &tx_table(), Some(&labels_table())),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn join_hash_consistent_with_sql_cmp_equality() {
        // Int and Float keys that sql_cmp treats as equal must hash alike,
        // or hash partitioning would split an equality class.
        assert_eq!(join_hash(&Value::Int(2)), join_hash(&Value::Float(2.0)));
        assert_ne!(join_hash(&Value::Int(2)), join_hash(&Value::Int(3)));
        assert_ne!(
            join_hash(&Value::Text("a".into())),
            join_hash(&Value::Text("b".into()))
        );
    }

    #[test]
    fn exact_sum_makes_aggregation_order_independent() {
        // 1e16 + 1 + (-1e16) in input order: a naive left-to-right f64 sum
        // gives 0.0 here. The exact accumulator returns 1.0.
        let mut t = Table::new(Schema::new(vec![
            ("g", ColumnType::Int),
            ("x", ColumnType::Float),
        ]));
        for x in [1e16, 1.0, -1e16] {
            t.push_row(vec![1i64.into(), x.into()]);
        }
        let q = parse("SELECT g, SUM(x), AVG(x) FROM t GROUP BY g").unwrap();
        let r = execute(&q, &t).unwrap();
        assert_eq!(r.cell(0, 1).as_f64(), Some(1.0));
        assert_eq!(r.cell(0, 2).as_f64(), Some(1.0 / 3.0));
    }
}
