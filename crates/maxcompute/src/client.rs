//! The client layer: accounts, authenticated sessions, and the submit
//! paths for SQL jobs (single-process and distributed).
//!
//! Per Figure 4: "developers can login with their cloud account and submit
//! jobs by web console in client layer, where HTTP server receives the
//! command"; authentication failures never reach the server layer.

use crate::distsql::{self, DistReport};
use crate::fuxi::{Fuxi, FuxiStats};
use crate::job::Scheduler;
use crate::ots::Ots;
use crate::sql;
use crate::table::Table;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Cluster errors surfaced to clients.
#[derive(Debug)]
pub enum McError {
    /// Bad account or secret.
    AuthFailed,
    /// Referenced table does not exist.
    UnknownTable(String),
    /// SQL failure.
    Sql(sql::SqlError),
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McError::AuthFailed => write!(f, "authentication failed"),
            McError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            McError::Sql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for McError {}

/// A cloud account (name + secret).
#[derive(Debug, Clone)]
pub struct Account {
    pub name: String,
    secret: String,
}

impl Account {
    /// Create an account descriptor.
    pub fn new(name: &str, secret: &str) -> Self {
        Self {
            name: name.to_string(),
            secret: secret.to_string(),
        }
    }
}

/// The MaxCompute cluster facade.
pub struct MaxCompute {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    accounts: Mutex<HashMap<String, String>>,
    scheduler: Scheduler,
    fuxi: Fuxi,
    ots: Arc<Ots>,
}

impl MaxCompute {
    /// Boot a cluster of `slots` Fuxi compute slots, one executor thread
    /// per slot.
    pub fn new(slots: usize) -> Self {
        let fuxi = Fuxi::new(slots);
        let ots = Arc::new(Ots::new());
        let scheduler = Scheduler::new(fuxi.clone(), Arc::clone(&ots), slots);
        Self {
            tables: RwLock::new(HashMap::new()),
            accounts: Mutex::new(HashMap::new()),
            scheduler,
            fuxi,
            ots,
        }
    }

    /// Register an account.
    pub fn create_account(&self, account: &Account) {
        self.accounts
            .lock()
            .insert(account.name.clone(), account.secret.clone());
    }

    /// Authenticate and open a session (the web-console login).
    pub fn login(&self, name: &str, secret: &str) -> Result<Session<'_>, McError> {
        match self.accounts.lock().get(name) {
            Some(s) if s == secret => Ok(Session {
                mc: self,
                account: name.to_string(),
            }),
            _ => Err(McError::AuthFailed),
        }
    }

    /// The instance status table (observability).
    pub fn ots(&self) -> &Ots {
        &self.ots
    }

    /// Scheduling-pressure snapshot (peak slots, allocations, slot-wait).
    pub fn fuxi_stats(&self) -> FuxiStats {
        self.fuxi.stats()
    }
}

/// An authenticated session.
pub struct Session<'a> {
    mc: &'a MaxCompute,
    account: String,
}

impl Session<'_> {
    /// Create or replace a table.
    pub fn create_table(&self, name: &str, table: Table) {
        self.mc
            .tables
            .write()
            .insert(name.to_string(), Arc::new(table));
    }

    /// Fetch a table snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, McError> {
        self.mc
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| McError::UnknownTable(name.to_string()))
    }

    /// Run a SQL query through the full job path (OTS registration,
    /// scheduler, Fuxi slot, executor) as **one** subtask and wait for the
    /// result. This is the single-process reference engine; queries with a
    /// JOIN clause resolve the right-side table from the catalog.
    pub fn sql(&self, query: &str) -> Result<Table, McError> {
        let parsed = sql::parse(query).map_err(McError::Sql)?;
        let input = self.table(&parsed.table)?;
        let right = match &parsed.join {
            Some(j) => Some(self.table(&j.table)?),
            None => None,
        };
        let mut results = self.mc.scheduler.run_collect(
            &self.account,
            query,
            3,
            vec![move || sql::execute_with(&parsed, &input, right.as_deref())],
        );
        results
            .pop()
            .expect("subtask must have run")
            .map_err(McError::Sql)
    }

    /// Run a SQL query as a coordinator/worker job: the scan (and JOIN, if
    /// any) fans out over `segments` prioritized Fuxi subtasks and the
    /// coordinator merges the partials. The table is byte-identical to
    /// [`Session::sql`] for any `segments` and any executor pool size; the
    /// report counts the work (rows scanned, partials merged, top-K rows
    /// materialized).
    pub fn sql_distributed(
        &self,
        query: &str,
        segments: usize,
    ) -> Result<(Table, DistReport), McError> {
        let parsed = sql::parse(query).map_err(McError::Sql)?;
        let input = self.table(&parsed.table)?;
        let right = match &parsed.join {
            Some(j) => Some(self.table(&j.table)?),
            None => None,
        };
        distsql::execute_distributed(
            &parsed,
            input,
            right,
            &self.mc.scheduler,
            &self.account,
            segments,
        )
        .map_err(McError::Sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Schema;
    use crate::value::ColumnType;

    fn cluster_with_table() -> MaxCompute {
        let mc = MaxCompute::new(4);
        mc.create_account(&Account::new("ant", "s3cret"));
        let session = mc.login("ant", "s3cret").unwrap();
        let mut t = Table::new(Schema::new(vec![
            ("payer", ColumnType::Int),
            ("payee", ColumnType::Int),
            ("amount", ColumnType::Float),
        ]));
        for (a, b, amt) in [(1, 2, 10.0), (1, 2, 4.0), (3, 2, 6.0)] {
            t.push_row(vec![(a as i64).into(), (b as i64).into(), amt.into()]);
        }
        session.create_table("tx", t);
        mc
    }

    #[test]
    fn login_enforces_credentials() {
        let mc = cluster_with_table();
        assert!(mc.login("ant", "wrong").is_err());
        assert!(mc.login("nobody", "s3cret").is_err());
        assert!(mc.login("ant", "s3cret").is_ok());
    }

    #[test]
    fn sql_path_runs_through_scheduler_and_ots() {
        let mc = cluster_with_table();
        let session = mc.login("ant", "s3cret").unwrap();
        let before = mc.ots().count();
        let result = session
            .sql("SELECT payee, SUM(amount) FROM tx GROUP BY payee")
            .unwrap();
        assert_eq!(result.n_rows(), 1);
        assert_eq!(result.cell(0, 1).as_f64(), Some(20.0));
        assert_eq!(mc.ots().count(), before + 1);
        assert!(mc.ots().running().is_empty(), "instance must terminate");
    }

    #[test]
    fn sql_errors_propagate() {
        let mc = cluster_with_table();
        let session = mc.login("ant", "s3cret").unwrap();
        assert!(matches!(
            session.sql("SELECT x FROM missing"),
            Err(McError::UnknownTable(_))
        ));
        assert!(matches!(
            session.sql("SELECT nope FROM tx"),
            Err(McError::Sql(_))
        ));
    }
}
