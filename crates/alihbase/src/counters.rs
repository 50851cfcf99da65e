//! Counter sets, declared once.
//!
//! Every set of monotone counters the store and the Model Server keep is
//! one [`counter_set!`] declaration: a field list from which the macro
//! writes the snapshot struct (plain `u64`s), its field-wise `add` and
//! saturating `since`, and — when asked — the live twin the hot path bumps
//! (one [`Counter`] per field) with its `snapshot()`. A field exists in one
//! place, so the copies can no longer disagree.

use std::sync::atomic::{AtomicU64, Ordering};

/// One monotone event count: a relaxed `AtomicU64` that only ever grows.
/// The field type of every live twin a [`counter_set!`] declares.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count `n` events: one relaxed atomic add.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The count so far (a relaxed load).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declare a counter set once.
///
/// The struct is written as usual, every field a `u64`. The macro emits it
/// with its attributes and field docs, plus:
///
/// * `add(&mut self, other)` — field-wise sum, for aggregating disjoint
///   sources (replicas, regions, retired stores);
/// * `since(&self, earlier)` — field-wise delta, **saturating** at zero, so
///   a counter that reads lower than before reports 0, never a wrapped
///   count.
///
/// An optional trailing `struct Name;` line declares the live twin: one
/// [`Counter`] per field under the same names, `Default`, and
/// `snapshot()` loading each into the snapshot struct.
///
/// ```
/// titant_alihbase::counter_set! {
///     /// What a request loop did.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Events {
///         /// Requests answered.
///         pub served: u64,
///         /// Requests dropped.
///         pub dropped: u64,
///     }
///     /// The counters the loop bumps.
///     pub struct LiveEvents;
/// }
///
/// let live = LiveEvents::default();
/// let before = live.snapshot();
/// live.dropped.add(2);
/// let after = live.snapshot();
/// assert_eq!(after.since(&before), Events { served: 0, dropped: 2 });
/// assert_eq!(before.since(&after), Events::default());
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: u64 ),* $(,)?
        }
        $(#[$lmeta:meta])*
        $lvis:vis struct $live:ident;
    ) => {
        $crate::counter_set! {
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* $fvis $field: u64, )*
            }
        }

        $(#[$lmeta])*
        #[derive(Debug, Default)]
        $lvis struct $live {
            $( $lvis $field: $crate::Counter, )*
        }

        impl $live {
            /// Point-in-time copy of every counter, one relaxed load each.
            pub fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.get(), )* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident: u64 ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: u64, )*
        }

        impl $name {
            /// Field-wise sum (aggregation across disjoint sources).
            pub fn add(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }

            /// Field-wise delta against an earlier snapshot, saturating at
            /// zero.
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $( $field: self.$field.saturating_sub(earlier.$field), )* }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Counter;
    use crate::region::LiveOpCounts;
    use crate::store::LiveWriteStats;
    use crate::{StoreOpCounts, TickReport, WriteStatsSnapshot};

    /// The copy-paste check a generated set must pass: for each field `i`
    /// (`fields[i]` writes it), the set holding `i + 1` there and zeros
    /// elsewhere comes back unchanged through `add` onto zeros and `since`
    /// zeros, and zeros `since` it are all zeros. Returns those one-field
    /// sets for [`check_live`].
    fn check_set<S: Copy + Default + PartialEq + std::fmt::Debug>(
        fields: &[fn(&mut S) -> &mut u64],
        add: fn(&mut S, &S),
        since: fn(&S, &S) -> S,
    ) -> Vec<S> {
        let zero = S::default();
        let mut singles = Vec::new();
        for (i, field) in fields.iter().enumerate() {
            let mut one = zero;
            *field(&mut one) = i as u64 + 1;
            let mut sum = zero;
            add(&mut sum, &one);
            assert_eq!(sum, one, "add moved field {i}");
            assert_eq!(since(&one, &zero), one, "since moved field {i}");
            assert_eq!(since(&zero, &one), zero, "since must saturate (field {i})");
            singles.push(one);
        }
        singles
    }

    /// Bumping live field `i` by `i + 1` snapshots as `singles[i]`.
    fn check_live<L: Default, S: PartialEq + std::fmt::Debug>(
        live_fields: &[fn(&L) -> &Counter],
        snapshot: fn(&L) -> S,
        singles: &[S],
    ) {
        assert_eq!(live_fields.len(), singles.len());
        for (i, (field, want)) in live_fields.iter().zip(singles).enumerate() {
            let live = L::default();
            field(&live).add(i as u64 + 1);
            assert_eq!(&snapshot(&live), want, "snapshot moved field {i}");
        }
    }

    #[test]
    fn store_op_counts_map_every_field_to_itself() {
        let singles = check_set::<StoreOpCounts>(
            &[
                |s| &mut s.row_gets,
                |s| &mut s.puts,
                |s| &mut s.deletes,
                |s| &mut s.scans,
                |s| &mut s.runs_scanned,
                |s| &mut s.runs_skipped,
                |s| &mut s.bloom_false_positives,
                |s| &mut s.torn_cells,
            ],
            StoreOpCounts::add,
            StoreOpCounts::since,
        );
        check_live::<LiveOpCounts, _>(
            &[
                |l| &l.row_gets,
                |l| &l.puts,
                |l| &l.deletes,
                |l| &l.scans,
                |l| &l.runs_scanned,
                |l| &l.runs_skipped,
                |l| &l.bloom_false_positives,
                |l| &l.torn_cells,
            ],
            LiveOpCounts::snapshot,
            &singles,
        );
    }

    #[test]
    fn write_stats_map_every_field_to_itself() {
        let singles = check_set::<WriteStatsSnapshot>(
            &[
                |s| &mut s.lock_acquisitions,
                |s| &mut s.cells_written,
                |s| &mut s.batches,
                |s| &mut s.wal_frames,
                |s| &mut s.wal_records,
                |s| &mut s.wal_syncs,
                |s| &mut s.wal_bytes,
                |s| &mut s.wal_simulated_wait_micros,
                |s| &mut s.wal_append_failures,
                |s| &mut s.wal_sync_failures,
                |s| &mut s.power_loss_recoveries,
                |s| &mut s.orphans_cleaned,
            ],
            WriteStatsSnapshot::add,
            WriteStatsSnapshot::since,
        );
        check_live::<LiveWriteStats, _>(
            &[
                |l| &l.lock_acquisitions,
                |l| &l.cells_written,
                |l| &l.batches,
                |l| &l.wal_frames,
                |l| &l.wal_records,
                |l| &l.wal_syncs,
                |l| &l.wal_bytes,
                |l| &l.wal_simulated_wait_micros,
                |l| &l.wal_append_failures,
                |l| &l.wal_sync_failures,
                |l| &l.power_loss_recoveries,
                |l| &l.orphans_cleaned,
            ],
            LiveWriteStats::snapshot,
            &singles,
        );
    }

    #[test]
    fn tick_report_maps_every_field_to_itself() {
        check_set::<TickReport>(
            &[
                |s| &mut s.compactions,
                |s| &mut s.runs_merged,
                |s| &mut s.wal_synced,
                |s| &mut s.region_splits,
                |s| &mut s.region_merges,
                |s| &mut s.wal_sync_errors,
            ],
            TickReport::add,
            TickReport::since,
        );
    }
}
