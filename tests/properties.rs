//! Property-based tests on the core data structures and invariants
//! (proptest).

use proptest::prelude::*;
use titant::alihbase::{CellKey, Store, StoreConfig};
use titant::eval;
use titant::models::{BinningStrategy, Dataset, Discretizer};
use titant::txgraph::{AliasTable, NodeId, TransactionRecord, TxGraphBuilder, UserId};

proptest! {
    /// CSR construction: in-degree totals equal out-degree totals, node
    /// count equals distinct users, edges never exceed records.
    #[test]
    fn graph_degree_conservation(
        edges in prop::collection::vec((0u64..40, 0u64..40), 1..200)
    ) {
        let records: Vec<TransactionRecord> = edges
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| TransactionRecord::simple(UserId(a), UserId(b), 100, i as i64))
            .collect();
        let g = TxGraphBuilder::new().add_records(&records).build();
        let out_total: usize = (0..g.node_count())
            .map(|i| g.out_degree(NodeId(i as u32)))
            .sum();
        let in_total: usize = (0..g.node_count())
            .map(|i| g.in_degree(NodeId(i as u32)))
            .sum();
        prop_assert_eq!(out_total, in_total);
        prop_assert_eq!(out_total, g.edge_count());
        let distinct: std::collections::HashSet<u64> = edges
            .iter()
            .filter(|(a, b)| a != b)
            .flat_map(|&(a, b)| [a, b])
            .collect();
        prop_assert_eq!(g.node_count(), distinct.len());
        // Weight totals equal non-self-transfer record count.
        let w: f32 = (0..g.node_count())
            .flat_map(|i| g.out_weights(NodeId(i as u32)).iter().copied())
            .sum();
        let non_self = edges.iter().filter(|(a, b)| a != b).count();
        prop_assert_eq!(w as usize, non_self);
    }

    /// The alias sampler only ever returns indices with positive weight.
    #[test]
    fn alias_never_samples_zero_weight(
        weights in prop::collection::vec(0.0f32..10.0, 1..40),
        seed in 0u64..1000
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let table = AliasTable::new(&weights);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..100 {
            let i = table.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {}", i);
        }
    }

    /// Discretizer: bin_of is monotone in the value and within range.
    #[test]
    fn discretizer_bins_are_monotone(
        mut values in prop::collection::vec(-1e4f32..1e4, 4..100),
        bins in 2usize..20
    ) {
        let mut d = Dataset::new(1);
        for &v in &values {
            d.push_row(&[v], 0.0);
        }
        let disc = Discretizer::fit(&d, bins, BinningStrategy::EqualFrequency);
        values.sort_by(f32::total_cmp);
        let mut prev = 0usize;
        for &v in &values {
            let b = disc.bin_of(0, v);
            prop_assert!(b >= prev, "bins must be monotone");
            prop_assert!(b < disc.n_bins(0));
            prev = b;
        }
    }

    /// best_f1_threshold always returns an achievable operating point.
    #[test]
    fn best_f1_is_achievable(
        scored in prop::collection::vec((0.0f32..1.0, 0u8..2), 1..200)
    ) {
        let scores: Vec<f32> = scored.iter().map(|&(s, _)| s).collect();
        let labels: Vec<f32> = scored.iter().map(|&(_, y)| y as f32).collect();
        let (threshold, f1) = eval::best_f1_threshold(&scores, &labels);
        prop_assert!((eval::f1_at(&scores, &labels, threshold) - f1).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&f1));
        // No threshold in the score set beats it.
        for &t in &scores {
            prop_assert!(eval::f1_at(&scores, &labels, t) <= f1 + 1e-12);
        }
    }

    /// LSM store: a row read always returns the highest version at or below
    /// the read point, across any interleaving of writes and flushes.
    #[test]
    fn lsm_read_your_writes(
        ops in prop::collection::vec((0u8..4, 1u64..20, 0u8..2), 1..60)
    ) {
        let store = Store::open(StoreConfig::default()).unwrap();
        let mut expected: std::collections::HashMap<u8, Vec<(u64, u8)>> =
            std::collections::HashMap::new();
        for &(row, version, val) in &ops {
            let key = CellKey::new(format!("u{row}").as_str(), "cf", "q");
            let value = Some(bytes::Bytes::from(vec![val]));
            store.put_batch(vec![(key, version, value)]).unwrap();
            expected.entry(row).or_default().push((version, val));
            if version % 5 == 0 {
                store.flush().unwrap();
            }
        }
        for (row, writes) in expected {
            let key = CellKey::new(format!("u{row}").as_str(), "cf", "q");
            // Latest write at the max version wins (same-version overwrites).
            let max_v = writes.iter().map(|&(v, _)| v).max().unwrap();
            let winner = writes
                .iter()
                .rev()
                .find(|&&(v, _)| v == max_v)
                .unwrap()
                .1;
            let got = store.get_row(&key.row, u64::MAX);
            prop_assert_eq!(got.len(), 1);
            prop_assert_eq!(&got[0].0, &key);
            prop_assert_eq!(got[0].1.as_ref(), &[winner][..]);
        }
    }
}
