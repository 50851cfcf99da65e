//! World generation and dataset assembly.
//!
//! [`World::generate`] builds the static population (profiles, friendship
//! communities, merchants, fraud rings, city risk), runs the day-by-day
//! simulation, and indexes the resulting transaction stream by day so the
//! paper's rolling dataset slices (Figure 8) can be cut cheaply.

use crate::config::WorldConfig;
use crate::features::{feature_names, N_BASIC_FEATURES};
use crate::profile::{Role, UserProfile};
use crate::simulate::{poisson, run, SimInputs, SimOutput, NEVER_REPORTED};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use titant_models::Dataset;
use titant_txgraph::{NodeId, TransactionRecord, TxGraph, TxGraphBuilder};

/// A fully simulated world: population + transaction history + features.
pub struct World {
    config: WorldConfig,
    profiles: Vec<UserProfile>,
    city_risk: Vec<f32>,
    rings: Vec<Vec<u32>>,
    sim: SimOutput,
    /// `day_offsets[d]..day_offsets[d+1]` indexes the records of day `d`.
    day_offsets: Vec<usize>,
}

impl World {
    /// Generate a world from a configuration. Deterministic per seed.
    pub fn generate(config: WorldConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let city_risk = gen_city_risk(&config, &mut rng);
        let mut profiles = gen_profiles(&config, &mut rng);
        let (rings, merchants) = assign_roles(&config, &mut profiles, &city_risk, &mut rng);
        let friends = gen_friendships(&config, &profiles, &mut rng);

        let sim = run(
            &SimInputs {
                config: &config,
                profiles: &profiles,
                friends: &friends,
                merchants: &merchants,
                rings: &rings,
                city_risk: &city_risk,
            },
            &mut rng,
        );

        let mut day_offsets = vec![0usize; config.n_days as usize + 1];
        for r in &sim.records {
            day_offsets[r.day() as usize + 1] += 1;
        }
        for d in 0..config.n_days as usize {
            day_offsets[d + 1] += day_offsets[d];
        }

        Self {
            config,
            profiles,
            city_risk,
            rings,
            sim,
            day_offsets,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// All user profiles, indexed by user id.
    pub fn profiles(&self) -> &[UserProfile] {
        &self.profiles
    }

    /// Static city risk priors.
    pub fn city_risk(&self) -> &[f32] {
        &self.city_risk
    }

    /// Fraud rings (ground truth, diagnostics only).
    pub fn rings(&self) -> &[Vec<u32>] {
        &self.rings
    }

    /// The full time-ordered transaction stream.
    pub fn records(&self) -> &[TransactionRecord] {
        &self.sim.records
    }

    /// Ground-truth fraud flag of record `i`.
    pub fn is_fraud(&self, i: usize) -> bool {
        self.sim.is_fraud[i]
    }

    /// Day the fraud report for record `i` arrives (`i64::MAX` if never).
    pub fn report_day(&self, i: usize) -> i64 {
        self.sim.report_day[i]
    }

    /// Record index range covering `days` (end-exclusive).
    pub fn record_range(&self, days: Range<i64>) -> Range<usize> {
        let lo = days.start.clamp(0, self.config.n_days) as usize;
        let hi = days.end.clamp(0, self.config.n_days) as usize;
        self.day_offsets[lo]..self.day_offsets[hi.max(lo)]
    }

    /// Records of the given day range.
    pub fn records_in(&self, days: Range<i64>) -> &[TransactionRecord] {
        &self.sim.records[self.record_range(days)]
    }

    /// The basic-feature row of record `i`, if materialised.
    pub fn features_of(&self, i: usize) -> Option<&[f32]> {
        let row = self.sim.feature_row[i];
        if row == u32::MAX {
            return None;
        }
        let a = row as usize * N_BASIC_FEATURES;
        Some(&self.sim.features[a..a + N_BASIC_FEATURES])
    }

    /// Label of record `i` as known on day `as_of`: fraud **and** reported
    /// by then. Pass `i64::MAX` for the eventual (evaluation-time) label.
    pub fn label_as_of(&self, i: usize, as_of: i64) -> f32 {
        (self.sim.is_fraud[i]
            && self.sim.report_day[i] <= as_of
            && self.sim.report_day[i] != NEVER_REPORTED) as u8 as f32
    }

    /// Assemble a labelled basic-feature dataset over `days`.
    ///
    /// * `as_of` — labels use only reports received by this day (the T+1
    ///   training reality); `i64::MAX` gives evaluation-time labels.
    ///
    /// Returns the dataset plus the record index of every row (needed to
    /// join embeddings).
    pub fn basic_dataset(&self, days: Range<i64>, as_of: i64) -> (Dataset, Vec<usize>) {
        assert!(
            days.start >= self.config.feature_start_day,
            "features were not materialised before day {}",
            self.config.feature_start_day
        );
        let range = self.record_range(days);
        let mut data = Dataset::new(N_BASIC_FEATURES).with_feature_names(feature_names());
        let mut idx = Vec::with_capacity(range.len());
        for i in range {
            let row = self
                .features_of(i)
                .expect("feature row must exist from feature_start_day onward");
            data.push_row(row, self.label_as_of(i, as_of));
            idx.push(i);
        }
        (data, idx)
    }

    /// Build the transaction network over `days` (Definition 2).
    pub fn build_graph(&self, days: Range<i64>) -> TxGraph {
        TxGraphBuilder::new()
            .add_records(self.records_in(days))
            .build()
    }

    /// Edge fraud labels for Structure2Vec: one entry per distinct directed
    /// edge of `graph`, true when any underlying transfer in `days` was a
    /// fraud reported by `as_of`.
    pub fn edge_labels(
        &self,
        graph: &TxGraph,
        days: Range<i64>,
        as_of: i64,
    ) -> Vec<(NodeId, NodeId, bool)> {
        use std::collections::HashMap;
        let mut fraud_pairs: HashMap<(u64, u64), bool> = HashMap::new();
        let range = self.record_range(days);
        for i in range {
            let r = &self.sim.records[i];
            let e = fraud_pairs
                .entry((r.transferor.0, r.transferee.0))
                .or_insert(false);
            *e |= self.label_as_of(i, as_of) > 0.5;
        }
        graph
            .edges()
            .map(|(a, b, _)| {
                let key = (graph.user_of(a).0, graph.user_of(b).0);
                (a, b, fraud_pairs.get(&key).copied().unwrap_or(false))
            })
            .collect()
    }

    /// Fraction of fraud among records in `days` (ground truth).
    pub fn fraud_rate(&self, days: Range<i64>) -> f64 {
        let range = self.record_range(days);
        if range.is_empty() {
            return 0.0;
        }
        let pos = range.clone().filter(|&i| self.sim.is_fraud[i]).count();
        pos as f64 / range.len() as f64
    }

    /// Fraction of fraudsters with more than one fraud transaction — the
    /// paper's "approximately 70 %" observation (§3.2).
    pub fn repeat_fraudster_fraction(&self) -> f64 {
        use std::collections::HashMap;
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (i, r) in self.sim.records.iter().enumerate() {
            if self.sim.is_fraud[i] {
                *counts.entry(r.transferee.0).or_insert(0) += 1;
            }
        }
        if counts.is_empty() {
            return 0.0;
        }
        counts.values().filter(|&&c| c > 1).count() as f64 / counts.len() as f64
    }
}

fn gen_city_risk(config: &WorldConfig, rng: &mut StdRng) -> Vec<f32> {
    (0..config.n_cities)
        .map(|_| {
            let u: f32 = rng.gen();
            // Most cities are safe (~0.3-1 %); a heavy tail reaches ~12 %.
            0.003 + 0.12 * u.powi(6)
        })
        .collect()
}

/// Regular-user population; `city_risk` shapes only fraudster placement
/// (see [`assign_roles`]), not regular users.
fn gen_profiles(config: &WorldConfig, rng: &mut StdRng) -> Vec<UserProfile> {
    let n = config.n_users;
    (0..n)
        .map(|i| {
            let age = 18 + (55.0 * rng.gen::<f32>().powf(1.3)) as u8;
            let device_score = (0.75 + 0.15 * normal01(rng)).clamp(0.05, 1.0);
            let susceptibility = (0.18
                + 0.22 * rng.gen::<f32>()
                + 0.004 * (age as f32 - 35.0)
                + 0.25 * (1.0 - device_score))
                .clamp(0.0, 1.0);
            UserProfile {
                role: Role::Regular,
                age,
                gender: rng.gen_range(0..2),
                city: ((config.n_cities as f32) * rng.gen::<f32>().powf(1.6)) as u16
                    % config.n_cities as u16,
                account_age_days: 30 + (2_800.0 * rng.gen::<f32>().powf(1.5)) as u16,
                kyc_level: *[0u8, 1, 2, 2, 3, 3, 3].choose(rng).unwrap(),
                device_score,
                income_level: *[0u8, 1, 1, 2, 2, 2, 3, 3, 4].choose(rng).unwrap(),
                susceptibility,
                community: (i / config.community_size) as u32,
                ring: None,
                active_window: None,
                activity: (config.daily_tx_rate as f32 * (0.3 + 1.4 * rng.gen::<f32>())).max(0.02),
                main_device: rng.gen(),
            }
        })
        .collect()
}

fn normal01(rng: &mut StdRng) -> f32 {
    // Irwin-Hall(6) approximation of a standard normal, cheap and adequate.
    let s: f32 = (0..6).map(|_| rng.gen::<f32>()).sum();
    (s - 3.0) / (0.5f32 * 6.0).sqrt()
}

/// Choose merchants and fraudsters, overwrite their profile attributes and
/// build fraud rings. Returns `(rings, merchants)`.
fn assign_roles(
    config: &WorldConfig,
    profiles: &mut [UserProfile],
    city_risk: &[f32],
    rng: &mut StdRng,
) -> (Vec<Vec<u32>>, Vec<u32>) {
    let n = profiles.len();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    let n_merchants = ((n as f64 * config.merchant_rate) as usize).max(1);
    let n_fraudsters = ((n as f64 * config.fraudster_rate) as usize).max(2);

    let merchants: Vec<u32> = ids[..n_merchants].to_vec();
    for &m in &merchants {
        let p = &mut profiles[m as usize];
        p.role = Role::Merchant;
        p.income_level = 4;
        p.kyc_level = 3;
        p.activity *= 0.5; // merchants mostly receive
        p.susceptibility = 0.0;
    }

    // City sampling weighted by risk for fraudster placement.
    let risky_city = |rng: &mut StdRng| -> u16 {
        let total: f32 = city_risk.iter().sum();
        let mut roll = rng.gen::<f32>() * total;
        for (c, &r) in city_risk.iter().enumerate() {
            roll -= r;
            if roll <= 0.0 {
                return c as u16;
            }
        }
        (city_risk.len() - 1) as u16
    };

    let fraudster_ids: Vec<u32> = ids[n_merchants..n_merchants + n_fraudsters].to_vec();
    let mut persistent: Vec<u32> = Vec::new();
    for &f in &fraudster_ids {
        let opportunist = rng.gen::<f64>() < 0.3;
        let start = rng.gen_range(0..config.n_days);
        let duration = if opportunist {
            rng.gen_range(1..=3)
        } else {
            // Exponential with the configured mean, at least a week.
            let u: f64 = rng.gen_range(1e-9..1.0);
            ((-u.ln() * config.fraud_active_days) as i64).max(7)
        };
        let p = &mut profiles[f as usize];
        p.role = Role::Fraudster;
        p.active_window = Some((start, (start + duration).min(config.n_days)));
        // Shifted but overlapping with the regular population: fraud
        // accounts skew newer and less trusted, yet plenty of honest users
        // look the same — profile features alone cannot separate them.
        p.account_age_days = 5 + (420.0 * rng.gen::<f32>().powf(1.6)) as u16;
        p.device_score = (0.55 + 0.22 * normal01(rng)).clamp(0.02, 1.0);
        p.kyc_level = rng.gen_range(0..3);
        p.city = risky_city(rng);
        p.susceptibility = 0.0;
        p.activity *= 0.4; // light legitimate camouflage traffic
        if !opportunist {
            persistent.push(f);
        }
    }

    // Partition persistent fraudsters into rings.
    persistent.shuffle(rng);
    let mut rings: Vec<Vec<u32>> = Vec::new();
    let mut i = 0usize;
    while i < persistent.len() {
        let size = rng.gen_range(config.ring_size.0..=config.ring_size.1);
        let end = (i + size).min(persistent.len());
        let ring: Vec<u32> = persistent[i..end].to_vec();
        let ring_id = rings.len() as u32;
        for &m in &ring {
            profiles[m as usize].ring = Some(ring_id);
        }
        rings.push(ring);
        i = end;
    }

    (rings, merchants)
}

fn gen_friendships(
    config: &WorldConfig,
    profiles: &[UserProfile],
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let n = profiles.len();
    let mut friends: Vec<Vec<u32>> = vec![Vec::new(); n];
    let cs = config.community_size.max(2);
    for u in 0..n as u32 {
        let k = 1 + poisson(rng, (config.mean_friends - 1.0).max(0.0) / 2.0);
        for _ in 0..k {
            let v = if rng.gen::<f64>() < 0.85 {
                // Same community.
                let comm = profiles[u as usize].community as usize;
                let lo = comm * cs;
                let hi = ((comm + 1) * cs).min(n);
                if hi - lo < 2 {
                    continue;
                }
                rng.gen_range(lo..hi) as u32
            } else {
                rng.gen_range(0..n) as u32
            };
            if v == u {
                continue;
            }
            friends[u as usize].push(v);
            friends[v as usize].push(u);
        }
    }
    friends
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(7))
    }

    #[test]
    fn world_produces_transactions_every_day() {
        let w = tiny_world();
        for d in 0..w.config().n_days {
            assert!(
                !w.records_in(d..d + 1).is_empty(),
                "no transactions on day {d}"
            );
        }
    }

    #[test]
    fn records_are_time_ordered() {
        let w = tiny_world();
        for pair in w.records().windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
    }

    #[test]
    fn fraud_exists_and_is_unbalanced() {
        let w = tiny_world();
        let rate = w.fraud_rate(0..w.config().n_days);
        assert!(rate > 0.001, "fraud rate {rate} too low");
        assert!(
            rate < 0.2,
            "fraud rate {rate} too high — labels not unbalanced"
        );
    }

    #[test]
    fn most_fraudsters_repeat() {
        // The paper's ~70 % repeat-offender observation.
        let w = tiny_world();
        let f = w.repeat_fraudster_fraction();
        assert!(f > 0.45, "repeat fraction {f} too low");
    }

    #[test]
    fn features_materialised_only_from_start_day() {
        let w = tiny_world();
        let start = w.config().feature_start_day;
        let before = w.record_range(0..start);
        let after = w.record_range(start..w.config().n_days);
        assert!(w.features_of(before.start).is_none());
        assert!(w.features_of(after.start).is_some());
    }

    #[test]
    fn labels_respect_report_delay() {
        let w = tiny_world();
        let range = w.record_range(0..w.config().n_days);
        let mut checked = 0;
        for i in range {
            if w.is_fraud(i) && w.report_day(i) != i64::MAX {
                let d = w.records()[i].day();
                assert!(w.report_day(i) > d, "report must come after the fraud");
                assert_eq!(w.label_as_of(i, d), 0.0, "label leaked before report");
                assert_eq!(w.label_as_of(i, w.report_day(i)), 1.0);
                checked += 1;
            }
        }
        assert!(checked > 0, "no reported frauds in the tiny world");
    }

    #[test]
    fn dataset_assembly_shapes() {
        let w = tiny_world();
        let start = w.config().feature_start_day;
        let (data, idx) = w.basic_dataset(start..start + 5, i64::MAX);
        assert_eq!(data.n_cols(), N_BASIC_FEATURES);
        assert_eq!(data.n_rows(), idx.len());
        assert!(data.n_rows() > 0);
        assert!(data.positive_rate() > 0.0);
    }

    #[test]
    fn graph_contains_fraud_gathering_structure() {
        let w = tiny_world();
        let g = w.build_graph(0..w.config().n_days);
        assert!(g.node_count() > 100);
        // At least one fraudster should be a gathering hub.
        let hubs = titant_txgraph::analysis::gathering_hubs(&g, 4, 1.5);
        let fraud_hub = hubs.iter().any(|&h| {
            let uid = g.user_of(h).0 as usize;
            w.profiles()[uid].role == Role::Fraudster
        });
        assert!(fraud_hub, "no fraudster gathering hub found");
    }

    #[test]
    fn edge_labels_cover_every_edge() {
        let w = tiny_world();
        let days = 0..w.config().n_days;
        let g = w.build_graph(days.clone());
        let labels = w.edge_labels(&g, days, i64::MAX);
        assert_eq!(labels.len(), g.edge_count());
        assert!(labels.iter().any(|&(_, _, y)| y), "no fraud edges labelled");
        let pos_rate = labels.iter().filter(|&&(_, _, y)| y).count() as f64 / labels.len() as f64;
        assert!(
            pos_rate < 0.25,
            "edge labels should be unbalanced, got {pos_rate}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = World::generate(WorldConfig::tiny(42));
        let w2 = World::generate(WorldConfig::tiny(42));
        assert_eq!(w1.records().len(), w2.records().len());
        assert_eq!(w1.records()[10], w2.records()[10]);
        assert_eq!(w1.fraud_rate(0..10), w2.fraud_rate(0..10));
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = World::generate(WorldConfig::tiny(1));
        let w2 = World::generate(WorldConfig::tiny(2));
        assert_ne!(w1.records().len(), w2.records().len());
    }
}
