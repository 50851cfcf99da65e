//! The 52 "basic features" and the point-in-time behavioural state that
//! backs them.
//!
//! The paper reports "a total of 52 basic features carefully extracted"
//! (§5.1) from user profile and transfer environment (Figure 1 (a)). This
//! module defines the full feature schema: 10 payer-profile features,
//! 10 transferee-profile features, 8 payer aggregates, 9 transferee
//! aggregates and 15 transfer-context features.
//!
//! Behavioural aggregates are **point-in-time**: each transaction's features
//! are computed from state accumulated strictly before it, then the state
//! is updated — so there is no label or future leakage. Windowed aggregates
//! use exponential decay with a 30-day half-life, the streaming analogue of
//! the "30-day" rolling counters production feature pipelines keep.

use crate::profile::{Role, UserProfile};
use std::collections::{HashMap, HashSet};

/// Number of basic features (paper §5.1).
pub const N_BASIC_FEATURES: usize = 52;

/// Per-day decay factor giving a 30-day half-life.
const DAY_DECAY: f32 = 0.977_16;

/// Night hours: 22:00–05:59.
#[inline]
fn is_night_hour(hour: u8) -> bool {
    !(6..22).contains(&hour)
}

/// The canonical names of the 52 basic features, in column order.
pub fn feature_names() -> Vec<String> {
    [
        // Payer (transferor) profile.
        "p_age",
        "p_gender",
        "p_city",
        "p_account_age",
        "p_kyc",
        "p_device_score",
        "p_income",
        "p_is_merchant",
        "p_segment_score",
        "p_city_risk",
        // Receiver (transferee) profile.
        "r_age",
        "r_gender",
        "r_city",
        "r_account_age",
        "r_kyc",
        "r_device_score",
        "r_income",
        "r_is_merchant",
        "r_city_risk",
        "r_days_since_first_seen",
        // Payer behavioural aggregates.
        "p_out_cnt_30d",
        "p_out_amt_30d",
        "p_avg_out_amt_30d",
        "p_distinct_payees",
        "p_night_out_ratio",
        "p_new_payee_ratio",
        "p_days_since_last_out",
        "p_out_max_30d",
        // Receiver behavioural aggregates.
        "r_in_cnt_30d",
        "r_in_amt_30d",
        "r_distinct_payers",
        "r_out_cnt_30d",
        "r_in_out_ratio",
        "r_avg_in_amt_30d",
        "r_night_in_ratio",
        "r_new_payer_ratio",
        "r_days_since_last_in",
        // Transfer context.
        "amount_log",
        "amount_linear",
        "hour",
        "day_of_week",
        "channel",
        "is_night",
        "device_is_new",
        "city_mismatch",
        "trans_city",
        "trans_city_risk",
        "pair_count",
        "pair_is_new",
        "amt_vs_p_avg_ratio",
        "amt_vs_r_avg_ratio",
        "hours_since_p_last_out",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Decayed behavioural counters for one user.
#[derive(Debug, Clone, Default)]
pub struct UserState {
    last_decay_day: i64,
    pub out_count: f32,
    pub out_amount: f32,
    pub out_max: f32,
    pub night_out: f32,
    pub new_payee_out: f32,
    pub in_count: f32,
    pub in_amount: f32,
    pub night_in: f32,
    pub new_payer_in: f32,
    pub distinct_payees: HashSet<u32>,
    pub distinct_payers: HashSet<u32>,
    pub devices: HashSet<u64>,
    /// Timestamp of the last outgoing transfer, -1 if none.
    pub last_out_ts: i64,
    /// Day of the last incoming transfer, -1 if none.
    pub last_in_day: i64,
    /// First day this user appeared in any transaction, -1 if never.
    pub first_seen_day: i64,
}

impl UserState {
    /// New empty state.
    pub fn new() -> Self {
        Self {
            last_out_ts: -1,
            last_in_day: -1,
            first_seen_day: -1,
            ..Default::default()
        }
    }

    /// Apply lazy exponential decay up to `day`.
    fn decay_to(&mut self, day: i64) {
        if day <= self.last_decay_day {
            return;
        }
        let steps = (day - self.last_decay_day).min(3650) as i32;
        let f = DAY_DECAY.powi(steps);
        self.out_count *= f;
        self.out_amount *= f;
        self.out_max *= f;
        self.night_out *= f;
        self.new_payee_out *= f;
        self.in_count *= f;
        self.in_amount *= f;
        self.night_in *= f;
        self.new_payer_in *= f;
        self.last_decay_day = day;
    }
}

/// Mutable world state threaded through the simulation: per-user counters,
/// pair history and the static city risk table.
#[derive(Debug)]
pub struct StateTable {
    pub users: Vec<UserState>,
    /// (payer, receiver) -> historical transfer count.
    pub pair_counts: HashMap<(u32, u32), u32>,
    /// Static per-city risk prior (an "engineered feature" in production:
    /// the historical fraud rate of the city).
    pub city_risk: Vec<f32>,
}

impl StateTable {
    /// Fresh state for `n_users` users.
    pub fn new(n_users: usize, city_risk: Vec<f32>) -> Self {
        Self {
            users: (0..n_users).map(|_| UserState::new()).collect(),
            pair_counts: HashMap::new(),
            city_risk,
        }
    }
}

/// Everything describing one transfer at feature-extraction time.
pub struct TxContext {
    pub payer: u32,
    pub receiver: u32,
    pub amount_cents: u64,
    pub day: i64,
    pub timestamp: i64,
    pub hour: u8,
    pub trans_city: u16,
    pub device_id: u64,
    pub channel: u8,
}

/// Compute the 52 basic features of a transfer from point-in-time state.
/// Must be called **before** [`apply_transaction`].
pub fn extract_features(
    ctx: &TxContext,
    profiles: &[UserProfile],
    state: &mut StateTable,
    out: &mut [f32],
) {
    assert_eq!(out.len(), N_BASIC_FEATURES);
    let (pi, ri) = (ctx.payer as usize, ctx.receiver as usize);
    let pp = &profiles[pi];
    let rp = &profiles[ri];
    // Decay both parties to today before reading counters.
    state.users[pi].decay_to(ctx.day);
    state.users[ri].decay_to(ctx.day);
    let ps = &state.users[pi];
    let rs = &state.users[ri];
    let risk = |city: u16| state.city_risk[city as usize % state.city_risk.len()];

    let amount = ctx.amount_cents as f32;
    let pair = state
        .pair_counts
        .get(&(ctx.payer, ctx.receiver))
        .copied()
        .unwrap_or(0) as f32;

    let p_avg = if ps.out_count > 0.5 {
        ps.out_amount / ps.out_count
    } else {
        0.0
    };
    let r_avg_in = if rs.in_count > 0.5 {
        rs.in_amount / rs.in_count
    } else {
        0.0
    };

    let mut k = 0usize;
    let mut push = |v: f32| {
        out[k] = v;
        k += 1;
    };

    // Payer profile (10).
    push(pp.age as f32);
    push(pp.gender as f32);
    push(pp.city as f32);
    push(pp.account_age_days as f32 + ctx.day as f32);
    push(pp.kyc_level as f32);
    push(pp.device_score);
    push(pp.income_level as f32);
    push((pp.role == Role::Merchant) as u8 as f32);
    push(pp.susceptibility * 0.6 + pp.device_score * -0.2 + 0.2); // noisy observable proxy
    push(risk(pp.city));
    // Receiver profile (10).
    push(rp.age as f32);
    push(rp.gender as f32);
    push(rp.city as f32);
    push(rp.account_age_days as f32 + ctx.day as f32);
    push(rp.kyc_level as f32);
    push(rp.device_score);
    push(rp.income_level as f32);
    push((rp.role == Role::Merchant) as u8 as f32);
    push(risk(rp.city));
    push(if rs.first_seen_day >= 0 {
        (ctx.day - rs.first_seen_day) as f32
    } else {
        -1.0
    });
    // Payer aggregates (8).
    push(ps.out_count);
    push((1.0 + ps.out_amount).ln());
    push((1.0 + p_avg).ln());
    push(ps.distinct_payees.len() as f32);
    push(ratio(ps.night_out, ps.out_count));
    push(ratio(ps.new_payee_out, ps.out_count));
    push(if ps.last_out_ts >= 0 {
        ((ctx.timestamp - ps.last_out_ts) as f32 / 86_400.0).max(0.0)
    } else {
        -1.0
    });
    push((1.0 + ps.out_max).ln());
    // Receiver aggregates (9).
    push(rs.in_count);
    push((1.0 + rs.in_amount).ln());
    push(rs.distinct_payers.len() as f32);
    push(rs.out_count);
    push(ratio(rs.in_count, rs.out_count.max(0.5)));
    push((1.0 + r_avg_in).ln());
    push(ratio(rs.night_in, rs.in_count));
    push(ratio(rs.new_payer_in, rs.in_count));
    push(if rs.last_in_day >= 0 {
        (ctx.day - rs.last_in_day) as f32
    } else {
        -1.0
    });
    // Context (15).
    push((1.0 + amount).ln());
    push(amount / 10_000.0);
    push(ctx.hour as f32);
    push((ctx.day.rem_euclid(7)) as f32);
    push(ctx.channel as f32);
    push(is_night_hour(ctx.hour) as u8 as f32);
    push(!ps.devices.contains(&ctx.device_id) as u8 as f32);
    push((ctx.trans_city != pp.city) as u8 as f32);
    push(ctx.trans_city as f32);
    push(risk(ctx.trans_city));
    push(pair);
    push((pair == 0.0) as u8 as f32);
    push(ratio(amount, p_avg.max(1.0)).min(1e4));
    push(ratio(amount, r_avg_in.max(1.0)).min(1e4));
    push(if ps.last_out_ts >= 0 {
        ((ctx.timestamp - ps.last_out_ts) as f32 / 3_600.0).max(0.0)
    } else {
        -1.0
    });

    debug_assert_eq!(k, N_BASIC_FEATURES);
}

#[inline]
fn ratio(num: f32, den: f32) -> f32 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold a completed transfer into the state. Must be called **after**
/// [`extract_features`].
pub fn apply_transaction(ctx: &TxContext, state: &mut StateTable) {
    let amount = ctx.amount_cents as f32;
    let night = is_night_hour(ctx.hour);
    let pair_entry = state
        .pair_counts
        .entry((ctx.payer, ctx.receiver))
        .or_insert(0);
    let first_pair = *pair_entry == 0;
    *pair_entry += 1;

    let ps = &mut state.users[ctx.payer as usize];
    ps.decay_to(ctx.day);
    ps.out_count += 1.0;
    ps.out_amount += amount;
    ps.out_max = ps.out_max.max(amount);
    if night {
        ps.night_out += 1.0;
    }
    if first_pair {
        ps.new_payee_out += 1.0;
    }
    ps.distinct_payees.insert(ctx.receiver);
    ps.devices.insert(ctx.device_id);
    ps.last_out_ts = ctx.timestamp;
    if ps.first_seen_day < 0 {
        ps.first_seen_day = ctx.day;
    }

    let rs = &mut state.users[ctx.receiver as usize];
    rs.decay_to(ctx.day);
    rs.in_count += 1.0;
    rs.in_amount += amount;
    if night {
        rs.night_in += 1.0;
    }
    if first_pair {
        rs.new_payer_in += 1.0;
    }
    rs.distinct_payers.insert(ctx.payer);
    rs.last_in_day = ctx.day;
    if rs.first_seen_day < 0 {
        rs.first_seen_day = ctx.day;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Role;

    fn profile(role: Role) -> UserProfile {
        UserProfile {
            role,
            age: 30,
            gender: 1,
            city: 2,
            account_age_days: 100,
            kyc_level: 2,
            device_score: 0.8,
            income_level: 2,
            susceptibility: 0.3,
            community: 0,
            ring: None,
            active_window: None,
            activity: 0.5,
            main_device: 7,
        }
    }

    fn ctx(payer: u32, receiver: u32, day: i64, hour: u8) -> TxContext {
        TxContext {
            payer,
            receiver,
            amount_cents: 50_000,
            day,
            timestamp: day * 86_400 + hour as i64 * 3_600,
            hour,
            trans_city: 2,
            device_id: 7,
            channel: 1,
        }
    }

    fn setup() -> (Vec<UserProfile>, StateTable) {
        let profiles = vec![profile(Role::Regular), profile(Role::Merchant)];
        let state = StateTable::new(2, vec![0.01; 5]);
        (profiles, state)
    }

    #[test]
    fn feature_vector_has_52_named_columns() {
        assert_eq!(feature_names().len(), N_BASIC_FEATURES);
        let (profiles, mut state) = setup();
        let mut out = vec![0f32; N_BASIC_FEATURES];
        extract_features(&ctx(0, 1, 5, 12), &profiles, &mut state, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn aggregates_update_after_apply() {
        let (profiles, mut state) = setup();
        let mut out = vec![0f32; N_BASIC_FEATURES];
        let c = ctx(0, 1, 5, 12);
        extract_features(&c, &profiles, &mut state, &mut out);
        assert_eq!(out[20], 0.0, "p_out_cnt before any tx");
        apply_transaction(&c, &mut state);
        let c2 = ctx(0, 1, 5, 13);
        extract_features(&c2, &profiles, &mut state, &mut out);
        assert!((out[20] - 1.0).abs() < 1e-6, "p_out_cnt after one tx");
        // Pair count now 1, pair_is_new 0.
        assert_eq!(out[47], 1.0);
        assert_eq!(out[48], 0.0);
    }

    #[test]
    fn point_in_time_no_self_leakage() {
        // Features of the very first transfer must reflect an empty history.
        let (profiles, mut state) = setup();
        let mut out = vec![0f32; N_BASIC_FEATURES];
        let c = ctx(0, 1, 0, 2);
        extract_features(&c, &profiles, &mut state, &mut out);
        assert_eq!(out[48], 1.0, "pair_is_new");
        assert_eq!(out[43], 1.0, "device_is_new");
        assert_eq!(out[28], 0.0, "r_in_cnt");
    }

    #[test]
    fn decay_shrinks_counters_over_time() {
        let (profiles, mut state) = setup();
        let c = ctx(0, 1, 0, 12);
        let mut out = vec![0f32; N_BASIC_FEATURES];
        extract_features(&c, &profiles, &mut state, &mut out);
        apply_transaction(&c, &mut state);
        // 30 days later the count should have halved.
        state.users[0].decay_to(30);
        assert!((state.users[0].out_count - 0.5).abs() < 0.01);
        // 60 days: quartered.
        state.users[0].decay_to(60);
        assert!((state.users[0].out_count - 0.25).abs() < 0.01);
    }

    #[test]
    fn night_detection() {
        assert!(is_night_hour(23));
        assert!(is_night_hour(2));
        assert!(!is_night_hour(6));
        assert!(!is_night_hour(12));
    }

    #[test]
    fn gathering_pattern_shows_in_receiver_aggregates() {
        // Many distinct payers funnel into user 1.
        let profiles: Vec<UserProfile> = (0..6).map(|_| profile(Role::Regular)).collect();
        let mut state = StateTable::new(6, vec![0.01; 5]);
        let mut out = vec![0f32; N_BASIC_FEATURES];
        for payer in 2..6u32 {
            let c = ctx(payer, 1, 3, 23);
            extract_features(&c, &profiles, &mut state, &mut out);
            apply_transaction(&c, &mut state);
        }
        let c = ctx(0, 1, 4, 23);
        extract_features(&c, &profiles, &mut state, &mut out);
        assert!((out[30] - 4.0).abs() < 1e-6, "r_distinct_payers");
        assert!(out[35] > 0.9, "r_new_payer_ratio");
        assert!(out[34] > 0.9, "r_night_in_ratio");
    }
}
