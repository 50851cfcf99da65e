//! The canonical feature layout shared by training and serving.
//!
//! The 52 basic features (see `titant_datagen::features`) split into three
//! families by *where the value lives at serving time*:
//!
//! * **payer slots** — the transferor's profile and outgoing aggregates;
//!   stored per user in Ali-HBase, refreshed by each offline run;
//! * **receiver slots** — the transferee's profile and incoming
//!   aggregates; also per user in Ali-HBase;
//! * **context slots** — per-transaction values (amount, hour, device,
//!   pair history) that the Alipay server computes at request time.
//!
//! Node embeddings (when the model uses them) append after the basic block:
//! transferor's `dim` values, then the transferee's. Streaming **velocity**
//! slots (windowed counts/amounts/distinct counterparties maintained by
//! `titant-stream`) append after the embeddings, again transferor first.

/// Indices of payer-side features in the 52-column basic block.
pub const PAYER_SLOTS: [usize; 18] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, // profile
    20, 21, 22, 23, 24, 25, 26, 27, // outgoing aggregates
];

/// Indices of receiver-side features.
pub const RECEIVER_SLOTS: [usize; 19] = [
    10, 11, 12, 13, 14, 15, 16, 17, 18, 19, // profile
    28, 29, 30, 31, 32, 33, 34, 35, 36, // incoming aggregates
];

/// Indices of per-transaction context features.
pub const CONTEXT_SLOTS: [usize; 15] = [37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51];

/// Build the model-server layout for a given embedding dimensionality
/// (0 = a model trained on basic features only).
pub fn serving_layout(embedding_dim: usize) -> titant_modelserver::server::FeatureLayout {
    serving_layout_with_velocity(embedding_dim, 0)
}

/// [`serving_layout`] plus a per-party streaming velocity block of
/// `velocity_width` slots (0 = no streaming features — bit-identical to
/// the plain layout).
pub fn serving_layout_with_velocity(
    embedding_dim: usize,
    velocity_width: usize,
) -> titant_modelserver::server::FeatureLayout {
    titant_modelserver::server::FeatureLayout {
        n_basic: titant_datagen::N_BASIC_FEATURES,
        payer_slots: PAYER_SLOTS.to_vec(),
        receiver_slots: RECEIVER_SLOTS.to_vec(),
        context_slots: CONTEXT_SLOTS.to_vec(),
        embedding_dim,
        velocity_width,
    }
}

/// Split one 52-wide basic feature row into (payer, receiver, context)
/// sub-vectors, in slot order.
pub fn split_row(row: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    assert_eq!(row.len(), titant_datagen::N_BASIC_FEATURES);
    (
        PAYER_SLOTS.iter().map(|&i| row[i]).collect(),
        RECEIVER_SLOTS.iter().map(|&i| row[i]).collect(),
        CONTEXT_SLOTS.iter().map(|&i| row[i]).collect(),
    )
}

/// The serving request for world record `i`: its parties, its `tx_id` and
/// the context sub-vector of its basic feature row (zeros for a record
/// that carries no features).
pub fn score_request(world: &titant_datagen::World, i: usize) -> titant_modelserver::ScoreRequest {
    let rec = &world.records()[i];
    let context = match world.features_of(i) {
        Some(row) => split_row(row).2,
        None => vec![0.0; CONTEXT_SLOTS.len()],
    };
    titant_modelserver::ScoreRequest {
        tx_id: rec.tx_id.0,
        transferor: rec.transferor.0,
        transferee: rec.transferee.0,
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_datagen::N_BASIC_FEATURES;

    #[test]
    fn slots_partition_the_basic_block() {
        let mut seen = [false; N_BASIC_FEATURES];
        for &i in PAYER_SLOTS
            .iter()
            .chain(RECEIVER_SLOTS.iter())
            .chain(CONTEXT_SLOTS.iter())
        {
            assert!(!seen[i], "slot {i} assigned twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "every basic column must be owned");
    }

    #[test]
    fn slot_names_match_their_family() {
        let names = titant_datagen::feature_names();
        for &i in &PAYER_SLOTS {
            assert!(names[i].starts_with("p_"), "{} is not payer-side", names[i]);
        }
        for &i in &RECEIVER_SLOTS {
            assert!(
                names[i].starts_with("r_"),
                "{} is not receiver-side",
                names[i]
            );
        }
    }

    #[test]
    fn split_row_round_trips_through_the_layout() {
        let row: Vec<f32> = (0..N_BASIC_FEATURES).map(|i| i as f32).collect();
        let (p, r, c) = split_row(&row);
        assert_eq!(p.len() + r.len() + c.len(), N_BASIC_FEATURES);
        // Reassemble via the serving layout and compare.
        let layout = serving_layout(0);
        let mut rebuilt = vec![0f32; N_BASIC_FEATURES];
        for (slot, v) in layout.payer_slots.iter().zip(&p) {
            rebuilt[*slot] = *v;
        }
        for (slot, v) in layout.receiver_slots.iter().zip(&r) {
            rebuilt[*slot] = *v;
        }
        for (slot, v) in layout.context_slots.iter().zip(&c) {
            rebuilt[*slot] = *v;
        }
        assert_eq!(rebuilt, row);
    }

    #[test]
    fn serving_layout_width_includes_embeddings() {
        assert_eq!(serving_layout(0).width(), N_BASIC_FEATURES);
        assert_eq!(serving_layout(32).width(), N_BASIC_FEATURES + 64);
    }

    #[test]
    fn velocity_block_widens_the_layout_and_zero_matches_plain() {
        assert_eq!(
            serving_layout_with_velocity(0, 9).width(),
            N_BASIC_FEATURES + 18
        );
        assert_eq!(
            serving_layout_with_velocity(32, 9).width(),
            N_BASIC_FEATURES + 64 + 18
        );
        let plain = serving_layout(8);
        let off = serving_layout_with_velocity(8, 0);
        assert_eq!(plain.width(), off.width());
        assert_eq!(plain.velocity_width, 0);
    }
}
