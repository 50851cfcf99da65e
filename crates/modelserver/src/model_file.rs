//! Versioned model files — the artefact the offline stage ships to the MS.

use serde::{Deserialize, Serialize};
use titant_models::{Classifier, Gbdt};

/// The model the MS serves: the GBDT both trainers (`GbdtConfig::fit` and
/// KunPeng's `dist_gbdt`) return. The variant name keeps model files
/// self-describing; a file naming any other kind is an error at load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServableModel {
    Gbdt(Gbdt),
}

impl Classifier for ServableModel {
    fn predict_proba(&self, features: &[f32]) -> f32 {
        let ServableModel::Gbdt(m) = self;
        m.predict_proba(features)
    }

    // Forward explicitly so the GBDT's chunked batch predictor is used
    // instead of the trait default.
    fn predict_batch(&self, data: &titant_models::Dataset) -> Vec<f32> {
        let ServableModel::Gbdt(m) = self;
        m.predict_batch(data)
    }

    fn name(&self) -> &'static str {
        "GBDT"
    }
}

/// A deployable model file: the model plus serving metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelFile {
    /// Upload version, e.g. the training date ("T" in T+1). Monotone.
    pub version: u64,
    /// Alert threshold: scores at or above it interrupt the transaction.
    pub alert_threshold: f32,
    /// Expected feature-vector width (sanity check at load).
    pub n_features: usize,
    /// The model itself.
    pub model: ServableModel,
}

impl ModelFile {
    /// Serialise to bytes (JSON — human-inspectable, stable).
    pub fn to_bytes(&self) -> Result<Vec<u8>, serde_json::Error> {
        serde_json::to_vec(self)
    }

    /// Parse from bytes. The contained model is precompiled before it is
    /// returned, so deployment (not the first transaction) pays the
    /// flat-form lowering cost.
    ///
    /// A file whose trees cannot score an `n_features`-wide row is an
    /// error, never a panic or a hang later: a tree with no nodes, a split
    /// whose children are out of range or not after it, a split feature at
    /// or past `n_features`, or a GBDT whose own width differs from the
    /// file's.
    pub fn from_bytes(data: &[u8]) -> Result<Self, serde_json::Error> {
        let mf: Self = serde_json::from_slice(data)?;
        // Deserializing checked each tree against the GBDT's own width;
        // `flat` lowers the serving form here, at load, and reports it.
        let ServableModel::Gbdt(m) = &mf.model;
        let width = m.flat().n_features();
        if width != mf.n_features {
            return Err(serde_json::Error::from(serde::Error::custom(format!(
                "GBDT reads {width} features, the file declares {}",
                mf.n_features
            ))));
        }
        Ok(mf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titant_models::{Dataset, GbdtConfig};

    fn toy_model() -> ModelFile {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            let x = i as f32 / 50.0;
            d.push_row(&[x, 1.0 - x], (x > 0.5) as u8 as f32);
        }
        let gbdt = GbdtConfig {
            n_trees: 5,
            subsample: 1.0,
            colsample: 1.0,
            ..Default::default()
        }
        .fit(&d);
        ModelFile {
            version: 20170410,
            alert_threshold: 0.5,
            n_features: 2,
            model: ServableModel::Gbdt(gbdt),
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let mf = toy_model();
        let bytes = mf.to_bytes().unwrap();
        let loaded = ModelFile::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.version, mf.version);
        assert_eq!(loaded.n_features, 2);
        // Same predictions after the round trip.
        let p1 = mf.model.predict_proba(&[0.9, 0.1]);
        let p2 = loaded.model.predict_proba(&[0.9, 0.1]);
        assert_eq!(p1, p2);
    }

    /// Satellite: a deserialized model file carries a *compiled* flat
    /// forest (no lowering on the request path), and its scores match the
    /// pre-serialization model bit for bit — including NaN feature rows,
    /// where routing must stay NaN-left.
    #[test]
    fn loaded_model_is_precompiled_and_bit_identical() {
        let mf = toy_model();
        let bytes = mf.to_bytes().unwrap();
        let loaded = ModelFile::from_bytes(&bytes).unwrap();
        let ServableModel::Gbdt(loaded_gbdt) = &loaded.model;
        assert!(
            loaded_gbdt.is_compiled(),
            "from_bytes must precompile the flat forest"
        );
        let probes: [[f32; 2]; 6] = [
            [0.9, 0.1],
            [0.1, 0.9],
            [0.5, 0.5],
            [f32::NAN, 0.3],
            [0.7, f32::NAN],
            [f32::NAN, f32::NAN],
        ];
        for row in &probes {
            assert_eq!(
                mf.model.predict_proba(row).to_bits(),
                loaded.model.predict_proba(row).to_bits(),
                "row {row:?} diverged across the serialization round trip"
            );
        }
        let mut batch = Dataset::new(2);
        for row in &probes {
            batch.push_row(row, 0.0);
        }
        let before: Vec<u32> = mf
            .model
            .predict_batch(&batch)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let after: Vec<u32> = loaded
            .model
            .predict_batch(&batch)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        assert!(ModelFile::from_bytes(b"not a model").is_err());
    }

    /// A GBDT file (declaring `width` features, its model `own_width`)
    /// whose one tree is `nodes`: `Some((feature, left, right))` a split,
    /// `None` a leaf.
    fn model_file(nodes: &[Option<(u32, u32, u32)>], width: usize, own_width: usize) -> String {
        let nodes: Vec<String> = nodes
            .iter()
            .map(|node| match *node {
                Some((f, l, r)) => format!(
                    "{{\"Split\":{{\"feature\":{f},\"threshold\":0.5,\"bin_split\":1,\
                     \"left\":{l},\"right\":{r},\"gain\":1.0}}}}"
                ),
                None => "{\"Leaf\":{\"value\":0.25}}".to_string(),
            })
            .collect();
        format!(
            "{{\"version\":1,\"alert_threshold\":0.5,\"n_features\":{width},\"model\":\
             {{\"Gbdt\":{{\"trees\":[{{\"nodes\":[{}]}}],\"base_score\":0.5,\
             \"objective\":\"SquaredError\",\"n_features\":{own_width},\"threads\":1}}}}}}",
            nodes.join(",")
        )
    }

    /// `from_bytes` on a GBDT file: an error, or a model that scores.
    fn loads(nodes: &[Option<(u32, u32, u32)>], width: usize, own_width: usize) -> bool {
        let loaded = ModelFile::from_bytes(model_file(nodes, width, own_width).as_bytes());
        if let Ok(mf) = &loaded {
            mf.model.predict_proba(&vec![0.75; mf.n_features]);
        }
        loaded.is_ok()
    }

    /// Only the GBDT is served: a file naming another model kind, such as
    /// an isolation forest or a logistic regression, is an error, not a
    /// panic.
    #[test]
    fn other_model_kinds_are_an_error() {
        for model in [
            "{\"IsolationForest\":{\"trees\":[{\"nodes\":[{\"Leaf\":{\"n\":1}}]}],\"c_psi\":1.5}}",
            "{\"LogisticRegression\":{\"weights\":[0.5,0.5],\"bias\":0.0}}",
        ] {
            let json = format!(
                "{{\"version\":1,\"alert_threshold\":0.5,\"n_features\":2,\"model\":{model}}}"
            );
            assert!(ModelFile::from_bytes(json.as_bytes()).is_err(), "{model}");
        }
    }

    const SPLIT_THEN_LEAVES: [Option<(u32, u32, u32)>; 3] = [Some((1, 1, 2)), None, None];

    #[test]
    fn well_formed_hand_written_trees_load_and_score() {
        assert!(loads(&SPLIT_THEN_LEAVES, 2, 2));
        assert!(loads(&[None], 2, 2));
    }

    #[test]
    fn a_tree_with_no_nodes_is_an_error() {
        assert!(!loads(&[], 2, 2));
    }

    /// Regression: the GBDT panicked inside `from_bytes` ("index out of
    /// bounds" lowering its flat forest).
    #[test]
    fn a_child_past_the_tree_is_an_error() {
        assert!(!loads(&[Some((0, 1, 3)), None, None], 2, 2));
    }

    /// A child at or before its split made the walk loop forever.
    #[test]
    fn a_child_that_points_back_is_an_error() {
        let to_itself = [Some((0, 0, 1)), None];
        let to_the_root = [Some((0, 1, 2)), Some((0, 0, 3)), None, None];
        assert!(!loads(&to_itself, 2, 2));
        assert!(!loads(&to_the_root, 2, 2));
    }

    /// Regression: a split feature past the row passed `from_bytes` and
    /// `deploy`, then panicked on the first `predict_proba`.
    #[test]
    fn a_split_feature_past_the_row_is_an_error() {
        assert!(!loads(&[Some((2, 1, 2)), None, None], 2, 2));
    }

    #[test]
    fn a_gbdt_wider_or_narrower_than_its_file_is_an_error() {
        assert!(!loads(&SPLIT_THEN_LEAVES, 2, 3));
        assert!(!loads(&SPLIT_THEN_LEAVES, 3, 2));
    }

    #[test]
    fn servable_model_names() {
        let mf = toy_model();
        assert_eq!(mf.model.name(), "GBDT");
    }
}
