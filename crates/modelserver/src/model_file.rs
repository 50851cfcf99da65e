//! Versioned model files — the artefact the offline stage ships to the MS.

use serde::{Deserialize, Serialize};
use titant_models::{Classifier, Gbdt, IsolationForest, LogisticRegression};

/// Any model the MS can serve. Wraps the concrete types so model files are
/// self-describing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServableModel {
    Gbdt(Gbdt),
    LogisticRegression(LogisticRegression),
    IsolationForest(IsolationForest),
}

impl ServableModel {
    /// Build any engine-specific compiled form eagerly. The GBDT lowers its
    /// trees into the [`titant_models::FlatForest`] here, so the work
    /// happens at load time rather than on the first scored request.
    pub fn precompile(&self) {
        if let ServableModel::Gbdt(m) = self {
            m.flat();
        }
    }
}

impl Classifier for ServableModel {
    fn predict_proba(&self, features: &[f32]) -> f32 {
        match self {
            ServableModel::Gbdt(m) => m.predict_proba(features),
            ServableModel::LogisticRegression(m) => m.predict_proba(features),
            ServableModel::IsolationForest(m) => m.predict_proba(features),
        }
    }

    // Forward explicitly so variants with a specialised batch predictor
    // (the GBDT's chunked one) are used instead of the trait default.
    fn predict_batch(&self, data: &titant_models::Dataset) -> Vec<f32> {
        match self {
            ServableModel::Gbdt(m) => m.predict_batch(data),
            ServableModel::LogisticRegression(m) => m.predict_batch(data),
            ServableModel::IsolationForest(m) => m.predict_batch(data),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ServableModel::Gbdt(_) => "GBDT",
            ServableModel::LogisticRegression(_) => "LR",
            ServableModel::IsolationForest(_) => "IF",
        }
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
        let invalid = |message: String| serde_json::Error::from(serde::Error::custom(message));
        match &mf.model {
            // Deserializing checked each tree against the GBDT's own width.
            ServableModel::Gbdt(m) => {
                let width = m.flat().n_features();
                if width != mf.n_features {
                    return Err(invalid(format!(
                        "GBDT reads {width} features, the file declares {}",
                        mf.n_features
                    )));
                }
            }
            ServableModel::IsolationForest(m) => m.check(mf.n_features).map_err(invalid)?,
            ServableModel::LogisticRegression(_) => {}
        }
        mf.model.precompile();
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
        let ServableModel::Gbdt(loaded_gbdt) = &loaded.model else {
            panic!("round trip changed the model variant");
        };
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
    /// and an isolation-forest file (declaring `width`) whose one tree is
    /// `nodes`: `Some((feature, left, right))` a split, `None` a leaf.
    fn model_files(
        nodes: &[Option<(u32, u32, u32)>],
        width: usize,
        own_width: usize,
    ) -> [String; 2] {
        let tree = |split: &dyn Fn(u32, u32, u32) -> String, leaf: &str| {
            let nodes: Vec<String> = nodes
                .iter()
                .map(|node| match *node {
                    Some((f, l, r)) => split(f, l, r),
                    None => leaf.to_string(),
                })
                .collect();
            format!("{{\"nodes\":[{}]}}", nodes.join(","))
        };
        let gbdt = tree(
            &|f, l, r| {
                format!(
                    "{{\"Split\":{{\"feature\":{f},\"threshold\":0.5,\"bin_split\":1,\
                     \"left\":{l},\"right\":{r},\"gain\":1.0}}}}"
                )
            },
            "{\"Leaf\":{\"value\":0.25}}",
        );
        let forest = tree(
            &|f, l, r| {
                format!(
                    "{{\"Split\":{{\"feature\":{f},\"threshold\":0.5,\"left\":{l},\"right\":{r}}}}}"
                )
            },
            "{\"Leaf\":{\"n\":1}}",
        );
        let file = |model: String| {
            format!(
                "{{\"version\":1,\"alert_threshold\":0.5,\"n_features\":{width},\"model\":{model}}}"
            )
        };
        [
            file(format!(
                "{{\"Gbdt\":{{\"trees\":[{gbdt}],\"base_score\":0.5,\
                 \"objective\":\"SquaredError\",\"n_features\":{own_width},\"threads\":1}}}}"
            )),
            file(format!(
                "{{\"IsolationForest\":{{\"trees\":[{forest}],\"c_psi\":1.5}}}}"
            )),
        ]
    }

    /// `from_bytes` on both model kinds: an error, or a model that scores.
    fn loads(nodes: &[Option<(u32, u32, u32)>], width: usize, own_width: usize) -> [bool; 2] {
        model_files(nodes, width, own_width).map(|json| {
            let loaded = ModelFile::from_bytes(json.as_bytes());
            if let Ok(mf) = &loaded {
                mf.model.predict_proba(&vec![0.75; mf.n_features]);
            }
            loaded.is_ok()
        })
    }

    const SPLIT_THEN_LEAVES: [Option<(u32, u32, u32)>; 3] = [Some((1, 1, 2)), None, None];

    #[test]
    fn well_formed_hand_written_trees_load_and_score() {
        assert_eq!(loads(&SPLIT_THEN_LEAVES, 2, 2), [true, true]);
        assert_eq!(loads(&[None], 2, 2), [true, true]);
    }

    #[test]
    fn a_tree_with_no_nodes_is_an_error() {
        assert_eq!(loads(&[], 2, 2), [false, false]);
    }

    /// Regression: the GBDT panicked inside `from_bytes` ("index out of
    /// bounds" lowering its flat forest); the forest on its first score.
    #[test]
    fn a_child_past_the_tree_is_an_error() {
        assert_eq!(loads(&[Some((0, 1, 3)), None, None], 2, 2), [false, false]);
    }

    /// A child at or before its split made both walks loop forever.
    #[test]
    fn a_child_that_points_back_is_an_error() {
        let to_itself = [Some((0, 0, 1)), None];
        let to_the_root = [Some((0, 1, 2)), Some((0, 0, 3)), None, None];
        assert_eq!(loads(&to_itself, 2, 2), [false, false]);
        assert_eq!(loads(&to_the_root, 2, 2), [false, false]);
    }

    /// Regression: a split feature past the row passed `from_bytes` and
    /// `deploy`, then panicked on the first `predict_proba`.
    #[test]
    fn a_split_feature_past_the_row_is_an_error() {
        assert_eq!(loads(&[Some((2, 1, 2)), None, None], 2, 2), [false, false]);
    }

    #[test]
    fn a_gbdt_wider_or_narrower_than_its_file_is_an_error() {
        assert!(!loads(&SPLIT_THEN_LEAVES, 2, 3)[0]);
        assert!(!loads(&SPLIT_THEN_LEAVES, 3, 2)[0]);
    }

    #[test]
    fn servable_model_names() {
        let mf = toy_model();
        assert_eq!(mf.model.name(), "GBDT");
    }
}
