//! `scout` — the paper's primary contribution: a per-team, ML-assisted
//! gate-keeper that answers *"is this team responsible for this incident?"*
//! with a confidence score and an explanation (§4, §5).
//!
//! The crate implements the full Scout framework of Figure 5:
//!
//! ```text
//!  config file ──► [config DSL parser]            (config)
//!  incident text ─► [exclusion rules]             (selector)
//!                 ─► [component extraction]       (extract)
//!                 ─► [feature construction]       (features)
//!  model selector ─► RF  (frequent incidents)     (scout)
//!                  └► CPD+ (new / rare incidents) (cpdplus)
//!  output: verdict + confidence + explanation     (explain)
//! ```
//!
//! plus the lifecycle machinery of §7.3/§8: periodic retraining with
//! growing or sliding windows, age-based down-weighting, and mistake
//! up-weighting (`retrain`), and the rule-based Storage Scout of Appendix B
//! (`rules`).
//!
//! The crate is deliberately independent of the `incident` crate: a Scout
//! consumes only [`Example`]s (text + timestamp + label) and a borrowed
//! [`monitoring::MonitoringSystem`], mirroring the production information
//! boundary.

pub mod config;
pub mod cpdplus;
pub mod denoise;
pub mod explain;
pub mod extract;
pub mod features;
pub mod persist;
pub mod retrain;
pub mod rules;
pub mod scout;
pub mod selector;

pub use config::{ComponentType, ExcludeRule, MonitoringDecl, ScoutConfig};
pub use cpdplus::{CpdPlus, CpdPlusConfig};
pub use denoise::{denoise, DenoiseConfig, DenoiseReport};
pub use explain::Explanation;
pub use extract::{ExtractedComponents, Extractor};
pub use features::{Aggregation, FeatureLayout, Featurizer};
pub use retrain::{RetrainConfig, RetrainSchedule, WindowPolicy};
pub use scout::{
    ModelUsed, PathChoice, Prediction, PreparedCorpus, Scout, ScoutBuildConfig, Verdict,
};
pub use selector::{Selector, SelectorKind};

use cloudsim::SimTime;

/// One labeled training example: everything a Scout may learn from.
#[derive(Debug, Clone)]
pub struct Example {
    /// Incident text (title + body + any appended notes).
    pub text: String,
    /// Creation time: anchors the telemetry look-back window.
    pub time: SimTime,
    /// Ground truth: is the Scout's team responsible?
    pub label: bool,
    /// Training weight (age decay, mistake boosting — §8).
    pub weight: f64,
}

impl Example {
    /// An example with unit weight.
    pub fn new(text: impl Into<String>, time: SimTime, label: bool) -> Example {
        Example {
            text: text.into(),
            time,
            label,
            weight: 1.0,
        }
    }
}
