//! Stable names for every feature position.

use prosel_engine::plan::{OP_TYPE_COUNT, OP_TYPE_NAMES};
use std::sync::OnceLock;

/// The x-percent markers used by dynamic features (paper §4.4.2).
pub const X_MARKERS: [u32; 5] = [1, 2, 5, 10, 20];

/// Estimators whose time-correlation features are computed.
pub const COR_ESTIMATORS: [&str; 6] = ["DNE", "TGN", "LUO", "BATCHDNE", "DNESEEK", "TGNINT"];

/// Pairs whose at-marker differences are computed.
pub const DIFF_PAIRS: [(&str, &str); 3] = [("DNE", "TGN"), ("DNE", "TGNINT"), ("TGN", "TGNINT")];

/// Number of time-correlation reference points per marker (the paper's
/// `i = 1, …, 4`).
pub const COR_POINTS: usize = 4;

/// Length of the static prefix: five encodings per operator type plus
/// six structural features.
pub const STATIC_LEN: usize = OP_TYPE_COUNT * 5 + 6;

/// Length of the dynamic suffix.
pub const DYNAMIC_LEN: usize =
    (DIFF_PAIRS.len() + COR_ESTIMATORS.len() * COR_POINTS) * X_MARKERS.len();

/// Named layout of the feature vector.
pub struct FeatureSchema {
    names: Vec<String>,
    static_len: usize,
}

static SCHEMA: OnceLock<FeatureSchema> = OnceLock::new();

impl FeatureSchema {
    /// The process-wide schema (features are a fixed layout).
    pub fn get() -> &'static FeatureSchema {
        SCHEMA.get_or_init(FeatureSchema::build)
    }

    fn build() -> FeatureSchema {
        let mut names = Vec::new();
        // Static: per operator type.
        for op in OP_TYPE_NAMES {
            names.push(format!("Count_{op}"));
            names.push(format!("Card_{op}"));
            names.push(format!("SelAt_{op}"));
            names.push(format!("SelAbove_{op}"));
            names.push(format!("SelBelow_{op}"));
        }
        // Static: structural.
        names.push("SelAtDN".into());
        names.push("LogTotalE".into());
        names.push("NodeCount".into());
        names.push("DriverCount".into());
        names.push("NlInnerCount".into());
        names.push("PipelineWeight".into());
        let static_len = names.len();
        assert_eq!(static_len, STATIC_LEN);
        // Dynamic: pairwise differences at markers.
        for (a, b) in DIFF_PAIRS {
            for x in X_MARKERS {
                names.push(format!("{a}vs{b}_{x}"));
            }
        }
        // Dynamic: time correlations.
        for est in COR_ESTIMATORS {
            for i in 1..=COR_POINTS {
                for x in X_MARKERS {
                    names.push(format!("Cor_{est}_{i}_{x}"));
                }
            }
        }
        assert_eq!(names.len(), STATIC_LEN + DYNAMIC_LEN);
        FeatureSchema { names, static_len }
    }

    /// Total number of features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of static features (prefix of the vector).
    pub fn static_len(&self) -> usize {
        self.static_len
    }

    /// Name of feature `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    #[cfg(test)]
    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of a feature by name.
    #[cfg(test)]
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_expected_shape() {
        let s = FeatureSchema::get();
        // 14 op types × 5 + 6 structural = 76 static.
        assert_eq!(s.static_len(), 14 * 5 + 6);
        // + 3 pairs × 5 markers + 6 estimators × 4 points × 5 markers.
        assert_eq!(s.len(), s.static_len() + 15 + 120);
        // ~200 features, as the paper reports.
        assert!(s.len() > 180 && s.len() < 240);
    }

    #[test]
    fn names_are_unique() {
        let s = FeatureSchema::get();
        let mut sorted: Vec<&String> = s.names().iter().collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len());
    }

    #[test]
    fn lookup_round_trips() {
        let s = FeatureSchema::get();
        assert_eq!(s.index_of("SelAtDN"), Some(14 * 5));
        let i = s.index_of("Cor_DNESEEK_4_20").expect("cor feature");
        assert_eq!(s.name(i), "Cor_DNESEEK_4_20");
        assert_eq!(s.index_of("NoSuchFeature"), None);
    }
}
