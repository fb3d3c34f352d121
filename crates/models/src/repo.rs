//! The model repository.
//!
//! "IDS includes a repository of computational models, spanning
//! domain-specific algorithms, open-source software, pre-trained AI models,
//! and traditional HPC simulation codes" (§1). The repository is a named,
//! versioned registry with the metadata the query planner needs to reason
//! about a model before the profiler has seen it run: its kind (analytic /
//! AI / simulation) and an a-priori cost class.

use std::collections::HashMap;

/// What kind of computation a model performs. The planner's cost priors
/// differ by orders of magnitude per kind (analytic µs–ms, AI inference
/// tenths of seconds, simulation tens of seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Deterministic domain algorithm (Smith–Waterman, pIC50).
    Analytic,
    /// Pre-trained AI model inference (DTBA, AlphaFold-class, MolGAN).
    AiModel,
    /// HPC-style simulation (molecular docking).
    Simulation,
}

impl ModelKind {
    /// A-priori cost estimate (virtual seconds per evaluation) used by the
    /// planner until real profiling data exists.
    pub fn prior_cost(self) -> f64 {
        match self {
            ModelKind::Analytic => 1.0e-3,
            ModelKind::AiModel => 0.5,
            ModelKind::Simulation => 35.0,
        }
    }
}

/// Metadata describing a registered model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    /// Unique name (e.g. `"smith_waterman"`, `"dtba"`, `"vina_docking"`).
    pub name: String,
    /// Kind of computation.
    pub kind: ModelKind,
    /// Version string, so workflows can pin behaviour.
    pub version: String,
    /// Human-readable description.
    pub description: String,
    /// Whether the model is deterministic in its inputs (a requirement for
    /// result caching; all shipped models are).
    pub deterministic: bool,
}

/// The registry: name → metadata. Model *implementations* live in their own
/// modules; the repository indexes them and is what queries reference.
#[derive(Debug, Clone, Default)]
pub struct ModelRepository {
    models: HashMap<String, ModelMeta>,
}

impl ModelRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// The repository pre-loaded with every model this crate ships — the
    /// lineup the NCNPR workflow uses.
    pub fn with_builtin_models() -> Self {
        let mut repo = Self::new();
        for meta in [
            ModelMeta {
                name: "smith_waterman".into(),
                kind: ModelKind::Analytic,
                version: "1.0".into(),
                description: "Affine-gap Smith-Waterman local alignment (BLOSUM62)".into(),
                deterministic: true,
            },
            ModelMeta {
                name: "pic50".into(),
                kind: ModelKind::Analytic,
                version: "1.0".into(),
                description: "Compound potency (pIC50) assay lookup".into(),
                deterministic: true,
            },
            ModelMeta {
                name: "dtba".into(),
                kind: ModelKind::AiModel,
                version: "1.0".into(),
                description: "DeepDTA-style drug-target binding affinity CNN".into(),
                deterministic: true,
            },
            ModelMeta {
                name: "structure_prediction".into(),
                kind: ModelKind::AiModel,
                version: "1.0".into(),
                description: "Sequence to 3D backbone predictor (AlphaFold substitute)".into(),
                deterministic: true,
            },
            ModelMeta {
                name: "molecule_generation".into(),
                kind: ModelKind::AiModel,
                version: "1.0".into(),
                description: "Fragment-grammar molecular generator (MolGAN substitute)".into(),
                deterministic: true,
            },
            ModelMeta {
                name: "vina_docking".into(),
                kind: ModelKind::Simulation,
                version: "1.2".into(),
                description: "Blind molecular docking with Vina-style scoring".into(),
                deterministic: true,
            },
        ] {
            // The built-in names are distinct, so no entry is replaced.
            repo.reload(meta);
        }
        repo
    }

    /// Register a model. Errors if the name is taken.
    pub fn register(&mut self, meta: ModelMeta) -> Result<(), String> {
        if self.models.contains_key(&meta.name) {
            return Err(format!("model {:?} already registered", meta.name));
        }
        self.models.insert(meta.name.clone(), meta);
        Ok(())
    }

    /// Replace an existing registration (the "force reload" path the paper
    /// describes for continually-updated user code).
    pub fn reload(&mut self, meta: ModelMeta) {
        self.models.insert(meta.name.clone(), meta);
    }

    /// Look up a model by name.
    pub fn get(&self, name: &str) -> Option<&ModelMeta> {
        self.models.get(name)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Iterate all registrations (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &ModelMeta> {
        self.models.values()
    }

    /// All models of a given kind.
    pub fn by_kind(&self, kind: ModelKind) -> Vec<&ModelMeta> {
        self.models.values().filter(|m| m.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_the_ncnpr_lineup() {
        let repo = ModelRepository::with_builtin_models();
        for name in [
            "smith_waterman",
            "pic50",
            "dtba",
            "vina_docking",
            "structure_prediction",
            "molecule_generation",
        ] {
            assert!(repo.get(name).is_some(), "missing {name}");
        }
        assert_eq!(repo.len(), 6);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut repo = ModelRepository::with_builtin_models();
        let dup = repo.get("dtba").unwrap().clone();
        assert!(repo.register(dup).is_err());
    }

    #[test]
    fn reload_replaces() {
        let mut repo = ModelRepository::with_builtin_models();
        let mut v2 = repo.get("dtba").unwrap().clone();
        v2.version = "2.0".into();
        repo.reload(v2);
        assert_eq!(repo.get("dtba").unwrap().version, "2.0");
        assert_eq!(repo.len(), 6);
    }

    #[test]
    fn cost_priors_are_ordered_by_kind() {
        assert!(ModelKind::Analytic.prior_cost() < ModelKind::AiModel.prior_cost());
        assert!(ModelKind::AiModel.prior_cost() < ModelKind::Simulation.prior_cost());
    }

    #[test]
    fn by_kind_filters() {
        let repo = ModelRepository::with_builtin_models();
        assert_eq!(repo.by_kind(ModelKind::Simulation).len(), 1);
        assert_eq!(repo.by_kind(ModelKind::AiModel).len(), 3);
        assert_eq!(repo.by_kind(ModelKind::Analytic).len(), 2);
    }

    #[test]
    fn all_builtin_models_are_deterministic() {
        // Determinism is the precondition for result caching (§3).
        let repo = ModelRepository::with_builtin_models();
        assert!(repo.iter().all(|m| m.deterministic));
    }
}
