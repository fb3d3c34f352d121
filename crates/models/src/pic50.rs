//! pIC50 — compound potency.
//!
//! pIC50 = −log₁₀(IC50 in molar) is "a widely used pharmacological measure
//! of compound potency" (paper, footnote 1). In the NCNPR pipeline it is
//! the cheapest filter (1e-5 s per evaluation) and runs before DTBA and
//! docking. Real assay values come from ChEMBL; the synthetic-data path
//! derives a deterministic assay value from the (compound, protein) pair so
//! repeated queries see consistent data.

use crate::cost::CostModel;
use ids_simrt::rng::{fnv1a, hash_combine, SplitMix64};

/// A potency measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Potency {
    /// pIC50 value (typically 3–11 for drug-like actives; ≥ 6 ≈ sub-µM).
    pub pic50: f64,
    /// Virtual cost of the lookup.
    pub virtual_secs: f64,
}

/// Convert an IC50 in nanomolar to pIC50.
///
/// # Panics
/// Panics if `ic50_nm` is not positive.
pub fn pic50_from_ic50_nm(ic50_nm: f64) -> f64 {
    assert!(ic50_nm > 0.0, "IC50 must be positive, got {ic50_nm}");
    // nM → M is 1e-9; −log10(x·1e-9) = 9 − log10(x).
    9.0 - ic50_nm.log10()
}

/// Convert a pIC50 back to IC50 in nanomolar.
pub fn ic50_nm_from_pic50(pic50: f64) -> f64 {
    10f64.powf(9.0 - pic50)
}

/// The pIC50 model: a deterministic synthetic assay generator plus cost
/// accounting. The generated distribution mimics ChEMBL: most compounds are
/// weak (pIC50 ≈ 4–6), a drug-like tail is potent (7–10).
#[derive(Debug, Clone)]
pub struct Pic50Model {
    cost: CostModel,
}

impl Pic50Model {
    /// Construct with a cost calibration.
    pub fn new(cost: CostModel) -> Self {
        Self { cost }
    }

    /// Paper-calibrated defaults.
    pub fn default_model() -> Self {
        Self::new(CostModel::paper_calibrated())
    }

    /// Deterministic assay value for a (compound SMILES, protein accession)
    /// pair. Same inputs always produce the same potency — the property
    /// result-caching depends on.
    pub fn assay(&self, smiles: &str, protein_accession: &str) -> Potency {
        self.assay_hashed(fnv1a(smiles.as_bytes()), fnv1a(protein_accession.as_bytes()))
    }

    /// [`Self::assay`] from the FNV-1a hashes of its two inputs, for a
    /// caller that keeps them.
    pub fn assay_hashed(&self, smiles_hash: u64, accession_hash: u64) -> Potency {
        let h = hash_combine(smiles_hash, accession_hash);
        let mut rng = SplitMix64::new(h, 0x9c50);
        // Mixture: 80% weak N(5.0, 0.8), 20% potent N(7.5, 1.0), clamped.
        let potent = rng.next_f64() < 0.2;
        let pic50 =
            if potent { 7.5 + rng.next_gaussian() } else { 5.0 + 0.8 * rng.next_gaussian() }
                .clamp(3.0, 11.0);
        Potency { pic50, virtual_secs: self.cost.pic50_secs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_conversions() {
        // 1 nM → pIC50 9; 1 µM → 6; 10 µM → 5.
        assert!((pic50_from_ic50_nm(1.0) - 9.0).abs() < 1e-12);
        assert!((pic50_from_ic50_nm(1000.0) - 6.0).abs() < 1e-12);
        assert!((pic50_from_ic50_nm(10_000.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn conversion_round_trip() {
        for p in [4.0, 5.5, 6.0, 7.25, 9.0] {
            assert!((pic50_from_ic50_nm(ic50_nm_from_pic50(p)) - p).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_ic50_rejected() {
        pic50_from_ic50_nm(0.0);
    }

    #[test]
    fn assay_is_deterministic() {
        let m = Pic50Model::default_model();
        let a = m.assay("CC(=O)Oc1ccccc1C(=O)O", "P29274");
        let b = m.assay("CC(=O)Oc1ccccc1C(=O)O", "P29274");
        assert_eq!(a.pic50, b.pic50);
    }

    #[test]
    fn assay_varies_by_compound_and_target() {
        let m = Pic50Model::default_model();
        let a = m.assay("CCO", "P29274");
        let b = m.assay("CCN", "P29274");
        let c = m.assay("CCO", "P30542");
        assert_ne!(a.pic50, b.pic50);
        assert_ne!(a.pic50, c.pic50);
    }

    #[test]
    fn distribution_is_chembl_like() {
        let m = Pic50Model::default_model();
        let n = 5000;
        let values: Vec<f64> = (0..n).map(|i| m.assay(&format!("C{i}"), "P29274").pic50).collect();
        let mean = values.iter().sum::<f64>() / n as f64;
        assert!((4.5..6.5).contains(&mean), "mean {mean}");
        let potent_frac = values.iter().filter(|&&v| v >= 7.0).count() as f64 / n as f64;
        assert!((0.1..0.35).contains(&potent_frac), "potent fraction {potent_frac}");
        assert!(values.iter().all(|&v| (3.0..=11.0).contains(&v)));
    }

    #[test]
    fn assay_is_its_hashed_form() {
        let m = Pic50Model::default_model();
        for (smiles, accession) in [("CCO", "P29274"), ("", ""), ("c1ccccc1", "up:B0_0")] {
            let hashed = m.assay_hashed(fnv1a(smiles.as_bytes()), fnv1a(accession.as_bytes()));
            assert_eq!(m.assay(smiles, accession), hashed);
        }
    }

    #[test]
    fn cost_matches_paper() {
        let m = Pic50Model::default_model();
        let p = m.assay("CCO", "P29274");
        assert_eq!(p.virtual_secs, 1.0e-5);
    }
}
