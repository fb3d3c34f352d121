//! Structure prediction — the AlphaFold substitute.
//!
//! The NCNPR workflow uses AlphaFold only as a *structure provider*:
//! sequence in, 3-D structure out, feeding the docking stage. This
//! predictor reproduces that contract deterministically:
//!
//! 1. assign per-residue secondary structure by sliding-window Chou–Fasman
//!    propensities (helix / sheet / coil);
//! 2. build an idealized Cα trace: helices rise 1.5 Å per residue with a
//!    100° turn, sheets extend 3.4 Å per residue, coils random-walk with a
//!    sequence-seeded stream;
//! 3. attach a per-residue confidence (pLDDT-like): high in regular
//!    secondary structure, lower in coil.
//!
//! Identical sequences yield identical structures (cacheable); point
//! mutations perturb only the local geometry downstream of the mutation.

use crate::cost::CostModel;
use ids_chem::element::Element;
use ids_chem::sequence::ProteinSequence;
use ids_chem::structure::{Structure3D, Vec3};
use ids_simrt::rng::{fnv1a, SplitMix64};

/// Secondary-structure class assigned to a residue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondaryStructure {
    Helix,
    Sheet,
    Coil,
}

/// A predicted structure with confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedStructure {
    /// Cα trace (one carbon per residue).
    pub structure: Structure3D,
    /// Per-residue secondary structure assignment.
    pub secondary: Vec<SecondaryStructure>,
    /// Per-residue confidence in `[0, 100]` (pLDDT-like).
    pub plddt: Vec<f64>,
    /// Virtual cost of the prediction.
    pub virtual_secs: f64,
}

impl PredictedStructure {
    /// Mean confidence over the chain.
    pub fn mean_plddt(&self) -> f64 {
        if self.plddt.is_empty() {
            return 0.0;
        }
        self.plddt.iter().sum::<f64>() / self.plddt.len() as f64
    }
}

/// The deterministic structure predictor.
#[derive(Debug, Clone)]
pub struct StructurePredictor {
    cost: CostModel,
    /// Sliding window half-width for propensity smoothing.
    window: usize,
}

impl StructurePredictor {
    /// Construct with a cost calibration.
    pub fn new(cost: CostModel) -> Self {
        Self { cost, window: 3 }
    }

    /// Paper-calibrated defaults.
    pub fn default_model() -> Self {
        Self::new(CostModel::paper_calibrated())
    }

    /// Assign secondary structure by smoothed Chou–Fasman propensities.
    pub fn assign_secondary(&self, seq: &ProteinSequence) -> Vec<SecondaryStructure> {
        let res = seq.residues();
        let n = res.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(self.window);
            let hi = (i + self.window + 1).min(n);
            let count = (hi - lo) as f64;
            let helix: f64 = res[lo..hi].iter().map(|a| a.helix_propensity()).sum::<f64>() / count;
            let sheet: f64 = res[lo..hi].iter().map(|a| a.sheet_propensity()).sum::<f64>() / count;
            out.push(if helix >= sheet && helix > 1.03 {
                SecondaryStructure::Helix
            } else if sheet > helix && sheet > 1.05 {
                SecondaryStructure::Sheet
            } else {
                SecondaryStructure::Coil
            });
        }
        out
    }

    /// Predict the 3-D structure of `seq`.
    pub fn predict(&self, seq: &ProteinSequence) -> PredictedStructure {
        let secondary = self.assign_secondary(seq);
        let n = seq.len();
        let mut structure = Structure3D::new();
        let mut plddt = Vec::with_capacity(n);

        // Sequence-seeded stream drives coil geometry, so prediction is a
        // pure function of the sequence.
        let mut rng = SplitMix64::new(fnv1a(seq.to_string_code().as_bytes()), 0xa1fa);

        let mut pos = Vec3::ZERO;
        let mut dir = Vec3::new(1.0, 0.0, 0.0);
        let mut helix_phase: f64 = 0.0;
        for (i, &ss) in secondary.iter().enumerate() {
            match ss {
                SecondaryStructure::Helix => {
                    // 100°/residue twist around the advancing axis, 1.5 Å rise.
                    helix_phase += 100f64.to_radians();
                    let radial = Vec3::new(0.0, helix_phase.cos(), helix_phase.sin()) * 2.3;
                    pos = pos + dir * 1.5;
                    structure.push(Element::C, pos + radial);
                    plddt.push(88.0 + 6.0 * rng.next_f64());
                }
                SecondaryStructure::Sheet => {
                    // Extended strand: 3.4 Å per residue with slight pleat.
                    let pleat = Vec3::new(0.0, if i % 2 == 0 { 0.5 } else { -0.5 }, 0.0);
                    pos = pos + dir * 3.4;
                    structure.push(Element::C, pos + pleat);
                    plddt.push(80.0 + 8.0 * rng.next_f64());
                }
                SecondaryStructure::Coil => {
                    // Random-walk turn: bend the direction, step 3.0 Å.
                    let axis = Vec3::new(
                        rng.next_range(-1.0, 1.0),
                        rng.next_range(-1.0, 1.0),
                        rng.next_range(-1.0, 1.0),
                    )
                    .normalized();
                    dir = dir.rotated(axis, rng.next_range(0.3, 1.2)).normalized();
                    pos = pos + dir * 3.0;
                    structure.push(Element::C, pos);
                    plddt.push(45.0 + 25.0 * rng.next_f64());
                }
            }
        }

        PredictedStructure {
            structure,
            secondary,
            plddt,
            virtual_secs: self.cost.structure_cost(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_simrt::rng::SplitMix64;

    #[test]
    fn prediction_is_deterministic() {
        let p = StructurePredictor::default_model();
        let mut rng = SplitMix64::new(1, 1);
        let s = ProteinSequence::random(120, &mut rng);
        let a = p.predict(&s);
        let b = p.predict(&s);
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.plddt, b.plddt);
    }

    #[test]
    fn one_atom_per_residue() {
        let p = StructurePredictor::default_model();
        let mut rng = SplitMix64::new(2, 1);
        let s = ProteinSequence::random(87, &mut rng);
        let pred = p.predict(&s);
        assert_eq!(pred.structure.len(), 87);
        assert_eq!(pred.secondary.len(), 87);
        assert_eq!(pred.plddt.len(), 87);
    }

    #[test]
    fn helix_rich_sequence_gets_helix_calls() {
        // Poly-alanine/glutamate is a classic helix former.
        let s = ProteinSequence::parse(&"AEAA".repeat(20)).unwrap();
        let p = StructurePredictor::default_model();
        let ss = p.assign_secondary(&s);
        let helix_frac =
            ss.iter().filter(|&&x| x == SecondaryStructure::Helix).count() as f64 / ss.len() as f64;
        assert!(helix_frac > 0.8, "helix fraction {helix_frac}");
    }

    #[test]
    fn sheet_rich_sequence_gets_sheet_calls() {
        // Poly-valine/isoleucine strongly favors sheets.
        let s = ProteinSequence::parse(&"VIVI".repeat(20)).unwrap();
        let p = StructurePredictor::default_model();
        let ss = p.assign_secondary(&s);
        let sheet_frac =
            ss.iter().filter(|&&x| x == SecondaryStructure::Sheet).count() as f64 / ss.len() as f64;
        assert!(sheet_frac > 0.8, "sheet fraction {sheet_frac}");
    }

    #[test]
    fn regular_structure_is_higher_confidence_than_coil() {
        let helix = ProteinSequence::parse(&"AEAA".repeat(25)).unwrap();
        let coil = ProteinSequence::parse(&"GPGS".repeat(25)).unwrap();
        let p = StructurePredictor::default_model();
        assert!(p.predict(&helix).mean_plddt() > p.predict(&coil).mean_plddt());
    }

    #[test]
    fn different_sequences_get_different_structures() {
        let p = StructurePredictor::default_model();
        let mut rng = SplitMix64::new(3, 1);
        let a = ProteinSequence::random(100, &mut rng);
        let b = ProteinSequence::random(100, &mut rng);
        let sa = p.predict(&a).structure;
        let sb = p.predict(&b).structure;
        assert!(sa.rmsd(&sb) > 1.0, "distinct folds expected");
    }

    #[test]
    fn chain_is_spatially_extended_not_collapsed() {
        let p = StructurePredictor::default_model();
        let mut rng = SplitMix64::new(4, 1);
        let s = ProteinSequence::random(150, &mut rng);
        let pred = p.predict(&s);
        let bb = pred.structure.bounding_box(0.0).unwrap();
        assert!(bb.extent().norm() > 10.0, "fold spans space: {:?}", bb.extent());
    }

    #[test]
    fn cost_scales_with_length() {
        let p = StructurePredictor::default_model();
        let mut rng = SplitMix64::new(5, 1);
        let short = p.predict(&ProteinSequence::random(50, &mut rng));
        let long = p.predict(&ProteinSequence::random(500, &mut rng));
        assert!(long.virtual_secs > short.virtual_secs * 5.0);
    }
}
