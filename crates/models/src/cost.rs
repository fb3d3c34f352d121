//! Virtual-cost calibration.
//!
//! §5.1 of the paper publishes the per-operation costs its planner reasons
//! about: Smith–Waterman averages **< 1 ms** per comparison, pIC50 costs
//! **1e-5 s**, DTBA predictions take **tenths of a second** (most ≈ 1 s,
//! some longer — Figure 5 discussion), and docking takes **31–44 s** per
//! ligand. Each model in this crate reports its execution in *virtual
//! seconds* through this calibration, so the simulator's latencies land in
//! the paper's bands regardless of host speed.

/// Calibrated virtual-cost parameters for every model in the repository.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Smith–Waterman DP cell rate (cells / virtual second). At 2e8 a
    /// 300×300 alignment costs 0.45 ms — inside the paper's < 1 ms band.
    pub sw_cells_per_sec: f64,
    /// Fixed pIC50 lookup cost (paper: 1e-5 s).
    pub pic50_secs: f64,
    /// DTBA base forward-pass cost (paper: tenths of a second).
    pub dtba_base_secs: f64,
    /// DTBA per-residue marginal cost (longer targets cost more).
    pub dtba_per_residue_secs: f64,
    /// Fraction of DTBA calls hitting the slow tail (Fig. 5: "most ≈ 1 s,
    /// some longer").
    pub dtba_tail_prob: f64,
    /// Multiplier applied to tail calls.
    pub dtba_tail_factor: f64,
    /// Docking minimum per-ligand cost (paper: 31 s).
    pub docking_min_secs: f64,
    /// Docking maximum per-ligand cost (paper: 44 s).
    pub docking_max_secs: f64,
    /// Structure prediction cost per residue (AlphaFold-class models are
    /// minutes-scale; the predictor is invoked once per novel target).
    pub structure_per_residue_secs: f64,
    /// Molecular generation cost per candidate.
    pub molgen_per_candidate_secs: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl CostModel {
    /// The calibration that reproduces §5.1's published costs.
    pub fn paper_calibrated() -> Self {
        Self {
            sw_cells_per_sec: 2.0e8,
            pic50_secs: 1.0e-5,
            dtba_base_secs: 0.55,
            dtba_per_residue_secs: 8.0e-4,
            dtba_tail_prob: 0.05,
            dtba_tail_factor: 3.0,
            docking_min_secs: 31.0,
            docking_max_secs: 44.0,
            structure_per_residue_secs: 0.35,
            molgen_per_candidate_secs: 0.02,
        }
    }

    /// A free cost model (all zeros) for unit tests that only care about
    /// outputs.
    pub fn free() -> Self {
        Self {
            sw_cells_per_sec: f64::INFINITY,
            pic50_secs: 0.0,
            dtba_base_secs: 0.0,
            dtba_per_residue_secs: 0.0,
            dtba_tail_prob: 0.0,
            dtba_tail_factor: 1.0,
            docking_min_secs: 0.0,
            docking_max_secs: 0.0,
            structure_per_residue_secs: 0.0,
            molgen_per_candidate_secs: 0.0,
        }
    }

    /// Smith–Waterman cost for an `m × n` alignment.
    pub fn sw_cost(&self, m: usize, n: usize) -> f64 {
        (m as f64 * n as f64) / self.sw_cells_per_sec
    }

    /// DTBA forward-pass cost for a target of `residues` residues;
    /// `hash` deterministically selects tail-latency calls.
    pub fn dtba_cost(&self, residues: usize, hash: u64) -> f64 {
        let base = self.dtba_base_secs + residues as f64 * self.dtba_per_residue_secs;
        // Map the hash to [0,1) to decide tail membership deterministically.
        let u = (hash >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.dtba_tail_prob {
            base * self.dtba_tail_factor
        } else {
            base
        }
    }

    /// Docking cost for a ligand with `rotatable_bonds` rotors; `hash`
    /// spreads ligands across the paper's 31–44 s band deterministically.
    pub fn docking_cost(&self, rotatable_bonds: usize, hash: u64) -> f64 {
        let span = self.docking_max_secs - self.docking_min_secs;
        if span <= 0.0 {
            return self.docking_min_secs;
        }
        // Rotors push toward the expensive end; the hash jitters within it.
        let rotor_frac = (rotatable_bonds as f64 / 12.0).min(1.0);
        let jitter = (hash >> 11) as f64 / (1u64 << 53) as f64;
        self.docking_min_secs + span * (0.6 * rotor_frac + 0.4 * jitter)
    }

    /// Structure-prediction cost for a chain of `residues`.
    pub fn structure_cost(&self, residues: usize) -> f64 {
        residues as f64 * self.structure_per_residue_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw_cost_is_sub_millisecond_for_typical_proteins() {
        let c = CostModel::paper_calibrated();
        // A 300x300 alignment — a typical GPCR-sized comparison.
        let t = c.sw_cost(300, 300);
        assert!(t < 1.0e-3, "paper: SW averages < 1 ms, got {t}");
        assert!(t > 1.0e-5);
    }

    #[test]
    fn dtba_cost_in_tenths_of_seconds() {
        let c = CostModel::paper_calibrated();
        let t = c.dtba_cost(400, 12345);
        assert!((0.1..=3.0).contains(&t), "got {t}");
    }

    #[test]
    fn dtba_tail_calls_are_slower() {
        let c = CostModel::paper_calibrated();
        // Find a hash in the tail and one outside it.
        let base = c.dtba_cost(400, u64::MAX); // u ≈ 1.0 → not tail
        let tail = c.dtba_cost(400, 0); // u = 0 → tail
        assert!(tail > base * 2.0, "tail {tail} vs base {base}");
    }

    #[test]
    fn docking_cost_in_paper_band() {
        let c = CostModel::paper_calibrated();
        for rotors in [0usize, 3, 8, 15] {
            for h in [0u64, 42, u64::MAX] {
                let t = c.docking_cost(rotors, h);
                assert!((31.0..=44.0).contains(&t), "rotors={rotors} h={h} t={t}");
            }
        }
    }

    #[test]
    fn more_rotors_costs_more_on_average() {
        let c = CostModel::paper_calibrated();
        assert!(c.docking_cost(12, 7) > c.docking_cost(0, 7));
    }

    #[test]
    fn free_model_is_zero() {
        let c = CostModel::free();
        assert_eq!(c.sw_cost(1000, 1000), 0.0);
        assert_eq!(c.dtba_cost(500, 1), 0.0);
        assert_eq!(c.docking_cost(9, 1), 0.0);
    }
}
