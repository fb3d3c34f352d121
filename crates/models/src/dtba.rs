//! DTBA — drug–target binding-affinity prediction.
//!
//! The paper adds "a TensorFlow-based DTBA UDF using a pre-trained model
//! that consumes a protein sequence and a SMILES string" (§5.1, citing
//! DeepDTA). This module is a from-scratch reimplementation of that model
//! family: two 1-D convolutional branches (one over the label-encoded
//! protein sequence, one over the label-encoded SMILES string), global max
//! pooling, concatenation, and a dense head producing a pKd-scale affinity.
//!
//! The network's weights are deterministically "pre-trained": generated
//! once from a fixed seed, so the model behaves like any frozen checkpoint
//! — identical inputs give identical outputs (which the result cache relies
//! on), related inputs give related outputs, and the forward pass performs
//! real convolution arithmetic whose FLOP count drives the virtual cost.

use crate::cost::CostModel;
use ids_chem::sequence::ProteinSequence;
use ids_simrt::rng::{fnv1a, hash_combine, SplitMix64};

/// SMILES character vocabulary for label encoding (index 0 = padding).
const SMILES_VOCAB: &str = "CNOPSFIBrcl()[]=#+-123456789%@/\\.Hn os";

/// Affinity prediction output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affinity {
    /// Predicted binding affinity on the pKd scale (higher binds tighter;
    /// drug-like actives land around 6–9).
    pub pkd: f64,
    /// Virtual cost of the forward pass.
    pub virtual_secs: f64,
}

/// Configuration of the DTBA network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtbaConfig {
    /// Embedding dimension for both branches.
    pub embed_dim: usize,
    /// Convolution filter count per branch.
    pub filters: usize,
    /// Convolution kernel width (protein branch).
    pub protein_kernel: usize,
    /// Convolution kernel width (SMILES branch).
    pub smiles_kernel: usize,
    /// Hidden width of the dense head.
    pub hidden: usize,
    /// Maximum sequence length consumed (longer inputs are truncated, as
    /// DeepDTA truncates to 1000 residues / 100 SMILES characters).
    pub max_protein_len: usize,
    /// Maximum SMILES length consumed.
    pub max_smiles_len: usize,
}

impl Default for DtbaConfig {
    fn default() -> Self {
        Self {
            embed_dim: 8,
            filters: 16,
            protein_kernel: 8,
            smiles_kernel: 4,
            hidden: 16,
            max_protein_len: 1000,
            max_smiles_len: 100,
        }
    }
}

/// Filters computed side by side: sixteen `f32` lanes, four 128-bit
/// vectors. Two positions of sixteen accumulators fill the baseline
/// x86-64 register file without spilling.
const LANES: usize = 16;

/// One block of up to [`LANES`] filters at one tap, or their biases.
type Lanes = [f32; LANES];

/// SMILES byte → label (`SMILES_VOCAB` position + 1; 0 = padding / unknown).
static SMILES_LABEL: [u8; 256] = {
    let vocab = SMILES_VOCAB.as_bytes();
    let mut table = [0u8; 256];
    // Back to front, so a repeated character would keep its first position
    // as `str::find` did.
    let mut i = vocab.len();
    while i > 0 {
        i -= 1;
        table[vocab[i] as usize] = i as u8 + 1;
    }
    table
};

/// The checkpoint as the seeded stream emits it: one row per vocabulary
/// entry, filter or hidden unit.
struct Checkpoint {
    // Embedding tables: [vocab][embed_dim].
    protein_embed: Vec<Vec<f32>>,
    smiles_embed: Vec<Vec<f32>>,
    // Conv weights: [filters][kernel * embed_dim], plus bias.
    protein_conv: Vec<Vec<f32>>,
    protein_conv_bias: Vec<f32>,
    smiles_conv: Vec<Vec<f32>>,
    smiles_conv_bias: Vec<f32>,
    // Dense head: [hidden][2*filters] + bias, then [1][hidden] + bias.
    dense1: Vec<Vec<f32>>,
    dense1_bias: Vec<f32>,
    dense2: Vec<f32>,
    dense2_bias: f32,
}

fn init_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Vec<Vec<f32>> {
    // Glorot-style uniform init keeps activations in range.
    let limit = (6.0 / (rows + cols) as f64).sqrt();
    (0..rows).map(|_| (0..cols).map(|_| (rng.next_range(-limit, limit)) as f32).collect()).collect()
}

fn init_vector(rng: &mut SplitMix64, len: usize) -> Vec<f32> {
    (0..len).map(|_| (rng.next_range(-0.05, 0.05)) as f32).collect()
}

impl Checkpoint {
    /// Weights are a pure function of `seed` and the shape in `cfg`.
    fn generate(cfg: &DtbaConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed, 0xd7ba);
        let protein_embed = init_matrix(&mut rng, 21, cfg.embed_dim);
        let smiles_embed = init_matrix(&mut rng, SMILES_VOCAB.len() + 1, cfg.embed_dim);
        let protein_conv = init_matrix(&mut rng, cfg.filters, cfg.protein_kernel * cfg.embed_dim);
        let protein_conv_bias = init_vector(&mut rng, cfg.filters);
        let smiles_conv = init_matrix(&mut rng, cfg.filters, cfg.smiles_kernel * cfg.embed_dim);
        let smiles_conv_bias = init_vector(&mut rng, cfg.filters);
        let dense1 = init_matrix(&mut rng, cfg.hidden, 2 * cfg.filters);
        let dense1_bias = init_vector(&mut rng, cfg.hidden);
        let dense2 = init_matrix(&mut rng, 1, cfg.hidden).remove(0);
        let dense2_bias = init_vector(&mut rng, 1)[0];
        Self {
            protein_embed,
            smiles_embed,
            protein_conv,
            protein_conv_bias,
            smiles_conv,
            smiles_conv_bias,
            dense1,
            dense1_bias,
            dense2,
            dense2_bias,
        }
    }
}

/// One convolutional branch, laid out for the forward pass: the embedding
/// table flat, the filters *tap-major* — `weights[block · taps + t][f]` is
/// filter `block · LANES + f` at tap `t = k · embed_dim + d` — so one tap
/// of every filter is one contiguous vector, and a window of the embedded
/// sequence (also flat, position-major) meets the taps in order.
#[derive(Debug, Clone)]
struct ConvBranch {
    embed_dim: usize,
    kernel: usize,
    filters: usize,
    /// `[vocab][embed_dim]`, flat.
    embed: Vec<f32>,
    /// `[⌈filters / LANES⌉][taps]`; lanes past `filters` are zero.
    weights: Vec<Lanes>,
    /// `[⌈filters / LANES⌉]`.
    bias: Vec<Lanes>,
}

impl ConvBranch {
    fn pack(
        embed: &[Vec<f32>],
        conv: &[Vec<f32>],
        bias: &[f32],
        kernel: usize,
        embed_dim: usize,
    ) -> Self {
        let filters = conv.len();
        let taps = kernel * embed_dim;
        let blocks = filters.div_ceil(LANES);
        let mut weights = vec![[0f32; LANES]; blocks * taps];
        let mut packed_bias = vec![[0f32; LANES]; blocks];
        for (f, (row, b)) in conv.iter().zip(bias).enumerate() {
            packed_bias[f / LANES][f % LANES] = *b;
            for (t, w) in row.iter().enumerate() {
                weights[f / LANES * taps + t][f % LANES] = *w;
            }
        }
        Self { embed_dim, kernel, filters, embed: embed.concat(), weights, bias: packed_bias }
    }

    /// embed → conv1d(valid) → ReLU → global max pool, over label ids.
    ///
    /// Every filter is a lane; each lane starts from its bias and adds
    /// `w · x` tap by tap in `(k, d)` order — the same additions in the same
    /// order as a filter-at-a-time loop, so the same `f32` bits. Two
    /// positions share each loaded tap.
    fn forward(&self, ids: impl Iterator<Item = u8>) -> Vec<f32> {
        let (dim, taps) = (self.embed_dim, self.kernel * self.embed_dim);
        let mut pooled = vec![0f32; self.filters];
        // The embedded sequence (L × E), position-major: the window of
        // position `p` is `x[p · E ..][.. taps]`.
        let mut x = Vec::with_capacity(ids.size_hint().0 * dim);
        let mut len = 0;
        for id in ids {
            x.extend_from_slice(&self.embed[id as usize * dim..][..dim]);
            len += 1;
        }
        if len < self.kernel {
            return pooled;
        }
        let positions = len - self.kernel + 1;
        for ((block, bias), out) in self.bias.iter().enumerate().zip(pooled.chunks_mut(LANES)) {
            let weights = &self.weights[block * taps..][..taps];
            // ReLU then max from 0 is "keep what exceeds the running
            // maximum", which starts at 0.
            let mut best = [0f32; LANES];
            for first in (0..positions).step_by(2) {
                // An odd tail repeats the last position; max is idempotent.
                let second = (first + 1).min(positions - 1);
                let x0 = &x[first * dim..][..taps];
                let x1 = &x[second * dim..][..taps];
                let (mut z0, mut z1) = (*bias, *bias);
                for ((w, &a), &b) in weights.iter().zip(x0).zip(x1) {
                    for l in 0..LANES {
                        z0[l] += w[l] * a;
                        z1[l] += w[l] * b;
                    }
                }
                for l in 0..LANES {
                    best[l] = if z0[l] > best[l] { z0[l] } else { best[l] };
                    best[l] = if z1[l] > best[l] { z1[l] } else { best[l] };
                }
            }
            out.copy_from_slice(&best[..out.len()]);
        }
        pooled
    }
}

/// A frozen DTBA network.
#[derive(Debug, Clone)]
pub struct DtbaModel {
    cfg: DtbaConfig,
    cost: CostModel,
    protein: ConvBranch,
    smiles: ConvBranch,
    // Dense head: [hidden][2*filters] + bias, then [1][hidden] + bias.
    dense1: Vec<Vec<f32>>,
    dense1_bias: Vec<f32>,
    dense2: Vec<f32>,
    dense2_bias: f32,
}

impl DtbaModel {
    /// Load the frozen checkpoint: weights are a pure function of `seed`
    /// (the shipped "pre-trained" model uses [`Self::pretrained`]).
    pub fn with_seed(cfg: DtbaConfig, cost: CostModel, seed: u64) -> Self {
        let w = Checkpoint::generate(&cfg, seed);
        Self {
            cfg,
            cost,
            protein: ConvBranch::pack(
                &w.protein_embed,
                &w.protein_conv,
                &w.protein_conv_bias,
                cfg.protein_kernel,
                cfg.embed_dim,
            ),
            smiles: ConvBranch::pack(
                &w.smiles_embed,
                &w.smiles_conv,
                &w.smiles_conv_bias,
                cfg.smiles_kernel,
                cfg.embed_dim,
            ),
            dense1: w.dense1,
            dense1_bias: w.dense1_bias,
            dense2: w.dense2,
            dense2_bias: w.dense2_bias,
        }
    }

    /// The shipped pre-trained checkpoint.
    pub fn pretrained() -> Self {
        Self::with_seed(DtbaConfig::default(), CostModel::paper_calibrated(), 0x5EED_D7BA)
    }

    /// Predict binding affinity of `smiles` against the protein `target`:
    /// [`Self::protein_features`] and [`Self::ligand_features`], then
    /// [`Self::predict_with`].
    pub fn predict(&self, target: &ProteinSequence, smiles: &str) -> Affinity {
        self.predict_with(&self.protein_features(target), &self.ligand_features(smiles))
    }

    /// The ligand-independent half of a prediction: the protein branch's
    /// pooled features and what the charge keys on. Worth keeping when one
    /// protein meets many ligands.
    pub fn protein_features(&self, target: &ProteinSequence) -> ProteinFeatures {
        let residues = target.residues().iter().take(self.cfg.max_protein_len);
        ProteinFeatures {
            feat: self.protein.forward(residues.map(|a| a.index() as u8 + 1)),
            len: target.len().min(self.cfg.max_protein_len),
            code_hash: residue_code_hash(target),
        }
    }

    /// The protein-independent half of a prediction: the SMILES branch's
    /// pooled features and the text's hash, which the charge keys on.
    /// Worth keeping when one ligand meets many proteins.
    pub fn ligand_features(&self, smiles: &str) -> LigandFeatures {
        LigandFeatures {
            feat: self.smiles_features(smiles).into_boxed_slice(),
            smiles_hash: fnv1a(smiles.as_bytes()),
        }
    }

    /// The head: predict binding affinity of a ligand against a protein
    /// from both branches' features.
    pub fn predict_with(&self, protein: &ProteinFeatures, ligand: &LigandFeatures) -> Affinity {
        let h = hash_combine(ligand.smiles_hash, protein.code_hash);
        Affinity {
            pkd: self.head(&protein.feat, &ligand.feat),
            virtual_secs: self.cost.dtba_cost(protein.len, h),
        }
    }

    /// Label-encode `smiles` straight into its branch; the pooled features.
    fn smiles_features(&self, smiles: &str) -> Vec<f32> {
        let chars = smiles.chars().take(self.cfg.max_smiles_len);
        self.smiles.forward(chars.map(|c| u8::try_from(c).map_or(0, |b| SMILES_LABEL[b as usize])))
    }

    /// Concat → dense ReLU → dense → sigmoid-scaled pKd in [3, 11]. Each
    /// hidden unit is consumed as it is made, so no hidden vector is
    /// stored: the same products summed in the same order.
    fn head(&self, p_feat: &[f32], s_feat: &[f32]) -> f64 {
        let hidden = self.dense1.iter().zip(&self.dense1_bias).map(|(w_row, b)| {
            let concat = p_feat.iter().chain(s_feat);
            let z: f32 = w_row.iter().zip(concat).map(|(w, x)| w * x).sum::<f32>() + b;
            z.max(0.0)
        });
        let z: f32 =
            self.dense2.iter().zip(hidden).map(|(w, x)| w * x).sum::<f32>() + self.dense2_bias;
        let sig = 1.0 / (1.0 + (-z as f64 * 2.0).exp());
        3.0 + 8.0 * sig
    }
}

/// A ligand's pooled DTBA features, ready to meet any protein
/// ([`DtbaModel::predict_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LigandFeatures {
    /// The SMILES branch's pooled features.
    pub feat: Box<[f32]>,
    /// FNV-1a of the SMILES text (the charge's jitter key).
    pub smiles_hash: u64,
}

/// A protein's pooled DTBA features, ready to meet any ligand
/// ([`DtbaModel::predict_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProteinFeatures {
    /// The protein branch's pooled features.
    pub feat: Vec<f32>,
    /// Residues the model consumed (the length the charge keys on).
    pub len: usize,
    /// FNV-1a of the one-letter code string (the charge's jitter key).
    pub code_hash: u64,
}

/// FNV-1a over the sequence's one-letter codes — `fnv1a` of
/// `to_string_code()` without building the string.
fn residue_code_hash(seq: &ProteinSequence) -> u64 {
    seq.residues().iter().fold(0xcbf2_9ce4_8422_2325, |h, a| {
        (h ^ a.code() as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_simrt::rng::SplitMix64;

    fn seq(n: usize, seed: u64) -> ProteinSequence {
        let mut rng = SplitMix64::new(seed, 77);
        ProteinSequence::random(n, &mut rng)
    }

    #[test]
    fn prediction_is_deterministic() {
        let m = DtbaModel::pretrained();
        let t = seq(300, 1);
        let a = m.predict(&t, "CC(=O)Oc1ccccc1C(=O)O");
        let b = m.predict(&t, "CC(=O)Oc1ccccc1C(=O)O");
        assert_eq!(a.pkd, b.pkd);
    }

    #[test]
    fn prediction_in_pkd_range() {
        let m = DtbaModel::pretrained();
        for i in 0..50 {
            let t = seq(200 + i * 5, i as u64);
            let a = m.predict(&t, &format!("CCCC{}", "O".repeat(i % 5 + 1)));
            assert!((3.0..=11.0).contains(&a.pkd), "pkd {}", a.pkd);
        }
    }

    #[test]
    fn different_ligands_get_different_affinities() {
        let m = DtbaModel::pretrained();
        let t = seq(300, 2);
        let a = m.predict(&t, "CCO").pkd;
        let b = m.predict(&t, "c1ccccc1CN").pkd;
        assert_ne!(a, b);
    }

    #[test]
    fn different_targets_get_different_affinities() {
        let m = DtbaModel::pretrained();
        let a = m.predict(&seq(300, 3), "CCO").pkd;
        let b = m.predict(&seq(300, 4), "CCO").pkd;
        assert_ne!(a, b);
    }

    #[test]
    fn predictions_spread_across_range() {
        // A frozen random network must not saturate to a constant.
        let m = DtbaModel::pretrained();
        let t = seq(250, 5);
        let smiles =
            ["CCO", "CCN", "c1ccccc1", "CC(=O)O", "CCCCCCCC", "C1CCCCC1N", "COc1ccccc1", "CCS"];
        let preds: Vec<f64> = smiles.iter().map(|s| m.predict(&t, s).pkd).collect();
        let min = preds.iter().copied().fold(f64::INFINITY, f64::min);
        let max = preds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.05, "spread {min}..{max}");
    }

    #[test]
    fn cost_in_paper_band() {
        let m = DtbaModel::pretrained();
        let t = seq(412, 6);
        let a = m.predict(&t, "CCO");
        assert!((0.1..=3.0).contains(&a.virtual_secs), "cost {}", a.virtual_secs);
    }

    #[test]
    fn truncation_matches_deepdta_semantics() {
        // Inputs longer than the window predict identically to their prefix.
        let m = DtbaModel::pretrained();
        let long = seq(1500, 7);
        let prefix = ProteinSequence::new(long.residues()[..1000].to_vec());
        // Costs differ (cost keys on true length cap) but outputs agree.
        assert_eq!(m.predict(&long, "CCO").pkd, m.predict(&prefix, "CCO").pkd);
    }

    #[test]
    fn short_inputs_do_not_panic() {
        let m = DtbaModel::pretrained();
        let t = seq(3, 8); // shorter than the protein kernel
        let a = m.predict(&t, "C");
        assert!((3.0..=11.0).contains(&a.pkd));
    }

    /// `(target length, SMILES, pkd bits, virtual_secs bits)` of the
    /// pre-trained model, captured before the forward pass was laid out
    /// in lanes. Targets come from one `SplitMix64::new(0xd7ba, 5)` stream.
    const PINNED: [(usize, &str, u64, u64); 7] = [
        (412, "CC(=O)Oc1ccccc1C(=O)O", 0x4016_3f44_856f_1258, 0x3fec_25ae_e631_f8a1),
        (96, "CCO", 0x401a_46ec_5cd0_121c, 0x3fe4_0ebe_dfa4_3fe6),
        (1200, "c1ccccc1CN", 0x4017_fa58_b4e6_ae76, 0x3ff5_9999_9999_999a),
        (3, "C", 0x401b_78a0_406e_c448, 0x3fe1_ad42_c3c9_eecc),
        (300, "CC(C)Cc1ccc(cc1)C(C)C(=O)O", 0x4013_543d_49a2_c764, 0x3fe9_47ae_147a_e148),
        (8, "é[Zn+2]?", 0x4019_d1b0_6bd0_88ce, 0x3fe1_ce07_5f6f_d220),
        (150, "", 0x401a_7edf_0135_d5bc, 0x3fe5_70a3_d70a_3d71),
    ];

    #[test]
    fn predictions_and_charges_match_the_pinned_checkpoint() {
        let m = DtbaModel::pretrained();
        let mut rng = SplitMix64::new(0xd7ba, 5);
        for (len, smiles, pkd, secs) in PINNED {
            let a = m.predict(&ProteinSequence::random(len, &mut rng), smiles);
            assert_eq!(a.pkd.to_bits(), pkd, "pkd for {len} x {smiles:?}");
            assert_eq!(a.virtual_secs.to_bits(), secs, "cost for {len} x {smiles:?}");
        }
    }

    #[test]
    fn residue_hash_is_fnv1a_of_the_code_string() {
        for (len, seed) in [(0, 1), (1, 2), (412, 3), (1500, 4)] {
            let s = seq(len, seed);
            assert_eq!(residue_code_hash(&s), fnv1a(s.to_string_code().as_bytes()));
        }
    }

    #[test]
    fn smiles_label_table_is_first_position_plus_one() {
        for b in 0..=255u8 {
            let expect = SMILES_VOCAB.find(b as char).map_or(0, |i| i + 1);
            assert_eq!(SMILES_LABEL[b as usize] as usize, expect, "byte {b:#x}");
        }
    }

    /// The lane-parallel forward pass against the filter-at-a-time one it
    /// replaced, bit for bit. Sizes grow in release builds (`ci.sh` runs
    /// `cargo test --release -- kernels`).
    mod kernels {
        use super::*;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);

        /// The previous branch, verbatim: embed → conv1d(valid) → ReLU →
        /// global max pool, one filter at a time over nested rows.
        fn reference_branch(
            ids: &[usize],
            embed: &[Vec<f32>],
            conv: &[Vec<f32>],
            bias: &[f32],
            kernel: usize,
            embed_dim: usize,
        ) -> Vec<f32> {
            let filters = conv.len();
            let mut pooled = vec![0f32; filters];
            if ids.len() < kernel {
                return pooled;
            }
            let emb: Vec<&[f32]> =
                ids.iter().map(|&id| embed[id.min(embed.len() - 1)].as_slice()).collect();
            for pos in 0..=(ids.len() - kernel) {
                for (f, (w_row, b)) in conv.iter().zip(bias).enumerate() {
                    let mut z = *b;
                    for k in 0..kernel {
                        let e = emb[pos + k];
                        let w = &w_row[k * embed_dim..(k + 1) * embed_dim];
                        for d in 0..embed_dim {
                            z += w[d] * e[d];
                        }
                    }
                    let a = z.max(0.0);
                    if a > pooled[f] {
                        pooled[f] = a;
                    }
                }
            }
            pooled
        }

        /// The previous `predict`, up to the dense head: label encoding
        /// through `str::find`, then the two reference branches.
        fn reference_features(
            cfg: &DtbaConfig,
            w: &Checkpoint,
            target: &ProteinSequence,
            smiles: &str,
        ) -> (Vec<f32>, Vec<f32>) {
            let prot_ids: Vec<usize> =
                target.residues().iter().take(cfg.max_protein_len).map(|a| a.index() + 1).collect();
            let smi_ids: Vec<usize> = smiles
                .chars()
                .take(cfg.max_smiles_len)
                .map(|c| SMILES_VOCAB.find(c).map(|i| i + 1).unwrap_or(0))
                .collect();
            let p_feat = reference_branch(
                &prot_ids,
                &w.protein_embed,
                &w.protein_conv,
                &w.protein_conv_bias,
                cfg.protein_kernel,
                cfg.embed_dim,
            );
            let s_feat = reference_branch(
                &smi_ids,
                &w.smiles_embed,
                &w.smiles_conv,
                &w.smiles_conv_bias,
                cfg.smiles_kernel,
                cfg.embed_dim,
            );
            (p_feat, s_feat)
        }

        /// Both branches' pooled features, bit for bit.
        fn assert_same_features(
            cfg: DtbaConfig,
            seed: u64,
            target: &ProteinSequence,
            smiles: &str,
        ) {
            let m = DtbaModel::with_seed(cfg, CostModel::free(), seed);
            let (p, s) = (m.protein_features(target).feat, m.smiles_features(smiles));
            let (p_ref, s_ref) =
                reference_features(&cfg, &Checkpoint::generate(&cfg, seed), target, smiles);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p), bits(&p_ref), "protein branch, {} residues", target.len());
            assert_eq!(bits(&s), bits(&s_ref), "SMILES branch, {smiles:?}");
        }

        /// The previous dense head, verbatim: the hidden layer stored in a
        /// vector, then the output unit over it.
        fn reference_head(m: &DtbaModel, p_feat: &[f32], s_feat: &[f32]) -> f64 {
            let mut hidden = vec![0f32; m.cfg.hidden];
            for (h, (w_row, b)) in hidden.iter_mut().zip(m.dense1.iter().zip(&m.dense1_bias)) {
                let concat = p_feat.iter().chain(s_feat);
                let z: f32 = w_row.iter().zip(concat).map(|(w, x)| w * x).sum::<f32>() + b;
                *h = z.max(0.0);
            }
            let z: f32 =
                m.dense2.iter().zip(&hidden).map(|(w, x)| w * x).sum::<f32>() + m.dense2_bias;
            let sig = 1.0 / (1.0 + (-z as f64 * 2.0).exp());
            3.0 + 8.0 * sig
        }

        /// Random text over the vocabulary, salted with characters outside
        /// it (ASCII and not).
        fn smiles_like(len: usize, rng: &mut SplitMix64) -> String {
            let vocab: Vec<char> = SMILES_VOCAB.chars().chain("ZzXé∑?".chars()).collect();
            (0..len).map(|_| vocab[rng.next_below(vocab.len() as u64) as usize]).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 256 } else { 48 }))]

            /// Default shape: inputs shorter than the kernels, past the
            /// truncation windows, and with unknown characters.
            #[test]
            fn lanes_equal_filter_at_a_time(
                seed in 0u64..1_000_000,
                protein_len in 0usize..=(if FULL { 1300 } else { 260 }),
                smiles_len in 0usize..=130,
            ) {
                let cfg = DtbaConfig {
                    max_protein_len: if FULL { 1000 } else { 200 },
                    ..DtbaConfig::default()
                };
                let mut rng = SplitMix64::new(seed, 0x1a9e5);
                let target = ProteinSequence::random(protein_len, &mut rng);
                assert_same_features(cfg, seed, &target, &smiles_like(smiles_len, &mut rng));
            }

            /// The head without a hidden vector, and a prediction from
            /// kept protein and ligand features, against the stored-vector
            /// head and a whole `predict`, bit for bit.
            #[test]
            fn head_and_split_prediction_equal_the_stored_vector_head(
                seed in 0u64..1_000_000,
                protein_len in 0usize..=300,
                smiles_len in 0usize..=130,
                hidden in 1usize..=24,
            ) {
                let cfg = DtbaConfig { hidden, ..DtbaConfig::default() };
                let m = DtbaModel::with_seed(cfg, CostModel::paper_calibrated(), seed);
                let mut rng = SplitMix64::new(seed, 0x4ead);
                let target = ProteinSequence::random(protein_len, &mut rng);
                let smiles = smiles_like(smiles_len, &mut rng);
                let (protein, ligand) = (m.protein_features(&target), m.ligand_features(&smiles));
                let split = m.predict_with(&protein, &ligand);
                let want = reference_head(&m, &protein.feat, &m.smiles_features(&smiles));
                assert_eq!(split.pkd.to_bits(), want.to_bits());
                assert_eq!(ligand.smiles_hash, fnv1a(smiles.as_bytes()));
                let whole = m.predict(&target, &smiles);
                assert_eq!(split.pkd.to_bits(), whole.pkd.to_bits());
                assert_eq!(split.virtual_secs.to_bits(), whole.virtual_secs.to_bits());
            }

            /// Other shapes: filter counts that leave a block part-filled
            /// or need several, odd embedding widths and kernels.
            #[test]
            fn lanes_equal_filter_at_a_time_for_any_shape(
                seed in 0u64..1_000_000,
                filters in 1usize..=40,
                embed_dim in 1usize..=9,
                protein_kernel in 1usize..=9,
                smiles_kernel in 1usize..=5,
                protein_len in 0usize..=60,
            ) {
                let cfg = DtbaConfig {
                    embed_dim,
                    filters,
                    protein_kernel,
                    smiles_kernel,
                    hidden: 7,
                    max_protein_len: 50,
                    max_smiles_len: 20,
                };
                let mut rng = SplitMix64::new(seed, 0x5a9e);
                let target = ProteinSequence::random(protein_len, &mut rng);
                let smiles = smiles_like(rng.next_below(30) as usize, &mut rng);
                assert_same_features(cfg, seed, &target, &smiles);
            }
        }
    }
}
