//! Smith–Waterman local sequence alignment with affine gap penalties.
//!
//! The paper compares ~66 M UniProt sequences against the target P29274
//! using the SSW SIMD library at < 1 ms per comparison. This module
//! implements the same algorithm (Gotoh's affine-gap formulation over
//! BLOSUM62) and the normalized similarity score the workflow thresholds
//! on (Table 2's "Selectivity" column: 0.99 → 0.20).
//!
//! Like SSW it splits the work in two: [`SmithWaterman::prepare`] builds a
//! striped query profile once, [`PreparedQuery::align`] runs one database
//! sequence against it, eight `i16` cells per step. The kernel is exact —
//! it returns the score the scalar Gotoh loop returns — and the scalar loop
//! stays as the path for inputs whose scores could leave `i16` range.
//!
//! ## The striped kernel
//!
//! Query position `j = k + lane · seg` lives in lane `lane` of vector `k`
//! (`seg = ⌈m / 8⌉`), so position `j − 1` is the same lane of vector
//! `k − 1`, and only vector 0 needs a one-lane shift. The vertical gap `E`
//! and the diagonal depend on the previous database residue only, so they
//! are element-wise. The horizontal gap
//! `F[j] = max(F[j−1] − ge, H[j−1] − go)` runs along the query; instead of
//! Farrar's lazy-F correction loop (which, with `ge = 1` and near-identical
//! sequences, decays one point per cell from a four-digit diagonal and
//! takes every correction pass) it is computed as a prefix maximum:
//! with `H̃ = max(diag + S, E, 0)`,
//! `F[j] + j·ge = max over j' ≤ j of (H̃[j'−1] − go + j'·ge)`. Substituting
//! `H̃` for `H` on the right is exact whenever `go ≥ ge`: a cell whose `H`
//! came from `F` offers `F − go ≤ F − ge`, which the running maximum
//! already holds. Each lane takes its own running maximum down the
//! vectors, an eight-step scan carries lane totals to the lanes after
//! them, and `H = max(H̃, F)`.

use crate::cost::CostModel;
use ids_chem::aminoacid::AminoAcid;
use ids_chem::sequence::ProteinSequence;

/// BLOSUM62 substitution matrix in `ARNDCQEGHILKMFPSTWYV` order.
#[rustfmt::skip]
pub const BLOSUM62: [[i32; 20]; 20] = [
    // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    [  4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0], // A
    [ -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3], // R
    [ -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3], // N
    [ -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3], // D
    [  0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1], // C
    [ -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2], // Q
    [ -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2], // E
    [  0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3], // G
    [ -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3], // H
    [ -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3], // I
    [ -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1], // L
    [ -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2], // K
    [ -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1], // M
    [ -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1], // F
    [ -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2], // P
    [  1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2], // S
    [  0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0], // T
    [ -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3], // W
    [ -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1], // Y
    [  0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4], // V
];

/// Alignment parameters: gap model over BLOSUM62.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwParams {
    /// Cost of opening a gap (positive).
    pub gap_open: i32,
    /// Cost of extending a gap by one (positive).
    pub gap_extend: i32,
}

impl Default for SwParams {
    fn default() -> Self {
        // The SSW library's defaults.
        Self { gap_open: 11, gap_extend: 1 }
    }
}

/// Result of a local alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwScore {
    /// Raw Smith–Waterman score (≥ 0).
    pub score: i32,
    /// Normalized similarity in `[0, 1]`: `score / min(self_a, self_b)`,
    /// so identical sequences score exactly 1.0. This is the quantity
    /// Table 2's selectivity thresholds cut on.
    pub similarity: f64,
    /// Virtual seconds the alignment cost under the calibration.
    pub virtual_secs: f64,
}

/// The Smith–Waterman model: parameters plus cost calibration.
#[derive(Debug, Clone)]
pub struct SmithWaterman {
    params: SwParams,
    cost: CostModel,
}

impl SmithWaterman {
    /// Construct with the given gap parameters and cost calibration.
    pub fn new(params: SwParams, cost: CostModel) -> Self {
        Self { params, cost }
    }

    /// Paper-calibrated defaults.
    pub fn default_model() -> Self {
        Self::new(SwParams::default(), CostModel::paper_calibrated())
    }

    /// Substitution score for a residue pair.
    #[inline]
    pub fn substitution(a: AminoAcid, b: AminoAcid) -> i32 {
        BLOSUM62[a.index()][b.index()]
    }

    /// Self-alignment score (sum of diagonal substitutions) — the
    /// normalization denominator.
    pub fn self_score(seq: &ProteinSequence) -> i32 {
        seq.residues().iter().map(|&a| Self::substitution(a, a)).sum()
    }

    /// Full O(m·n) affine-gap local alignment (Gotoh):
    /// `prepare(a).align(b)`.
    pub fn align(&self, a: &ProteinSequence, b: &ProteinSequence) -> SwScore {
        self.prepare(a).align(b)
    }

    /// Build the striped profile of `query` — the once-per-target half of
    /// an alignment (SSW's `ssw_init`). Worth keeping when one sequence
    /// meets many, as the workflow's target does.
    pub fn prepare(&self, query: &ProteinSequence) -> PreparedQuery {
        let residues = query.residues();
        let seg = residues.len().div_ceil(LANES);
        let mut profile = vec![[0i16; LANES]; BLOSUM62.len() * seg];
        for (row, scores) in BLOSUM62.iter().zip(profile.chunks_exact_mut(seg.max(1))) {
            for (k, vector) in scores.iter_mut().enumerate() {
                for (lane, cell) in vector.iter_mut().enumerate() {
                    // Positions past the end keep 0: such a cell never
                    // exceeds the cells it extends, so it cannot raise the
                    // maximum, and no real cell reads it.
                    if let Some(q) = residues.get(k + lane * seg) {
                        *cell = row[q.index()] as i16;
                    }
                }
            }
        }
        PreparedQuery {
            params: self.params,
            cost: self.cost,
            self_score: Self::self_score(query),
            query: query.clone(),
            seg,
            profile,
        }
    }
}

/// Lanes of the striped kernel: eight `i16` cells, one 128-bit vector on
/// baseline x86-64 and aarch64.
const LANES: usize = 8;

/// One vector of the striped layout.
type Lanes = [i16; LANES];

/// Largest BLOSUM62 entry (W–W): no cell gains more than this per residue.
const MAX_SUBSTITUTION: i64 = 11;

// Element-wise operations on one vector. Written over whole arrays by
// value so each compiles to a single packed instruction (`pmaxsw`, `paddw`,
// `psubw` on x86-64); lane-indexed loops inside the passes did not.
#[inline(always)]
fn vmax(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l].max(b[l]))
}

#[inline(always)]
fn vadd(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l] + b[l])
}

#[inline(always)]
fn vsub(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l] - b[l])
}

/// `v` moved up one lane, 0 entering lane 0: the cells at position `j − 1`
/// for the first vector of a segment (0 is the matrix's boundary column).
#[inline(always)]
fn shifted(v: Lanes) -> Lanes {
    let mut out = [0i16; LANES];
    out[1..].copy_from_slice(&v[..LANES - 1]);
    out
}

/// Exclusive running maximum across lanes: what the lanes before `l`
/// contribute to lane `l`. Kept out of line on purpose — inlined, the
/// compiler holds the result as eight scalars and rebuilds the vector in
/// every step of the pass that consumes it.
#[inline(never)]
fn carry_across_lanes(totals: &Lanes, carry: &mut Lanes) {
    carry[0] = i16::MIN;
    for l in 1..LANES {
        carry[l] = carry[l - 1].max(totals[l - 1]);
    }
}

/// A query sequence with its striped profile, ready to be aligned against
/// any number of database sequences (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    params: SwParams,
    cost: CostModel,
    query: ProteinSequence,
    self_score: i32,
    /// Vectors per segment: `⌈len / LANES⌉`.
    seg: usize,
    /// `profile[r · seg + k][lane]` = score of database residue `r` against
    /// query position `k + lane · seg`.
    profile: Vec<Lanes>,
}

impl PreparedQuery {
    /// Align `db` against the prepared query. Same score, similarity and
    /// virtual cost as [`SmithWaterman::align`]`(query, db)`.
    pub fn align(&self, db: &ProteinSequence) -> SwScore {
        let (m, n) = (self.query.len(), db.len());
        if m == 0 || n == 0 {
            return SwScore { score: 0, similarity: 0.0, virtual_secs: 0.0 };
        }
        let best = if self.fits_i16(n) {
            self.score_striped(db.residues())
        } else {
            gotoh_scalar(self.params, self.query.residues(), db.residues())
        };
        let denom = self.self_score.min(SmithWaterman::self_score(db)).max(1);
        SwScore {
            score: best,
            similarity: (best as f64 / denom as f64).clamp(0.0, 1.0),
            virtual_secs: self.cost.sw_cost(m, n),
        }
    }

    /// Whether the striped kernel is exact for a database of `n` residues:
    /// the prefix-scan form needs `0 ≤ ge ≤ go`, and every intermediate —
    /// at most a best score of `11 · min(m, n)` plus the position offset
    /// `j · ge` (`j < m + 8`), at least `−go − j · ge` — must fit `i16`.
    fn fits_i16(&self, n: usize) -> bool {
        let (go, ge) = (self.params.gap_open as i64, self.params.gap_extend as i64);
        let m = self.query.len() as i64;
        let bound = MAX_SUBSTITUTION
            .saturating_mul(m.min(n as i64))
            .saturating_add((m + 16).saturating_mul(ge))
            .saturating_add(go);
        0 <= ge && ge <= go && bound <= i16::MAX as i64
    }

    /// The striped kernel. Caller has checked [`Self::fits_i16`].
    fn score_striped(&self, db: &[AminoAcid]) -> i32 {
        let seg = self.seg;
        let (go, ge) = (self.params.gap_open as i16, self.params.gap_extend as i16);

        // One allocation, cut into five `seg`-long slices up front: with
        // every buffer's length fixed before the residue loop the passes
        // below compile to packed max/add/sub without bounds checks.
        let mut scratch = vec![[0i16; LANES]; 5 * seg];
        let (h, rest) = scratch.split_at_mut(seg); // H of the previous residue
        let (e, rest) = rest.split_at_mut(seg); // vertical gap, per position
        let (open, rest) = rest.split_at_mut(seg); // H̃
        let (reach, pos_ge) = rest.split_at_mut(seg); // running max; j·ge
        for (k, offsets) in pos_ge.iter_mut().enumerate() {
            for (lane, offset) in offsets.iter_mut().enumerate() {
                *offset = (k + lane * seg) as i16 * ge;
            }
        }
        let (go, ge) = ([go; LANES], [ge; LANES]);

        let mut best = [0i16; LANES];
        let mut carry = [i16::MIN; LANES];
        for &residue in db {
            let scores = &self.profile[residue.index() * seg..][..seg];

            // Pass A — what depends on the previous residue only: E, and
            // H̃ = max(diag + S, E, 0).
            let mut diag = shifted(h[seg - 1]);
            for (((hv, ev), ov), sv) in h.iter().zip(e.iter_mut()).zip(open.iter_mut()).zip(scores)
            {
                let gap = vmax(vsub(*ev, ge), vsub(*hv, go));
                *ev = gap;
                *ov = vmax(vmax(vadd(diag, *sv), gap), [0; LANES]);
                diag = *hv;
            }

            // Pass B — per-lane running maximum of H̃[j−1] − go + j·ge; the
            // first vector's left neighbours sit one lane down in the last.
            let mut run = vadd(vsub(shifted(open[seg - 1]), go), pos_ge[0]);
            reach[0] = run;
            for ((rv, left), pv) in reach[1..].iter_mut().zip(open.iter()).zip(&pos_ge[1..]) {
                run = vmax(run, vadd(vsub(*left, go), *pv));
                *rv = run;
            }
            carry_across_lanes(&run, &mut carry);

            // Pass C — F = max(own lane so far, earlier lanes) − j·ge,
            // H = max(H̃, F), and the running best.
            for (((hv, ov), rv), pv) in
                h.iter_mut().zip(open.iter()).zip(reach.iter()).zip(pos_ge.iter())
            {
                let cell = vmax(*ov, vsub(vmax(*rv, carry), *pv));
                *hv = cell;
                best = vmax(best, cell);
            }
        }
        best.into_iter().fold(0, i16::max) as i32
    }
}

/// The textbook scalar Gotoh loop over `i32`: the path for inputs the
/// striped kernel does not admit, and the oracle its tests compare with.
fn gotoh_scalar(params: SwParams, ar: &[AminoAcid], br: &[AminoAcid]) -> i32 {
    let n = br.len();
    let (go, ge) = (params.gap_open, params.gap_extend);

    // Rolling rows: H (match), E (gap in a), F (gap in b).
    let mut h_prev = vec![0i32; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut e_row = vec![0i32; n + 1]; // E carries per column
    let mut best = 0i32;

    for ai in ar {
        let mut f = 0i32; // F carries along the row
        let blosum_row = &BLOSUM62[ai.index()];
        for j in 1..=n {
            let e = (e_row[j] - ge).max(h_prev[j] - go);
            let fj = (f - ge).max(h_cur[j - 1] - go);
            let diag = h_prev[j - 1] + blosum_row[br[j - 1].index()];
            let h = diag.max(e).max(fj).max(0);
            h_cur[j] = h;
            e_row[j] = e;
            f = fj;
            if h > best {
                best = h;
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        h_cur[0] = 0;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_simrt::rng::SplitMix64;

    fn seq(s: &str) -> ProteinSequence {
        ProteinSequence::parse(s).unwrap()
    }

    #[test]
    fn blosum62_is_symmetric() {
        for (i, row) in BLOSUM62.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, BLOSUM62[j][i], "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn blosum62_diagonal_is_positive() {
        for (i, row) in BLOSUM62.iter().enumerate() {
            assert!(row[i] > 0, "diagonal at {i}");
        }
        // Known values: W-W = 11, C-C = 9, A-A = 4.
        assert_eq!(BLOSUM62[17][17], 11);
        assert_eq!(BLOSUM62[4][4], 9);
        assert_eq!(BLOSUM62[0][0], 4);
    }

    #[test]
    fn identical_sequences_have_similarity_one() {
        let sw = SmithWaterman::default_model();
        let s = seq("MSGSSWLAAVKHTRWPLLLLWSAV");
        let r = sw.align(&s, &s);
        assert_eq!(r.similarity, 1.0);
        assert_eq!(r.score, SmithWaterman::self_score(&s));
    }

    #[test]
    fn unrelated_sequences_score_low() {
        let sw = SmithWaterman::default_model();
        let mut rng = SplitMix64::new(11, 0);
        let a = ProteinSequence::random(200, &mut rng);
        let b = ProteinSequence::random(200, &mut rng);
        let r = sw.align(&a, &b);
        assert!(r.similarity < 0.35, "random pair similarity {}", r.similarity);
    }

    #[test]
    fn known_alignment_score() {
        // "HEAGAWGHEE" vs "PAWHEAE" — classic textbook pair. With
        // BLOSUM62/gap(11,1) the optimal local alignment is AW=15 or
        // HEA=13... compute: best must be at least the AW match (4+11).
        let sw = SmithWaterman::default_model();
        let r = sw.align(&seq("HEAGAWGHEE"), &seq("PAWHEAE"));
        assert!(r.score >= 15, "score {}", r.score);
        assert!(r.score <= 30);
    }

    #[test]
    fn alignment_is_symmetric() {
        let sw = SmithWaterman::default_model();
        let a = seq("MKWVTFISLLLLFSSAYS");
        let b = seq("MKWVTFISLLFLFSSAYS");
        assert_eq!(sw.align(&a, &b).score, sw.align(&b, &a).score);
    }

    #[test]
    fn mutation_decreases_similarity_monotonically_in_expectation() {
        let sw = SmithWaterman::default_model();
        let mut rng = SplitMix64::new(3, 9);
        let base = ProteinSequence::random(300, &mut rng);
        let mild = base.mutate(0.05, &mut rng);
        let heavy = base.mutate(0.5, &mut rng);
        let s_mild = sw.align(&base, &mild).similarity;
        let s_heavy = sw.align(&base, &heavy).similarity;
        assert!(s_mild > 0.8, "mild {s_mild}");
        assert!(s_heavy < s_mild, "heavy {s_heavy} vs mild {s_mild}");
    }

    #[test]
    fn gaps_are_penalized_but_local_alignment_recovers() {
        let sw = SmithWaterman::default_model();
        let a = seq("MKWVTFISLLLLFSSAYSMKWVTFISLLLLFSSAYS");
        // Same sequence with an insertion in the middle.
        let b = seq("MKWVTFISLLLLFSSAYSGGGGGMKWVTFISLLLLFSSAYS");
        let r = sw.align(&a, &b);
        assert!(r.similarity > 0.7, "insertion-tolerant similarity {}", r.similarity);
    }

    #[test]
    fn empty_sequence_scores_zero() {
        let sw = SmithWaterman::default_model();
        let r = sw.align(&ProteinSequence::new(vec![]), &seq("MKW"));
        assert_eq!(r.score, 0);
        assert_eq!(r.similarity, 0.0);
    }

    #[test]
    fn virtual_cost_is_sub_millisecond() {
        let sw = SmithWaterman::default_model();
        let mut rng = SplitMix64::new(4, 2);
        let a = ProteinSequence::random(412, &mut rng); // P29274 length
        let b = ProteinSequence::random(380, &mut rng);
        let r = sw.align(&a, &b);
        assert!(r.virtual_secs < 1.0e-3, "paper band: < 1 ms, got {}", r.virtual_secs);
    }

    #[test]
    fn max_substitution_is_the_matrix_maximum() {
        let max = BLOSUM62.iter().flatten().copied().max().unwrap();
        assert_eq!(max as i64, MAX_SUBSTITUTION);
    }

    #[test]
    fn prepared_query_is_reusable_and_equals_align() {
        let sw = SmithWaterman::default_model();
        let mut rng = SplitMix64::new(21, 4);
        let target = ProteinSequence::random(130, &mut rng);
        let prepared = sw.prepare(&target);
        for rate in [0.0, 0.1, 0.5, 1.0] {
            let db = target.mutate(rate, &mut rng);
            assert_eq!(prepared.align(&db), sw.align(&target, &db));
        }
    }

    /// Exactness of the striped kernel against the scalar loop. Sizes grow
    /// in release builds (`ci.sh` runs `cargo test --release -- kernels`),
    /// where the unoptimised oracle is no longer the bottleneck.
    mod kernels {
        use super::*;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);
        const MAX_LEN: usize = if FULL { 1500 } else { 200 };

        /// Gap models on both sides of the guard: `go == ge`, free gaps,
        /// and `go < ge` (scalar path only).
        const GAPS: [(i32, i32); 8] =
            [(11, 1), (1, 1), (2, 1), (3, 1), (4, 4), (5, 2), (0, 0), (2, 3)];

        fn model(gaps: usize) -> SmithWaterman {
            let (gap_open, gap_extend) = GAPS[gaps];
            SmithWaterman::new(SwParams { gap_open, gap_extend }, CostModel::free())
        }

        /// A pair of sequences: unrelated, point-mutated at 0–100 %, or
        /// spliced (a stretch cut out and a random stretch put in).
        fn pair(seed: u64, la: usize, lb: usize, kind: u8) -> (ProteinSequence, ProteinSequence) {
            let mut rng = SplitMix64::new(seed, 0x5717);
            let a = ProteinSequence::random(la, &mut rng);
            let b = match kind {
                0 => ProteinSequence::random(lb, &mut rng),
                1 => a.mutate(rng.next_f64(), &mut rng),
                _ => {
                    let mut spliced = a.residues().to_vec();
                    let cut = rng.next_below(la as u64 + 1) as usize;
                    let cut_len = (rng.next_below(24) as usize).min(la - cut);
                    spliced.drain(cut..cut + cut_len);
                    let at = rng.next_below(spliced.len() as u64 + 1) as usize;
                    let insert = ProteinSequence::random(rng.next_below(24) as usize, &mut rng);
                    spliced.splice(at..at, insert.residues().iter().copied());
                    ProteinSequence::new(spliced).mutate(0.05, &mut rng)
                }
            };
            (a, b)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 160 } else { 192 }))]

            #[test]
            fn striped_score_equals_scalar_score(
                seed in 0u64..1_000_000,
                la in 0usize..=MAX_LEN,
                lb in 0usize..=MAX_LEN,
                kind in 0u8..3,
                gaps in 0usize..GAPS.len(),
            ) {
                let sw = model(gaps);
                let (a, b) = pair(seed, la, lb, kind);
                let expect = if a.is_empty() || b.is_empty() {
                    0
                } else {
                    gotoh_scalar(sw.params, a.residues(), b.residues())
                };
                prop_assert_eq!(sw.prepare(&a).align(&b).score, expect);
            }

            #[test]
            fn alignment_is_symmetric(
                seed in 0u64..1_000_000,
                la in 0usize..=MAX_LEN,
                lb in 0usize..=MAX_LEN,
                kind in 0u8..3,
                gaps in 0usize..GAPS.len(),
            ) {
                let sw = model(gaps);
                let (a, b) = pair(seed, la, lb, kind);
                prop_assert_eq!(sw.align(&a, &b), sw.align(&b, &a));
            }
        }

        /// Lengths around every multiple of the lane count, where padding
        /// lanes come and go.
        #[test]
        fn lengths_straddling_lane_multiples() {
            let sw = SmithWaterman::default_model();
            let mut rng = SplitMix64::new(88, 8);
            let base = ProteinSequence::random(40, &mut rng);
            for la in 1..=33 {
                for lb in [1, 7, 8, 9, 16, 17, 40] {
                    let a = base.fragment(0, la);
                    let b = base.fragment(40 - lb, 40).mutate(0.1, &mut rng);
                    let expect = gotoh_scalar(sw.params, a.residues(), b.residues());
                    assert_eq!(sw.prepare(&a).align(&b).score, expect, "{la} x {lb}");
                }
            }
        }

        /// The paper's shape: a 412-residue target against its own family.
        #[test]
        fn target_sized_family() {
            let sw = SmithWaterman::default_model();
            let mut rng = SplitMix64::new(0x29274, 1);
            let target = ProteinSequence::random(412, &mut rng);
            let prepared = sw.prepare(&target);
            let members = if FULL { 64 } else { 6 };
            for i in 0..members {
                let db = target.mutate(i as f64 / members as f64, &mut rng);
                let expect = gotoh_scalar(sw.params, target.residues(), db.residues());
                assert_eq!(prepared.align(&db).score, expect, "member {i}");
            }
        }

        fn all_trp(len: usize) -> ProteinSequence {
            ProteinSequence::new(vec![AminoAcid::Trp; len])
        }

        /// All-tryptophan sequences reach the score bound exactly. At the
        /// longest admitted length the `i16` cells must hold (tier-1 runs
        /// with overflow checks, so a wrong guard panics here); one residue
        /// further the guard must hand the pair to the scalar loop.
        #[test]
        fn i16_guard_boundary() {
            let sw = SmithWaterman::default_model();
            // 11·L + (L + 16)·1 + 11 ≤ 32 767  ⇔  L ≤ 2 728.
            let longest = 2728;
            let w = all_trp(longest);
            let prepared = sw.prepare(&w);
            assert!(prepared.fits_i16(longest));
            assert_eq!(prepared.align(&w).score, 11 * longest as i32);
            // A long database does not matter; min(m, n) does.
            assert!(sw.prepare(&all_trp(100)).fits_i16(1 << 40));

            let w = all_trp(longest + 1);
            let prepared = sw.prepare(&w);
            assert!(!prepared.fits_i16(longest + 1), "past the bound: scalar path");
            assert_eq!(prepared.align(&w).score, 11 * (longest as i32 + 1));
            // Shorter database, same query: back inside the bound.
            assert!(prepared.fits_i16(longest - 1));
            let shorter = all_trp(longest - 1);
            assert_eq!(prepared.align(&shorter).score, 11 * (longest as i32 - 1));
        }

        #[test]
        fn guard_rejects_gap_models_the_scan_cannot_express() {
            let (a, _) = pair(5, 50, 50, 0);
            let admits = |gap_open, gap_extend| {
                SmithWaterman::new(SwParams { gap_open, gap_extend }, CostModel::free())
                    .prepare(&a)
                    .fits_i16(50)
            };
            assert!(admits(11, 1));
            assert!(admits(4, 4));
            assert!(!admits(2, 3), "go < ge");
            assert!(!admits(1, -1), "negative extension");
            assert!(!admits(40_000, 1), "gap cost alone overflows i16");
        }
    }
}
