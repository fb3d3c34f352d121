//! Molecular docking — the AutoDock Vina substitute.
//!
//! What the paper needs from Vina: an expensive (31–44 s/ligand),
//! per-ligand black box whose complete outputs are cacheable by
//! (receptor, ligand) identity, performing "blind docking for 3-D docking
//! energy calculations" (§5.1). This module reproduces that contract with a
//! real (if simplified) docking engine:
//!
//! * **Conformer embedding** — the ligand's molecular graph is embedded
//!   into 3-D by breadth-first placement with ideal bond lengths and
//!   collision avoidance, seeded by the ligand's content hash.
//! * **Vina-flavoured scoring function** — the weighted sum of two
//!   attractive gaussians, a quadratic steric repulsion, a hydrophobic
//!   contact term, and a hydrogen-bond term over ligand–receptor atom pairs
//!   within an 8 Å cutoff, divided by the rotatable-bond penalty
//!   `1 + w·N_rot` exactly as Vina's conformation-independent scaling does.
//! * **Monte-Carlo pose search** — random rigid-body perturbations with
//!   Metropolis acceptance, multiple restarts ("exhaustiveness"), best pose
//!   kept.
//!
//! Scoring visits only the receptor atoms a pose can reach: an atom farther
//! from the pose's centroid than `cutoff + pose radius` is farther than
//! `cutoff` from every ligand atom (triangle inequality), so the cutoff
//! test would skip each of its pairs anyway. The surviving pairs are summed
//! in their original order, which keeps every energy bit-identical to the
//! all-pairs loop.
//!
//! [`DockingEngine::prepare`] builds what a search needs from the receptor
//! alone once — and with it a reach index of ≈ 10 Å cells, each listing
//! its atoms and a lower bound on its distance to the nearest atom — so a
//! pose in open space skips the receptor without touching an atom, and
//! any other pose tests only the atoms of the cells within its reach.
//! [`DockingEngine::dock`] is `prepare` followed by
//! [`PreparedReceptor::dock`]: one search loop.
//!
//! The search is fully deterministic in its inputs: the RNG is seeded from
//! a content hash of (receptor coordinates, ligand graph), so a cache hit
//! is indistinguishable from re-execution — the invariant the paper's
//! distributed result cache depends on.

use crate::cost::CostModel;
use ids_chem::element::Element;
use ids_chem::molecule::Molecule;
use ids_chem::structure::{GridBox, PlacedAtom, Structure3D, Vec3};
use ids_simrt::rng::{fnv1a, hash_combine, SplitMix64};

/// Vina-like scoring-function weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoringWeights {
    pub gauss1: f64,
    pub gauss2: f64,
    pub repulsion: f64,
    pub hydrophobic: f64,
    pub hbond: f64,
    /// Rotatable-bond penalty weight in `1 + w·N_rot`.
    pub rotor_penalty: f64,
}

impl Default for ScoringWeights {
    fn default() -> Self {
        // AutoDock Vina's published weights.
        Self {
            gauss1: -0.035579,
            gauss2: -0.005156,
            repulsion: 0.840245,
            hydrophobic: -0.035069,
            hbond: -0.587439,
            rotor_penalty: 0.05846,
        }
    }
}

/// Docking search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DockingParams {
    /// Independent Monte-Carlo restarts (Vina's "exhaustiveness").
    pub exhaustiveness: usize,
    /// Monte-Carlo steps per restart.
    pub steps: usize,
    /// Metropolis temperature (kcal/mol).
    pub temperature: f64,
    /// Grid-box padding around the receptor (Å) — blind docking searches
    /// the whole receptor surface.
    pub box_margin: f64,
    /// Pairwise interaction cutoff (Å).
    pub cutoff: f64,
}

impl Default for DockingParams {
    fn default() -> Self {
        Self { exhaustiveness: 4, steps: 250, temperature: 1.2, box_margin: 4.0, cutoff: 8.0 }
    }
}

/// The outcome of docking one ligand against one receptor.
#[derive(Debug, Clone, PartialEq)]
pub struct DockingResult {
    /// Best binding energy found (kcal/mol; more negative binds tighter).
    pub energy: f64,
    /// The best pose (ligand coordinates in the receptor frame).
    pub pose: Structure3D,
    /// Number of scoring-function evaluations performed.
    pub evaluations: u64,
    /// Virtual cost of the simulation (paper band: 31–44 s).
    pub virtual_secs: f64,
}

/// The docking engine.
#[derive(Debug, Clone)]
pub struct DockingEngine {
    weights: ScoringWeights,
    params: DockingParams,
    cost: CostModel,
}

impl DockingEngine {
    /// Construct with explicit weights, search parameters, and calibration.
    pub fn new(weights: ScoringWeights, params: DockingParams, cost: CostModel) -> Self {
        Self { weights, params, cost }
    }

    /// Paper-calibrated defaults.
    pub fn default_engine() -> Self {
        Self::new(
            ScoringWeights::default(),
            DockingParams::default(),
            CostModel::paper_calibrated(),
        )
    }

    /// A fast engine for unit tests (fewer restarts/steps, zero cost).
    pub fn test_engine() -> Self {
        Self::new(
            ScoringWeights::default(),
            DockingParams { exhaustiveness: 2, steps: 60, ..DockingParams::default() },
            CostModel::free(),
        )
    }

    /// Content hash identifying a (receptor, ligand) docking job — the
    /// cache key the distributed cache stores results under.
    pub fn job_hash(receptor: &Structure3D, ligand: &Molecule) -> u64 {
        Self::fold_ligand(Self::fold_receptor(receptor), ligand)
    }

    /// The receptor half of [`Self::job_hash`].
    fn fold_receptor(receptor: &Structure3D) -> u64 {
        let mut h = fnv1a(b"docking-job");
        for a in receptor.atoms() {
            h = hash_combine(h, fnv1a(a.element.symbol().as_bytes()));
            h = hash_combine(h, a.pos.x.to_bits());
            h = hash_combine(h, a.pos.y.to_bits());
            h = hash_combine(h, a.pos.z.to_bits());
        }
        h
    }

    /// The ligand half of [`Self::job_hash`], continuing the receptor's.
    fn fold_ligand(mut h: u64, ligand: &Molecule) -> u64 {
        for a in ligand.atoms() {
            h = hash_combine(h, fnv1a(a.element.symbol().as_bytes()));
            h = hash_combine(h, a.charge as u64);
        }
        for b in ligand.bonds() {
            h = hash_combine(h, (b.a as u64) << 32 | b.b as u64);
        }
        h
    }

    /// Embed a molecular graph into an initial 3-D conformer.
    ///
    /// Breadth-first placement: each atom sits at an ideal bond length from
    /// its parent, in a direction chosen (from the seeded stream) to avoid
    /// clashes with already-placed atoms.
    pub fn embed_ligand(ligand: &Molecule, seed: u64) -> Structure3D {
        let n = ligand.atom_count();
        let mut rng = SplitMix64::new(seed, 0xe3bed);
        let mut placed: Vec<Option<Vec3>> = vec![None; n];
        // The queue carries each atom's position with it, so a parent's
        // position is at hand without a lookup that could miss.
        let mut order = std::collections::VecDeque::new();
        placed[0] = Some(Vec3::ZERO);
        order.push_back((0usize, Vec3::ZERO));
        while let Some((a, base)) = order.pop_front() {
            for (nb, _) in ligand.neighbors(a) {
                if placed[nb].is_some() {
                    continue;
                }
                // Try a few directions, keep the least-clashing one.
                let mut best = Vec3::new(1.5, 0.0, 0.0) + base;
                let mut best_clash = f64::NEG_INFINITY;
                for _ in 0..8 {
                    let dir = Vec3::new(
                        rng.next_range(-1.0, 1.0),
                        rng.next_range(-1.0, 1.0),
                        rng.next_range(-1.0, 1.0),
                    )
                    .normalized();
                    let cand = base + dir * 1.5;
                    let nearest = placed
                        .iter()
                        .flatten()
                        .map(|p| p.distance(cand))
                        .fold(f64::INFINITY, f64::min);
                    if nearest > best_clash {
                        best_clash = nearest;
                        best = cand;
                    }
                }
                placed[nb] = Some(best);
                order.push_back((nb, best));
            }
        }
        let atoms: Vec<PlacedAtom> = (0..n)
            .map(|i| PlacedAtom {
                element: ligand.atom(i).element,
                // Unreached atoms (disconnected graphs are rejected upstream,
                // but stay total): park at origin.
                pos: placed[i].unwrap_or(Vec3::ZERO),
            })
            .collect();
        Structure3D::from_atoms(atoms)
    }

    /// Score a ligand pose against the receptor: Vina-flavoured
    /// intermolecular terms with the rotor penalty applied.
    pub fn score_pose(&self, receptor: &Structure3D, pose: &Structure3D, n_rotors: usize) -> f64 {
        self.prepare(receptor).score_pose(pose, n_rotors)
    }

    /// Prepare `receptor` for docking: everything a search derives from the
    /// receptor alone — per-atom scoring constants, the search box, the
    /// receptor half of the job hash and the reach index — built once
    /// instead of once per ligand.
    pub fn prepare(&self, receptor: &Structure3D) -> PreparedReceptor {
        let sites: Vec<Site> = receptor.atoms().iter().map(Site::of).collect();
        // Only an empty receptor has no box, and it cannot be docked
        // against (asserted in `dock`); the fallback keeps this total.
        let gbox = receptor
            .bounding_box(self.params.box_margin)
            .unwrap_or(GridBox { min: Vec3::ZERO, max: Vec3::ZERO });
        PreparedReceptor {
            engine: self.clone(),
            receptor_hash: Self::fold_receptor(receptor),
            index: ReachIndex::build(&sites, &gbox),
            sites,
            gbox,
        }
    }

    /// Blind-dock `ligand` against `receptor`. Deterministic in its inputs.
    pub fn dock(&self, receptor: &Structure3D, ligand: &Molecule) -> DockingResult {
        self.prepare(receptor).dock(ligand)
    }

    /// The scoring function's pair loop: `terms[i]` at `positions[i]` is
    /// the ligand, `near` the receptor sites within reach of the pose, in
    /// receptor order.
    fn pair_energy(
        &self,
        terms: &[AtomTerms],
        positions: &[Vec3],
        near: &[Site],
        n_rotors: usize,
    ) -> f64 {
        let w = &self.weights;
        let cutoff = self.params.cutoff;
        let mut raw = 0.0;
        for (la, &lpos) in terms.iter().zip(positions) {
            for ra in near {
                let r = lpos.distance(ra.pos);
                if r > cutoff {
                    continue;
                }
                // Surface distance.
                let d = r - (la.vdw_radius + ra.terms.vdw_radius);
                let g1 = (-(d / 0.5) * (d / 0.5)).exp();
                let g2 = {
                    let t = (d - 3.0) / 2.0;
                    (-t * t).exp()
                };
                raw += w.gauss1 * g1 + w.gauss2 * g2;
                if d < 0.0 {
                    raw += w.repulsion * d * d;
                }
                if la.carbon && ra.terms.carbon {
                    let h = if d < 0.5 {
                        1.0
                    } else if d < 1.5 {
                        1.5 - d
                    } else {
                        0.0
                    };
                    raw += w.hydrophobic * h;
                }
                if la.acceptor && ra.terms.acceptor {
                    let h = if d < -0.7 {
                        1.0
                    } else if d < 0.0 {
                        -d / 0.7
                    } else {
                        0.0
                    };
                    raw += w.hbond * h;
                }
            }
        }
        raw / (1.0 + w.rotor_penalty * n_rotors as f64)
    }
}

/// A receptor prepared for docking by [`DockingEngine::prepare`] — the
/// docking counterpart of Smith–Waterman's prepared query profile. Docking
/// through it returns exactly what [`DockingEngine::dock`] returns against
/// the receptor it was prepared from.
#[derive(Debug, Clone)]
pub struct PreparedReceptor {
    engine: DockingEngine,
    /// The receptor's atoms, in order.
    sites: Vec<Site>,
    /// The blind-docking search box.
    gbox: GridBox,
    /// [`DockingEngine::job_hash`] folded over the receptor's atoms.
    receptor_hash: u64,
    /// `None` for receptors the index does not cover (see
    /// [`ReachIndex::build`]): every pose then filters every site.
    index: Option<ReachIndex>,
}

impl PreparedReceptor {
    /// [`DockingEngine::job_hash`] of (the prepared receptor, `ligand`).
    pub fn job_hash(&self, ligand: &Molecule) -> u64 {
        DockingEngine::fold_ligand(self.receptor_hash, ligand)
    }

    /// [`DockingEngine::score_pose`] against the prepared receptor.
    pub fn score_pose(&self, pose: &Structure3D, n_rotors: usize) -> f64 {
        let terms: Vec<AtomTerms> = pose.atoms().iter().map(|a| AtomTerms::of(a.element)).collect();
        let positions: Vec<Vec3> = pose.atoms().iter().map(|a| a.pos).collect();
        let mut scratch = Scratch::default();
        if !positions.is_empty() {
            self.gather_near(&positions, centroid(&positions), &mut scratch);
        }
        self.engine.pair_energy(&terms, &positions, &scratch.near, n_rotors)
    }

    /// Blind-dock `ligand` against the prepared receptor. Deterministic in
    /// its inputs.
    pub fn dock(&self, ligand: &Molecule) -> DockingResult {
        assert!(!self.sites.is_empty(), "cannot dock against an empty receptor");
        assert!(ligand.atom_count() > 0, "cannot dock an empty ligand");
        let engine = &self.engine;
        let params = &engine.params;
        let job = self.job_hash(ligand);
        let mut rng = SplitMix64::new(job, 0xd0c);
        let n_rotors = ligand.rotatable_bonds();
        let gbox = self.gbox;

        // Per-atom constants once per job; poses are bare coordinates in
        // three buffers reused across every Monte-Carlo step.
        let conformer = DockingEngine::embed_ligand(ligand, job);
        let terms: Vec<AtomTerms> =
            conformer.atoms().iter().map(|a| AtomTerms::of(a.element)).collect();
        let conformer_pos: Vec<Vec3> = conformer.atoms().iter().map(|a| a.pos).collect();
        let mut scratch = Scratch::default();
        let mut score = |positions: &[Vec3], center: Vec3| {
            self.gather_near(positions, center, &mut scratch);
            engine.pair_energy(&terms, positions, &scratch.near, n_rotors)
        };

        let conformer_center = centroid(&conformer_pos);
        let mut best_energy = f64::INFINITY;
        let mut best_pose = conformer_pos.clone();
        let mut pose = conformer_pos.clone();
        let mut cand = conformer_pos.clone();
        let mut evals: u64 = 0;

        for _ in 0..params.exhaustiveness {
            // Random starting placement inside the box.
            let start = Vec3::new(
                rng.next_range(gbox.min.x, gbox.max.x),
                rng.next_range(gbox.min.y, gbox.max.y),
                rng.next_range(gbox.min.z, gbox.max.z),
            );
            let shift = start - conformer_center;
            for (p, &c) in pose.iter_mut().zip(&conformer_pos) {
                *p = c + shift;
            }
            let mut energy = score(&pose, centroid(&pose));
            evals += 1;

            for _ in 0..params.steps {
                // Rigid-body perturbation: translate + rotate.
                let delta = Vec3::new(
                    rng.next_range(-2.0, 2.0),
                    rng.next_range(-2.0, 2.0),
                    rng.next_range(-2.0, 2.0),
                );
                let axis = Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                );
                let angle = rng.next_range(-0.5, 0.5);
                // Translate, then rotate about the translated centroid.
                for (c, &p) in cand.iter_mut().zip(&pose) {
                    *c = p + delta;
                }
                let pivot = centroid(&cand);
                let axis = axis.normalized();
                let (sin, cos) = angle.sin_cos();
                for c in cand.iter_mut() {
                    *c = rotated(*c - pivot, axis, sin, cos) + pivot;
                }
                // Reject poses wandering out of the search box.
                let center = centroid(&cand);
                if !gbox.contains(center) {
                    continue;
                }
                let cand_energy = score(&cand, center);
                evals += 1;
                let accept = cand_energy < energy || {
                    let boltzmann = ((energy - cand_energy) / params.temperature).exp();
                    rng.next_f64() < boltzmann
                };
                if accept {
                    std::mem::swap(&mut pose, &mut cand);
                    energy = cand_energy;
                }
                if energy < best_energy {
                    best_energy = energy;
                    best_pose.copy_from_slice(&pose);
                }
            }
        }

        let atoms = conformer.atoms().iter().zip(best_pose);
        DockingResult {
            energy: best_energy,
            pose: Structure3D::from_atoms(
                atoms.map(|(a, pos)| PlacedAtom { element: a.element, pos }).collect(),
            ),
            evaluations: evals,
            virtual_secs: engine.cost.docking_cost(n_rotors, job),
        }
    }

    /// Collect into `scratch.near` the sites within reach of the pose at
    /// `positions` (centroid `center`), in receptor order.
    ///
    /// Everything within `cutoff` of any ligand atom lies within
    /// `cutoff + radius` of the centroid. Compared squared (no root per
    /// receptor atom): the margin moves the squared bound by ~1e-5 Å², the
    /// rounding of either side is ~1e-13. Written as "not farther" so a NaN
    /// coordinate stays in, as it stays in the `r > cutoff` test of the
    /// pair loop. The index only chooses which sites meet this test, so the
    /// set, and with the sort its order, is the all-sites filter's.
    fn gather_near(&self, positions: &[Vec3], center: Vec3, scratch: &mut Scratch) {
        // `sqrt` is monotone and correctly rounded: the root of the largest
        // squared distance is the largest distance, bit for bit.
        let radius = positions
            .iter()
            .map(|&p| {
                let d = p - center;
                d.dot(d)
            })
            .fold(0.0, f64::max)
            .sqrt();
        let reach = self.engine.params.cutoff + radius + REACH_MARGIN;
        let within_reach = |s: &Site| {
            let d = s.pos - center;
            let out_of_reach = d.dot(d) > reach * reach;
            !out_of_reach
        };
        let Scratch { hits, near } = scratch;
        near.clear();
        match &self.index {
            Some(index) if is_finite(center) && reach.is_finite() => {
                hits.clear();
                index.visit(center, reach, |i| {
                    if within_reach(&self.sites[usize::from(i)]) {
                        hits.push(i);
                    }
                });
                hits.sort_unstable();
                near.extend(hits.iter().map(|&i| self.sites[usize::from(i)]));
            }
            _ => near.extend(self.sites.iter().filter(|s| within_reach(s))),
        }
    }

    /// Heap bytes the prepared receptor holds.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let index = self.index.as_ref().map_or(0, |i| {
            (i.starts.capacity() + i.members.capacity()) * std::mem::size_of::<u16>()
                + i.bounds.capacity()
        });
        self.sites.capacity() * std::mem::size_of::<Site>() + index
    }
}

/// Per-pose scratch, reused across a search: the surviving site indices
/// in cell order, then the sites in receptor order.
#[derive(Debug, Default)]
struct Scratch {
    hits: Vec<u16>,
    near: Vec<Site>,
}

/// Slack on the pruning radius (Å): far above the rounding error of the
/// distances compared, far below anything that would admit extra work.
const REACH_MARGIN: f64 = 1.0e-6;

/// Smallest edge of a reach-index cell (Å).
const CELL_EDGE: f64 = 10.0;
/// Most cells along one axis; a wider receptor gets wider cells.
const MAX_CELLS: usize = 24;
/// Unit of a cell's stored distance bound (Å). A power of two, so a bound
/// converts to `f64` exactly.
const BOUND_STEP: f64 = 0.125;
/// The largest stored bound, in [`BOUND_STEP`]s (20 Å): a cell no site
/// comes within 20 Å of keeps it.
const BOUND_CAP: u8 = 160;
/// Cells a site's dilation reaches along an axis, each way:
/// `⌈20 Å / CELL_EDGE⌉ + 1`, the one covering a site rounded into a
/// neighbouring cell.
const DILATION: usize = 3;
/// How far every test against a cell extends it past its faces (Å): covers
/// the rounding of a coordinate onto a cell.
const CELL_SLACK: f64 = 1.0e-6;
/// Receptors whose box reaches past this (Å) are not indexed: there the
/// rounding of a coordinate approaches [`CELL_SLACK`].
const INDEX_LIMIT: f64 = 1.0e6;

/// Which receptor sites a pose can reach, on a grid over the search box of
/// cells at least [`CELL_EDGE`] a side.
///
/// * Each cell lists its sites in receptor order (`u16` indices).
/// * Each cell keeps a lower bound on the distance from any point of the
///   cell to the nearest site, rounded down to [`BOUND_STEP`] and capped
///   at [`BOUND_CAP`]. A pose whose centroid's cell bound exceeds its
///   reach is in open space and reaches no site.
/// * Otherwise, a site within reach of the centroid lies in a cell within
///   reach along every axis (a cell's index is monotone in each
///   coordinate), and only those cells are visited.
#[derive(Debug, Clone)]
struct ReachIndex {
    origin: [f64; 3],
    edge: [f64; 3],
    dims: [usize; 3],
    /// `members[starts[c]..starts[c + 1]]` are cell `c`'s sites; cells are
    /// numbered x fastest, so a run of cells along x is one slice.
    starts: Vec<u16>,
    members: Vec<u16>,
    /// Per cell, in [`BOUND_STEP`]s.
    bounds: Vec<u8>,
}

impl ReachIndex {
    /// Index `sites` over the search box, or `None` when there is nothing
    /// to index, more sites than `u16` numbers, or a box that is not finite
    /// or reaches past [`INDEX_LIMIT`].
    fn build(sites: &[Site], gbox: &GridBox) -> Option<Self> {
        let (lo, hi) = (axes(gbox.min), axes(gbox.max));
        let in_range = lo.iter().chain(&hi).all(|v| v.abs() <= INDEX_LIMIT);
        if sites.is_empty() || sites.len() > usize::from(u16::MAX) || !in_range {
            return None;
        }
        let mut edge = [CELL_EDGE; 3];
        let mut dims = [1; 3];
        for a in 0..3 {
            let extent = hi[a] - lo[a];
            edge[a] = (extent / MAX_CELLS as f64).max(CELL_EDGE);
            dims[a] = ((extent / edge[a]).ceil() as usize).clamp(1, MAX_CELLS);
        }
        let mut index = Self {
            origin: lo,
            edge,
            dims,
            starts: Vec::new(),
            members: Vec::new(),
            bounds: Vec::new(),
        };
        let cells = dims.iter().product::<usize>();

        // Counting sort by cell, placing sites last to first: each cell's
        // sites stay in receptor order, and `starts` ends as the cells'
        // first slots.
        let mut starts = vec![0u16; cells + 1];
        for site in sites {
            starts[index.flat(index.cell_of(axes(site.pos)))] += 1;
        }
        let mut end = 0;
        for slot in &mut starts[..cells] {
            end += *slot;
            *slot = end;
        }
        starts[cells] = end;
        let mut members = vec![0u16; sites.len()];
        for (i, site) in sites.iter().enumerate().rev() {
            let slot = &mut starts[index.flat(index.cell_of(axes(site.pos)))];
            *slot -= 1;
            members[usize::from(*slot)] = i as u16;
        }

        // Dilation: each site lowers the bound of the cells within the cap
        // of it; a cell more than `DILATION` cells away along an axis lies
        // more than a cell edge beyond the cap. Bounds are kept squared, in
        // squared steps, as `f32`: a sum of three such terms stays within
        // 0.02 of the exact one, and 1/16 is taken off before rounding down.
        let cap2 = f32::from(BOUND_CAP) * f32::from(BOUND_CAP);
        let mut nearest = vec![cap2; cells];
        for site in sites {
            let p = axes(site.pos);
            let h = index.cell_of(p);
            // Per axis: the run of cells within the cap (the gap falls, then
            // rises, along an axis), and the squared gap from the site to
            // each.
            let mut first = [usize::MAX; 3];
            let mut gaps = [[0.0f32; 2 * DILATION + 1]; 3];
            let mut len = [0usize; 3];
            for a in 0..3 {
                let last = (h[a] + DILATION).min(dims[a] - 1);
                for k in h[a].saturating_sub(DILATION)..=last {
                    let (lo, hi) = index.span(a, k);
                    let gap = (lo - p[a]).max(p[a] - hi).max(0.0) / BOUND_STEP;
                    if gap <= f64::from(BOUND_CAP) {
                        first[a] = first[a].min(k);
                        gaps[a][len[a]] = (gap * gap) as f32;
                        len[a] += 1;
                    }
                }
            }
            for (z, &gz) in (first[2]..).zip(&gaps[2][..len[2]]) {
                for (y, &gy) in (first[1]..).zip(&gaps[1][..len[1]]) {
                    let gzy = gz + gy;
                    if gzy >= cap2 {
                        continue;
                    }
                    let row = index.flat([first[0], y, z]);
                    let run = &mut nearest[row..row + len[0]];
                    for (cell, &gx) in run.iter_mut().zip(&gaps[0][..len[0]]) {
                        *cell = cell.min(gzy + gx);
                    }
                }
            }
        }
        // `⌊√⌊q − 1/16⌋⌋` steps; truncation rounds a non-negative value
        // down, and the root of an integer below 2¹⁶ is an integer or lies
        // over 1/512 from one, far beyond `f32` rounding.
        index.bounds = nearest
            .iter()
            .map(|&q| {
                if q >= cap2 {
                    return BOUND_CAP;
                }
                let whole = (q - 0.0625).max(0.0) as u16;
                f32::from(whole).sqrt() as u8
            })
            .collect();
        index.starts = starts;
        index.members = members;
        Some(index)
    }

    /// The cell holding `p` along every axis, clamped onto the grid.
    /// Monotone in each coordinate. (Truncating after the clamp rounds
    /// down without a call to `floor`, which the baseline x86-64 target
    /// lacks an instruction for.)
    fn cell_of(&self, p: [f64; 3]) -> [usize; 3] {
        std::array::from_fn(|a| {
            let k = (p[a] - self.origin[a]) / self.edge[a];
            k.clamp(0.0, (self.dims[a] - 1) as f64) as usize
        })
    }

    /// Cell `k`'s extent along axis `a`, widened by [`CELL_SLACK`].
    fn span(&self, a: usize, k: usize) -> (f64, f64) {
        let lo = self.origin[a] + k as f64 * self.edge[a];
        let hi = self.origin[a] + (k + 1) as f64 * self.edge[a];
        (lo - CELL_SLACK, hi + CELL_SLACK)
    }

    fn flat(&self, [x, y, z]: [usize; 3]) -> usize {
        (z * self.dims[1] + y) * self.dims[0] + x
    }

    /// Call `f` with every site that may lie within `reach` of `center` (a
    /// superset of those that do), cell by cell. `center` and `reach` are
    /// finite.
    fn visit(&self, center: Vec3, reach: f64, mut f: impl FnMut(u16)) {
        let c = axes(center);
        let home = self.cell_of(c);
        let inside = (0..3).all(|a| {
            let (lo, hi) = self.span(a, home[a]);
            lo <= c[a] && c[a] <= hi
        });
        if inside && f64::from(self.bounds[self.flat(home)]) * BOUND_STEP > reach {
            return;
        }
        let widen = reach + CELL_SLACK;
        let first = self.cell_of(c.map(|v| v - widen));
        let last = self.cell_of(c.map(|v| v + widen));
        for z in first[2]..=last[2] {
            for y in first[1]..=last[1] {
                let from = usize::from(self.starts[self.flat([first[0], y, z])]);
                let to = usize::from(self.starts[self.flat([last[0], y, z]) + 1]);
                for &i in &self.members[from..to] {
                    f(i);
                }
            }
        }
    }
}

/// What the scoring function needs to know about an atom besides where it
/// is — looked up once per structure instead of once per pair.
#[derive(Debug, Clone, Copy)]
struct AtomTerms {
    vdw_radius: f64,
    carbon: bool,
    acceptor: bool,
}

impl AtomTerms {
    fn of(element: Element) -> Self {
        Self {
            vdw_radius: element.vdw_radius(),
            carbon: element == Element::C,
            acceptor: element.is_hbond_acceptor(),
        }
    }
}

/// A receptor atom as the scoring function sees it.
#[derive(Debug, Clone, Copy)]
struct Site {
    pos: Vec3,
    terms: AtomTerms,
}

impl Site {
    fn of(atom: &PlacedAtom) -> Self {
        Self { pos: atom.pos, terms: AtomTerms::of(atom.element) }
    }
}

/// Mean position, with [`Structure3D::centroid`]'s arithmetic (the search
/// box test must see the same bits). `points` is non-empty.
fn centroid(points: &[Vec3]) -> Vec3 {
    let sum = points.iter().fold(Vec3::ZERO, |acc, &p| acc + p);
    sum * (1.0 / points.len() as f64)
}

/// [`Vec3::rotated`] with the angle's sine and cosine given: the same
/// arithmetic, so the same bits, with one `sin_cos` per pose instead of
/// one per atom.
fn rotated(v: Vec3, axis: Vec3, sin: f64, cos: f64) -> Vec3 {
    v * cos + axis.cross(v) * sin + axis * (axis.dot(v) * (1.0 - cos))
}

fn axes(v: Vec3) -> [f64; 3] {
    [v.x, v.y, v.z]
}

fn is_finite(v: Vec3) -> bool {
    v.x.is_finite() && v.y.is_finite() && v.z.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_chem::smiles::parse_smiles;

    /// A small synthetic receptor: a 60-atom spiral of carbons with a few
    /// polar atoms sprinkled in — enough surface for poses to bind to.
    fn receptor() -> Structure3D {
        let mut s = Structure3D::new();
        for i in 0..60 {
            let t = i as f64 * 0.5;
            let e = match i % 7 {
                0 => Element::O,
                3 => Element::N,
                _ => Element::C,
            };
            s.push(e, Vec3::new(4.0 * t.cos(), 4.0 * t.sin(), 0.8 * t));
        }
        s
    }

    #[test]
    fn docking_is_deterministic() {
        let e = DockingEngine::test_engine();
        let r = receptor();
        let lig = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").unwrap();
        let a = e.dock(&r, &lig);
        let b = e.dock(&r, &lig);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.pose, b.pose);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn best_energy_is_negative_for_reasonable_ligand() {
        let e = DockingEngine::test_engine();
        let r = receptor();
        let lig = parse_smiles("c1ccccc1CCO").unwrap();
        let res = e.dock(&r, &lig);
        assert!(res.energy < 0.0, "found a favorable pose, got {}", res.energy);
    }

    #[test]
    fn different_ligands_get_different_energies() {
        let e = DockingEngine::test_engine();
        let r = receptor();
        let a = e.dock(&r, &parse_smiles("CCO").unwrap());
        let b = e.dock(&r, &parse_smiles("c1ccccc1").unwrap());
        assert_ne!(a.energy, b.energy);
    }

    #[test]
    fn job_hash_distinguishes_inputs() {
        let r1 = receptor();
        let r2 = r1.translated(Vec3::new(0.1, 0.0, 0.0));
        let l1 = parse_smiles("CCO").unwrap();
        let l2 = parse_smiles("CCN").unwrap();
        assert_ne!(DockingEngine::job_hash(&r1, &l1), DockingEngine::job_hash(&r1, &l2));
        assert_ne!(DockingEngine::job_hash(&r1, &l1), DockingEngine::job_hash(&r2, &l1));
    }

    #[test]
    fn embedding_respects_bond_lengths() {
        let lig = parse_smiles("CCCCC").unwrap();
        let emb = DockingEngine::embed_ligand(&lig, 42);
        for b in lig.bonds() {
            let d = emb.atoms()[b.a].pos.distance(emb.atoms()[b.b].pos);
            assert!((d - 1.5).abs() < 1e-9, "bond length {d}");
        }
    }

    #[test]
    fn embedding_avoids_collapse() {
        let lig = parse_smiles("CC(C)(C)CC(C)(C)C").unwrap();
        let emb = DockingEngine::embed_ligand(&lig, 7);
        // No two atoms within 0.5 Å.
        for i in 0..emb.len() {
            for j in (i + 1)..emb.len() {
                assert!(emb.atoms()[i].pos.distance(emb.atoms()[j].pos) > 0.5);
            }
        }
    }

    #[test]
    fn clashing_pose_scores_worse_than_contact_pose() {
        let e = DockingEngine::test_engine();
        let r = receptor();
        let lig = parse_smiles("CCO").unwrap();
        let conf = DockingEngine::embed_ligand(&lig, 1);
        // Pose jammed into a receptor atom (clash) vs at contact distance.
        let clash = conf.translated(r.atoms()[10].pos - conf.centroid());
        let contact =
            conf.translated(r.atoms()[10].pos + Vec3::new(3.4, 0.0, 0.0) - conf.centroid());
        let e_clash = e.score_pose(&r, &clash, 0);
        let e_contact = e.score_pose(&r, &contact, 0);
        assert!(e_clash > e_contact, "clash {e_clash} vs contact {e_contact}");
    }

    #[test]
    fn far_away_pose_scores_zero() {
        let e = DockingEngine::test_engine();
        let r = receptor();
        let lig = parse_smiles("CCO").unwrap();
        let conf = DockingEngine::embed_ligand(&lig, 1);
        let far = conf.translated(Vec3::new(500.0, 0.0, 0.0));
        assert_eq!(e.score_pose(&r, &far, 0), 0.0);
    }

    #[test]
    fn rotor_penalty_scales_score_down() {
        let e = DockingEngine::test_engine();
        // Single-atom receptor: geometry is fully controlled.
        let mut r = Structure3D::new();
        r.push(Element::C, Vec3::ZERO);
        let lig = parse_smiles("CCO").unwrap();
        let conf = DockingEngine::embed_ligand(&lig, 1);
        // Sweep the approach axis and keep the most favorable placement.
        let e0 = (0..40)
            .map(|i| {
                let dist = 3.0 + 0.1 * i as f64;
                let pose = conf.translated(Vec3::new(dist, 0.0, 0.0) - conf.centroid());
                e.score_pose(&r, &pose, 0)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(e0 < 0.0, "some contact distance must be favorable, best {e0}");
        // The rotor penalty divides the raw score by 1 + w*N.
        let best_pose_dist = 3.0; // recompute at a fixed pose for the ratio check
        let pose = conf.translated(Vec3::new(best_pose_dist, 0.0, 0.0) - conf.centroid());
        let s0 = e.score_pose(&r, &pose, 0);
        let s9 = e.score_pose(&r, &pose, 9);
        let expected = s0 / (1.0 + ScoringWeights::default().rotor_penalty * 9.0);
        assert!((s9 - expected).abs() < 1e-12, "s9 {s9} vs expected {expected}");
    }

    #[test]
    fn virtual_cost_in_paper_band() {
        let e = DockingEngine::default_engine();
        let r = receptor();
        let res = e.dock(&r, &parse_smiles("CC(=O)Oc1ccccc1C(=O)O").unwrap());
        assert!((31.0..=44.0).contains(&res.virtual_secs), "cost {}", res.virtual_secs);
    }

    #[test]
    fn more_exhaustiveness_finds_equal_or_better_energy() {
        let quick = DockingEngine::new(
            ScoringWeights::default(),
            DockingParams { exhaustiveness: 1, steps: 30, ..Default::default() },
            CostModel::free(),
        );
        let thorough = DockingEngine::new(
            ScoringWeights::default(),
            DockingParams { exhaustiveness: 8, steps: 200, ..Default::default() },
            CostModel::free(),
        );
        let r = receptor();
        let lig = parse_smiles("c1ccccc1CCN").unwrap();
        let eq = quick.dock(&r, &lig).energy;
        let et = thorough.dock(&r, &lig).energy;
        assert!(et <= eq, "thorough {et} vs quick {eq}");
    }

    /// The pruned, prepared scorer and search against the all-pairs scorer
    /// they replaced, bit for bit. Sizes grow in release builds (`ci.sh`
    /// runs `cargo test --release -- kernels`).
    mod kernels {
        use super::*;
        use crate::structure_pred::StructurePredictor;
        use ids_chem::sequence::ProteinSequence;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);

        /// The previous `score_pose`, verbatim: every ligand atom against
        /// every receptor atom, per-pair element lookups.
        fn score_pose_unpruned(
            e: &DockingEngine,
            receptor: &Structure3D,
            pose: &Structure3D,
            n_rotors: usize,
        ) -> f64 {
            let w = &e.weights;
            let cutoff = e.params.cutoff;
            let mut raw = 0.0;
            for la in pose.atoms() {
                for ra in receptor.atoms() {
                    let r = la.pos.distance(ra.pos);
                    if r > cutoff {
                        continue;
                    }
                    let d = r - (la.element.vdw_radius() + ra.element.vdw_radius());
                    let g1 = (-(d / 0.5) * (d / 0.5)).exp();
                    let g2 = {
                        let t = (d - 3.0) / 2.0;
                        (-t * t).exp()
                    };
                    raw += w.gauss1 * g1 + w.gauss2 * g2;
                    if d < 0.0 {
                        raw += w.repulsion * d * d;
                    }
                    let both_carbon = la.element == Element::C && ra.element == Element::C;
                    if both_carbon {
                        let h = if d < 0.5 {
                            1.0
                        } else if d < 1.5 {
                            1.5 - d
                        } else {
                            0.0
                        };
                        raw += w.hydrophobic * h;
                    }
                    let polar_pair =
                        la.element.is_hbond_acceptor() && ra.element.is_hbond_acceptor();
                    if polar_pair {
                        let h = if d < -0.7 {
                            1.0
                        } else if d < 0.0 {
                            -d / 0.7
                        } else {
                            0.0
                        };
                        raw += w.hbond * h;
                    }
                }
            }
            raw / (1.0 + w.rotor_penalty * n_rotors as f64)
        }

        /// The scorer `dock` ran before the receptor was prepared, verbatim:
        /// every site filtered by reach from the pose's own centroid.
        fn score_sites_reference(
            e: &DockingEngine,
            sites: impl Iterator<Item = Site>,
            terms: &[AtomTerms],
            positions: &[Vec3],
            n_rotors: usize,
            near: &mut Vec<Site>,
        ) -> f64 {
            let w = &e.weights;
            let cutoff = e.params.cutoff;

            near.clear();
            if !positions.is_empty() {
                let center = centroid(positions);
                let radius = positions.iter().map(|p| p.distance(center)).fold(0.0, f64::max);
                let reach = cutoff + radius + REACH_MARGIN;
                near.extend(sites.filter(|s| {
                    let d = s.pos - center;
                    let out_of_reach = d.dot(d) > reach * reach;
                    !out_of_reach
                }));
            }

            let mut raw = 0.0;
            for (la, &lpos) in terms.iter().zip(positions) {
                for ra in near.iter() {
                    let r = lpos.distance(ra.pos);
                    if r > cutoff {
                        continue;
                    }
                    // Surface distance.
                    let d = r - (la.vdw_radius + ra.terms.vdw_radius);
                    let g1 = (-(d / 0.5) * (d / 0.5)).exp();
                    let g2 = {
                        let t = (d - 3.0) / 2.0;
                        (-t * t).exp()
                    };
                    raw += w.gauss1 * g1 + w.gauss2 * g2;
                    if d < 0.0 {
                        raw += w.repulsion * d * d;
                    }
                    if la.carbon && ra.terms.carbon {
                        let h = if d < 0.5 {
                            1.0
                        } else if d < 1.5 {
                            1.5 - d
                        } else {
                            0.0
                        };
                        raw += w.hydrophobic * h;
                    }
                    if la.acceptor && ra.terms.acceptor {
                        let h = if d < -0.7 {
                            1.0
                        } else if d < 0.0 {
                            -d / 0.7
                        } else {
                            0.0
                        };
                        raw += w.hbond * h;
                    }
                }
            }
            raw / (1.0 + w.rotor_penalty * n_rotors as f64)
        }

        /// The score of `pose` by [`score_sites_reference`].
        fn score_pose_reference(
            e: &DockingEngine,
            receptor: &Structure3D,
            pose: &Structure3D,
            n_rotors: usize,
        ) -> f64 {
            let terms: Vec<AtomTerms> =
                pose.atoms().iter().map(|a| AtomTerms::of(a.element)).collect();
            let positions: Vec<Vec3> = pose.atoms().iter().map(|a| a.pos).collect();
            let sites = receptor.atoms().iter().map(Site::of);
            score_sites_reference(e, sites, &terms, &positions, n_rotors, &mut Vec::new())
        }

        /// `dock` before the receptor was prepared, verbatim: sites, box and
        /// job hash per call, every pose filtering every site.
        fn dock_reference(
            e: &DockingEngine,
            receptor: &Structure3D,
            ligand: &Molecule,
        ) -> DockingResult {
            assert!(!receptor.is_empty(), "cannot dock against an empty receptor");
            assert!(ligand.atom_count() > 0, "cannot dock an empty ligand");
            let job = DockingEngine::job_hash(receptor, ligand);
            let mut rng = SplitMix64::new(job, 0xd0c);
            let n_rotors = ligand.rotatable_bonds();
            // A non-empty receptor always has a box (asserted above); the
            // fallback only keeps this total.
            let gbox = receptor
                .bounding_box(e.params.box_margin)
                .unwrap_or(GridBox { min: Vec3::ZERO, max: Vec3::ZERO });

            // Per-atom constants once per job; poses are bare coordinates in
            // three buffers reused across every Monte-Carlo step.
            let sites: Vec<Site> = receptor.atoms().iter().map(Site::of).collect();
            let conformer = DockingEngine::embed_ligand(ligand, job);
            let terms: Vec<AtomTerms> =
                conformer.atoms().iter().map(|a| AtomTerms::of(a.element)).collect();
            let conformer_pos: Vec<Vec3> = conformer.atoms().iter().map(|a| a.pos).collect();
            let mut near = Vec::with_capacity(sites.len());
            let mut score = |positions: &[Vec3]| {
                score_sites_reference(
                    e,
                    sites.iter().copied(),
                    &terms,
                    positions,
                    n_rotors,
                    &mut near,
                )
            };

            let conformer_center = centroid(&conformer_pos);
            let mut best_energy = f64::INFINITY;
            let mut best_pose = conformer_pos.clone();
            let mut pose = conformer_pos.clone();
            let mut cand = conformer_pos.clone();
            let mut evals: u64 = 0;

            for _ in 0..e.params.exhaustiveness {
                // Random starting placement inside the box.
                let start = Vec3::new(
                    rng.next_range(gbox.min.x, gbox.max.x),
                    rng.next_range(gbox.min.y, gbox.max.y),
                    rng.next_range(gbox.min.z, gbox.max.z),
                );
                let shift = start - conformer_center;
                for (p, &c) in pose.iter_mut().zip(&conformer_pos) {
                    *p = c + shift;
                }
                let mut energy = score(&pose);
                evals += 1;

                for _ in 0..e.params.steps {
                    // Rigid-body perturbation: translate + rotate.
                    let delta = Vec3::new(
                        rng.next_range(-2.0, 2.0),
                        rng.next_range(-2.0, 2.0),
                        rng.next_range(-2.0, 2.0),
                    );
                    let axis = Vec3::new(
                        rng.next_range(-1.0, 1.0),
                        rng.next_range(-1.0, 1.0),
                        rng.next_range(-1.0, 1.0),
                    );
                    let angle = rng.next_range(-0.5, 0.5);
                    // Translate, then rotate about the translated centroid.
                    for (c, &p) in cand.iter_mut().zip(&pose) {
                        *c = p + delta;
                    }
                    let pivot = centroid(&cand);
                    let axis = axis.normalized();
                    for c in cand.iter_mut() {
                        *c = (*c - pivot).rotated(axis, angle) + pivot;
                    }
                    // Reject poses wandering out of the search box.
                    if !gbox.contains(centroid(&cand)) {
                        continue;
                    }
                    let cand_energy = score(&cand);
                    evals += 1;
                    let accept = cand_energy < energy || {
                        let boltzmann = ((energy - cand_energy) / e.params.temperature).exp();
                        rng.next_f64() < boltzmann
                    };
                    if accept {
                        std::mem::swap(&mut pose, &mut cand);
                        energy = cand_energy;
                    }
                    if energy < best_energy {
                        best_energy = energy;
                        best_pose.copy_from_slice(&pose);
                    }
                }
            }

            let atoms = conformer.atoms().iter().zip(best_pose);
            DockingResult {
                energy: best_energy,
                pose: Structure3D::from_atoms(
                    atoms.map(|(a, pos)| PlacedAtom { element: a.element, pos }).collect(),
                ),
                evaluations: evals,
                virtual_secs: e.cost.docking_cost(n_rotors, job),
            }
        }

        /// Two docking results agree bit for bit: energy, evaluations,
        /// charge and every pose coordinate.
        fn same_bits(a: &DockingResult, b: &DockingResult) -> bool {
            let bits = |r: &DockingResult| {
                let pose = r
                    .pose
                    .atoms()
                    .iter()
                    .map(|a| (a.element, [a.pos.x, a.pos.y, a.pos.z].map(f64::to_bits)));
                (
                    r.energy.to_bits(),
                    r.evaluations,
                    r.virtual_secs.to_bits(),
                    pose.collect::<Vec<_>>(),
                )
            };
            bits(a) == bits(b)
        }

        fn predicted_receptor(residues: usize, seed: u64) -> Structure3D {
            let mut rng = SplitMix64::new(seed, 3);
            let seq = ProteinSequence::random(residues, &mut rng);
            StructurePredictor::default_model().predict(&seq).structure
        }

        const LIGANDS: [&str; 6] = [
            "CCO",
            "c1ccccc1",
            "CC(=O)Oc1ccccc1C(=O)O",
            "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
            "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            "NCCc1ccc(O)c(O)c1",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 400 } else { 64 }))]

            /// Random rigid placements around and inside a predicted
            /// receptor: near the surface, buried, grazing, out of reach.
            #[test]
            fn pruned_score_equals_all_pairs_score(
                seed in 0u64..1_000_000,
                ligand in 0usize..LIGANDS.len(),
                spread in 0.0f64..45.0,
                rotors in 0usize..12,
            ) {
                let e = DockingEngine::default_engine();
                let receptor = predicted_receptor(if FULL { 412 } else { 120 }, seed % 5);
                let lig = parse_smiles(LIGANDS[ligand]).unwrap();
                let conf = DockingEngine::embed_ligand(&lig, seed);
                let mut rng = SplitMix64::new(seed, 0x905e);
                let anchor = receptor.atoms()[rng.next_below(receptor.len() as u64) as usize].pos;
                let offset = Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                ) * spread;
                let axis = Vec3::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0), 1.0);
                let pose = conf
                    .translated(anchor + offset - conf.centroid())
                    .rotated_about_centroid(axis, rng.next_range(-3.0, 3.0));
                let got = e.score_pose(&receptor, &pose, rotors);
                let expect = score_pose_unpruned(&e, &receptor, &pose, rotors);
                prop_assert_eq!(got.to_bits(), expect.to_bits());
            }

            /// Receptor atoms placed within 1e-9 Å of the interaction cutoff
            /// from a ligand atom, on either side: pruning by reach must
            /// never drop (or add) a pair the cutoff test keeps.
            #[test]
            fn atoms_at_the_cutoff_are_kept_or_dropped_alike(
                seed in 0u64..1_000_000,
                ligand in 0usize..LIGANDS.len(),
            ) {
                let e = DockingEngine::default_engine();
                let cutoff = e.params.cutoff;
                let lig = parse_smiles(LIGANDS[ligand]).unwrap();
                let pose = DockingEngine::embed_ligand(&lig, seed)
                    .translated(Vec3::new(17.0, -3.0, 5.5));
                let center = pose.centroid();
                let outermost = pose
                    .atoms()
                    .iter()
                    .map(|a| a.pos)
                    .max_by(|a, b| a.distance(center).total_cmp(&b.distance(center)))
                    .unwrap();
                let mut rng = SplitMix64::new(seed, 0xc07);
                let mut receptor = Structure3D::new();
                for i in 0..40 {
                    // Every fourth atom sits straight out from the outermost
                    // ligand atom — the one geometry where the reach bound
                    // is tight as well.
                    let (from, dir) = if i % 4 == 0 {
                        (outermost, (outermost - center).normalized())
                    } else {
                        let from = pose.atoms()[rng.next_below(pose.len() as u64) as usize].pos;
                        let dir = Vec3::new(
                            rng.next_range(-1.0, 1.0),
                            rng.next_range(-1.0, 1.0),
                            rng.next_range(-1.0, 1.0),
                        );
                        (from, dir.normalized())
                    };
                    let nudge = rng.next_range(-1.0e-9, 1.0e-9);
                    let element = [Element::C, Element::N, Element::O][i % 3];
                    receptor.push(element, from + dir * (cutoff + nudge));
                }
                let got = e.score_pose(&receptor, &pose, 2);
                let expect = score_pose_unpruned(&e, &receptor, &pose, 2);
                prop_assert_eq!(got.to_bits(), expect.to_bits());
            }
        }

        #[test]
        fn empty_pose_and_non_finite_coordinates_score_like_all_pairs() {
            let e = DockingEngine::default_engine();
            let r = receptor();
            assert_eq!(e.score_pose(&r, &Structure3D::new(), 3).to_bits(), 0f64.to_bits());
            let lig = parse_smiles("CCO").unwrap();
            let mut atoms = DockingEngine::embed_ligand(&lig, 1).atoms().to_vec();
            atoms[1].pos.x = f64::NAN;
            let pose = Structure3D::from_atoms(atoms);
            assert!(e.score_pose(&r, &pose, 0).is_nan());
            assert!(score_pose_unpruned(&e, &r, &pose, 0).is_nan());
            // Against an indexed receptor, a non-finite or overflowing
            // coordinate keeps the reference's sites, bit for bit.
            let r = predicted_receptor(120, 5);
            let prepared = e.prepare(&r);
            assert!(prepared.index.is_some());
            let lig = parse_smiles("CC(=O)Oc1ccccc1C(=O)O").unwrap();
            let conf = DockingEngine::embed_ligand(&lig, 1).translated(r.atoms()[60].pos);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0e300] {
                for atom in [0, 4] {
                    let mut atoms = conf.atoms().to_vec();
                    atoms[atom].pos.y = bad;
                    let pose = Structure3D::from_atoms(atoms);
                    let got = prepared.score_pose(&pose, 1);
                    let expect = score_pose_reference(&e, &r, &pose, 1);
                    assert_eq!(got.to_bits(), expect.to_bits(), "{bad} at atom {atom}");
                }
            }
        }

        /// `(SMILES, energy bits, evaluations)` of the default search (4
        /// restarts × 250 steps) against `predicted_receptor(150, 0x29274)`,
        /// captured before the scorer was pruned and the pose buffers were
        /// reused.
        const PINNED: [(&str, u64, u64); 6] = [
            ("CCO", 0xbfc9_9ee7_8c4a_acd5, 1004),
            ("c1ccccc1", 0x0000_0000_0000_0000, 994),
            ("CC(=O)Oc1ccccc1C(=O)O", 0xbfc3_2b96_77eb_3c39, 1003),
            ("CN1C=NC2=C1C(=O)N(C(=O)N2C)C", 0xbfa2_e183_913f_746c, 994),
            ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", 0xbfe3_ada7_6720_2375, 986),
            ("NCCc1ccc(O)c(O)c1", 0xbf92_1c8d_ca68_7398, 993),
        ];

        #[test]
        fn dock_energies_and_evaluations_match_the_pinned_search() {
            let receptor = predicted_receptor(150, 0x29274);
            let e = DockingEngine::new(
                ScoringWeights::default(),
                DockingParams::default(),
                CostModel::free(),
            );
            for (smiles, energy, evaluations) in PINNED {
                let lig = parse_smiles(smiles).unwrap();
                let res = e.dock(&receptor, &lig);
                assert_eq!(res.energy.to_bits(), energy, "energy of {smiles}");
                assert_eq!(res.evaluations, evaluations, "evaluations of {smiles}");
                // The reported pose is the one that scored the energy.
                if res.energy != 0.0 {
                    let rescored = e.score_pose(&receptor, &res.pose, lig.rotatable_bonds());
                    assert_eq!(rescored.to_bits(), energy, "best pose of {smiles}");
                }
            }
        }

        /// The engine the equivalence tests search with: the workflow's
        /// search in release builds, a lighter one unoptimised.
        fn search_engine() -> DockingEngine {
            let params = if FULL {
                DockingParams::default()
            } else {
                DockingParams { exhaustiveness: 2, steps: 60, ..DockingParams::default() }
            };
            DockingEngine::new(ScoringWeights::default(), params, CostModel::paper_calibrated())
        }

        /// A receptor whose atoms all sit in one reach-index cell.
        fn one_cell_receptor(seed: u64) -> Structure3D {
            let mut rng = SplitMix64::new(seed, 0x1ce11);
            let mut s = Structure3D::new();
            for i in 0..24 {
                let p = Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                );
                s.push([Element::C, Element::N, Element::O, Element::S][i % 4], p);
            }
            s
        }

        /// A ligand pose spanning `width` Å along a random direction, wider
        /// than a cell from `width` ≈ 10 on.
        fn wide_pose(width: f64, at: Vec3, rng: &mut SplitMix64) -> Structure3D {
            let dir =
                Vec3::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0), 1.0).normalized();
            let mut s = Structure3D::new();
            for i in 0..12 {
                let along = width * (i as f64 / 11.0 - 0.5);
                let jitter = Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                );
                s.push([Element::C, Element::O, Element::N][i % 3], at + dir * along + jitter);
            }
            s
        }

        /// A point of the index grid: a cell corner, edge or face (or the
        /// grid's far side), a point inside, or a point off the grid.
        fn grid_point(index: &ReachIndex, rng: &mut SplitMix64) -> Vec3 {
            let coord = |a: usize, rng: &mut SplitMix64| {
                let k = rng.next_below(index.dims[a] as u64 + 1) as f64;
                let face = index.origin[a] + k * index.edge[a];
                match rng.next_below(4) {
                    0 => face,
                    1 => face + rng.next_range(-1.0e-9, 1.0e-9),
                    2 => face + rng.next_range(0.0, index.edge[a]),
                    _ => face + rng.next_range(-30.0, 30.0),
                }
            };
            Vec3::new(coord(0, rng), coord(1, rng), coord(2, rng))
        }

        const RECEPTOR_RESIDUES: [usize; 4] = [1, 2, 120, 412];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 96 } else { 6 }))]

            /// The prepared search against the search it replaced: energy,
            /// pose and evaluation count, bit for bit, on predicted receptors
            /// of 1, 2, 120 and 412 residues and on one-cell receptors.
            #[test]
            fn prepared_dock_equals_the_reference_dock(
                seed in 0u64..1_000_000,
                shape in 0usize..RECEPTOR_RESIDUES.len() + 1,
                ligand in 0usize..LIGANDS.len(),
            ) {
                let receptor = match RECEPTOR_RESIDUES.get(shape) {
                    Some(&residues) => predicted_receptor(residues, seed),
                    None => one_cell_receptor(seed),
                };
                let lig = parse_smiles(LIGANDS[ligand]).unwrap();
                let e = search_engine();
                let prepared = e.prepare(&receptor);
                prop_assert!(prepared.index.is_some());
                let got = prepared.dock(&lig);
                let expect = dock_reference(&e, &receptor, &lig);
                prop_assert!(same_bits(&got, &expect), "{got:?} vs {expect:?}");
                prop_assert!(same_bits(&e.dock(&receptor, &lig), &expect));
            }

            /// Poses whose centroid sits on a cell face, edge or corner,
            /// just either side of one, inside a cell or off the grid, with
            /// ligands narrower and wider than a cell: the prepared scorer
            /// keeps exactly the reference's sites.
            #[test]
            fn prepared_score_equals_the_reference_on_faces_and_off_the_grid(
                seed in 0u64..1_000_000,
                shape in 0usize..RECEPTOR_RESIDUES.len() + 1,
                width in 0.0f64..40.0,
                rotors in 0usize..12,
            ) {
                let receptor = match RECEPTOR_RESIDUES.get(shape) {
                    Some(&residues) => predicted_receptor(residues, seed),
                    None => one_cell_receptor(seed),
                };
                let e = DockingEngine::default_engine();
                let prepared = e.prepare(&receptor);
                let index = prepared.index.as_ref().unwrap();
                let mut rng = SplitMix64::new(seed, 0xfaced);
                for _ in 0..16 {
                    let at = grid_point(index, &mut rng);
                    // A one-atom pose's centroid is its atom, exactly.
                    let mut single = Structure3D::new();
                    single.push(Element::C, at);
                    for pose in [single, wide_pose(width, at, &mut rng)] {
                        let got = prepared.score_pose(&pose, rotors);
                        let expect = score_pose_reference(&e, &receptor, &pose, rotors);
                        prop_assert_eq!(got.to_bits(), expect.to_bits());
                        let all_pairs = score_pose_unpruned(&e, &receptor, &pose, rotors);
                        prop_assert_eq!(got.to_bits(), all_pairs.to_bits());
                    }
                }
            }
        }

        /// Every cell's bound lies at most, and (below the cap) less than
        /// two steps under, the exact distance from the cell to its nearest
        /// site.
        #[test]
        fn reach_bounds_are_tight_lower_bounds() {
            let e = DockingEngine::default_engine();
            let receptors = [
                predicted_receptor(2, 1),
                predicted_receptor(120, 2),
                predicted_receptor(if FULL { 412 } else { 200 }, 3),
                one_cell_receptor(4),
            ];
            for receptor in receptors {
                let prepared = e.prepare(&receptor);
                let index = prepared.index.as_ref().unwrap();
                let cap = f64::from(BOUND_CAP) * BOUND_STEP;
                for z in 0..index.dims[2] {
                    for y in 0..index.dims[1] {
                        for x in 0..index.dims[0] {
                            let cell = [x, y, z];
                            let exact = prepared
                                .sites
                                .iter()
                                .map(|s| {
                                    let p = axes(s.pos);
                                    (0..3)
                                        .map(|a| {
                                            let lo =
                                                index.origin[a] + cell[a] as f64 * index.edge[a];
                                            let hi = lo + index.edge[a];
                                            let gap = (lo - p[a]).max(p[a] - hi).max(0.0);
                                            gap * gap
                                        })
                                        .sum::<f64>()
                                        .sqrt()
                                })
                                .fold(f64::INFINITY, f64::min);
                            let bound = f64::from(index.bounds[index.flat(cell)]) * BOUND_STEP;
                            assert!(bound <= exact, "cell {cell:?}: {bound} over {exact}");
                            if exact < cap {
                                assert!(bound > exact - 2.0 * BOUND_STEP, "cell {cell:?}");
                            } else {
                                assert_eq!(bound, cap, "cell {cell:?}");
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn receptors_the_index_does_not_cover_dock_like_the_reference() {
            let e = search_engine();
            let lig = parse_smiles("c1ccccc1CCO").unwrap();
            // Beyond the index's coordinate range: every pose filters every site.
            let far = receptor().translated(Vec3::new(3.0e6, 0.0, 0.0));
            let prepared = e.prepare(&far);
            assert!(prepared.index.is_none());
            assert!(same_bits(&prepared.dock(&lig), &dock_reference(&e, &far, &lig)));
            // An empty receptor prepares, and has nothing to index.
            assert!(e.prepare(&Structure3D::new()).index.is_none());
        }

        #[test]
        fn prepared_job_hash_equals_job_hash() {
            let e = DockingEngine::default_engine();
            for (residues, seed) in [(1, 1), (2, 2), (120, 3), (412, 4)] {
                let r = predicted_receptor(residues, seed);
                let prepared = e.prepare(&r);
                for smiles in LIGANDS {
                    let lig = parse_smiles(smiles).unwrap();
                    assert_eq!(prepared.job_hash(&lig), DockingEngine::job_hash(&r, &lig));
                }
            }
        }

        /// The prepared 412-atom receptor holds at most 64 KiB of heap, and
        /// (timed in release builds) prepares in at most 0.2 ms.
        #[test]
        fn prepared_412_atom_receptor_stays_under_its_ceilings() {
            let receptor = predicted_receptor(412, 0x29274);
            assert_eq!(receptor.len(), 412);
            let e = DockingEngine::default_engine();
            let prepared = e.prepare(&receptor);
            assert!(prepared.index.is_some());
            let bytes = prepared.heap_bytes();
            assert!(bytes <= 64 * 1024, "{bytes} bytes of heap");
            if FULL {
                let fastest = (0..64)
                    .map(|_| {
                        let t = std::time::Instant::now();
                        std::hint::black_box(e.prepare(std::hint::black_box(&receptor)));
                        t.elapsed()
                    })
                    .min()
                    .unwrap();
                assert!(
                    fastest <= std::time::Duration::from_micros(200),
                    "prepare took {fastest:?}"
                );
            }
        }
    }
}
