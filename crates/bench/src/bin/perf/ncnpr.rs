//! `ncnpr-udf`: the paper's drug-re-purposing query, repeated on one warm
//! instance at 64 × 32 ranks.
//!
//! Why it exists: UDF/model kernels and `Cluster::execute` over 2048
//! ranks do almost all of the host's work here; graph kernels and the
//! front end do almost none. It is the workload a UDF, model or
//! simulator change must move, and the no-change control for a join
//! kernel rewrite. Repeats on the warm instance also put the planner's
//! profile-driven re-ordering on the virtual clock.

use crate::probes;
use crate::trace::Tracer;
use crate::util::{fnv_bytes, unordered_digest};
use crate::workload::{
    launch, run_query, EngineTotals, InstanceTally, OpSample, Size, Values, Workload,
};
use ids_core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, Target, WorkflowModels,
};
use ids_core::{IdsInstance, QueryOutcome};
use ids_simrt::Topology;
use ids_workloads::ncnpr::NcnprConfig;

/// The paper's calibration targets (EXPERIMENTS.md): each stored row
/// stands for this many paper-scale rows on the virtual clock.
const PAPER_SEQUENCES: f64 = 66.0e6;
const PAPER_TRIPLES: f64 = 100.0e9;
const DTBA_SCALE: f64 = 2.0;

/// Compounds of the near-identical band: the only ones whose proteins
/// pass `sw_similarity >= 0.9`, so the only rows that can reach docking.
const TIGHT_BAND_COMPOUNDS: usize = 56;

pub struct NcnprUdf {
    inst: IdsInstance,
    target: Target,
    text: String,
    topo: Topology,
    size: Size,
    /// Rows and digest of the warm-up query; every timed query must match.
    expect: (usize, u64),
    ops: u64,
    totals: EngineTotals,
    base: InstanceTally,
    window: usize,
}

/// Paper models at full size; the light test models keep the unit-test
/// pass short (same code paths, smaller search and network).
fn models(size: Size) -> WorkflowModels {
    let mut m = match size {
        Size::Full => WorkflowModels::paper_models(),
        Size::Smoke => WorkflowModels::test_models(),
    };
    m.dtba_scale = DTBA_SCALE;
    m
}

/// Digest over decoded terms: APPLY mints new dictionary ids for the
/// docking energies, so raw ids would tie the digest to evaluation order.
fn decoded_digest(inst: &IdsInstance, out: &QueryOutcome) -> u64 {
    let ds = inst.datastore();
    unordered_digest(out.solutions.rows().iter().map(|row| {
        let mut bytes = Vec::new();
        for id in row {
            bytes.extend_from_slice(&ds.decode(*id).map(|t| t.to_bytes()).unwrap_or_default());
            bytes.push(0xff);
        }
        fnv_bytes(&bytes)
    }))
}

impl NcnprUdf {
    pub fn setup(seed: u64, size: Size) -> Self {
        let (topo, window) = match size {
            Size::Full => (Topology::new(64, 32), 5),
            Size::Smoke => (Topology::new(2, 4), 2),
        };
        let mut ncfg = NcnprConfig::default();
        if size == Size::Smoke {
            // Keep the tight band (the 56 docked rows); shrink the rest,
            // and the sequences with it (alignment cost is quadratic).
            ncfg.bands.truncate(2);
            ncfg.background_proteins = 8;
            ncfg.sequence_len = 96;
        }
        let (mut inst, dataset) = launch(topo, seed, None, ncfg);

        // Paper-scale calibration of the virtual clock.
        let triple_scale = PAPER_TRIPLES / dataset.triples.max(1) as f64;
        let exec = inst.exec_options_mut();
        exec.scan_secs_per_triple = 2.0e-8 * triple_scale;
        exec.join_secs_per_row = 2.0e-8 * triple_scale;
        let mut m = models(size);
        m.analytics_scale = PAPER_SEQUENCES / dataset.compounds.max(1) as f64;
        install_workflow(&mut inst, &dataset.target, m);

        let text = repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.9,
            min_pic50: 3.0,
            min_dtba: 3.0,
        });
        let warm = inst.query(&text).expect("warm-up query runs");
        let expect = (warm.solutions.len(), decoded_digest(&inst, &warm));
        let base = InstanceTally::read(&inst);
        Self {
            inst,
            target: dataset.target,
            text,
            topo,
            size,
            expect,
            ops: 0,
            totals: EngineTotals::default(),
            base,
            window,
        }
    }
}

impl Workload for NcnprUdf {
    fn window_ops(&self) -> usize {
        self.window
    }

    fn alloc_share(&self) -> f64 {
        0.25
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<OpSample>) {
        let op = self.ops;
        self.ops += 1;
        let (result, wall_ns) = run_query(&mut self.inst, &self.text, op, tr);
        out.push(match result {
            Ok(outcome) => {
                self.totals.add(outcome.solutions.len(), &outcome.breakdown);
                let digest = decoded_digest(&self.inst, &outcome);
                let rows = outcome.solutions.len();
                // pIC50 clamps a few compounds to exactly 3.0, which
                // `> 3.0` rejects: the tight band is the upper bound and
                // the warm-up query fixes the exact answer.
                let ok = rows <= TIGHT_BAND_COMPOUNDS
                    && rows + 6 >= TIGHT_BAND_COMPOUNDS
                    && (rows, digest) == self.expect;
                OpSample { wall_ns, virtual_s: outcome.elapsed_secs, ok, digest }
            }
            Err(_) => OpSample { wall_ns, virtual_s: 0.0, ok: false, digest: 0 },
        });
    }

    fn counts(&self, v: &mut Values) {
        self.totals.report(v);
        InstanceTally::read(&self.inst).report_since(&self.base, v);
    }

    fn probes(&mut self, v: &mut Values) {
        let texts = [self.text.clone()];
        probes::iql(&texts, v);
        probes::planner(&self.inst, &texts, false, v);
        probes::graph(&self.inst, &self.text, v);
        probes::udf(&self.inst, &self.target, &models(self.size), v);
        probes::simrt(self.topo, v);
        probes::obs(&self.inst, v);
    }
}
