//! `bgp-join`: a UDF-free four-pattern join returning every compound row
//! from 16 ranks.
//!
//! Why it exists: scan, hash join, exchange and gather on fat per-rank
//! batches do almost all of the host's work; UDFs do none and simulator
//! bookkeeping little. It is the target of a join/scan kernel rewrite
//! and the workload `ncnpr-udf` is the no-change control for.

use crate::probes;
use crate::trace::Tracer;
use crate::workload::{
    bulk_band, id_digest, launch, run_query, EngineTotals, InstanceTally, OpSample, Size, Values,
    Workload,
};
use ids_core::IdsInstance;
use ids_simrt::Topology;
use ids_workloads::ncnpr::NcnprConfig;

const QUERY: &str = "SELECT ?compound ?smiles ?protein ?seq\n\
     WHERE {\n\
       ?protein  <rdf:type>        <up:Protein> .\n\
       ?protein  <up:sequence>     ?seq .\n\
       ?compound <chembl:inhibits> ?protein .\n\
       ?compound <chembl:smiles>   ?smiles .\n\
     }\n";

pub struct BgpJoin {
    inst: IdsInstance,
    topo: Topology,
    /// Every compound inhibits exactly one protein with one sequence, so
    /// the join returns one row per generated compound.
    expect_rows: usize,
    /// Digest of the first answer; the data never changes, so every later
    /// answer must carry the same one.
    first_digest: Option<u64>,
    ops: u64,
    totals: EngineTotals,
    base: InstanceTally,
    window: usize,
}

impl BgpJoin {
    pub fn setup(seed: u64, size: Size) -> Self {
        let (topo, bulk, window) = match size {
            Size::Full => (Topology::new(2, 8), bulk_band(2000, 24), 100),
            Size::Smoke => (Topology::new(2, 2), bulk_band(20, 4), 3),
        };
        let mut ncfg = NcnprConfig::default();
        if size == Size::Smoke {
            ncfg.bands.truncate(2);
            ncfg.background_proteins = 8;
        }
        ncfg.bands.push(bulk);
        let (mut inst, dataset) = launch(topo, seed, None, ncfg);
        // One untimed query: first-touch allocation is not the steady state.
        let warm = inst.query(QUERY).expect("warm-up query runs");
        assert_eq!(warm.solutions.len(), dataset.compounds, "warm-up row count");
        let base = InstanceTally::read(&inst);
        Self {
            inst,
            topo,
            expect_rows: dataset.compounds,
            first_digest: None,
            ops: 0,
            totals: EngineTotals::default(),
            base,
            window,
        }
    }
}

impl Workload for BgpJoin {
    fn window_ops(&self) -> usize {
        self.window
    }

    fn alloc_share(&self) -> f64 {
        1.0
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<OpSample>) {
        let op = self.ops;
        self.ops += 1;
        let (result, wall_ns) = run_query(&mut self.inst, QUERY, op, tr);
        out.push(match result {
            Ok(outcome) => {
                self.totals.add(outcome.solutions.len(), &outcome.breakdown);
                let digest = id_digest(&outcome.solutions);
                let ok = outcome.solutions.len() == self.expect_rows
                    && *self.first_digest.get_or_insert(digest) == digest;
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
        let texts = [QUERY.to_string()];
        probes::iql(&texts, v);
        probes::planner(&self.inst, &texts, false, v);
        probes::graph(&self.inst, QUERY, v);
        probes::simrt(self.topo, v);
        probes::obs(&self.inst, v);
    }
}
