//! The NCNPR drug-re-purposing workflow (§4) and its cached model UDFs.
//!
//! The workflow: (1) find proteins related to the target (UniProt P29274),
//! (2) retrieve its sequence and structure, (3) assemble candidate
//! compounds that inhibit related proteins, (4) filter by Smith–Waterman
//! similarity, pIC50, and DTBA, and (5) dock the survivors with AutoDock
//! Vina. Four UDFs are registered, "intentionally ordered by increasing
//! cost and pruning power" (§5.1); the docking UDF stashes its complete
//! outputs in the global distributed cache so repeated and overlapping
//! queries skip re-simulation (the Table 2 experiment), and an instance
//! docks each ligand at most once whether or not a cache is attached.

use crate::engine::current_rank;
use crate::instance::IdsInstance;
use bytes::Bytes;
use ids_cache::CacheManager;
use ids_chem::sequence::ProteinSequence;
use ids_chem::smiles::parse_smiles;
use ids_chem::structure::{PlacedAtom, Structure3D, Vec3};
use ids_chem::Element;
use ids_graph::Dictionary;
use ids_models::cost::CostModel;
use ids_models::docking::{DockingEngine, DockingResult};
use ids_models::dtba::{DtbaModel, LigandFeatures, ProteinFeatures};
use ids_models::pic50::Pic50Model;
use ids_models::smith_waterman::SmithWaterman;
use ids_models::structure_pred::StructurePredictor;
use ids_simrt::rng::fnv1a;
use ids_udf::{UdfOutput, UdfRegistry, UdfValue};
use std::sync::{Arc, OnceLock};

/// The workflow's drug target: accession, sequence, and the (predicted)
/// receptor structure docking runs against.
#[derive(Debug, Clone)]
pub struct Target {
    /// UniProt accession (the paper uses P29274, adenosine receptor A2a).
    pub accession: String,
    /// The protein sequence.
    pub sequence: ProteinSequence,
    /// Receptor structure (from the structure predictor).
    pub receptor: Structure3D,
}

impl Target {
    /// Build a target from a sequence: the receptor structure comes from
    /// the structure predictor (the AlphaFold step of the workflow).
    pub fn from_sequence(accession: &str, sequence: ProteinSequence) -> Self {
        let predicted = StructurePredictor::default_model().predict(&sequence);
        Self { accession: accession.to_string(), sequence, receptor: predicted.structure }
    }
}

/// Bundle of models the workflow registers as UDFs.
pub struct WorkflowModels {
    pub sw: SmithWaterman,
    pub pic50: Pic50Model,
    pub dtba: DtbaModel,
    pub docking: DockingEngine,
    /// Multiplier applied to the *bulk analytic* virtual costs (SW, pIC50)
    /// to compensate for dataset scale-down: the paper compares 66 M
    /// sequences; a bench running N sequences sets this to 66e6 / N so the
    /// FILTER stage's virtual time lands at paper scale.
    pub analytics_scale: f64,
    /// Separate multiplier for DTBA: it runs on post-similarity survivors
    /// ("thousands of model inferences"), a population scaled down much
    /// less aggressively than the raw sequence corpus. Docking is never
    /// scaled (candidate counts are matched directly).
    pub dtba_scale: f64,
    /// §8 extension: also stash DTBA predictions in the global cache
    /// ("the first and most logical extension of this work would be to
    /// cache more artifacts in the critical path"). Off by default to
    /// match the paper's evaluated configuration.
    pub cache_dtba: bool,
}

impl WorkflowModels {
    /// Paper-calibrated models, unscaled.
    pub fn paper_models() -> Self {
        Self {
            sw: SmithWaterman::default_model(),
            pic50: Pic50Model::default_model(),
            dtba: DtbaModel::pretrained(),
            docking: DockingEngine::default_engine(),
            analytics_scale: 1.0,
            dtba_scale: 1.0,
            cache_dtba: false,
        }
    }

    /// Fast models for tests (free cost model, light docking search).
    pub fn test_models() -> Self {
        Self {
            sw: SmithWaterman::new(Default::default(), CostModel::free()),
            pic50: Pic50Model::new(CostModel::free()),
            dtba: DtbaModel::with_seed(Default::default(), CostModel::free(), 0x5EED_D7BA),
            docking: DockingEngine::test_engine(),
            analytics_scale: 1.0,
            dtba_scale: 1.0,
            cache_dtba: false,
        }
    }
}

/// Cache object name for a docking job.
pub fn docking_object_name(target_accession: &str, smiles: &str) -> String {
    format!("vina/{target_accession}/{:016x}", fnv1a(smiles.as_bytes()))
}

/// Serialize a docking result for the cache (energy, evaluations, pose).
pub fn encode_docking_result(r: &DockingResult) -> Bytes {
    // Three 8-byte header words, then per atom its symbol's length byte,
    // the symbol and three 8-byte coordinates: reserved exactly.
    let atoms: usize = r.pose.atoms().iter().map(|a| 25 + a.element.symbol().len()).sum();
    let mut out = Vec::with_capacity(24 + atoms);
    out.extend_from_slice(&r.energy.to_le_bytes());
    out.extend_from_slice(&r.evaluations.to_le_bytes());
    out.extend_from_slice(&(r.pose.len() as u64).to_le_bytes());
    for a in r.pose.atoms() {
        let sym = a.element.symbol().as_bytes();
        out.push(sym.len() as u8);
        out.extend_from_slice(sym);
        out.extend_from_slice(&a.pos.x.to_le_bytes());
        out.extend_from_slice(&a.pos.y.to_le_bytes());
        out.extend_from_slice(&a.pos.z.to_le_bytes());
    }
    Bytes::from(out)
}

/// Deserialize a cached docking result. Returns `None` on malformed bytes
/// (treated as a cache miss).
pub fn decode_docking_result(b: &[u8]) -> Option<DockingResult> {
    let mut i = 0usize;
    let take = |i: &mut usize, n: usize| -> Option<&[u8]> {
        let s = b.get(*i..*i + n)?;
        *i += n;
        Some(s)
    };
    let energy = f64::from_le_bytes(take(&mut i, 8)?.try_into().ok()?);
    let evaluations = u64::from_le_bytes(take(&mut i, 8)?.try_into().ok()?);
    let n = u64::from_le_bytes(take(&mut i, 8)?.try_into().ok()?);
    // An atom record is at least 26 bytes (length byte, one-letter symbol,
    // three coordinates): refuse a count the remaining bytes cannot hold
    // before it sizes the allocation.
    let n = usize::try_from(n).ok().filter(|&n| n <= (b.len() - i) / 26)?;
    let mut atoms = Vec::with_capacity(n);
    for _ in 0..n {
        let sym_len = take(&mut i, 1)?[0] as usize;
        let sym = std::str::from_utf8(take(&mut i, sym_len)?).ok()?;
        let element = Element::from_symbol(sym)?;
        let x = f64::from_le_bytes(take(&mut i, 8)?.try_into().ok()?);
        let y = f64::from_le_bytes(take(&mut i, 8)?.try_into().ok()?);
        let z = f64::from_le_bytes(take(&mut i, 8)?.try_into().ok()?);
        atoms.push(PlacedAtom { element, pos: Vec3::new(x, y, z) });
    }
    if i != b.len() {
        return None;
    }
    Some(DockingResult {
        energy,
        pose: Structure3D::from_atoms(atoms),
        evaluations,
        // Cached results carry no fresh simulation cost; the cache layer
        // charges the fetch.
        virtual_secs: 0.0,
    })
}

/// Register the four NCNPR UDFs on a registry.
///
/// * `sw_similarity(?seq)` — normalized Smith–Waterman similarity of the
///   bound sequence against the target (cheapest, most pruning).
///   Prepared: one alignment per distinct sequence per instance.
/// * `pic50(?smiles)` / `pic50(?smiles, ?protein)` — assay potency.
///   Prepared: each input hashed (an IRI decoded) once per distinct term
///   per instance.
/// * `dtba(?seq, ?smiles)` — AI binding-affinity prediction. Prepared: one
///   protein-branch pass per distinct sequence and one ligand-branch pass
///   per distinct SMILES per instance; each row runs the dense head.
/// * `vina_docking(?smiles)` — blind docking against the target receptor,
///   cache-accelerated when `cache` is provided (most expensive).
///   Prepared: at most one search per distinct ligand per instance, run
///   by the first row that finds no cached copy; the cache's get and put
///   still run per row.
pub fn register_workflow_udfs(
    registry: &UdfRegistry,
    dict: &Arc<Dictionary>,
    target: &Target,
    models: WorkflowModels,
    cache: Option<Arc<CacheManager>>,
) {
    let scale = models.analytics_scale.max(0.0);
    let dtba_scale = models.dtba_scale.max(0.0);
    // The only way a registration can fail is a duplicate name — i.e. a
    // second install on the same registry. Keep the first registration and
    // drop the duplicate instead of panicking mid-setup: the closures are
    // deterministic functions of (target, models), so for a same-config
    // re-install the outcome is identical either way.

    // --- sw_similarity -----------------------------------------------------
    // The target's striped profile is built once, here. The score depends
    // on the database sequence alone, so it is the prepared half: an
    // instance aligns each distinct sequence once, and every row is charged
    // its cost.
    let prepared_target = models.sw.prepare(&target.sequence);
    registry
        .register_prepared(
            "sw_similarity",
            (move |seq: &UdfValue| match ProteinSequence::parse(seq.as_str().unwrap_or("")) {
                Ok(seq) => {
                    let r = prepared_target.align(&seq);
                    (r.similarity, r.virtual_secs * scale)
                }
                Err(_) => (0.0, 1.0e-6),
            },),
            |&(similarity, secs): &(f64, f64), _: &[UdfValue]| {
                UdfOutput::new(UdfValue::F64(similarity), secs)
            },
        )
        .ok();

    // --- pic50 ---------------------------------------------------------------
    // The assay is seeded by the hashes of its two inputs, so each is a
    // prepared position: the SMILES text's, and the text of the protein
    // the assay is against (an IRI id decoded once per id, or a string),
    // defaulting to the workflow target's accession. A row pays only the
    // seeded draw.
    let pic50 = models.pic50;
    let accession_hash = fnv1a(target.accession.as_bytes());
    let dict_for_pic50 = Arc::clone(dict);
    registry
        .register_prepared(
            "pic50",
            (
                |smiles: &UdfValue| fnv1a(smiles.as_str().unwrap_or("").as_bytes()),
                move |protein: &UdfValue| match protein {
                    UdfValue::Str(s) => fnv1a(s.as_bytes()),
                    UdfValue::Id(id) => dict_for_pic50
                        .decode(ids_graph::TermId(*id))
                        .as_ref()
                        .and_then(|t| t.as_str())
                        .map_or(accession_hash, |s| fnv1a(s.as_bytes())),
                    _ => accession_hash,
                },
            ),
            move |(&smiles, &protein): (&u64, &u64), _: &[UdfValue]| {
                let p = pic50.assay_hashed(smiles, protein);
                UdfOutput::new(UdfValue::F64(p.pic50), p.virtual_secs * scale)
            },
        )
        .ok();

    // --- dtba ---------------------------------------------------------------
    // Both branches are prepared: the protein's at position 0, the
    // ligand's (with the text's hash, which keys the charge and the cache
    // object) at position 1. The dense head, the charge and the cache
    // protocol run per row, on the row's rank.
    let dtba = Arc::new(models.dtba);
    let (dtba_for_protein, dtba_for_ligand) = (Arc::clone(&dtba), Arc::clone(&dtba));
    let dtba_cache = if models.cache_dtba { cache.clone() } else { None };
    registry
        .register_prepared(
            "dtba",
            (
                move |seq: &UdfValue| {
                    let seq_str = seq.as_str().unwrap_or("");
                    DtbaProtein {
                        name_hash: fnv1a(seq_str.as_bytes()),
                        features: ProteinSequence::parse(seq_str)
                            .ok()
                            .map(|seq| dtba_for_protein.protein_features(&seq)),
                    }
                },
                move |smiles: &UdfValue| {
                    dtba_for_ligand.ligand_features(smiles.as_str().unwrap_or(""))
                },
            ),
            move |(protein, ligand): (&DtbaProtein, &LigandFeatures), _: &[UdfValue]| {
                // §8 extension: DTBA predictions are cacheable artifacts
                // too (8-byte pKd objects keyed by sequence + ligand).
                let name = dtba_cache.as_ref().map(|_| {
                    format!("dtba/{:016x}/{:016x}", protein.name_hash, ligand.smiles_hash)
                });
                let mut fault_cost = 0.0;
                if let (Some(cache), Some(name)) = (&dtba_cache, &name) {
                    match cache.get(current_rank(), name) {
                        // A cached pKd is exactly 8 little-endian bytes; any
                        // other shape is a corrupt object and falls through
                        // to recomputation like a miss.
                        Ok(Some((bytes, outcome))) if bytes.len() == 8 => {
                            if let Ok(raw) = <[u8; 8]>::try_from(&bytes[..]) {
                                let pkd = f64::from_le_bytes(raw);
                                return UdfOutput::new(UdfValue::F64(pkd), outcome.virtual_secs);
                            }
                        }
                        Ok(_) => {}
                        // Degraded cache (down node, exhausted retries):
                        // charge the wasted time and recompute — the
                        // prediction itself is unaffected.
                        Err(e) => fault_cost = e.spent_secs(),
                    }
                }
                match &protein.features {
                    Some(features) => {
                        let a = dtba.predict_with(features, ligand);
                        let mut cost = a.virtual_secs * dtba_scale + fault_cost;
                        if let (Some(cache), Some(name)) = (&dtba_cache, &name) {
                            cost += cache.put(
                                current_rank(),
                                name,
                                Bytes::copy_from_slice(&a.pkd.to_le_bytes()),
                            );
                        }
                        UdfOutput::new(UdfValue::F64(a.pkd), cost)
                    }
                    None => UdfOutput::new(UdfValue::F64(0.0), 1.0e-6),
                }
            },
        )
        .ok();

    // --- vina_docking --------------------------------------------------------
    // A search is pure in the ligand: the receptor is fixed here, and the
    // search and its charge are seeded by the (receptor, ligand) job hash.
    // So the prepared half is the ligand's cache object name and an empty
    // cell, and the first row that has to dock the ligand — no cache, or
    // a cache miss — fills the cell for every later row of the instance.
    // The cache protocol still runs per row, on the row's rank: a hit
    // never docks, and a miss still puts and is charged for it. The
    // target's receptor is prepared (scoring constants, search box, reach
    // index) by the first row that docks, then shared: installing the
    // workflow without docking costs nothing.
    let docking = models.docking;
    let receptor = target.receptor.clone();
    let prepared_receptor = OnceLock::new();
    let accession = target.accession.clone();
    let named = cache.is_some();
    registry
        .register_prepared(
            "vina_docking",
            (move |smiles: &UdfValue| {
                let smiles = smiles.as_str().unwrap_or("");
                DockingLigand {
                    smiles: smiles.to_string(),
                    name: named.then(|| docking_object_name(&accession, smiles)),
                    docked: OnceLock::new(),
                }
            },),
            move |ligand: &DockingLigand, _: &[UdfValue]| {
                // Cache fast path: the complete docking output is stashed
                // as a named object (§3.2).
                let mut fault_cost = 0.0;
                if let (Some(cache), Some(name)) = (&cache, &ligand.name) {
                    match cache.get(current_rank(), name) {
                        Ok(Some((bytes, outcome))) => {
                            if let Some(result) = decode_docking_result(&bytes) {
                                return UdfOutput::new(
                                    UdfValue::F64(result.energy),
                                    outcome.virtual_secs,
                                );
                            }
                        }
                        Ok(None) => {}
                        // Degraded cache: charge the wasted virtual time
                        // and fall back to re-docking (same result).
                        Err(e) => fault_cost = e.spent_secs(),
                    }
                }

                // Miss: the simulation (tens of virtual seconds), run by
                // the first row of the instance that gets here. A
                // panicking search leaves the cell empty.
                let docked = ligand.docked.get_or_init(|| {
                    let molecule = parse_smiles(&ligand.smiles).ok()?;
                    let result = prepared_receptor
                        .get_or_init(|| docking.prepare(&receptor))
                        .dock(&molecule);
                    Some(Docked {
                        energy: result.energy,
                        virtual_secs: result.virtual_secs,
                        object: named.then(|| encode_docking_result(&result)),
                    })
                });
                let Some(docked) = docked else {
                    return UdfOutput::new(UdfValue::Null, 1.0e-6);
                };
                let mut cost = docked.virtual_secs + fault_cost;
                if let (Some(cache), Some(name), Some(object)) =
                    (&cache, &ligand.name, &docked.object)
                {
                    cost += cache.put(current_rank(), name, object.clone());
                }
                UdfOutput::new(UdfValue::F64(docked.energy), cost)
            },
        )
        .ok();
}

/// The prepared first argument of `dtba`: what its cache object name
/// keys on, and the protein branch (`None` when the text is not a
/// sequence). The second is the ligand branch, [`LigandFeatures`].
struct DtbaProtein {
    name_hash: u64,
    features: Option<ProteinFeatures>,
}

/// The prepared first argument of `vina_docking`: the ligand, its cache
/// object name when a cache is attached, and the cell the first row that
/// docks it fills (`None` when the text is not SMILES).
struct DockingLigand {
    smiles: String,
    name: Option<String>,
    docked: OnceLock<Option<Docked>>,
}

/// What a `vina_docking` row needs of a search: not the pose, which only
/// the cached object carries.
struct Docked {
    energy: f64,
    virtual_secs: f64,
    /// The encoded result a cache miss puts; kept only with a cache.
    object: Option<Bytes>,
}

/// Thresholds for the re-purposing query. `sw` is the Table 2
/// "Selectivity" knob (0.99 → 0.20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepurposingThresholds {
    pub sw_similarity: f64,
    pub min_pic50: f64,
    pub min_dtba: f64,
}

impl Default for RepurposingThresholds {
    fn default() -> Self {
        Self { sw_similarity: 0.9, min_pic50: 6.0, min_dtba: 6.5 }
    }
}

/// Render the §5.1 inner query + docking stage as IQL.
pub fn repurposing_query(thresholds: &RepurposingThresholds) -> String {
    format!(
        "SELECT ?compound ?smiles ?energy\n\
         WHERE {{\n\
           ?protein  <rdf:type>        <up:Protein> .\n\
           ?protein  <up:reviewed>     1 .\n\
           ?protein  <up:sequence>     ?seq .\n\
           ?compound <chembl:inhibits> ?protein .\n\
           ?compound <chembl:smiles>   ?smiles .\n\
           FILTER(sw_similarity(?seq) >= {sw})\n\
           FILTER(pic50(?smiles, ?protein) > {pic})\n\
           FILTER(dtba(?seq, ?smiles) >= {dtba})\n\
         }}\n\
         APPLY vina_docking(?smiles) AS ?energy\n",
        sw = thresholds.sw_similarity,
        pic = thresholds.min_pic50,
        dtba = thresholds.min_dtba,
    )
}

/// Convenience: register the workflow UDFs on an instance (wires in the
/// instance's cache if one is attached).
pub fn install_workflow(inst: &mut IdsInstance, target: &Target, models: WorkflowModels) {
    let cache = inst.cache().cloned();
    register_workflow_udfs(inst.registry(), inst.datastore().dictionary(), target, models, cache);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_graph::Term;
    use ids_simrt::rng::SplitMix64;

    fn target() -> Target {
        let mut rng = SplitMix64::new(0x29274, 1);
        Target::from_sequence("P29274", ProteinSequence::random(120, &mut rng))
    }

    #[test]
    fn docking_result_round_trip() {
        let engine = DockingEngine::test_engine();
        let mut receptor = Structure3D::new();
        for i in 0..10 {
            receptor.push(Element::C, Vec3::new(i as f64 * 2.0, 0.0, 0.0));
        }
        let lig = parse_smiles("CCO").unwrap();
        let result = engine.dock(&receptor, &lig);
        let bytes = encode_docking_result(&result);
        let back = decode_docking_result(&bytes).unwrap();
        assert_eq!(back.energy, result.energy);
        assert_eq!(back.evaluations, result.evaluations);
        assert_eq!(back.pose, result.pose);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_docking_result(b"short").is_none());
        let engine = DockingEngine::test_engine();
        let mut receptor = Structure3D::new();
        receptor.push(Element::C, Vec3::ZERO);
        let result = engine.dock(&receptor, &parse_smiles("C").unwrap());
        let bytes = encode_docking_result(&result);
        assert!(decode_docking_result(&bytes[..bytes.len() - 1]).is_none(), "truncated");
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(decode_docking_result(&extended).is_none(), "trailing bytes");
    }

    #[test]
    fn decode_refuses_counts_the_bytes_cannot_hold() {
        let header = |n: u64| {
            let mut b = [0.0f64.to_le_bytes(), 0u64.to_le_bytes(), n.to_le_bytes()].concat();
            b.extend_from_slice(&[1, b'C']);
            b.extend_from_slice(&[0; 24]);
            b
        };
        assert!(decode_docking_result(&header(1)).is_some(), "one well-formed atom");
        for n in [2, u64::MAX, u64::MAX / 32, 1 << 36] {
            assert!(decode_docking_result(&header(n)).is_none(), "count {n}");
        }
    }

    #[test]
    fn object_names_are_per_target_and_ligand() {
        assert_eq!(docking_object_name("P29274", "CCO"), docking_object_name("P29274", "CCO"));
        assert_ne!(docking_object_name("P29274", "CCO"), docking_object_name("P29274", "CCN"));
        assert_ne!(docking_object_name("P29274", "CCO"), docking_object_name("P30542", "CCO"));
    }

    #[test]
    fn registered_udfs_compute_sensible_values() {
        let registry = UdfRegistry::new();
        let dict = Arc::new(Dictionary::new());
        let t = target();
        register_workflow_udfs(&registry, &dict, &t, WorkflowModels::test_models(), None);

        // Self-similarity is 1.0.
        let out =
            registry.call("sw_similarity", &[UdfValue::Str(t.sequence.to_string_code())]).unwrap();
        assert_eq!(out.value, UdfValue::F64(1.0));

        // pIC50 in range.
        let out = registry.call("pic50", &[UdfValue::Str("CCO".into())]).unwrap();
        let v = out.value.as_f64().unwrap();
        assert!((3.0..=11.0).contains(&v));

        // DTBA in range.
        let out = registry
            .call(
                "dtba",
                &[UdfValue::Str(t.sequence.to_string_code()), UdfValue::Str("CCO".into())],
            )
            .unwrap();
        assert!((3.0..=11.0).contains(&out.value.as_f64().unwrap()));

        // Docking returns a finite energy.
        let out = registry.call("vina_docking", &[UdfValue::Str("c1ccccc1CO".into())]).unwrap();
        assert!(out.value.as_f64().unwrap().is_finite());
    }

    #[test]
    fn invalid_inputs_degrade_gracefully() {
        let registry = UdfRegistry::new();
        let dict = Arc::new(Dictionary::new());
        let t = target();
        register_workflow_udfs(&registry, &dict, &t, WorkflowModels::test_models(), None);
        let out = registry.call("sw_similarity", &[UdfValue::Str("NOT A SEQ 123".into())]).unwrap();
        assert_eq!(out.value, UdfValue::F64(0.0));
        let out = registry.call("vina_docking", &[UdfValue::Str("((((".into())]).unwrap();
        assert!(matches!(out.value, UdfValue::Null));
    }

    #[test]
    fn analytics_scale_multiplies_costs() {
        let registry = UdfRegistry::new();
        let dict = Arc::new(Dictionary::new());
        let t = target();
        let mut models = WorkflowModels::paper_models();
        models.analytics_scale = 100.0;
        register_workflow_udfs(&registry, &dict, &t, models, None);
        let scaled = registry
            .call("sw_similarity", &[UdfValue::Str(t.sequence.to_string_code())])
            .unwrap()
            .virtual_secs;

        let registry2 = UdfRegistry::new();
        register_workflow_udfs(&registry2, &dict, &t, WorkflowModels::paper_models(), None);
        let unscaled = registry2
            .call("sw_similarity", &[UdfValue::Str(t.sequence.to_string_code())])
            .unwrap()
            .virtual_secs;
        assert!((scaled / unscaled - 100.0).abs() < 1e-6);
    }

    #[test]
    fn query_text_embeds_thresholds() {
        let q = repurposing_query(&RepurposingThresholds {
            sw_similarity: 0.4,
            min_pic50: 6.0,
            min_dtba: 6.5,
        });
        assert!(q.contains(">= 0.4"));
        assert!(q.contains("vina_docking"));
        crate::iql::parse_query(&q).expect("generated query parses");
    }

    #[test]
    fn dtba_caching_extension_round_trips() {
        use ids_cache::{BackingStore, CacheConfig, CacheManager};
        use ids_simrt::{NetworkModel, Topology};

        let topo = Topology::new(1, 4);
        let cache = Arc::new(CacheManager::new(
            topo,
            NetworkModel::slingshot(),
            CacheConfig::new(1, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        ));
        let registry = UdfRegistry::new();
        let dict = Arc::new(Dictionary::new());
        let t = target();
        let mut models = WorkflowModels::test_models();
        models.cache_dtba = true;
        register_workflow_udfs(&registry, &dict, &t, models, Some(Arc::clone(&cache)));

        let args = [UdfValue::Str(t.sequence.to_string_code()), UdfValue::Str("CCO".into())];
        let first = registry.call("dtba", &args).unwrap();
        let second = registry.call("dtba", &args).unwrap();
        assert_eq!(first.value, second.value, "cached prediction identical");
        assert!(cache.stats().cache_hits() >= 1, "second call served from cache");
    }

    /// The registered `vina_docking` docks against the receptor it prepared
    /// once: every energy is `DockingEngine::dock`'s, bit for bit, with no
    /// cache and through a cache miss and then a hit.
    #[test]
    fn vina_docking_returns_the_engine_energy_bits() {
        use ids_cache::{BackingStore, CacheConfig, CacheManager};
        use ids_simrt::{NetworkModel, Topology};

        let t = target();
        let engine = WorkflowModels::test_models().docking;
        let cache = Arc::new(CacheManager::new(
            Topology::new(1, 4),
            NetworkModel::slingshot(),
            CacheConfig::new(1, 1 << 20, 1 << 22),
            BackingStore::default_store(),
        ));
        let dict = Arc::new(Dictionary::new());
        let plain = UdfRegistry::new();
        register_workflow_udfs(&plain, &dict, &t, WorkflowModels::test_models(), None);
        let cached = UdfRegistry::new();
        let cache_arg = Some(Arc::clone(&cache));
        register_workflow_udfs(&cached, &dict, &t, WorkflowModels::test_models(), cache_arg);

        let energy = |registry: &UdfRegistry, smiles: &str| {
            let out = registry.call("vina_docking", &[UdfValue::Str(smiles.into())]).unwrap();
            out.value.as_f64().unwrap().to_bits()
        };
        for (i, smiles) in ["CCO", "c1ccccc1CO", "CC(=O)Oc1ccccc1C(=O)O", "NCCc1ccc(O)c(O)c1"]
            .into_iter()
            .enumerate()
        {
            let expect = engine.dock(&t.receptor, &parse_smiles(smiles).unwrap()).energy.to_bits();
            assert_eq!(energy(&plain, smiles), expect, "{smiles}, no cache");
            assert_eq!(energy(&cached, smiles), expect, "{smiles}, cache miss");
            assert_eq!(cache.stats().cache_hits(), i as u64, "{smiles} missed");
            assert_eq!(energy(&cached, smiles), expect, "{smiles}, cache hit");
            assert_eq!(cache.stats().cache_hits(), i as u64 + 1, "{smiles} hit");
        }
    }

    #[test]
    fn explain_counts_prepared_arguments_per_distinct_sequence() {
        let mut inst = IdsInstance::launch(crate::IdsConfig::laptop(4, 7));
        let ds = inst.datastore();
        let mut rng = SplitMix64::new(0x5e9, 3);
        // 6 proteins × 5 compounds: 30 rows over 6 distinct sequences and
        // proteins and 5 distinct SMILES.
        for p in 0..6 {
            let protein = Term::iri(format!("p:{p}"));
            let seq = ProteinSequence::random(40, &mut rng).to_string_code();
            ds.add_fact(&protein, &Term::iri("up:sequence"), &Term::str(seq));
            for c in 0..5 {
                let compound = Term::iri(format!("c:{p}/{c}"));
                ds.add_fact(&compound, &Term::iri("chembl:inhibits"), &protein);
                ds.add_fact(&compound, &Term::iri("chembl:smiles"), &Term::str("C".repeat(c + 1)));
            }
        }
        ds.build_indexes();
        let t = target();
        install_workflow(&mut inst, &t, WorkflowModels::test_models());
        let q = "SELECT ?compound WHERE { ?protein <up:sequence> ?seq . \
                 ?compound <chembl:inhibits> ?protein . ?compound <chembl:smiles> ?smiles . \
                 FILTER(sw_similarity(?seq) >= 0.0) FILTER(pic50(?smiles, ?protein) > 0.0) \
                 FILTER(dtba(?seq, ?smiles) >= 0.0) }";
        // Each prepared position counts its own distinct ids: `dtba` 6
        // sequences + 5 SMILES, `pic50` 5 SMILES + 6 proteins. The second
        // run calls every UDF again and prepares nothing.
        for calls in [30, 60] {
            assert_eq!(inst.query(q).unwrap().solutions.len(), 30);
            let text = inst.explain(q).unwrap();
            let line = format!(
                "prepared args (kept by the instance): dtba 11 / {calls} calls, \
                 pic50 11 / {calls} calls, sw_similarity 6 / {calls} calls\n"
            );
            assert!(text.contains(&line), "{text}");
        }
    }

    /// The prepared `sw_similarity`, `pic50`, `dtba` and `vina_docking`
    /// against the scalar closures they replaced, bit for bit, through an
    /// instance memo and through a direct call (which prepares every
    /// position, then calls), with no cache and through cold misses and
    /// hits of one. Sizes grow in release builds (`ci.sh` runs
    /// `cargo test -p ids-core --release -- prepared_args`).
    mod prepared_args {
        use super::*;
        use crate::binding::RowBindings;
        use ids_cache::{BackingStore, CacheConfig, CacheStats};
        use ids_models::docking::PreparedReceptor;
        use ids_models::smith_waterman::PreparedQuery;
        use ids_obs::MetricsRegistry;
        use ids_simrt::{NetworkModel, Topology};
        use ids_udf::expr::EvalCtx;
        use ids_udf::{ArgMemo, Expr, ProfileTable};
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);
        const SW_SCALE: f64 = 3.5;
        const DTBA_SCALE: f64 = 1.7;

        /// The scalar `sw_similarity`: parse and align on every call.
        fn scalar_sw(target: &PreparedQuery, seq: &str) -> UdfOutput {
            match ProteinSequence::parse(seq) {
                Ok(seq) => {
                    let r = target.align(&seq);
                    UdfOutput::new(UdfValue::F64(r.similarity), r.virtual_secs * SW_SCALE)
                }
                Err(_) => UdfOutput::new(UdfValue::F64(0.0), 1.0e-6),
            }
        }

        /// The scalar `pic50`: the assay of the SMILES against the protein's
        /// text on every call.
        fn scalar_pic50(pic50: &Pic50Model, smiles: &str, protein: &str) -> UdfOutput {
            let p = pic50.assay(smiles, protein);
            UdfOutput::new(UdfValue::F64(p.pic50), p.virtual_secs * SW_SCALE)
        }

        /// The scalar `dtba`: cache get, parse, predict, cache put on every
        /// call.
        fn scalar_dtba(
            dtba: &DtbaModel,
            cache: Option<&CacheManager>,
            seq: &str,
            smiles: &str,
        ) -> UdfOutput {
            let name = cache.map(|_| {
                format!("dtba/{:016x}/{:016x}", fnv1a(seq.as_bytes()), fnv1a(smiles.as_bytes()))
            });
            let mut fault_cost = 0.0;
            if let (Some(cache), Some(name)) = (cache, &name) {
                match cache.get(current_rank(), name) {
                    Ok(Some((bytes, outcome))) if bytes.len() == 8 => {
                        if let Ok(raw) = <[u8; 8]>::try_from(&bytes[..]) {
                            let pkd = f64::from_le_bytes(raw);
                            return UdfOutput::new(UdfValue::F64(pkd), outcome.virtual_secs);
                        }
                    }
                    Ok(_) => {}
                    Err(e) => fault_cost = e.spent_secs(),
                }
            }
            match ProteinSequence::parse(seq) {
                Ok(seq) => {
                    let a = dtba.predict(&seq, smiles);
                    let mut cost = a.virtual_secs * DTBA_SCALE + fault_cost;
                    if let (Some(cache), Some(name)) = (cache, &name) {
                        let pkd = Bytes::copy_from_slice(&a.pkd.to_le_bytes());
                        cost += cache.put(current_rank(), name, pkd);
                    }
                    UdfOutput::new(UdfValue::F64(a.pkd), cost)
                }
                Err(_) => UdfOutput::new(UdfValue::F64(0.0), 1.0e-6),
            }
        }

        /// The scalar `vina_docking`: cache get, parse, dock, cache put on
        /// every call.
        fn scalar_docking(
            receptor: &PreparedReceptor,
            cache: Option<&CacheManager>,
            smiles: &str,
        ) -> UdfOutput {
            let name = docking_object_name("P29274", smiles);
            let mut fault_cost = 0.0;
            if let Some(cache) = cache {
                match cache.get(current_rank(), &name) {
                    Ok(Some((bytes, outcome))) => {
                        if let Some(result) = decode_docking_result(&bytes) {
                            let energy = UdfValue::F64(result.energy);
                            return UdfOutput::new(energy, outcome.virtual_secs);
                        }
                    }
                    Ok(None) => {}
                    Err(e) => fault_cost = e.spent_secs(),
                }
            }
            let Ok(ligand) = parse_smiles(smiles) else {
                return UdfOutput::new(UdfValue::Null, 1.0e-6);
            };
            let result = receptor.dock(&ligand);
            let mut cost = result.virtual_secs + fault_cost;
            if let Some(cache) = cache {
                cost += cache.put(current_rank(), &name, encode_docking_result(&result));
            }
            UdfOutput::new(UdfValue::F64(result.energy), cost)
        }

        fn models(cache_dtba: bool) -> WorkflowModels {
            WorkflowModels {
                analytics_scale: SW_SCALE,
                dtba_scale: DTBA_SCALE,
                cache_dtba,
                ..WorkflowModels::paper_models()
            }
        }

        fn small_cache() -> Arc<CacheManager> {
            Arc::new(CacheManager::new(
                Topology::new(1, 4),
                NetworkModel::slingshot(),
                CacheConfig::new(1, 1 << 20, 1 << 22),
                BackingStore::default_store(),
            ))
        }

        /// A sequence as a row may carry it: canonical, lower case, with
        /// blanks (the cache name hashes the text, the charge the
        /// residues), or not a sequence at all.
        fn sequence_text(len: usize, rng: &mut SplitMix64) -> String {
            let code = ProteinSequence::random(len, rng).to_string_code();
            match rng.next_below(4) {
                0 => code,
                1 => code.to_ascii_lowercase(),
                2 => code.chars().flat_map(|c| [c, ' ']).collect(),
                _ => format!("{code}7"),
            }
        }

        fn smiles_text(rng: &mut SplitMix64) -> String {
            const POOL: [&str; 6] =
                ["CCO", "c1ccccc1CN", "CC(=O)Oc1ccccc1C(=O)O", "", "C", "é[Zn]?"];
            let base = POOL[rng.next_below(POOL.len() as u64) as usize];
            format!("{base}{}", "C".repeat(rng.next_below(3) as usize))
        }

        fn assert_same_bits(got: &UdfOutput, want: &UdfOutput, what: &str) {
            let bits = |o: &UdfOutput| {
                (
                    matches!(o.value, UdfValue::Null),
                    o.value.as_f64().map(f64::to_bits),
                    o.virtual_secs.to_bits(),
                )
            };
            assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
        }

        /// The cache counters a call sequence moves: hits and misses by
        /// [`CacheManager::stats`], puts by `ids_cache_inserts_total`.
        fn cache_counts(cache: &CacheManager) -> (CacheStats, u64) {
            let inserts = cache.metrics().snapshot().counter_sum("ids_cache_inserts_total");
            (cache.stats(), inserts)
        }

        fn check(seed: u64, sequences: usize, max_len: usize, rows: usize, cached: bool) {
            let mut rng = SplitMix64::new(seed, 0x9a5e);
            let target_len = if FULL { 412 } else { 48 };
            let t = Target::from_sequence("P29274", ProteinSequence::random(target_len, &mut rng));
            let reference = models(cached);
            let target_profile = reference.sw.prepare(&t.sequence);
            let receptor = reference.docking.prepare(&t.receptor);
            let (cache, ref_cache) = (small_cache(), small_cache());
            let registry = UdfRegistry::new();
            let dict = Arc::new(Dictionary::new());
            let attached = cached.then(|| Arc::clone(&cache));
            register_workflow_udfs(&registry, &dict, &t, models(cached), attached);
            let ref_cache = cached.then_some(&*ref_cache);

            let seqs: Vec<String> = (0..sequences)
                .map(|_| sequence_text(rng.next_below(max_len as u64 + 1) as usize, &mut rng))
                .collect();
            let vars = ["seq".to_string(), "smiles".to_string(), "protein".to_string()];
            let sw = Expr::udf("sw_similarity", vec![Expr::var("seq")]);
            let pic50 = Expr::udf("pic50", vec![Expr::var("smiles"), Expr::var("protein")]);
            let pic50_target = Expr::udf("pic50", vec![Expr::var("smiles")]);
            let dtba = Expr::udf("dtba", vec![Expr::var("seq"), Expr::var("smiles")]);
            let docking = Expr::udf("vina_docking", vec![Expr::var("smiles")]);
            let metrics = MetricsRegistry::new();
            let memo = ArgMemo::new(&metrics);
            let mut profiles = ProfileTable::new(1);
            for e in [&sw, &pic50, &dtba, &docking] {
                e.for_each_udf(&mut |u| profiles.intern(u));
            }
            let stage = memo.stage(&registry, &profiles);
            let mut seen = std::collections::HashSet::new();
            let mut ligands = std::collections::HashSet::new();
            let mut proteins = std::collections::HashSet::new();
            for _ in 0..rows {
                let seq = &seqs[rng.next_below(sequences as u64) as usize];
                let smiles = smiles_text(&mut rng);
                let protein = format!("up:P{}", rng.next_below(4));
                seen.insert(seq.as_str());
                ligands.insert(smiles.clone());
                proteins.insert(protein.clone());
                let row = [dict.str(seq), dict.str(&smiles), dict.iri(&protein)];
                let bindings = RowBindings::new(&vars, &row, &dict);
                let mut eval = |e: &Expr| {
                    let mut cx = EvalCtx::new(&registry, profiles.row_mut(0)).with_memo(&stage);
                    let value = e.eval(&bindings, &mut cx).unwrap();
                    UdfOutput::new(value, cx.charged_secs)
                };
                let want_sw = scalar_sw(&target_profile, seq);
                assert_same_bits(&eval(&sw), &want_sw, "memoised sw_similarity");
                let want_pic50 = scalar_pic50(&reference.pic50, &smiles, &protein);
                assert_same_bits(&eval(&pic50), &want_pic50, "memoised pic50");
                let want_pic50_target = scalar_pic50(&reference.pic50, &smiles, "P29274");
                assert_same_bits(&eval(&pic50_target), &want_pic50_target, "pic50 of the target");
                let want_dtba = scalar_dtba(&reference.dtba, ref_cache, seq, &smiles);
                assert_same_bits(&eval(&dtba), &want_dtba, "memoised dtba");
                let want_docking = scalar_docking(&receptor, ref_cache, &smiles);
                assert_same_bits(&eval(&docking), &want_docking, "memoised vina_docking");
                if let Some(ref_cache) = ref_cache {
                    let what = format!("cache after {smiles:?}");
                    assert_eq!(cache_counts(&cache), cache_counts(ref_cache), "{what}");
                }

                let direct = registry.call("sw_similarity", &[UdfValue::Str(seq.clone())]).unwrap();
                assert_same_bits(&direct, &want_sw, "direct sw_similarity");
                let args = [UdfValue::Str(smiles.clone()), UdfValue::Id(row[2].raw())];
                let direct = registry.call("pic50", &args).unwrap();
                assert_same_bits(&direct, &want_pic50, "direct pic50");
                let args = [UdfValue::Str(smiles.clone()), UdfValue::Str(protein.clone())];
                let direct = registry.call("pic50", &args).unwrap();
                assert_same_bits(&direct, &want_pic50, "direct pic50 of the text");
                if !cached {
                    // (A cached direct call would move the cache past the
                    // reference's.)
                    let args = [UdfValue::Str(seq.clone()), UdfValue::Str(smiles.clone())];
                    let direct = registry.call("dtba", &args).unwrap();
                    assert_same_bits(&direct, &want_dtba, "direct dtba");
                    let args = [UdfValue::Str(smiles.clone())];
                    let direct = registry.call("vina_docking", &args).unwrap();
                    assert_same_bits(&direct, &want_docking, "direct vina_docking");
                }
            }
            // One prepare per distinct id at each keyed position; the
            // target's absent `?protein` is never kept.
            let (seqs, ligands, proteins) =
                (seen.len() as u64, ligands.len() as u64, proteins.len() as u64);
            let snap = metrics.snapshot();
            let prepared = |udf: &str| snap.counter("ids_udf_prepares_total", udf);
            assert_eq!(prepared("sw_similarity"), seqs, "sw_similarity: one per sequence");
            assert_eq!(prepared("pic50"), ligands + proteins, "pic50: per ligand and protein");
            assert_eq!(prepared("dtba"), seqs + ligands, "dtba: per sequence and ligand");
            assert_eq!(prepared("vina_docking"), ligands, "vina_docking: one per ligand");
            if cached && rows as u64 > ligands {
                assert!(cache.stats().cache_hits() > 0, "a repeated ligand hits the cache");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 64 } else { 12 }))]

            #[test]
            fn prepared_equals_scalar_bit_for_bit(
                seed in 0u64..1_000_000,
                sequences in 1usize..=8,
                rows in 1usize..=(if FULL { 200 } else { 24 }),
                cached in 0u8..2,
            ) {
                let max_len = if FULL { 1500 } else { 120 };
                check(seed, sequences, max_len, rows, cached == 1);
            }
        }
    }
}
