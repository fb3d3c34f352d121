//! The NCNPR experiment graph.
//!
//! Builds the slice of the knowledge graph the §5 experiments actually
//! touch: a target protein (the P29274 stand-in), *similarity bands* of
//! related reviewed proteins at controlled sequence divergence, inhibitor
//! compounds with valid SMILES and assay edges, and background unreviewed
//! proteins.
//!
//! The banded construction is what lets Table 2's shape reproduce: a tight
//! band of near-identical proteins supplies the ~56 compounds that survive
//! every threshold from 0.99 down to 0.5; a mid band (similarity ≈ 0.4)
//! adds the jump to ~121; and a broad low band (similarity ≈ 0.2–0.35)
//! supplies the blow-up to ~1129 compounds.

use ids_chem::sequence::ProteinSequence;
use ids_core::workflow::Target;
use ids_core::Datastore;
use ids_graph::Term;
use ids_models::molgen::MoleculeGenerator;
use ids_models::CostModel;
use ids_simrt::rng::SplitMix64;

/// One similarity band of related proteins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Per-residue mutation rate applied to the target sequence
    /// (0.0 = identical; similarity falls roughly as 1 − 1.2·rate).
    pub mutation_rate: f64,
    /// When set, band members are rejection-sampled until their actual
    /// Smith-Waterman similarity to the target falls inside this closed
    /// range — pinning the band between two sweep thresholds regardless of
    /// mutation variance (what makes Table 2's plateau exact).
    pub similarity_range: Option<(f64, f64)>,
    /// Number of proteins in the band.
    pub proteins: usize,
    /// Compounds attached to each band protein.
    pub compounds_per_protein: usize,
}

/// Dataset configuration.
#[derive(Debug, Clone)]
pub struct NcnprConfig {
    pub seed: u64,
    /// Target sequence length (P29274 has 412 residues).
    pub sequence_len: usize,
    /// Similarity bands (defaults approximate Table 2's candidate counts).
    pub bands: Vec<Band>,
    /// Unrelated, mostly unreviewed background proteins.
    pub background_proteins: usize,
}

impl Default for NcnprConfig {
    fn default() -> Self {
        Self {
            seed: 0x29274,
            sequence_len: 412,
            bands: vec![
                // Near-identical: survives every threshold ≥ 0.9 → 56
                // compounds (Table 2 rows 0.99–0.90).
                Band {
                    mutation_rate: 0.0,
                    similarity_range: None,
                    proteins: 8,
                    compounds_per_protein: 7,
                },
                // One protein at similarity ≈ 0.85: Table 2's +1 compound
                // between thresholds 0.90 and 0.80 (rows 0.80–0.50 = 57).
                Band {
                    mutation_rate: 0.12,
                    similarity_range: Some((0.81, 0.89)),
                    proteins: 1,
                    compounds_per_protein: 1,
                },
                // Mid band: enters at threshold 0.4 → 57 + 64 = 121.
                Band {
                    mutation_rate: 0.46,
                    similarity_range: Some((0.41, 0.49)),
                    proteins: 16,
                    compounds_per_protein: 4,
                },
                // Low band: enters at 0.2 → 121 + 1008 = 1129.
                Band {
                    mutation_rate: 0.62,
                    similarity_range: Some((0.21, 0.39)),
                    proteins: 144,
                    compounds_per_protein: 7,
                },
            ],
            background_proteins: 200,
        }
    }
}

/// What the builder produced.
#[derive(Debug, Clone)]
pub struct NcnprDataset {
    /// The workflow target (sequence + predicted receptor).
    pub target: Target,
    /// Total proteins written (bands + background + target).
    pub proteins: usize,
    /// Total compounds written.
    pub compounds: usize,
    /// Total triples written.
    pub triples: usize,
}

/// Build the NCNPR graph into `ds` (indexes are built before returning).
pub fn build(ds: &Datastore, cfg: &NcnprConfig) -> NcnprDataset {
    let mut rng = SplitMix64::new(cfg.seed, 0x0c2);
    let target_seq = ProteinSequence::random(cfg.sequence_len, &mut rng);
    let target = Target::from_sequence("P29274", target_seq.clone());

    let molgen = MoleculeGenerator::new(CostModel::free(), cfg.seed ^ 0x3014);
    let mut proteins = 0usize;
    let mut compounds = 0usize;
    let mut triples = 0usize;
    let mut compound_index = 0u64;

    let add_protein = |ds: &Datastore,
                       name: &str,
                       seq: &ProteinSequence,
                       reviewed: bool,
                       n_compounds: usize,
                       compound_index: &mut u64,
                       triples: &mut usize,
                       compounds: &mut usize| {
        let subject = Term::iri(format!("up:{name}"));
        ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("up:Protein"));
        ds.add_fact(&subject, &Term::iri("up:reviewed"), &Term::Int(reviewed as i64));
        ds.add_fact(&subject, &Term::iri("up:sequence"), &Term::str(seq.to_string_code()));
        ds.add_fact(&subject, &Term::iri("up:accession"), &Term::str(name.to_string()));
        *triples += 4;
        for _ in 0..n_compounds {
            let c = molgen.generate(*compound_index);
            *compound_index += 1;
            let cid = Term::iri(format!("chembl:C{}", *compound_index));
            ds.add_fact(&cid, &Term::iri("rdf:type"), &Term::iri("chembl:Compound"));
            ds.add_fact(&cid, &Term::iri("chembl:smiles"), &Term::str(c.smiles.clone()));
            ds.add_fact(&cid, &Term::iri("chembl:inhibits"), &subject);
            *triples += 3;
            *compounds += 1;
        }
    };

    // The target itself (reviewed, no attached compounds — candidates come
    // from *related* proteins, per the workflow).
    add_protein(
        ds,
        "P29274",
        &target_seq,
        true,
        0,
        &mut compound_index,
        &mut triples,
        &mut compounds,
    );
    proteins += 1;

    // Similarity bands.
    let sw = ids_models::SmithWaterman::new(Default::default(), CostModel::free());
    for (bi, band) in cfg.bands.iter().enumerate() {
        for p in 0..band.proteins {
            let seq = sample_band_member(&sw, &target_seq, band, &mut rng);
            add_protein(
                ds,
                &format!("B{bi}_{p}"),
                &seq,
                true,
                band.compounds_per_protein,
                &mut compound_index,
                &mut triples,
                &mut compounds,
            );
            proteins += 1;
        }
    }

    // Background: unrelated, unreviewed proteins with no candidates.
    for p in 0..cfg.background_proteins {
        let seq = ProteinSequence::random(cfg.sequence_len, &mut rng);
        add_protein(
            ds,
            &format!("BG{p}"),
            &seq,
            false,
            0,
            &mut compound_index,
            &mut triples,
            &mut compounds,
        );
        proteins += 1;
    }

    ds.build_indexes();
    NcnprDataset { target, proteins, compounds, triples }
}

/// Draw one band member. With a `similarity_range`, rejection-sample
/// (adapting the mutation rate toward the range) until the actual
/// Smith-Waterman similarity lands inside; panics only if 200 attempts
/// fail, which indicates an unsatisfiable range.
fn sample_band_member(
    sw: &ids_models::SmithWaterman,
    target: &ProteinSequence,
    band: &Band,
    rng: &mut SplitMix64,
) -> ProteinSequence {
    match band.similarity_range {
        None => target.mutate(band.mutation_rate, rng),
        Some((lo, hi)) => {
            assert!(lo < hi, "empty similarity range");
            let mut rate = band.mutation_rate;
            for _ in 0..200 {
                let cand = target.mutate(rate, rng);
                let sim = sw.align(target, &cand).similarity;
                if sim >= lo && sim <= hi {
                    return cand;
                }
                // Nudge the rate toward the band: too similar -> mutate
                // more, too divergent -> mutate less.
                if sim > hi {
                    rate = (rate * 1.1 + 0.01).min(0.95);
                } else {
                    rate = (rate * 0.9).max(0.005);
                }
            }
            panic!("could not hit similarity range [{lo}, {hi}] from rate {}", band.mutation_rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_models::SmithWaterman;

    #[test]
    fn default_config_matches_table2_bands() {
        let cfg = NcnprConfig::default();
        let counts: Vec<usize> =
            cfg.bands.iter().map(|b| b.proteins * b.compounds_per_protein).collect();
        let cum: Vec<usize> = counts
            .iter()
            .scan(0, |acc, &c| {
                *acc += c;
                Some(*acc)
            })
            .collect();
        assert_eq!(cum[0], 56, "Table 2 rows 0.99–0.90");
        assert_eq!(cum[1], 57, "Table 2 rows 0.80–0.50");
        assert_eq!(cum[2], 121, "Table 2 row 0.40");
        assert_eq!(cum[3], 1129, "Table 2 row 0.20");
    }

    #[test]
    fn build_writes_expected_counts() {
        let cfg = NcnprConfig {
            bands: vec![Band {
                mutation_rate: 0.0,
                similarity_range: None,
                proteins: 2,
                compounds_per_protein: 3,
            }],
            background_proteins: 5,
            ..NcnprConfig::default()
        };
        let ds = Datastore::new(4);
        let out = build(&ds, &cfg);
        assert_eq!(out.proteins, 1 + 2 + 5);
        assert_eq!(out.compounds, 6);
        assert_eq!(ds.triple_count(), out.triples);
        // reviewed: target + band proteins.
        let reviewed = ds
            .dictionary()
            .lookup(&Term::iri("up:reviewed"))
            .map(|p| {
                let one = ds.dictionary().lookup(&Term::Int(1)).unwrap();
                ds.count_all(&ids_graph::TriplePattern::new(None, Some(p), Some(one)))
            })
            .unwrap();
        assert_eq!(reviewed, 3);
    }

    #[test]
    fn bands_land_in_distinct_similarity_ranges() {
        // Sample each default band directly and verify the rejection
        // sampler pins similarities inside the configured ranges.
        let cfg = NcnprConfig::default();
        let sw = SmithWaterman::default_model();
        let mut rng = SplitMix64::new(99, 42);
        let target = ProteinSequence::random(cfg.sequence_len, &mut rng);
        for band in &cfg.bands {
            // Sample a handful per band (the low band has 144; 5 suffices).
            for _ in 0..5.min(band.proteins) {
                let member = super::sample_band_member(&sw, &target, band, &mut rng);
                let sim = sw.align(&target, &member).similarity;
                match band.similarity_range {
                    Some((lo, hi)) => {
                        assert!((lo..=hi).contains(&sim), "sim {sim} outside [{lo}, {hi}]")
                    }
                    None => assert!(sim > 0.95, "tight band sim {sim}"),
                }
            }
        }
    }

    #[test]
    fn table2_threshold_sweep_counts_are_exact() {
        // The actual Table 2 guarantee: counting compounds whose protein's
        // similarity clears each threshold reproduces 56/57/121/1129.
        let cfg = NcnprConfig::default();
        let ds = Datastore::new(4);
        let out = build(&ds, &cfg);
        // The target's striped profile once; each distinct protein aligned
        // once against it (the striped kernel returns the scalar score).
        let target = SmithWaterman::default_model().prepare(&out.target.sequence);
        // Walk the graph: compound --inhibits--> protein --sequence--> seq.
        let dict = ds.dictionary();
        let inhibits = dict.lookup(&Term::iri("chembl:inhibits")).unwrap();
        let sequence = dict.lookup(&Term::iri("up:sequence")).unwrap();
        let mut counts = std::collections::HashMap::new();
        let mut similarity = std::collections::HashMap::new();
        let all_inhibits: Vec<_> = (0..ds.num_shards())
            .flat_map(|s| {
                ds.scan_shard(s, &ids_graph::TriplePattern::new(None, Some(inhibits), None))
            })
            .collect();
        for tr in &all_inhibits {
            let sim = *similarity.entry(tr.o).or_insert_with(|| {
                let seq_triples: Vec<_> = (0..ds.num_shards())
                    .flat_map(|s| {
                        ds.scan_shard(
                            s,
                            &ids_graph::TriplePattern::new(Some(tr.o), Some(sequence), None),
                        )
                    })
                    .collect();
                let seq_term = dict.decode(seq_triples[0].o).unwrap();
                let seq = ProteinSequence::parse(seq_term.as_str().unwrap()).unwrap();
                target.align(&seq).similarity
            });
            for &t in &[0.99, 0.90, 0.80, 0.50, 0.40, 0.20] {
                if sim >= t {
                    *counts.entry((t * 100.0) as u32).or_insert(0usize) += 1;
                }
            }
        }
        assert_eq!(similarity.len(), 169, "distinct proteins aligned");
        assert_eq!(counts.get(&99).copied().unwrap_or(0), 56);
        assert_eq!(counts.get(&90).copied().unwrap_or(0), 56);
        assert_eq!(counts.get(&80).copied().unwrap_or(0), 57);
        assert_eq!(counts.get(&50).copied().unwrap_or(0), 57);
        assert_eq!(counts.get(&40).copied().unwrap_or(0), 121);
        assert_eq!(counts.get(&20).copied().unwrap_or(0), 1129);
    }

    #[test]
    fn build_is_deterministic() {
        let ds1 = Datastore::new(2);
        let ds2 = Datastore::new(2);
        let a = build(&ds1, &NcnprConfig::default());
        let b = build(&ds2, &NcnprConfig::default());
        assert_eq!(a.triples, b.triples);
        assert_eq!(a.target.sequence, b.target.sequence);
        assert_eq!(ds1.triple_count(), ds2.triple_count());
    }
}
