//! Table 1 source generators.
//!
//! Each generator emits triples with the source's characteristic schema
//! into a [`Datastore`], scaled by a factor relative to the paper's
//! published sizes. The per-triple raw-size estimate for each source is
//! derived from Table 1 itself (raw bytes ÷ triples), so the regenerated
//! table reproduces the paper's size ratios at any scale.

use ids_core::Datastore;
use ids_graph::Term;
use ids_simrt::rng::SplitMix64;

/// The seven Table 1 sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    UniProt,
    ChemblRdf,
    Bio2Rdf,
    OrthoDb,
    Biomodels,
    Biosamples,
    Reactome,
}

impl SourceKind {
    /// All sources in Table 1 order.
    pub const ALL: [SourceKind; 7] = [
        SourceKind::UniProt,
        SourceKind::ChemblRdf,
        SourceKind::Bio2Rdf,
        SourceKind::OrthoDb,
        SourceKind::Biomodels,
        SourceKind::Biosamples,
        SourceKind::Reactome,
    ];

    /// Display name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::UniProt => "UniProt",
            SourceKind::ChemblRdf => "ChEMBL-RDF",
            SourceKind::Bio2Rdf => "Bio2RDF",
            SourceKind::OrthoDb => "OrthoDB",
            SourceKind::Biomodels => "Biomodels",
            SourceKind::Biosamples => "Biosamples",
            SourceKind::Reactome => "Reactome",
        }
    }

    /// Paper-published triple count (Table 1).
    pub fn paper_triples(self) -> u64 {
        match self {
            SourceKind::UniProt => 87_600_000_000,
            SourceKind::ChemblRdf => 539_000_000,
            SourceKind::Bio2Rdf => 11_500_000_000,
            SourceKind::OrthoDb => 2_200_000_000,
            SourceKind::Biomodels => 28_000_000,
            SourceKind::Biosamples => 1_100_000_000,
            SourceKind::Reactome => 19_000_000,
        }
    }

    /// Paper-published raw on-disk size in bytes (Table 1).
    pub fn paper_raw_bytes(self) -> u64 {
        const TB: u64 = 1_000_000_000_000;
        const GB: u64 = 1_000_000_000;
        match self {
            SourceKind::UniProt => (12.7 * TB as f64) as u64,
            SourceKind::ChemblRdf => 81 * GB,
            SourceKind::Bio2Rdf => (2.4 * TB as f64) as u64,
            SourceKind::OrthoDb => 275 * GB,
            SourceKind::Biomodels => (5.2 * GB as f64) as u64,
            SourceKind::Biosamples => (112.8 * GB as f64) as u64,
            SourceKind::Reactome => (3.2 * GB as f64) as u64,
        }
    }

    /// Bytes-per-triple implied by Table 1 (raw size ÷ triples).
    pub fn bytes_per_triple(self) -> f64 {
        self.paper_raw_bytes() as f64 / self.paper_triples() as f64
    }

    /// Predicate namespace prefix for this source's triples.
    fn ns(self) -> &'static str {
        match self {
            SourceKind::UniProt => "up",
            SourceKind::ChemblRdf => "chembl",
            SourceKind::Bio2Rdf => "b2r",
            SourceKind::OrthoDb => "odb",
            SourceKind::Biomodels => "biomodel",
            SourceKind::Biosamples => "biosample",
            SourceKind::Reactome => "reactome",
        }
    }

    /// Triples emitted per entity by this source's schema.
    fn triples_per_entity(self) -> u64 {
        match self {
            SourceKind::UniProt => 5,   // type, accession, reviewed, sequence, organism
            SourceKind::ChemblRdf => 4, // type, smiles, assay, inhibits
            SourceKind::Bio2Rdf => 2,   // xref pairs
            SourceKind::OrthoDb => 3,   // group, member, species
            SourceKind::Biomodels => 3, // model, describes, species
            SourceKind::Biosamples => 3, // sample, of-organism, attribute
            SourceKind::Reactome => 3,  // pathway, has-participant, next
        }
    }
}

/// Stats returned by a generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceStats {
    pub kind: SourceKind,
    /// Triples actually generated.
    pub triples: u64,
    /// Estimated raw size of the generated slice (bytes), using the
    /// source's Table 1 bytes-per-triple.
    pub est_raw_bytes: u64,
    /// Entities generated.
    pub entities: u64,
}

/// Generate one source at `scale` (fraction of the paper's triple count)
/// into `ds`. Deterministic per (kind, seed).
pub fn generate_source(ds: &Datastore, kind: SourceKind, scale: f64, seed: u64) -> SourceStats {
    assert!(scale > 0.0, "scale must be positive");
    let target_triples = ((kind.paper_triples() as f64 * scale).round() as u64).max(1);
    let per_entity = kind.triples_per_entity();
    let entities = (target_triples / per_entity).max(1);
    let mut rng = SplitMix64::new(seed, kind as u64 + 0x50c0);
    let ns = kind.ns();

    let mut triples = 0u64;
    for e in 0..entities {
        let subject = Term::iri(format!("{ns}:{e}"));
        match kind {
            SourceKind::UniProt => {
                ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("up:Protein"));
                ds.add_fact(&subject, &Term::iri("up:accession"), &Term::str(format!("U{e:08}")));
                ds.add_fact(
                    &subject,
                    &Term::iri("up:reviewed"),
                    &Term::Int((rng.next_below(10) == 0) as i64),
                );
                let seq_len = 80 + rng.next_below(200);
                ds.add_fact(&subject, &Term::iri("up:seqLength"), &Term::Int(seq_len as i64));
                ds.add_fact(
                    &subject,
                    &Term::iri("up:organism"),
                    &Term::iri(format!("taxon:{}", rng.next_below(500))),
                );
            }
            SourceKind::ChemblRdf => {
                ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("chembl:Compound"));
                ds.add_fact(
                    &subject,
                    &Term::iri("chembl:mw"),
                    &Term::float(150.0 + rng.next_f64() * 400.0),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("chembl:assayCount"),
                    &Term::Int(rng.next_below(50) as i64),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("chembl:inhibits"),
                    &Term::iri(format!("up:{}", rng.next_below(entities))),
                );
            }
            SourceKind::Bio2Rdf => {
                ds.add_fact(
                    &subject,
                    &Term::iri("b2r:xref"),
                    &Term::iri(format!("up:{}", rng.next_below(entities))),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("b2r:source"),
                    &Term::iri(format!("db:{}", rng.next_below(30))),
                );
            }
            SourceKind::OrthoDb => {
                ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("odb:OrthologGroup"));
                ds.add_fact(
                    &subject,
                    &Term::iri("odb:member"),
                    &Term::iri(format!("up:{}", rng.next_below(entities))),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("odb:species"),
                    &Term::iri(format!("taxon:{}", rng.next_below(500))),
                );
            }
            SourceKind::Biomodels => {
                ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("biomodel:Model"));
                ds.add_fact(
                    &subject,
                    &Term::iri("biomodel:describes"),
                    &Term::iri(format!("up:{}", rng.next_below(entities))),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("biomodel:curated"),
                    &Term::Int((rng.next_below(2) == 0) as i64),
                );
            }
            SourceKind::Biosamples => {
                ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("biosample:Sample"));
                ds.add_fact(
                    &subject,
                    &Term::iri("biosample:organism"),
                    &Term::iri(format!("taxon:{}", rng.next_below(500))),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("biosample:attribute"),
                    &Term::str(format!("attr{}", rng.next_below(100))),
                );
            }
            SourceKind::Reactome => {
                ds.add_fact(&subject, &Term::iri("rdf:type"), &Term::iri("reactome:Pathway"));
                ds.add_fact(
                    &subject,
                    &Term::iri("reactome:participant"),
                    &Term::iri(format!("up:{}", rng.next_below(entities))),
                );
                ds.add_fact(
                    &subject,
                    &Term::iri("reactome:next"),
                    &Term::iri(format!("{ns}:{}", (e + 1) % entities)),
                );
            }
        }
        triples += per_entity;
    }

    SourceStats {
        kind,
        triples,
        est_raw_bytes: (triples as f64 * kind.bytes_per_triple()) as u64,
        entities,
    }
}

/// Generate all seven sources at `scale`; returns per-source stats in
/// Table 1 order. Remember to call [`Datastore::build_indexes`] afterwards.
pub fn generate_all(ds: &Datastore, scale: f64, seed: u64) -> Vec<SourceStats> {
    SourceKind::ALL.iter().map(|&k| generate_source(ds, k, scale, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_match_table1() {
        let total: u64 = SourceKind::ALL.iter().map(|k| k.paper_triples()).sum();
        // Table 1 sums to ≈ 103 B facts ("knowledge graph containing
        // >100 billion facts").
        assert!(total > 100_000_000_000, "total {total}");
        assert!(total < 110_000_000_000, "total {total}");
    }

    #[test]
    fn scaled_generation_preserves_ratios() {
        let ds = Datastore::new(4);
        let stats = generate_all(&ds, 2.0e-7, 1);
        ds.build_indexes();
        // UniProt dominates, as in the paper (87.6B of ~103B ≈ 85%).
        let total: u64 = stats.iter().map(|s| s.triples).sum();
        let uniprot = stats.iter().find(|s| s.kind == SourceKind::UniProt).unwrap();
        let frac = uniprot.triples as f64 / total as f64;
        assert!((0.8..0.9).contains(&frac), "uniprot fraction {frac}");
        assert_eq!(ds.triple_count() as u64, total);
    }

    #[test]
    fn raw_size_estimates_use_table1_density() {
        // UniProt: 12.7 TB / 87.6 B triples ≈ 145 bytes/triple.
        let bpt = SourceKind::UniProt.bytes_per_triple();
        assert!((140.0..150.0).contains(&bpt), "bytes/triple {bpt}");
        // ChEMBL: 81 GB / 539 M ≈ 150 bytes/triple.
        let bpt = SourceKind::ChemblRdf.bytes_per_triple();
        assert!((140.0..160.0).contains(&bpt), "bytes/triple {bpt}");
    }

    #[test]
    fn generation_is_deterministic() {
        let ds1 = Datastore::new(2);
        let ds2 = Datastore::new(2);
        let a = generate_source(&ds1, SourceKind::Reactome, 1.0e-6, 7);
        let b = generate_source(&ds2, SourceKind::Reactome, 1.0e-6, 7);
        assert_eq!(a, b);
        assert_eq!(ds1.triple_count(), ds2.triple_count());
    }

    #[test]
    fn tiny_scale_still_produces_something() {
        let ds = Datastore::new(2);
        let s = generate_source(&ds, SourceKind::Biomodels, 1.0e-12, 3);
        assert!(s.triples >= 1);
        assert!(s.entities >= 1);
    }
}
