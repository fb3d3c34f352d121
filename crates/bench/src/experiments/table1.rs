//! Experiment T1 — regenerate **Table 1: Knowledge Graph Dataset
//! Characteristics**.
//!
//! Generates the seven synthetic sources at scale factor 2e-7 (≈ 20 K
//! triples total), ingests them into the
//! 3-in-1 datastore, and prints the regenerated table alongside the
//! paper's published numbers. The *ratios* (who dominates, bytes/triple
//! per source) are scale-invariant and must match the paper.

use crate::reporting::{section, table, Records};
use ids_core::Datastore;
use ids_workloads::sources::{generate_all, SourceKind};

/// The fraction of the paper's triples generated.
const SCALE: f64 = 2.0e-7;

pub fn run() {
    section(&format!("Table 1: Knowledge Graph Dataset Characteristics (scale = {SCALE:e})"));

    let ds = Datastore::new(64);
    let stats = generate_all(&ds, SCALE, 42);
    let mut rec = Records::new("table1");
    ds.build_indexes();

    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            rec.add(format_args!("{}.triples", s.kind.name()), s.triples);
            rec.add(format_args!("{}.raw_bytes", s.kind.name()), s.est_raw_bytes);
            vec![
                s.kind.name().to_string(),
                human_bytes(s.est_raw_bytes),
                format!("{}", s.triples),
                human_bytes(s.kind.paper_raw_bytes()),
                human_triples(s.kind.paper_triples()),
            ]
        })
        .collect();
    table(&["Dataset", "Raw Size (est)", "Triples (gen)", "Paper Raw", "Paper Triples"], &rows);

    let total_gen: u64 = stats.iter().map(|s| s.triples).sum();
    let total_paper: u64 = SourceKind::ALL.iter().map(|k| k.paper_triples()).sum();
    println!("\nGenerated triples: {total_gen} (datastore holds {})", ds.triple_count());
    println!("Paper total:       {total_paper} (>100 billion facts)");
    let uniprot_frac_gen = stats
        .iter()
        .find(|s| s.kind == SourceKind::UniProt)
        .map(|s| s.triples as f64 / total_gen as f64)
        .unwrap_or(0.0);
    let uniprot_frac_paper = SourceKind::UniProt.paper_triples() as f64 / total_paper as f64;
    println!(
        "UniProt share:     generated {:.1}% vs paper {:.1}% (shape check)",
        uniprot_frac_gen * 100.0,
        uniprot_frac_paper * 100.0
    );
    rec.add("uniprot_share", uniprot_frac_gen);
    rec.print();
}

fn human_bytes(b: u64) -> String {
    const TB: f64 = 1.0e12;
    const GB: f64 = 1.0e9;
    const MB: f64 = 1.0e6;
    const KB: f64 = 1.0e3;
    let b = b as f64;
    if b >= TB {
        format!("{:.1} TB", b / TB)
    } else if b >= GB {
        format!("{:.1} GB", b / GB)
    } else if b >= MB {
        format!("{:.1} MB", b / MB)
    } else {
        format!("{:.1} KB", b / KB)
    }
}

fn human_triples(t: u64) -> String {
    if t >= 1_000_000_000 {
        format!("{:.1} B", t as f64 / 1.0e9)
    } else {
        format!("{:.0} M", t as f64 / 1.0e6)
    }
}
