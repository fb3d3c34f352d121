//! What the NCNPR suites compare across runs of the re-purposing query.

use ids::core::{IdsInstance, QueryOutcome};

/// The (SMILES, docking energy) pairs of a re-purposing result: decoded,
/// since APPLY mints the energies as new term ids in each instance, and
/// sorted, since re-balancing may place rows on other ranks. An energy is
/// written to the bit (its shortest round-trip text): a cached docking
/// result that APPLY read back is its object's first eight bytes, so a
/// served copy with any of those bits flipped shows here.
pub fn extract(o: &QueryOutcome, inst: &IdsInstance) -> Vec<(String, String)> {
    let ds = inst.datastore();
    let mut v: Vec<(String, String)> = o
        .solutions
        .rows()
        .iter()
        .map(|r| {
            (
                ds.decode(r[1]).unwrap().to_string(),
                format!("{:?}", ds.decode(r[2]).unwrap().as_f64().unwrap()),
            )
        })
        .collect();
    v.sort();
    v
}
