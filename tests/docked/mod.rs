//! What the NCNPR suites compare across runs of the re-purposing query.

use ids::core::{IdsInstance, QueryOutcome};

/// The (SMILES, docking energy) pairs of a re-purposing result: decoded,
/// since APPLY mints the energies as new term ids in each instance, and
/// sorted, since re-balancing may place rows on other ranks.
pub fn extract(o: &QueryOutcome, inst: &IdsInstance) -> Vec<(String, String)> {
    let ds = inst.datastore();
    let mut v: Vec<(String, String)> = o
        .solutions
        .rows()
        .iter()
        .map(|r| {
            (
                ds.decode(r[1]).unwrap().to_string(),
                format!("{:.12}", ds.decode(r[2]).unwrap().as_f64().unwrap()),
            )
        })
        .collect();
    v.sort();
    v
}
