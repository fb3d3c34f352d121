//! Golden: the BGP data plane (scan binding, rank-local hash join,
//! repartition, result gather) is free to change how it moves ids, never
//! what comes out — not a row, not its position, not a virtual second.
//! Column widths feed `byte_size()`, which feeds the exchange and gather
//! charges, so a kernel that builds a wider or narrower column than the
//! row-at-a-time loops did would show here as a moved `join_secs` or
//! `gather_secs` bit.
//!
//! The perf plane's `bgp-join` query and an ORDER BY / DISTINCT / LIMIT
//! variant run on a small NCNPR dataset over 2 × 4 ranks, barriered and
//! pipelined, twice each on one warm instance. The rows and digests were
//! captured on the commit before the kernels were rewritten. The timing
//! bits were re-captured when the store and the exchange took one
//! placement function and joins stopped moving sides already placed on
//! their key: that moves per-rank row counts, not rows. They were
//! captured again, on the commit before the batch size became a
//! constant, at the default 1 024-row batches this file had overridden
//! with 8.

use ids::core::{IdsConfig, IdsInstance, QueryOutcome};
use ids::simrt::rng::{fnv1a, hash_combine};
use ids::simrt::Topology;
use ids::workloads::ncnpr::{build, Band, NcnprConfig};

const SEED: u64 = 7;

const JOIN: &str = "SELECT ?compound ?smiles ?protein ?seq\n\
     WHERE {\n\
       ?protein  <rdf:type>        <up:Protein> .\n\
       ?protein  <up:sequence>     ?seq .\n\
       ?compound <chembl:inhibits> ?protein .\n\
       ?compound <chembl:smiles>   ?smiles .\n\
     }\n";

/// Several compounds inhibit one protein, so `?seq` repeats as a sort key
/// and `(?protein, ?seq)` repeats as a projected row.
const SHAPED: &str = "SELECT DISTINCT ?protein ?seq\n\
     WHERE {\n\
       ?protein  <rdf:type>        <up:Protein> .\n\
       ?protein  <up:sequence>     ?seq .\n\
       ?compound <chembl:inhibits> ?protein .\n\
       ?compound <chembl:smiles>   ?smiles .\n\
     }\n\
     ORDER BY DESC(?seq)\n\
     LIMIT 9\n";

fn launch(pipelined: bool) -> IdsInstance {
    let topo = Topology::new(2, 4);
    let mut cfg = IdsConfig::cray_ex(topo.nodes(), SEED);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.exec_options_mut().pipelined = pipelined;

    let mut ncfg = NcnprConfig::default();
    ncfg.bands.truncate(2);
    ncfg.bands.push(Band {
        mutation_rate: 0.62,
        similarity_range: None,
        proteins: 40,
        compounds_per_protein: 5,
    });
    ncfg.background_proteins = 8;
    ncfg.sequence_len = 96;
    ncfg.seed = SEED ^ 0x29274;
    build(inst.datastore(), &ncfg);
    inst
}

/// Order-sensitive digest over the decoded result rows.
fn ordered_digest(inst: &IdsInstance, out: &QueryOutcome) -> u64 {
    let ds = inst.datastore();
    let mut h = out.solutions.len() as u64;
    for row in out.solutions.rows() {
        for id in row {
            let bytes = ds.decode(*id).map(|t| t.to_bytes()).unwrap_or_default();
            h = hash_combine(h, fnv1a(&bytes));
        }
        h = hash_combine(h, 0xff);
    }
    h
}

/// Everything a run reports: row count, ordered row digest, virtual
/// latency bits and every `StageBreakdown` field's bits (`apply_secs` has
/// no entries on a UDF-free query; its length is pinned).
fn fingerprint(inst: &IdsInstance, out: &QueryOutcome) -> [u64; 9] {
    let b = &out.breakdown;
    [
        out.solutions.len() as u64,
        ordered_digest(inst, out),
        out.elapsed_secs.to_bits(),
        b.scan_secs.to_bits(),
        b.join_secs.to_bits(),
        b.rebalance_secs.to_bits(),
        b.filter_secs.to_bits(),
        b.gather_secs.to_bits(),
        b.apply_secs.len() as u64,
    ]
}

fn two_runs(pipelined: bool, text: &str) -> [[u64; 9]; 2] {
    let mut inst = launch(pipelined);
    let first = inst.query(text).expect("query runs");
    let first = fingerprint(&inst, &first);
    let second = inst.query(text).expect("repeat runs");
    [first, fingerprint(&inst, &second)]
}

fn check(label: &str, got: [[u64; 9]; 2], rows: u64, digest: u64, timing: [[u64; 6]; 2]) {
    for (run, (got, t)) in got.iter().zip(timing).enumerate() {
        let want = [rows, digest, t[0], t[1], t[2], t[3], t[4], t[5], 0];
        assert_eq!(
            *got, want,
            "{label} run {run}: [rows, digest, elapsed, scan, join, rebalance, filter, gather, applies]"
        );
    }
}

/// `[elapsed, scan, join, rebalance, filter, gather]` bits of the first
/// and the repeat run. Both queries share one plan up to the gather, whose
/// charge is the merged batches' wire size, so they share these too; the
/// repeat differs in the last bits because the cluster clock it is
/// subtracted from has advanced.
const BSP: [[u64; 6]; 2] = [
    // 0.000 118 740 20 virtual seconds.
    [
        0x3f1f_2085_1a56_797a,
        0x3f11_4521_c826_cac5,
        0x3f04_4aae_b2ac_fc50,
        0,
        0,
        0x3eed_b05f_c6c9_8468,
    ],
    [
        0x3f1f_2085_1a56_7982,
        0x3f11_4521_c826_cac8,
        0x3f04_4aae_b2ac_fc58,
        0,
        0,
        0x3eed_b05f_c6c9_8470,
    ],
];
const PIPELINED: [[u64; 6]; 2] = [
    [
        0x3f0f_cf7b_c547_992e,
        0x3f05_f24f_a728_ec93,
        0x3ed3_88a1_6362_5c04,
        0,
        0,
        0x3eed_b05f_c6c9_846c,
    ],
    [
        0x3f0f_cf7b_c547_992e,
        0x3f05_f24f_a728_ec92,
        0x3ed3_88a1_6362_5c10,
        0,
        0,
        0x3eed_b05f_c6c9_8468,
    ],
];

const JOIN_ROWS: u64 = 257;
const JOIN_DIGEST: u64 = 0x68be_7108_2a3c_50f0;
const SHAPED_ROWS: u64 = 9;
const SHAPED_DIGEST: u64 = 0x4817_4956_487d_385a;

#[test]
fn join_query_barriered() {
    check("join/bsp", two_runs(false, JOIN), JOIN_ROWS, JOIN_DIGEST, BSP);
}

#[test]
fn join_query_pipelined() {
    check("join/pipelined", two_runs(true, JOIN), JOIN_ROWS, JOIN_DIGEST, PIPELINED);
}

#[test]
fn shaped_query_barriered() {
    check("shaped/bsp", two_runs(false, SHAPED), SHAPED_ROWS, SHAPED_DIGEST, BSP);
}

#[test]
fn shaped_query_pipelined() {
    check("shaped/pipelined", two_runs(true, SHAPED), SHAPED_ROWS, SHAPED_DIGEST, PIPELINED);
}
