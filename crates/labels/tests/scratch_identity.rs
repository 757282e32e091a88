//! Scratch-reuse identity properties: a long-lived [`DecodeScratch`] must
//! be invisible in the answers. Every decode that reuses a scratch —
//! across interleaved `|F|` sizes, across different oracles, and across
//! chaos-mutated fault labels — must return exactly the answer a fresh
//! scratch returns. "Exactly" means the full [`QueryAnswer`]: distance,
//! witness path, and sketch sizes, bit for bit.

use fsdl_graph::{generators, Graph, NodeId};
use fsdl_labels::{
    codec, corrupt, query, query_many_reference, query_many_with_scratch, query_with_scratch,
    DecodeScratch, ForbiddenSetOracle, Label, QueryLabels,
};
use fsdl_testkit::Rng;
use std::sync::Arc;

/// The interleaved forbidden-set sizes the tentpole cares about.
const FAULT_SIZES: [usize; 4] = [0, 1, 4, 16];

/// Draws `k` random fault-vertex labels (repeats allowed — the decoder
/// must dedupe providers the same way on both paths).
fn random_faults(
    oracle: &ForbiddenSetOracle,
    labels: &mut Vec<Arc<Label>>,
    n: usize,
    k: usize,
    rng: &mut Rng,
) {
    labels.clear();
    for _ in 0..k {
        let f = NodeId::from_index(rng.gen_range(0..n));
        labels.push(oracle.label(f));
    }
}

/// One long-lived scratch, three families, interleaved `|F| ∈ {0,1,4,16}`:
/// every reused-scratch answer equals the fresh-scratch answer.
#[test]
fn reused_scratch_matches_fresh_interleaved() {
    let cases: &[(Graph, f64)] = &[
        (generators::grid2d(6, 6), 1.0),
        (generators::cycle(40), 0.5),
        (generators::random_geometric(70, 0.2, 11), 1.0),
    ];
    let oracles: Vec<ForbiddenSetOracle> = cases
        .iter()
        .map(|(g, eps)| ForbiddenSetOracle::new(g, *eps))
        .collect();
    let mut scratch = DecodeScratch::new();
    let mut fault_labels = Vec::new();
    fsdl_testkit::check_seeded("reused_scratch_interleaved", 48, 0x5C4A_7C11, |rng| {
        let gi = rng.gen_range(0..oracles.len());
        let oracle = &oracles[gi];
        let n = cases[gi].0.num_vertices();
        let k = FAULT_SIZES[rng.gen_range(0..FAULT_SIZES.len())];
        random_faults(oracle, &mut fault_labels, n, k, rng);
        let faults = QueryLabels {
            fault_vertices: fault_labels.iter().map(|l| &**l).collect(),
            fault_edges: vec![],
        };
        let s = NodeId::from_index(rng.gen_range(0..n));
        let t = NodeId::from_index(rng.gen_range(0..n));
        let (ls, lt) = (oracle.label(s), oracle.label(t));
        let fresh = query(oracle.params(), &ls, &lt, &faults);
        let reused = query_with_scratch(oracle.params(), &ls, &lt, &faults, &mut scratch);
        assert_eq!(
            fresh, reused,
            "graph {gi} s={s} t={t} |F|={k}: reused scratch diverged"
        );
    });
    // Reuse actually happened: every case bumped the epoch at least once.
    assert!(scratch.epoch() >= 48, "scratch was not actually reused");
}

/// Chaos coverage: fault labels mutated by every `corrupt::Mutation`
/// class. Whenever the mutant decodes at all, the reused-scratch answer
/// must still be bit-identical to the fresh one — corrupted inputs must
/// not leave residue in the scratch either.
#[test]
fn reused_scratch_matches_fresh_on_mutated_labels() {
    let g = generators::grid2d(5, 5);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    let mut scratch = DecodeScratch::new();
    let mut decoded = 0usize;
    fsdl_testkit::check_seeded("reused_scratch_mutated", 64, 0xC0_44A7, |rng| {
        let victim = NodeId::from_index(rng.gen_range(0..n));
        let donor = NodeId::from_index(rng.gen_range(0..n));
        let enc = codec::encode(&oracle.label(victim), n);
        let donor_enc = codec::encode(&oracle.label(donor), n);
        let mut schedule = corrupt::mutation_schedule(enc.len_bits(), 0, 24, rng.next_u64());
        // The whole-donor splice is the one mutant guaranteed to pass the
        // checksum (it *is* the donor label), so the decoded branch below
        // is always exercised.
        schedule.push(corrupt::Mutation::Splice {
            prefix_bits: 0,
            donor_skip: 0,
        });
        for m in schedule {
            let (bytes, bits) = m.apply(
                enc.as_bytes(),
                enc.len_bits(),
                Some((donor_enc.as_bytes(), donor_enc.len_bits())),
            );
            let Ok(mutant) = codec::decode(&bytes, bits, n) else {
                continue;
            };
            decoded += 1;
            let faults = QueryLabels {
                fault_vertices: vec![&mutant],
                fault_edges: vec![],
            };
            let s = NodeId::from_index(rng.gen_range(0..n));
            let t = NodeId::from_index(rng.gen_range(0..n));
            let (ls, lt) = (oracle.label(s), oracle.label(t));
            let fresh = query(oracle.params(), &ls, &lt, &faults);
            let reused = query_with_scratch(oracle.params(), &ls, &lt, &faults, &mut scratch);
            assert_eq!(fresh, reused, "mutant fault label: reused scratch diverged");
        }
    });
    // The identity splice (and possibly others) must have decoded, or
    // this test silently checked nothing.
    assert!(decoded > 0, "no mutant ever decoded; schedule too weak");
}

/// Poisoned-scratch property: a scratch used against oracle A (different
/// graph, different parameters, different interned vertices) and then
/// handed to oracle B must behave exactly like a fresh scratch — nothing
/// from A's sketch, forbidden sets, or provider masks may leak into B's
/// answers, in either direction, at any interleaving.
#[test]
fn cross_oracle_scratch_never_leaks() {
    let ga = generators::grid2d(6, 6);
    let gb = generators::cycle(48);
    let a = ForbiddenSetOracle::new(&ga, 1.0);
    let b = ForbiddenSetOracle::new(&gb, 0.5);
    let mut scratch = DecodeScratch::new();
    let mut fault_labels = Vec::new();
    fsdl_testkit::check_seeded("cross_oracle_scratch", 40, 0xA_B0B, |rng| {
        let (oracle, n) = if rng.gen_bool(0.5) {
            (&a, ga.num_vertices())
        } else {
            (&b, gb.num_vertices())
        };
        let k = FAULT_SIZES[rng.gen_range(0..FAULT_SIZES.len())];
        random_faults(oracle, &mut fault_labels, n, k, rng);
        let faults = QueryLabels {
            fault_vertices: fault_labels.iter().map(|l| &**l).collect(),
            fault_edges: vec![],
        };
        let s = NodeId::from_index(rng.gen_range(0..n));
        let t = NodeId::from_index(rng.gen_range(0..n));
        let (ls, lt) = (oracle.label(s), oracle.label(t));
        let fresh = query(oracle.params(), &ls, &lt, &faults);
        let reused = query_with_scratch(oracle.params(), &ls, &lt, &faults, &mut scratch);
        assert_eq!(fresh, reused, "cross-oracle scratch leaked state");
    });
}

/// Batch path: `query_many_with_scratch` on a reused scratch, interleaved
/// with single-pair decodes on the *same* scratch, gives the distances of
/// the materializing reference `query_many_reference` — including duplicate targets
/// and targets that are themselves forbidden.
#[test]
fn batch_decode_interleaved_with_singles_matches() {
    let g = generators::grid2d(6, 6);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    let mut scratch = DecodeScratch::new();
    fsdl_testkit::check_seeded("batch_scratch_interleaved", 24, 0xBA7C4, |rng| {
        let s = NodeId::from_index(rng.gen_range(0..n));
        let ls = oracle.label(s);
        let fault = NodeId::from_index(rng.gen_range(0..n));
        let lf = oracle.label(fault);
        let faults = QueryLabels {
            fault_vertices: vec![&lf],
            fault_edges: vec![],
        };
        // Targets with a deliberate duplicate and the fault itself.
        let mut targets: Vec<Arc<Label>> = (0..5)
            .map(|_| oracle.label(NodeId::from_index(rng.gen_range(0..n))))
            .collect();
        let dup = targets[0].clone();
        targets.push(dup);
        targets.push(lf.clone());
        let refs: Vec<&Label> = targets.iter().map(|l| &**l).collect();
        let fresh = query_many_reference(oracle.params(), &ls, &refs, &faults);
        let reused = query_many_with_scratch(oracle.params(), &ls, &refs, &faults, &mut scratch);
        assert_eq!(fresh, reused, "batch answers diverged on reused scratch");
        // Now poison the same scratch with a single-pair decode and run
        // the batch again: still identical.
        let t = NodeId::from_index(rng.gen_range(0..n));
        let lt = oracle.label(t);
        let single_fresh = query(oracle.params(), &ls, &lt, &faults);
        let single_reused = query_with_scratch(oracle.params(), &ls, &lt, &faults, &mut scratch);
        assert_eq!(single_fresh, single_reused);
        let again = query_many_with_scratch(oracle.params(), &ls, &refs, &faults, &mut scratch);
        assert_eq!(fresh, again, "batch after single-pair decode diverged");
    });
}
