//! Label-corruption chaos tests: the decoder is a wire-format consumer
//! and must never panic, never loop, and never *underestimate* a
//! forbidden-set distance, no matter what happens to the bytes in
//! flight.
//!
//! Three layers of attack, all deterministic (seeds printed on
//! failure):
//!
//! 1. exhaustive structural mutations (every single-bit flip, every
//!    truncation length, trailing garbage) on real labels;
//! 2. scheduled mixed sweeps (`corrupt::corruption_sweep`) with splices
//!    and varint-boundary hits, checked against BFS ground truth;
//! 3. pure byte-noise fuzzing of the decoder.
//!
//! Every attack goes through `codec::decode`, the one decoder of
//! self-contained labels — what a reader of `label-fetch` bytes runs.
//! Stores, shards and the router do not decode such labels: they derive
//! them from level blocks and points records, whose corruptions
//! `store_chaos.rs`, `shard_router.rs` and the `edge_sets` unit tests
//! sweep.

use fsdl_graph::{bfs, generators, FaultSet, Graph, NodeId};
use fsdl_labels::codec;
use fsdl_labels::{corrupt, query, ForbiddenSetOracle, QueryLabels};
use fsdl_testkit::Rng;

/// Asserts the decode-or-sound contract for one mutated bit string,
/// using `(s, t)` as the query pair: a mutant the decoder accepts is a
/// label that passes `Label::validate` — the serving paths no longer
/// re-check it — and answers soundly. Returns `true` when the mutant
/// decoded.
fn assert_decode_or_sound(
    oracle: &ForbiddenSetOracle,
    bytes: &[u8],
    bits: usize,
    s: NodeId,
    t: NodeId,
    context: &str,
) -> bool {
    let g = oracle.labeling().graph();
    let n = g.num_vertices();
    match codec::decode(bytes, bits, n) {
        Err(_) => false,
        Ok(decoded) => {
            assert_eq!(
                decoded.validate(),
                Ok(()),
                "{context}: decoded an invalid label"
            );
            let fprime = decoded.owner;
            let ls = oracle.label(s);
            let lt = oracle.label(t);
            let faults = QueryLabels {
                fault_vertices: vec![&decoded],
                fault_edges: vec![],
            };
            let answer = query(oracle.params(), &ls, &lt, &faults);
            let truth = bfs::pair_distance_avoiding(g, s, t, &FaultSet::from_vertices([fprime]));
            if let (Some(a), Some(td)) = (answer.distance.finite(), truth.finite()) {
                assert!(
                    a >= td || s == fprime || t == fprime,
                    "{context}: decoded owner {fprime}, answer {a} underestimates truth {td}"
                );
            }
            true
        }
    }
}

/// Every single-bit flip of every vertex label on a grid: each must be
/// rejected (checksum) or remain sound. This is the exhaustive version
/// of corruption class (1).
#[test]
fn exhaustive_bit_flips_grid() {
    let g = generators::grid2d(5, 5);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    let (s, t) = (NodeId::new(0), NodeId::new(24));
    let mut decoded_ok = 0usize;
    for v in 0..n {
        let enc = codec::encode(&oracle.label(NodeId::from_index(v)), n);
        let bits = enc.len_bits();
        for flip in 0..bits {
            let mut bytes = enc.as_bytes().to_vec();
            bytes[flip / 8] ^= 1 << (flip % 8);
            if assert_decode_or_sound(
                &oracle,
                &bytes,
                bits,
                s,
                t,
                &format!("label {v} bit {flip}"),
            ) {
                decoded_ok += 1;
            }
        }
    }
    // A 32-bit checksum admits a ~2^-32 collision per flip; across a few
    // thousand flips, every one should be rejected.
    assert_eq!(decoded_ok, 0, "single-bit flips must never survive");
}

/// Every truncation length of several labels: never a panic, never an
/// accepted prefix (length is mixed into the checksum).
#[test]
fn exhaustive_truncations_cycle() {
    let g = generators::cycle(32);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    for v in [0u32, 7, 19] {
        let enc = codec::encode(&oracle.label(NodeId::new(v)), n);
        for keep in 0..enc.len_bits() {
            let (bytes, bits) =
                corrupt::Mutation::Truncate(keep).apply(enc.as_bytes(), enc.len_bits(), None);
            assert!(
                codec::decode(&bytes, bits, n).is_err(),
                "label {v}: truncation to {keep} bits decoded"
            );
        }
    }
}

/// Trailing garbage after a valid label must be rejected, bit by bit.
#[test]
fn trailing_garbage_rejected() {
    let g = generators::grid2d(4, 4);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    let enc = codec::encode(&oracle.label(NodeId::new(5)), n);
    for extra in 1..80usize {
        let m = corrupt::Mutation::Extend {
            extra_bits: extra,
            seed: extra as u64,
        };
        let (bytes, bits) = m.apply(enc.as_bytes(), enc.len_bits(), None);
        assert!(
            codec::decode(&bytes, bits, n).is_err(),
            "{extra} trailing bits decoded"
        );
    }
}

/// Splices between two valid label encodings at varint-group stride.
/// Only the degenerate whole-donor splice can survive the checksum, and
/// when it does the answer must stay sound.
#[test]
fn splice_matrix_stays_sound() {
    let g = generators::grid2d(5, 5);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    let (s, t) = (NodeId::new(2), NodeId::new(22));
    let victim = codec::encode(&oracle.label(NodeId::new(12)), n);
    let donor = codec::encode(&oracle.label(NodeId::new(17)), n);
    let mut survivors = 0usize;
    for prefix in (0..victim.len_bits()).step_by(5) {
        for skip in (0..donor.len_bits()).step_by(35) {
            let m = corrupt::Mutation::Splice {
                prefix_bits: prefix,
                donor_skip: skip,
            };
            let (bytes, bits) = m.apply(
                victim.as_bytes(),
                victim.len_bits(),
                Some((donor.as_bytes(), donor.len_bits())),
            );
            if assert_decode_or_sound(
                &oracle,
                &bytes,
                bits,
                s,
                t,
                &format!("splice prefix={prefix} skip={skip}"),
            ) {
                survivors += 1;
            }
        }
    }
    // The (0, 0) splice is exactly the donor label and must decode.
    assert!(survivors >= 1, "whole-donor splice should decode");
}

/// Scheduled mixed sweeps on additional families beyond the family
/// matrix, with randomized query pairs.
#[test]
fn scheduled_sweeps_random_pairs() {
    let cases: &[(Graph, f64)] = &[
        (generators::king_grid(5, 5), 1.0),
        (generators::balanced_tree(3, 3), 1.0),
        (generators::random_geometric(60, 0.2, 9), 1.0),
    ];
    for (gi, (g, eps)) in cases.iter().enumerate() {
        let oracle = ForbiddenSetOracle::new(g, *eps);
        let n = g.num_vertices();
        fsdl_testkit::check(&format!("scheduled_sweep_{gi}"), 4, |rng| {
            let s = NodeId::from_index(rng.gen_range(0..n));
            let t = NodeId::from_index(rng.gen_range(0..n));
            let fault = NodeId::from_index(rng.gen_range(0..n));
            let donor = NodeId::from_index(rng.gen_range(0..n));
            let seed = rng.next_u64();
            let stats = corrupt::corruption_sweep(&oracle, s, t, fault, donor, 250, seed);
            assert_eq!(stats.attempted, stats.rejected + stats.decoded_sound);
        });
    }
}

/// Pure byte-noise fuzzing: `decode` on arbitrary bytes with arbitrary
/// declared lengths must return (never panic, never hang).
#[test]
fn random_bytes_never_panic() {
    fsdl_testkit::check("random_bytes_never_panic", 2000, |rng| {
        let len = rng.gen_range(0..200usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        // Declared bit length may exceed the buffer (decoder must reject,
        // not panic) or undershoot it.
        let bits = rng.gen_range(0..=len * 8 + 64);
        let n = rng.gen_range(1..2000usize);
        if let Ok(label) = codec::decode(&bytes, bits, n) {
            assert_eq!(label.validate(), Ok(()));
        }
    });
}

/// Soak-mode chaos: a larger scheduled sweep, `#[ignore]`d by default;
/// the CI soak job runs it with `FSDL_TESTKIT_SOAK` scaling.
#[test]
#[ignore = "soak test; run with --ignored"]
fn soak_corruption_sweep() {
    let g = generators::grid2d(8, 8);
    let oracle = ForbiddenSetOracle::new(&g, 1.0);
    let n = g.num_vertices();
    let rounds = 20 * fsdl_testkit::soak_multiplier();
    let mut rng = Rng::seed_from_u64(0x50A4_C0DE);
    for round in 0..rounds {
        let s = NodeId::from_index(rng.gen_range(0..n));
        let t = NodeId::from_index(rng.gen_range(0..n));
        let fault = NodeId::from_index(rng.gen_range(0..n));
        let donor = NodeId::from_index(rng.gen_range(0..n));
        let seed = rng.next_u64();
        let stats = corrupt::corruption_sweep(&oracle, s, t, fault, donor, 1000, seed);
        assert_eq!(
            stats.attempted,
            stats.rejected + stats.decoded_sound,
            "round {round} seed {seed:#x}"
        );
    }
}
