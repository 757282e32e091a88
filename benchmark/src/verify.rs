//! The checker: every recorded reply is judged against BFS on `G ∖ F`
//! and, on the static workloads, against the in-process oracle's answer
//! bit for bit. It runs after the timed window, never inside it.

use fsdl_baselines::ExactOracle;
use fsdl_graph::{FaultSet, Graph, NodeId};
use fsdl_labels::QueryAnswer;
use fsdl_server::QueryReply;

/// `u32::MAX` on the wire: `s` and `t` are not connected in `G ∖ F`.
pub const INFINITE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A typed error reply or a transport error: a failed request misses
    /// every bound.
    Error,
    /// `δ < d_{G∖F}`: the answer is not a distance of any surviving path.
    Under,
    /// `δ > (1+ε)·d_{G∖F}`: the stretch guarantee is broken.
    Over,
    /// `INFINITE` although `s` and `t` are connected.
    InfiniteOnConnected,
    /// A finite answer although they are not.
    FiniteOnDisconnected,
    /// Not bit-identical to the in-process oracle (distance, sketch
    /// size or witness path; see [`same_answer`]).
    Mismatch,
}

impl Failure {
    pub const ALL: [Failure; 6] = [
        Failure::Error,
        Failure::Under,
        Failure::Over,
        Failure::InfiniteOnConnected,
        Failure::FiniteOnDisconnected,
        Failure::Mismatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Failure::Error => "error reply",
            Failure::Under => "below true distance",
            Failure::Over => "above (1+eps) * true distance",
            Failure::InfiniteOnConnected => "infinite on a connected pair",
            Failure::FiniteOnDisconnected => "finite on a disconnected pair",
            Failure::Mismatch => "differs from the in-process oracle",
        }
    }
}

/// The wire form of an in-process answer — what a server would send.
pub fn reply_of(answer: &QueryAnswer) -> QueryReply {
    let sat = |x: usize| u32::try_from(x).unwrap_or(u32::MAX);
    QueryReply {
        distance: answer.distance.raw(),
        sketch_vertices: sat(answer.sketch_vertices),
        sketch_edges: sat(answer.sketch_edges),
        path: answer.path.iter().map(|v| v.raw()).collect(),
    }
}

/// Bit-identity of two answers to one op. With two or more faults the
/// interior of the witness path is left out: the decoder breaks ties
/// between equally short sketch paths by the order it is handed the fault
/// labels, and a `FaultSet` (a `HashSet` with per-instance random state)
/// iterates in a different order in the server, the router and here. The
/// distance, both sketch sizes and the path's ends must still agree.
fn same_answer(expected: &QueryReply, got: &QueryReply, faults: usize) -> bool {
    if faults < 2 {
        return expected == got;
    }
    (
        expected.distance,
        expected.sketch_vertices,
        expected.sketch_edges,
    ) == (got.distance, got.sketch_vertices, got.sketch_edges)
        && (expected.path.first(), expected.path.last()) == (got.path.first(), got.path.last())
}

pub struct Checker {
    exact: ExactOracle,
    epsilon: f64,
}

impl Checker {
    pub fn new(g: &Graph, epsilon: f64) -> Self {
        Checker {
            exact: ExactOracle::new(g),
            epsilon,
        }
    }

    /// Judges one reply. `reference` is the in-process oracle's answer
    /// to the same op when bit-identity is part of the contract. `Ok`
    /// carries the stretch `δ/d` of a finite answer.
    pub fn check(
        &self,
        s: u32,
        t: u32,
        faults: &FaultSet,
        reply: Result<&QueryReply, &str>,
        reference: Option<&QueryReply>,
    ) -> Result<Option<f64>, Failure> {
        let reply = reply.map_err(|_| Failure::Error)?;
        let truth = self.exact.distance(NodeId::new(s), NodeId::new(t), faults);
        let stretch = match (reply.distance, truth.finite()) {
            (INFINITE, None) => None,
            (INFINITE, Some(_)) => return Err(Failure::InfiniteOnConnected),
            (_, None) => return Err(Failure::FiniteOnDisconnected),
            (delta, Some(d)) if delta < d => return Err(Failure::Under),
            (delta, Some(d)) => {
                if f64::from(delta) > (1.0 + self.epsilon) * f64::from(d) + 1e-9 {
                    return Err(Failure::Over);
                }
                (d > 0).then(|| f64::from(delta) / f64::from(d))
            }
        };
        if reference.is_some_and(|expected| !same_answer(expected, reply, faults.len())) {
            return Err(Failure::Mismatch);
        }
        Ok(stretch)
    }
}

/// Attempts, failures by kind, and the worst stretch seen.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: [u64; Failure::ALL.len()],
    pub stretch_max: f64,
}

impl Tally {
    pub fn record(&mut self, verdict: Result<Option<f64>, Failure>) {
        self.attempted += 1;
        match verdict {
            Ok(Some(stretch)) => self.stretch_max = self.stretch_max.max(stretch),
            Ok(None) => {}
            Err(kind) => self.failures[kind as usize] += 1,
        }
    }

    /// Counts an op that failed outside the checker (a rejected update).
    pub fn record_error(&mut self) {
        self.record(Err(Failure::Error));
    }

    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    pub fn describe_failures(&self) -> String {
        Failure::ALL
            .iter()
            .filter(|&&kind| self.failures[kind as usize] > 0)
            .map(|&kind| format!("{} x {}", self.failures[kind as usize], kind.name()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_graph::generators;
    use fsdl_labels::ForbiddenSetOracle;

    /// A 6-cycle with vertex 1 forbidden: `d(0, 2) = 4` the long way.
    fn fixture() -> (Graph, FaultSet, QueryReply) {
        let g = generators::cycle(6);
        let faults = FaultSet::from_vertices([NodeId::new(1)]);
        let oracle = ForbiddenSetOracle::new(&g, 1.0);
        let honest = reply_of(&oracle.query(NodeId::new(0), NodeId::new(2), &faults));
        (g, faults, honest)
    }

    fn failed_with(tally: &Tally, kind: Failure) -> bool {
        tally.failed() == 1 && tally.failures[kind as usize] == 1
    }

    #[test]
    fn a_clean_replay_counts_zero() {
        let (g, faults, honest) = fixture();
        let checker = Checker::new(&g, 1.0);
        let mut tally = Tally::default();
        for _ in 0..3 {
            tally.record(checker.check(0, 2, &faults, Ok(&honest), Some(&honest)));
        }
        assert_eq!((tally.attempted, tally.failed()), (3, 0));
        assert!(tally.stretch_max >= 1.0 && tally.stretch_max <= 2.0);
        assert_eq!(tally.failed_ratio(), 0.0);
    }

    #[test]
    fn each_kind_of_wrong_reply_is_counted() {
        let (g, faults, honest) = fixture();
        let checker = Checker::new(&g, 1.0);
        let judge = |reply: Result<&QueryReply, &str>, reference: Option<&QueryReply>| {
            let mut tally = Tally::default();
            tally.record(checker.check(0, 2, &faults, reply, reference));
            tally
        };

        // delta - 1: shorter than any surviving path.
        let under = QueryReply {
            distance: 3,
            ..honest.clone()
        };
        assert!(failed_with(&judge(Ok(&under), None), Failure::Under));

        // Above (1 + eps) * d = 8.
        let over = QueryReply {
            distance: 9,
            ..honest.clone()
        };
        assert!(failed_with(&judge(Ok(&over), None), Failure::Over));
        let at_bound = QueryReply {
            distance: 8,
            ..honest.clone()
        };
        assert_eq!(
            judge(Ok(&at_bound), None).failed(),
            0,
            "the bound itself is allowed"
        );

        // INFINITE on a connected pair.
        let cut = QueryReply {
            distance: INFINITE,
            path: Vec::new(),
            ..honest.clone()
        };
        assert!(failed_with(
            &judge(Ok(&cut), None),
            Failure::InfiniteOnConnected
        ));

        // A finite answer on a disconnected pair: forbid 1 and 3, ask 0 -> 2.
        let split = FaultSet::from_vertices([NodeId::new(1), NodeId::new(3)]);
        let mut tally = Tally::default();
        tally.record(checker.check(0, 2, &split, Ok(&honest), None));
        assert!(failed_with(&tally, Failure::FiniteOnDisconnected));
        let mut tally = Tally::default();
        tally.record(checker.check(0, 2, &split, Ok(&cut), None));
        assert_eq!(tally.failed(), 0, "INFINITE is the right answer there");

        // Right distance, wrong witness path: only bit-identity catches it.
        let mut detour = honest.clone();
        detour.path.reverse();
        assert_eq!(judge(Ok(&detour), None).failed(), 0);
        assert!(failed_with(
            &judge(Ok(&detour), Some(&honest)),
            Failure::Mismatch
        ));

        // With two faults the tie between equal witness paths may fall
        // either way; a different sketch size is still a mismatch.
        let both = FaultSet::from_vertices([NodeId::new(1), NodeId::new(4)]);
        let direct = QueryReply {
            distance: 2,
            path: vec![0, 5, 2],
            ..honest.clone()
        };
        let other_tie = QueryReply {
            path: vec![0, 3, 2],
            ..direct.clone()
        };
        let other_sketch = QueryReply {
            sketch_edges: direct.sketch_edges + 1,
            ..direct.clone()
        };
        let mut tally = Tally::default();
        tally.record(checker.check(0, 5, &both, Ok(&other_tie), Some(&direct)));
        assert_eq!(tally.failed(), 0);
        tally.record(checker.check(0, 5, &both, Ok(&other_sketch), Some(&direct)));
        assert!(failed_with(&tally, Failure::Mismatch));

        // Typed or transport errors.
        assert!(failed_with(
            &judge(Err("unavailable"), Some(&honest)),
            Failure::Error
        ));
        let mut tally = Tally::default();
        tally.record_error();
        assert_eq!(tally.failed_ratio(), 1.0);
    }
}
