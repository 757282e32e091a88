//! Structured query traces: the decoder's witness path with per-hop
//! provenance.
//!
//! The paper's Figures 1 and 2 depict how the Lemma 2.4 walk alternates
//! between low-level real edges near faults and high-level virtual hops in
//! the clear. [`trace_query`] packages that view as data: every hop of the
//! witness path annotated with the admitting level, kind, and weight — used
//! by the `exp_f1`/`exp_f2` reproductions and available to downstream
//! tooling (visualizers, debuggers).

use fsdl_graph::{Dist, Edge, NodeId};

use crate::decode::{build_sketch, QueryLabels};
use crate::label::Label;
use crate::params::SchemeParams;

/// One hop of a traced witness path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceHop {
    /// Hop source.
    pub from: NodeId,
    /// Hop target.
    pub to: NodeId,
    /// The label level that admitted the edge.
    pub level: u32,
    /// `true` for a lowest-level real edge of `G`.
    pub real: bool,
    /// The hop weight (`d_G(from, to)`).
    pub weight: u64,
}

/// A fully annotated query answer.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// The `(1+ε)`-approximate distance.
    pub distance: Dist,
    /// The witness path, hop by hop with provenance. Empty when
    /// unreachable or `s == t`.
    pub hops: Vec<TraceHop>,
    /// Size of the whole sketch graph `H` (vertices, deduplicated edges) —
    /// the quantity Lemma 2.6 bounds, not what the query's search touched.
    pub sketch_size: (usize, usize),
}

impl QueryTrace {
    /// The highest level used by a virtual hop (`None` if the path is all
    /// real edges or empty).
    pub fn max_virtual_level(&self) -> Option<u32> {
        self.hops.iter().filter(|h| !h.real).map(|h| h.level).max()
    }

    /// Length of the real-edge prefix (the Figure 2 walk out of the
    /// protected region).
    pub fn real_prefix_len(&self) -> usize {
        self.hops.iter().take_while(|h| h.real).count()
    }

    /// Sum of hop weights — equals `distance` when finite (asserted by
    /// tests).
    pub fn total_weight(&self) -> u64 {
        self.hops.iter().map(|h| h.weight).sum()
    }
}

/// Answers a query and annotates the witness path with per-hop provenance.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, NodeId};
/// use fsdl_labels::{trace_query, Labeling, QueryLabels, SchemeParams};
///
/// let g = generators::cycle(64);
/// let labeling = Labeling::build(&g, SchemeParams::new(1.0, 64));
/// let (ls, lt, lf) = (
///     labeling.label_of(NodeId::new(1)),
///     labeling.label_of(NodeId::new(32)),
///     labeling.label_of(NodeId::new(0)),
/// );
/// let faults = QueryLabels { fault_vertices: vec![&lf], fault_edges: vec![] };
/// let trace = trace_query(labeling.params(), &ls, &lt, &faults);
/// assert_eq!(trace.distance.finite(), Some(31));
/// assert!(trace.real_prefix_len() > 0); // starts next to the fault
/// ```
///
/// A trace is about the sketch graph `H` itself, so it materializes `H`
/// with [`build_sketch`] — which a trace can afford and a served query
/// cannot — and walks a shortest path there. The distance is the
/// decoder's; among equally short paths this one breaks ties the
/// reference's way (towards the vertex `H` met first), not by the
/// decoder's canonical rule, so its hops may differ from
/// [`crate::QueryAnswer::path`].
pub fn trace_query(
    params: &SchemeParams,
    source: &Label,
    target: &Label,
    faults: &QueryLabels<'_>,
) -> QueryTrace {
    let sketch = build_sketch(params, source, target, faults);
    let (s, t) = (source.owner, target.owner);
    let sketch_size = (sketch.graph.num_vertices(), sketch.graph.num_edges());
    let no_hops = |distance| QueryTrace {
        distance,
        hops: Vec::new(),
        sketch_size,
    };
    if sketch.forbidden.contains(&s) || sketch.forbidden.contains(&t) {
        return no_hops(Dist::INFINITE);
    }
    if s == t {
        return no_hops(Dist::ZERO);
    }
    let Some((d, path)) = sketch.graph.shortest_path(s, t) else {
        return no_hops(Dist::INFINITE);
    };
    let hops = path
        .windows(2)
        .map(|w| {
            let info = sketch
                .edge_info
                .get(&Edge::new(w[0], w[1]))
                .expect("every witness hop has provenance");
            TraceHop {
                from: w[0],
                to: w[1],
                level: info.level,
                real: info.real,
                weight: info.weight,
            }
        })
        .collect();
    QueryTrace {
        // A finite sketch distance that does not fit in `Dist` widens to
        // INFINITE (sound, matching `decode::query`); the hops are still
        // reported so the overflow is inspectable.
        distance: Dist::try_new(d).unwrap_or(Dist::INFINITE),
        hops,
        sketch_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Labeling;
    use fsdl_graph::generators;

    fn setup(n: usize) -> Labeling {
        let g = generators::cycle(n);
        Labeling::build(&g, SchemeParams::new(1.0, n))
    }

    #[test]
    fn trace_weights_sum_to_distance() {
        let labeling = setup(48);
        let ls = labeling.label_of(NodeId::new(2));
        let lt = labeling.label_of(NodeId::new(30));
        let lf = labeling.label_of(NodeId::new(10));
        let faults = QueryLabels {
            fault_vertices: vec![&lf],
            fault_edges: vec![],
        };
        let trace = trace_query(labeling.params(), &ls, &lt, &faults);
        let d = trace.distance.finite().expect("connected");
        assert_eq!(trace.total_weight(), u64::from(d));
        assert_eq!(trace.hops.first().map(|h| h.from), Some(NodeId::new(2)));
        assert_eq!(trace.hops.last().map(|h| h.to), Some(NodeId::new(30)));
        // Consecutive hops chain.
        for w in trace.hops.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
    }

    #[test]
    fn trace_unreachable_and_self() {
        let g = generators::path(8);
        let labeling = Labeling::build(&g, SchemeParams::new(1.0, 8));
        let ls = labeling.label_of(NodeId::new(0));
        let lt = labeling.label_of(NodeId::new(7));
        let lf = labeling.label_of(NodeId::new(4));
        let faults = QueryLabels {
            fault_vertices: vec![&lf],
            fault_edges: vec![],
        };
        let trace = trace_query(labeling.params(), &ls, &lt, &faults);
        assert!(trace.distance.is_infinite());
        assert!(trace.hops.is_empty());
        let self_trace = trace_query(labeling.params(), &ls, &ls, &faults);
        assert_eq!(self_trace.distance.finite(), Some(0));
        assert!(self_trace.hops.is_empty());
    }

    #[test]
    fn figure_shape_helpers() {
        // Long cycle, fault next to s: real prefix then virtual climbs.
        let labeling = setup(256);
        let ls = labeling.label_of(NodeId::new(1));
        let lt = labeling.label_of(NodeId::new(128));
        let lf = labeling.label_of(NodeId::new(0));
        let faults = QueryLabels {
            fault_vertices: vec![&lf],
            fault_edges: vec![],
        };
        let trace = trace_query(labeling.params(), &ls, &lt, &faults);
        assert!(
            trace.real_prefix_len() > 0,
            "must leave the protected ball on foot"
        );
        assert!(
            trace.max_virtual_level().is_some(),
            "far segment must use virtual hops"
        );
        assert!(trace.sketch_size.0 > 0 && trace.sketch_size.1 > 0);
    }

    #[test]
    fn trace_agrees_with_query() {
        let labeling = setup(40);
        let ls = labeling.label_of(NodeId::new(0));
        let lt = labeling.label_of(NodeId::new(17));
        let lf = labeling.label_of(NodeId::new(5));
        let faults = QueryLabels {
            fault_vertices: vec![&lf],
            fault_edges: vec![],
        };
        let trace = trace_query(labeling.params(), &ls, &lt, &faults);
        let plain = crate::decode::query(labeling.params(), &ls, &lt, &faults);
        assert_eq!(trace.distance, plain.distance);
        // Two shortest paths of one `H`: same ends, same length, possibly
        // different hops.
        assert_eq!(
            trace.hops.first().map(|h| h.from),
            plain.path.first().copied()
        );
        assert_eq!(trace.hops.last().map(|h| h.to), plain.path.last().copied());
    }
}
