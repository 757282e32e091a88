//! Empirical doubling-dimension estimation.
//!
//! The doubling dimension of `G` is the smallest `α` such that every ball
//! `B(v, 2r)` can be covered by `2^α` balls of radius `r`. Computing it
//! exactly is intractable, but a greedy `r`-net of `B(v, 2r)` is a valid
//! cover whose size upper-bounds the minimum cover within a constant factor
//! in doubling metrics. The estimator samples `(v, r)` pairs, computes the
//! greedy cover size `k`, and reports `max ⌈log₂ k⌉`.
//!
//! The evaluation harness uses this to *verify* that each synthetic workload
//! really has the doubling dimension its generator advertises before
//! attributing measured label sizes to `α`.

use crate::rng::Rng;

use crate::bfs::{self, BfsScratch};
use crate::csr::Graph;
use crate::ids::NodeId;

/// Configuration for [`estimate_dimension`].
#[derive(Clone, Copy, Debug)]
pub struct DoublingConfig {
    /// Number of sampled ball centers per radius scale.
    pub centers_per_scale: usize,
    /// RNG seed for center sampling.
    pub seed: u64,
}

impl Default for DoublingConfig {
    fn default() -> Self {
        DoublingConfig {
            centers_per_scale: 12,
            seed: 0x5eed,
        }
    }
}

/// Result of a doubling-dimension estimation run.
#[derive(Clone, Debug, PartialEq)]
pub struct DoublingEstimate {
    /// `max ⌈log₂(cover size)⌉` over all sampled `(v, r)` — the estimated
    /// doubling dimension (an upper-bound-flavoured estimate).
    pub alpha: u32,
    /// The largest greedy cover size observed.
    pub worst_cover: usize,
    /// The `(center, radius)` achieving `worst_cover`.
    pub worst_case: (NodeId, u32),
    /// Number of `(v, r)` samples evaluated.
    pub samples: usize,
}

/// Greedily covers `B(center, 2r)` by balls of radius `r` and returns the
/// number of balls used.
///
/// The cover centers are chosen farthest-first inside the ball, which is the
/// standard greedy net construction: its size is at most the `r/2`-packing
/// number of `B(center, 2r)`, hence at most `2^{2α}` in a doubling-`α` graph
/// — a constant-factor (in the exponent) overestimate, which is fine for
/// distinguishing dimension 1 from 2 from 4 from `log n`.
///
/// # Panics
///
/// Panics if `center` is out of range or `r == 0`.
pub fn greedy_cover_size(g: &Graph, center: NodeId, r: u32, scratch: &mut BfsScratch) -> usize {
    assert!(r > 0, "radius must be positive");
    let members = bfs::ball(g, center, 2 * r, scratch);
    // Greedy: repeatedly pick an uncovered vertex (farthest-first by using
    // the BFS order from the center, reversed, which prefers the boundary),
    // and cover everything within distance r of it *in G* (not just within
    // the ball; a cover ball may leak outside, which only helps).
    let mut covered: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    let mut cover_count = 0usize;
    // farthest-first order
    let order: Vec<NodeId> = members.iter().rev().map(|m| m.vertex).collect();
    let mut inner_scratch = BfsScratch::new(g.num_vertices());
    for v in order {
        if covered.contains(&v) {
            continue;
        }
        cover_count += 1;
        for m in bfs::ball(g, v, r, &mut inner_scratch) {
            covered.insert(m.vertex);
        }
    }
    cover_count
}

/// Estimates the doubling dimension of `g` by sampling.
///
/// Radii sweep powers of two from 1 up to half the eccentricity of a sampled
/// vertex. Returns `alpha = 0` for graphs with fewer than 2 vertices.
///
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// use fsdl_graph::doubling::{estimate_dimension, DoublingConfig};
///
/// let g = generators::grid2d(16, 16);
/// let est = estimate_dimension(&g, &DoublingConfig::default());
/// assert!(est.alpha <= 4); // a mesh is ~2-dimensional
/// ```
pub fn estimate_dimension(g: &Graph, config: &DoublingConfig) -> DoublingEstimate {
    let n = g.num_vertices();
    if n < 2 {
        return DoublingEstimate {
            alpha: 0,
            worst_cover: 1,
            worst_case: (NodeId::new(0), 1),
            samples: 0,
        };
    }
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut scratch = BfsScratch::new(n);
    let ecc = bfs::eccentricity(g, NodeId::new(0)).unwrap_or(0).max(1);
    let mut worst_cover = 1usize;
    let mut worst_case = (NodeId::new(0), 1u32);
    let mut samples = 0usize;
    let mut r = 1u32;
    while r <= ecc {
        for _ in 0..config.centers_per_scale {
            let v = NodeId::from_index(rng.gen_range(0..n));
            let k = greedy_cover_size(g, v, r, &mut scratch);
            samples += 1;
            if k > worst_cover {
                worst_cover = k;
                worst_case = (v, r);
            }
        }
        r = r.saturating_mul(2);
    }
    let alpha = (usize::BITS - worst_cover.leading_zeros())
        .saturating_sub(u32::from(worst_cover.is_power_of_two()));
    DoublingEstimate {
        alpha,
        worst_cover,
        worst_case,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn estimate(g: &Graph) -> u32 {
        estimate_dimension(g, &DoublingConfig::default()).alpha
    }

    #[test]
    fn path_has_low_dimension() {
        let g = generators::path(256);
        let a = estimate(&g);
        assert!(a <= 2, "path estimated alpha {a}");
    }

    #[test]
    fn grid_has_moderate_dimension() {
        let g = generators::grid2d(20, 20);
        let a = estimate(&g);
        assert!((1..=4).contains(&a), "grid estimated alpha {a}");
    }

    #[test]
    fn star_dimension_grows() {
        // A big star is not doubling-bounded: B(center, 2) needs ~n balls of
        // radius 1.
        let small = estimate(&generators::star(16));
        let large = estimate(&generators::star(256));
        assert!(large > small, "star alpha should grow: {small} -> {large}");
        assert!(large >= 6);
    }

    #[test]
    fn king_grid_at_most_grid_like() {
        let g = generators::king_grid(16, 16);
        let a = estimate(&g);
        assert!(a <= 4, "king grid estimated alpha {a}");
    }

    #[test]
    fn tiny_graphs() {
        let g = crate::GraphBuilder::new(1).build();
        assert_eq!(estimate(&g), 0);
        let g = crate::GraphBuilder::new(0).build();
        assert_eq!(estimate(&g), 0);
    }

    #[test]
    fn greedy_cover_single_ball_when_radius_large() {
        let g = generators::path(10);
        let mut scratch = BfsScratch::new(10);
        // Radius 9 covers the whole path from anywhere: one ball suffices...
        // greedy picks the first uncovered vertex and covers B(x, 9) ⊇ P_10?
        // Only if x reaches everything within 9 hops, which holds for any x.
        let k = greedy_cover_size(&g, NodeId::new(5), 9, &mut scratch);
        assert_eq!(k, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::random_geometric(300, 0.09, 3);
        let c = DoublingConfig::default();
        assert_eq!(estimate_dimension(&g, &c), estimate_dimension(&g, &c));
    }
}
