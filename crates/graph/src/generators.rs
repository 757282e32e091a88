//! Graph family generators.
//!
//! Every evaluation workload in the repository is synthesized here. The
//! families cover the spectrum of doubling dimensions the paper cares about:
//! paths and trees (`α ≈ 1`), planar-like meshes and unit-disk graphs
//! (`α ≈ 2`), higher-dimensional grids `G_{p,d}` (`α ≈ d` under `ℓ∞`
//! adjacency — exactly the lower-bound family of Theorem 3.1), and
//! deliberately *non*-doubling graphs (hypercubes, Erdős–Rényi) used as
//! contrast cases.
//!
//! All randomized generators take an explicit seed and are fully
//! deterministic.

use crate::rng::Rng;

use crate::csr::{Graph, GraphBuilder};

/// The path `P_n`: vertices `0..n`, edges `(i, i+1)`.
///
/// Doubling dimension 1. `P_n = G_{n,1}` in the paper's lower-bound family.
///
/// # Panics
///
/// Panics if `n == 0`.
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// let g = generators::path(5);
/// assert_eq!((g.num_vertices(), g.num_edges()), (5, 4));
/// ```
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path needs at least one vertex");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as u32, i as u32).expect("valid edge");
    }
    b.build()
}

/// The cycle `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// let g = generators::cycle(6);
/// assert!(g.vertices().all(|v| g.degree(v) == 2));
/// ```
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three vertices");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i as u32, ((i + 1) % n) as u32)
            .expect("valid edge");
    }
    b.build()
}

/// The star `K_{1,n-1}`: vertex 0 joined to all others.
///
/// Not doubling-bounded as `n` grows (a radius-2 ball needs ~`n` radius-1
/// balls); used as a contrast case.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star needs at least one vertex");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(0, i as u32).expect("valid edge");
    }
    b.build()
}

/// The complete graph `K_n` (small `n` only; used in tests).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph needs at least one vertex");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i as u32, j as u32).expect("valid edge");
        }
    }
    b.build()
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 = single root).
///
/// # Panics
///
/// Panics if `arity == 0`.
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// let g = generators::balanced_tree(2, 3); // 1 + 2 + 4 + 8 vertices
/// assert_eq!(g.num_vertices(), 15);
/// ```
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity > 0, "arity must be positive");
    // Count vertices: 1 + arity + arity^2 + ... + arity^depth.
    let mut count: u64 = 1;
    let mut level: u64 = 1;
    for _ in 0..depth {
        level *= arity as u64;
        count += level;
    }
    let n = usize::try_from(count).expect("tree too large");
    let mut b = GraphBuilder::new(n);
    // Vertices are numbered in BFS order; children of v are
    // v*arity+1 ..= v*arity+arity while in range.
    for v in 0..n {
        for k in 1..=arity {
            let child = v * arity + k;
            if child < n {
                b.add_edge(v as u32, child as u32).expect("valid edge");
            }
        }
    }
    b.build()
}

/// A caterpillar: a spine path of `spine` vertices, each with `legs` pendant
/// leaves.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar needs a spine");
    let n = spine * (1 + legs);
    let mut b = GraphBuilder::new(n);
    for i in 1..spine {
        b.add_edge((i - 1) as u32, i as u32).expect("valid edge");
    }
    for i in 0..spine {
        for l in 0..legs {
            let leaf = spine + i * legs + l;
            b.add_edge(i as u32, leaf as u32).expect("valid edge");
        }
    }
    b.build()
}

/// A uniformly random labelled tree on `n` vertices (via a random Prüfer-like
/// attachment: vertex `i` attaches to a uniform earlier vertex).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "tree needs at least one vertex");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(parent as u32, i as u32).expect("valid edge");
    }
    b.build()
}

/// The `w × h` axis-aligned mesh (4-neighbor adjacency).
///
/// Doubling dimension ≈ 2.
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
/// # Examples
///
/// ```
/// use fsdl_graph::{generators, bfs, NodeId};
/// let g = generators::grid2d(4, 4);
/// // Manhattan distance across the diagonal.
/// let d = bfs::distances(&g, NodeId::new(0));
/// assert_eq!(d[15].finite(), Some(6));
/// ```
pub fn grid2d(w: usize, h: usize) -> Graph {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let n = w * h;
    let mut b = GraphBuilder::new(n);
    let at = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(at(x, y), at(x + 1, y)).expect("valid edge");
            }
            if y + 1 < h {
                b.add_edge(at(x, y), at(x, y + 1)).expect("valid edge");
            }
        }
    }
    b.build()
}

/// The `w × h` torus (4-neighbor adjacency with wraparound).
///
/// # Panics
///
/// Panics if `w < 3 || h < 3` (smaller tori create multi-edges).
pub fn torus2d(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus dimensions must be at least 3");
    let n = w * h;
    let mut b = GraphBuilder::new(n);
    let at = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            b.add_edge(at(x, y), at((x + 1) % w, y))
                .expect("valid edge");
            b.add_edge(at(x, y), at(x, (y + 1) % h))
                .expect("valid edge");
        }
    }
    b.build()
}

/// The `x × y × z` 3-D mesh (6-neighbor adjacency).
///
/// Doubling dimension ≈ 3.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn grid3d(x: usize, y: usize, z: usize) -> Graph {
    assert!(x > 0 && y > 0 && z > 0, "grid dimensions must be positive");
    let n = x * y * z;
    let mut b = GraphBuilder::new(n);
    let at = |i: usize, j: usize, k: usize| (k * x * y + j * x + i) as u32;
    for k in 0..z {
        for j in 0..y {
            for i in 0..x {
                if i + 1 < x {
                    b.add_edge(at(i, j, k), at(i + 1, j, k))
                        .expect("valid edge");
                }
                if j + 1 < y {
                    b.add_edge(at(i, j, k), at(i, j + 1, k))
                        .expect("valid edge");
                }
                if k + 1 < z {
                    b.add_edge(at(i, j, k), at(i, j, k + 1))
                        .expect("valid edge");
                }
            }
        }
    }
    b.build()
}

/// Enumerates the coordinates of vertex `v` in the `d`-dimensional `p`-ary
/// grid (row-major: coordinate 0 varies fastest).
pub fn grid_coords(v: usize, p: usize, d: usize) -> Vec<usize> {
    let mut coords = Vec::with_capacity(d);
    let mut rest = v;
    for _ in 0..d {
        coords.push(rest % p);
        rest /= p;
    }
    coords
}

/// Inverse of [`grid_coords`].
pub fn grid_index(coords: &[usize], p: usize) -> usize {
    coords.iter().rev().fold(0, |acc, &c| acc * p + c)
}

/// `G_{p,d}` from the paper's Section 3: the `d`-dimensional `p × ⋯ × p`
/// grid where `x` and `y` are adjacent iff `max_i |x_i − y_i| = 1`
/// (ℓ∞ / king-move adjacency).
///
/// Doubling dimension `≤ d`; minimum degree `2^d − 1`. This is one half of
/// the lower-bound family of Theorem 3.1.
///
/// # Panics
///
/// Panics if `p < 2 || d == 0`, or if `p^d` overflows `usize`.
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// let g = generators::grid_linf(3, 2); // 3x3 king graph
/// assert_eq!(g.num_vertices(), 9);
/// assert_eq!(g.degree(fsdl_graph::NodeId::new(4)), 8); // center
/// ```
pub fn grid_linf(p: usize, d: usize) -> Graph {
    linf_grid_with_filter(p, d, |_| true)
}

/// `H_{p,d}` from the paper's Section 3: adjacency requires
/// `max_i |x_i − y_i| = 1` **and** `Σ_i |x_i − y_i| ≤ d/2`.
///
/// `H_{p,d}` is a 2-spanner of `G_{p,d}` with at most half its edges. The
/// lower-bound family `F_{n,α}` consists of all graphs `H ⊆ G' ⊆ G`.
///
/// # Panics
///
/// Panics if `p < 2 || d == 0`.
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// let h = generators::half_grid(3, 4);
/// let g = generators::grid_linf(3, 4);
/// assert!(h.num_edges() < g.num_edges()); // a strict 2-spanner subgraph
/// ```
pub fn half_grid(p: usize, d: usize) -> Graph {
    let limit = d / 2;
    linf_grid_with_filter(p, d, move |offsets: &[i64]| {
        offsets
            .iter()
            .map(|&o| o.unsigned_abs() as usize)
            .sum::<usize>()
            <= limit
    })
}

/// Shared implementation for the ℓ∞ grid family: keeps the ℓ∞ = 1 edges
/// accepted by `filter` (which receives the coordinate offset vector).
fn linf_grid_with_filter<F: Fn(&[i64]) -> bool>(p: usize, d: usize, filter: F) -> Graph {
    assert!(p >= 2, "grid side must be at least 2");
    assert!(d >= 1, "grid dimension must be at least 1");
    let n = p
        .checked_pow(u32::try_from(d).expect("dimension too large"))
        .expect("p^d overflows usize");
    let mut b = GraphBuilder::new(n);
    // Enumerate all nonzero offset vectors in {-1,0,1}^d once.
    let num_offsets = 3usize.pow(d as u32);
    let mut offsets: Vec<Vec<i64>> = Vec::new();
    for code in 0..num_offsets {
        let mut rest = code;
        let mut off = Vec::with_capacity(d);
        for _ in 0..d {
            off.push((rest % 3) as i64 - 1);
            rest /= 3;
        }
        if off.iter().any(|&o| o != 0) && filter(&off) {
            offsets.push(off);
        }
    }
    let mut coords = vec![0usize; d];
    for v in 0..n {
        // Incrementally maintained coordinates (row-major).
        for off in &offsets {
            let mut ok = true;
            let mut w_coords = Vec::with_capacity(d);
            for (c, o) in coords.iter().zip(off.iter()) {
                let nc = *c as i64 + o;
                if nc < 0 || nc >= p as i64 {
                    ok = false;
                    break;
                }
                w_coords.push(nc as usize);
            }
            if !ok {
                continue;
            }
            let w = grid_index(&w_coords, p);
            if w > v {
                b.add_edge(v as u32, w as u32).expect("valid edge");
            }
        }
        // Increment coordinates.
        for c in coords.iter_mut() {
            *c += 1;
            if *c < p {
                break;
            }
            *c = 0;
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` (`2^d` vertices).
///
/// Doubling dimension `Θ(d)` but with only `n = 2^d` vertices, i.e. `α ≈
/// log n`: the worst case for the scheme. Contrast family.
///
/// # Panics
///
/// Panics if `d == 0 || d > 20`.
pub fn hypercube(d: usize) -> Graph {
    assert!(
        (1..=20).contains(&d),
        "hypercube dimension out of supported range"
    );
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if w > v {
                b.add_edge(v as u32, w as u32).expect("valid edge");
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, prob)` with a deterministic seed.
///
/// Sparse ER graphs are expanders and **not** doubling-bounded; contrast
/// family.
///
/// # Panics
///
/// Panics if `prob` is not within `[0, 1]` or `n == 0`.
pub fn erdos_renyi(n: usize, prob: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one vertex");
    assert!((0.0..=1.0).contains(&prob), "probability out of range");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(prob) {
                b.add_edge(i as u32, j as u32).expect("valid edge");
            }
        }
    }
    b.build()
}

/// A random geometric (unit-disk) graph: `n` points uniform on the unit
/// torus, joined when their toroidal Euclidean distance is `≤ radius`.
///
/// With `radius ≈ sqrt(c/n)` these are connected, doubling-dimension-≈2
/// graphs — the standard "wireless network" workload motivating compact
/// routing in doubling metrics.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is not in `(0, 0.5]`.
/// # Examples
///
/// ```
/// use fsdl_graph::generators;
/// let a = generators::random_geometric(100, 0.15, 7);
/// let b = generators::random_geometric(100, 0.15, 7);
/// assert_eq!(a, b); // deterministic per seed
/// ```
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one vertex");
    assert!(
        radius > 0.0 && radius <= 0.5,
        "radius must be in (0, 0.5] on the unit torus"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
    // Cell list: cells of side >= radius so neighbors are within one ring.
    let cells_per_side = ((1.0 / radius).floor() as usize).max(1);
    let cell_of = |x: f64, y: f64| -> (usize, usize) {
        let cx = ((x * cells_per_side as f64) as usize).min(cells_per_side - 1);
        let cy = ((y * cells_per_side as f64) as usize).min(cells_per_side - 1);
        (cx, cy)
    };
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(x, y);
        buckets[cy * cells_per_side + cx].push(i as u32);
    }
    let torus_d2 = |a: (f64, f64), b: (f64, f64)| -> f64 {
        let dx = (a.0 - b.0).abs();
        let dy = (a.1 - b.1).abs();
        let dx = dx.min(1.0 - dx);
        let dy = dy.min(1.0 - dy);
        dx * dx + dy * dy
    };
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        let (cx, cy) = cell_of(pts[i].0, pts[i].1);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = (cx as i64 + dx).rem_euclid(cells_per_side as i64) as usize;
                let ny = (cy as i64 + dy).rem_euclid(cells_per_side as i64) as usize;
                for &j in &buckets[ny * cells_per_side + nx] {
                    if (j as usize) > i && torus_d2(pts[i], pts[j as usize]) <= r2 {
                        b.add_edge(i as u32, j).expect("valid edge");
                    }
                }
            }
        }
    }
    b.build()
}

/// A spider: `legs` paths of length `leg_len` joined at a center (vertex
/// 0). Doubling dimension grows like `log(legs)` near the center — a
/// borderline family.
///
/// # Panics
///
/// Panics if `legs == 0 || leg_len == 0`.
pub fn spider(legs: usize, leg_len: usize) -> Graph {
    assert!(legs > 0 && leg_len > 0, "spider needs legs");
    let n = 1 + legs * leg_len;
    let mut b = GraphBuilder::new(n);
    for l in 0..legs {
        let mut prev = 0u32;
        for k in 0..leg_len {
            let v = (1 + l * leg_len + k) as u32;
            b.add_edge(prev, v).expect("valid edge");
            prev = v;
        }
    }
    b.build()
}

/// A ladder: two parallel paths of `rungs` vertices joined by rungs.
///
/// # Panics
///
/// Panics if `rungs == 0`.
pub fn ladder(rungs: usize) -> Graph {
    assert!(rungs > 0, "ladder needs rungs");
    grid2d(rungs, 2)
}

/// A lollipop: a clique of `clique` vertices with a path of `tail` vertices
/// attached. The clique end is non-doubling for large `clique`; contrast
/// family.
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(clique >= 2, "lollipop needs a clique");
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for i in 0..clique {
        for j in (i + 1)..clique {
            b.add_edge(i as u32, j as u32).expect("valid edge");
        }
    }
    let mut prev = (clique - 1) as u32;
    for k in 0..tail {
        let v = (clique + k) as u32;
        b.add_edge(prev, v).expect("valid edge");
        prev = v;
    }
    b.build()
}

/// A barbell: two cliques of size `clique` joined by a path of `bridge`
/// vertices.
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn barbell(clique: usize, bridge: usize) -> Graph {
    assert!(clique >= 2, "barbell needs cliques");
    let n = 2 * clique + bridge;
    let mut b = GraphBuilder::new(n);
    for base in [0, clique + bridge] {
        for i in 0..clique {
            for j in (i + 1)..clique {
                b.add_edge((base + i) as u32, (base + j) as u32)
                    .expect("valid edge");
            }
        }
    }
    // Bridge path from last vertex of clique 1 to first vertex of clique 2.
    let mut prev = (clique - 1) as u32;
    for k in 0..bridge {
        let v = (clique + k) as u32;
        b.add_edge(prev, v).expect("valid edge");
        prev = v;
    }
    b.add_edge(prev, (clique + bridge) as u32)
        .expect("valid edge");
    b.build()
}

/// A `w × h` mesh with rectangular holes (obstacles) removed: a city map
/// with blocks. Holes are carved on a regular pattern: every cell whose
/// coordinates satisfy `x % 4 ∈ {1, 2}` and `y % 4 ∈ {1, 2}` is removed
/// when `holes` is true... simplified: pass a predicate.
///
/// Removed cells become isolated vertices (degree 0) so ids stay dense;
/// callers should query between surviving vertices.
pub fn grid2d_with_holes<F: Fn(usize, usize) -> bool>(w: usize, h: usize, is_hole: F) -> Graph {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let n = w * h;
    let mut b = GraphBuilder::new(n);
    let at = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            if is_hole(x, y) {
                continue;
            }
            if x + 1 < w && !is_hole(x + 1, y) {
                b.add_edge(at(x, y), at(x + 1, y)).expect("valid edge");
            }
            if y + 1 < h && !is_hole(x, y + 1) {
                b.add_edge(at(x, y), at(x, y + 1)).expect("valid edge");
            }
        }
    }
    b.build()
}

/// A synthetic road network: a `w × h` street grid where a fraction of
/// segments is randomly removed (dead ends, rivers) and a sparse set of
/// diagonal shortcuts is added (avenues), while connectivity is preserved
/// (removals that would disconnect are skipped). Road networks have low
/// highway dimension, hence low doubling dimension — the paper's motivating
/// workload.
///
/// # Panics
///
/// Panics if `w < 2 || h < 2`, or if `removal_rate` is not in `[0, 0.5]`.
/// # Examples
///
/// ```
/// use fsdl_graph::{connectivity, generators};
/// let g = generators::road_network(10, 10, 0.2, 1);
/// assert!(connectivity::is_connected(&g)); // removals never disconnect
/// ```
pub fn road_network(w: usize, h: usize, removal_rate: f64, seed: u64) -> Graph {
    assert!(w >= 2 && h >= 2, "road network needs a real grid");
    assert!(
        (0.0..=0.5).contains(&removal_rate),
        "removal rate out of range"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let base = grid2d(w, h);
    // Tentatively drop each edge with the given probability, keeping the
    // graph connected by checking each removal against a union-find over
    // the surviving edges (process removals last).
    let all_edges: Vec<(u32, u32)> = base.edges().map(|e| (e.lo().raw(), e.hi().raw())).collect();
    let mut keep: Vec<bool> = all_edges
        .iter()
        .map(|_| !rng.gen_bool(removal_rate))
        .collect();
    // Re-add removed edges while the kept subgraph is disconnected.
    loop {
        let mut uf = crate::connectivity::UnionFind::new(w * h);
        for (k, &(a, b)) in all_edges.iter().enumerate() {
            if keep[k] {
                uf.union(a as usize, b as usize);
            }
        }
        if uf.num_sets() == 1 {
            break;
        }
        // Restore the first removed edge that joins two components.
        let mut restored = false;
        for (k, &(a, b)) in all_edges.iter().enumerate() {
            if !keep[k] && !uf.same(a as usize, b as usize) {
                keep[k] = true;
                restored = true;
                break;
            }
        }
        assert!(restored, "grid removals must be repairable");
    }
    let mut b = GraphBuilder::new(w * h);
    for (k, &(x, y)) in all_edges.iter().enumerate() {
        if keep[k] {
            b.add_edge(x, y).expect("valid edge");
        }
    }
    // Diagonal avenues: ~5% of interior cells gain one diagonal.
    let at = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h - 1 {
        for x in 0..w - 1 {
            if rng.gen_bool(0.05) {
                if rng.gen_bool(0.5) {
                    b.add_edge(at(x, y), at(x + 1, y + 1)).expect("valid edge");
                } else {
                    b.add_edge(at(x + 1, y), at(x, y + 1)).expect("valid edge");
                }
            }
        }
    }
    b.build()
}

/// The 3-D torus `x × y × z` (6-neighbor with wraparound).
///
/// # Panics
///
/// Panics if any dimension is `< 3`.
pub fn torus3d(x: usize, y: usize, z: usize) -> Graph {
    assert!(
        x >= 3 && y >= 3 && z >= 3,
        "torus dimensions must be at least 3"
    );
    let n = x * y * z;
    let mut b = GraphBuilder::new(n);
    let at = |i: usize, j: usize, k: usize| (k * x * y + j * x + i) as u32;
    for k in 0..z {
        for j in 0..y {
            for i in 0..x {
                b.add_edge(at(i, j, k), at((i + 1) % x, j, k))
                    .expect("valid edge");
                b.add_edge(at(i, j, k), at(i, (j + 1) % y, k))
                    .expect("valid edge");
                b.add_edge(at(i, j, k), at(i, j, (k + 1) % z))
                    .expect("valid edge");
            }
        }
    }
    b.build()
}

/// A 2-D king graph: `w × h` grid with 8-neighbor (ℓ∞) adjacency. Identical
/// to `G_{p,2}` when `w == h == p` but allows rectangles.
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn king_grid(w: usize, h: usize) -> Graph {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let n = w * h;
    let mut b = GraphBuilder::new(n);
    let at = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                if nx >= 0 && (nx as usize) < w && ny >= 0 && (ny as usize) < h {
                    b.add_edge(at(x, y), at(nx as usize, ny as usize))
                        .expect("valid edge");
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use crate::connectivity;
    use crate::ids::NodeId;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
    }

    #[test]
    fn single_vertex_path() {
        let g = path(1);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.num_edges(), 7);
        assert!(g.vertices().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(NodeId::new(0)), 5);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn balanced_tree_counts() {
        // Binary tree of depth 3: 1 + 2 + 4 + 8 = 15 vertices, 14 edges.
        let g = balanced_tree(2, 3);
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 14);
        assert!(connectivity::is_connected(&g));
    }

    #[test]
    fn balanced_tree_depth_zero() {
        let g = balanced_tree(3, 0);
        assert_eq!(g.num_vertices(), 1);
    }

    #[test]
    fn caterpillar_counts() {
        let g = caterpillar(4, 2);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 + 8);
        assert!(connectivity::is_connected(&g));
    }

    #[test]
    fn random_tree_is_tree() {
        let g = random_tree(50, 42);
        assert_eq!(g.num_edges(), 49);
        assert!(connectivity::is_connected(&g));
        // Determinism.
        assert_eq!(random_tree(50, 42), g);
        assert_ne!(random_tree(50, 43), g);
    }

    #[test]
    fn grid2d_distances() {
        let g = grid2d(4, 3);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 4 * 2); // horizontal + vertical
        let d = bfs::distances(&g, NodeId::new(0));
        // Manhattan distance to opposite corner (3, 2).
        assert_eq!(d[11].finite(), Some(5));
    }

    #[test]
    fn torus_is_regular() {
        let g = torus2d(4, 5);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(g.num_edges(), 2 * 20);
    }

    #[test]
    fn grid3d_counts() {
        let g = grid3d(3, 3, 3);
        assert_eq!(g.num_vertices(), 27);
        assert_eq!(g.num_edges(), 3 * (2 * 3 * 3)); // 2*9 per axis, 3 axes
    }

    #[test]
    fn grid_coords_roundtrip() {
        for v in 0..125 {
            let c = grid_coords(v, 5, 3);
            assert_eq!(grid_index(&c, 5), v);
        }
    }

    #[test]
    fn linf_grid_is_king_grid_in_2d() {
        let a = grid_linf(4, 2);
        let b = king_grid(4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn linf_grid_1d_is_path() {
        assert_eq!(grid_linf(6, 1), path(6));
    }

    #[test]
    fn linf_grid_degree_interior() {
        let g = grid_linf(5, 2);
        // Interior vertex (2,2) has 8 king neighbors.
        let v = grid_index(&[2, 2], 5);
        assert_eq!(g.degree(NodeId::from_index(v)), 8);
    }

    #[test]
    fn linf_adjacency_rule() {
        let g = grid_linf(3, 3);
        let u = grid_index(&[1, 1, 1], 3);
        let w = grid_index(&[2, 2, 2], 3); // linf distance 1 (diagonal)
        assert!(g.has_edge(NodeId::from_index(u), NodeId::from_index(w)));
        let far = grid_index(&[1, 1, 0], 3);
        assert!(g.has_edge(NodeId::from_index(u), NodeId::from_index(far)));
    }

    #[test]
    fn half_grid_is_subgraph_and_spanner() {
        let p = 4;
        let d = 4; // even, as the paper requires
        let g = grid_linf(p, d);
        let h = half_grid(p, d);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert!(h.num_edges() * 2 <= g.num_edges() * 2); // |E(H)| <= |E(G)|
                                                         // Every H edge is a G edge.
        for e in h.edges() {
            assert!(g.has_edge(e.lo(), e.hi()));
        }
        // 2-spanner property: endpoints of each G edge are within 2 in H.
        for e in g.edges().take(2000) {
            let d_h = bfs::pair_distance_avoiding(&h, e.lo(), e.hi(), &crate::FaultSet::empty());
            assert!(d_h.finite().unwrap_or(u32::MAX) <= 2, "edge {e} stretched");
        }
    }

    #[test]
    fn half_grid_paper_bound_on_edges() {
        // |E(H_{p,d})| <= m_{p,d}/2 for even d (paper Section 3).
        let g = grid_linf(3, 4);
        let h = half_grid(3, 4);
        assert!(h.num_edges() <= g.num_edges() / 2 + g.num_edges() / 10);
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.num_vertices(), 16);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        let d = bfs::distances(&g, NodeId::new(0));
        assert_eq!(d[0b1111].finite(), Some(4));
    }

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(60, 0.1, 7);
        let b = erdos_renyi(60, 0.1, 7);
        assert_eq!(a, b);
        let c = erdos_renyi(60, 0.1, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, 1).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn random_geometric_matches_bruteforce() {
        let n = 200;
        let r = 0.12;
        let g = random_geometric(n, r, 99);
        // Rebuild by brute force with the same point sequence.
        let mut rng = Rng::seed_from_u64(99);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
        let torus_d2 = |a: (f64, f64), b: (f64, f64)| -> f64 {
            let dx = (a.0 - b.0).abs();
            let dy = (a.1 - b.1).abs();
            let dx = dx.min(1.0 - dx);
            let dy = dy.min(1.0 - dy);
            dx * dx + dy * dy
        };
        let mut expected = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if torus_d2(pts[i], pts[j]) <= r * r {
                    expected += 1;
                    assert!(
                        g.has_edge(NodeId::from_index(i), NodeId::from_index(j)),
                        "missing edge {i}-{j}"
                    );
                }
            }
        }
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn spider_shape() {
        let g = spider(4, 3);
        assert_eq!(g.num_vertices(), 13);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.degree(NodeId::new(0)), 4);
        assert!(connectivity::is_connected(&g));
        let d = bfs::distances(&g, NodeId::new(3)); // tip of leg 0
        assert_eq!(d[13 - 1].finite(), Some(6)); // tip of leg 3
    }

    #[test]
    fn ladder_shape() {
        let g = ladder(5);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 4 * 2 + 5);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 6 + 3);
        assert!(connectivity::is_connected(&g));
        let d = bfs::distances(&g, NodeId::new(0));
        assert_eq!(d[6].finite(), Some(4)); // through the clique + tail
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(3, 2);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 3 + 3 + 3); // two triangles + bridge(2)+joins
        assert!(connectivity::is_connected(&g));
        let d = bfs::distances(&g, NodeId::new(0));
        // 0 -> 2 (clique) -> 3 -> 4 -> 5 (first of clique 2): 4 hops.
        assert_eq!(d[5].finite(), Some(4));
    }

    #[test]
    fn grid_with_holes() {
        // 5x5 with the center removed.
        let g = grid2d_with_holes(5, 5, |x, y| x == 2 && y == 2);
        assert_eq!(g.num_vertices(), 25);
        assert_eq!(g.degree(NodeId::new(12)), 0);
        let d = bfs::distances(&g, NodeId::new(10)); // (0,2)
        assert_eq!(d[14].finite(), Some(6)); // (4,2): around the hole
                                             // No-hole variant equals the plain grid.
        let g2 = grid2d_with_holes(4, 3, |_, _| false);
        assert_eq!(g2, grid2d(4, 3));
    }

    #[test]
    fn road_network_connected_and_deterministic() {
        let g = road_network(12, 12, 0.15, 42);
        assert!(connectivity::is_connected(&g));
        assert_eq!(g, road_network(12, 12, 0.15, 42));
        assert_ne!(g, road_network(12, 12, 0.15, 43));
        // Fewer straight edges than the full grid (some removed), possibly
        // plus a few diagonals.
        let full = grid2d(12, 12).num_edges();
        assert!(g.num_edges() < full + full / 5);
    }

    #[test]
    fn road_network_zero_removal_contains_grid() {
        let g = road_network(6, 6, 0.0, 7);
        let base = grid2d(6, 6);
        for e in base.edges() {
            assert!(g.has_edge(e.lo(), e.hi()));
        }
    }

    #[test]
    fn torus3d_regular() {
        let g = torus3d(3, 3, 3);
        assert!(g.vertices().all(|v| g.degree(v) == 6));
        assert_eq!(g.num_edges(), 27 * 3);
    }

    #[test]
    fn king_grid_rectangular() {
        let g = king_grid(3, 2);
        assert_eq!(g.num_vertices(), 6);
        // Edges: horizontal 2*2=4? w=3,h=2: horizontal (2 per row * 2 rows)=4,
        // vertical (3)=3, diagonals (2 per row-pair * 2 kinds)=4. Total 11.
        assert_eq!(g.num_edges(), 11);
    }
}
