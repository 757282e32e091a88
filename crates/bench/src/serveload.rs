//! The workload `fsdl-loadgen` replays against a server.
//!
//! Everything is deterministic from a seed: vertex pairs come from a
//! Zipf-skewed rank distribution over a seeded permutation of the vertex
//! ids (hot vertices exist, but *which* vertices are hot depends on the
//! seed), and each connection forks its own [`Rng`] stream so a
//! multi-connection run is reproducible regardless of thread
//! interleaving.

use fsdl_server::{UpdateOp, WireFaults};
use fsdl_testkit::Rng;

/// Zipf-skewed sampler over `0..n` vertex ids.
///
/// Rank `k` (0-based) gets probability proportional to `1/(k+1)^theta`;
/// `theta = 0` is uniform. Ranks map to vertex ids through a seeded
/// Fisher–Yates permutation so the hot set is spread across the graph.
pub struct ZipfVertices {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl ZipfVertices {
    /// Builds the sampler for `n` vertices with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: u32, theta: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "sampler needs at least one vertex");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf skew must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / f64::from(k + 1).powf(theta);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        let mut perm: Vec<u32> = (0..n).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        ZipfVertices { cdf, perm }
    }

    /// Draws one vertex id.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.gen_f64();
        let rank = self.cdf.partition_point(|&c| c < u);
        self.perm[rank.min(self.perm.len() - 1)]
    }

    /// Number of vertices the sampler covers.
    pub fn len(&self) -> u32 {
        self.perm.len() as u32
    }

    /// Whether the sampler is empty (never true — `new` rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }
}

/// One operation of the serving workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A single query with (possibly empty) per-query faults.
    Query {
        /// Source vertex.
        s: u32,
        /// Target vertex.
        t: u32,
        /// Per-query forbidden set.
        faults: WireFaults,
    },
    /// A fault-churn pair: delete a vertex, then restore it. Replayed
    /// against dynamic servers; static runs fold these into faulty
    /// queries instead (see [`WorkloadConfig::for_static`]).
    Churn {
        /// The vertex to delete and then restore.
        v: u32,
    },
}

/// Tunables for one workload stream.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Vertex count of the served graph (from the server's stats frame).
    pub n: u32,
    /// Zipf skew for endpoint picks (0 = uniform).
    pub theta: f64,
    /// Probability a query carries a forbidden set (static mode).
    pub fault_rate: f64,
    /// Maximum forbidden vertices per faulty query.
    pub max_faults: usize,
    /// Fraction of ops that are fault churn (dynamic mode writes).
    pub churn_rate: f64,
}

impl WorkloadConfig {
    /// A static-mode config: per-query faults, no churn.
    pub fn for_static(n: u32, theta: f64, fault_rate: f64, max_faults: usize) -> Self {
        WorkloadConfig {
            n,
            theta,
            fault_rate,
            max_faults,
            churn_rate: 0.0,
        }
    }

    /// A dynamic-mode config: churn writes, no per-query faults (the
    /// dynamic oracle serves its own fault set).
    pub fn for_dynamic(n: u32, theta: f64, churn_rate: f64) -> Self {
        WorkloadConfig {
            n,
            theta,
            fault_rate: 0.0,
            max_faults: 0,
            churn_rate,
        }
    }
}

/// A deterministic per-connection operation stream.
pub struct OpStream {
    config: WorkloadConfig,
    zipf: ZipfVertices,
    rng: Rng,
}

impl OpStream {
    /// Builds connection `conn`'s stream for `seed`. The same
    /// `(seed, conn, config)` triple always yields the same ops.
    pub fn new(seed: u64, conn: u64, config: WorkloadConfig) -> Self {
        // One master stream per run; each connection takes a fork keyed
        // by its index so streams are independent and order-insensitive.
        let mut master = Rng::seed_from_u64(seed);
        let mut rng = master.fork();
        for _ in 0..conn {
            rng = master.fork();
        }
        let zipf = ZipfVertices::new(config.n, config.theta, &mut rng);
        OpStream { config, zipf, rng }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        if self.config.churn_rate > 0.0 && self.rng.gen_bool(self.config.churn_rate) {
            return Op::Churn {
                v: self.zipf.sample(&mut self.rng),
            };
        }
        let s = self.zipf.sample(&mut self.rng);
        let mut t = self.zipf.sample(&mut self.rng);
        if t == s {
            t = (s + 1) % self.config.n;
        }
        let mut faults = WireFaults::default();
        if self.config.fault_rate > 0.0 && self.rng.gen_bool(self.config.fault_rate) {
            let count = self.rng.gen_range(1..=self.config.max_faults.max(1));
            for _ in 0..count {
                let v = self.zipf.sample(&mut self.rng);
                if v != s && v != t && !faults.vertices.contains(&v) {
                    faults.vertices.push(v);
                }
            }
        }
        Op::Query { s, t, faults }
    }
}

/// Expands a churn op into its wire updates (delete then restore).
pub fn churn_updates(v: u32) -> [UpdateOp; 2] {
    [UpdateOp::DeleteVertex(v), UpdateOp::RestoreVertex(v)]
}

/// Latency percentile over an unsorted sample set (µs in, µs out).
pub fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let k = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[k.min(samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let mut rng = Rng::seed_from_u64(7);
        let zipf = ZipfVertices::new(100, 1.0, &mut rng);
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        let draws_a: Vec<u32> = (0..50).map(|_| zipf.sample(&mut a)).collect();
        let draws_b: Vec<u32> = (0..50).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(draws_a, draws_b);
        // Skew: the hottest vertex dominates a long uniform-equivalent run.
        let mut counts = vec![0u32; 100];
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..20_000 {
            counts[zipf.sample(&mut r) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 2_000, "theta=1 hot vertex got only {max}/20000 draws");
    }

    #[test]
    fn op_streams_are_reproducible_per_connection() {
        let config = WorkloadConfig::for_static(64, 0.8, 0.3, 3);
        let ops_a: Vec<Op> = {
            let mut s = OpStream::new(42, 2, config.clone());
            (0..40).map(|_| s.next_op()).collect()
        };
        let ops_b: Vec<Op> = {
            let mut s = OpStream::new(42, 2, config.clone());
            (0..40).map(|_| s.next_op()).collect()
        };
        assert_eq!(ops_a, ops_b);
        let ops_other: Vec<Op> = {
            let mut s = OpStream::new(42, 3, config);
            (0..40).map(|_| s.next_op()).collect()
        };
        assert_ne!(ops_a, ops_other, "different connections must diverge");
    }

    #[test]
    fn queries_never_fault_their_own_endpoints() {
        let mut s = OpStream::new(1, 0, WorkloadConfig::for_static(32, 1.2, 1.0, 4));
        for _ in 0..500 {
            if let Op::Query { s: a, t: b, faults } = s.next_op() {
                assert_ne!(a, b);
                assert!(!faults.vertices.contains(&a));
                assert!(!faults.vertices.contains(&b));
            }
        }
    }

    #[test]
    fn dynamic_config_emits_churn() {
        let mut s = OpStream::new(5, 0, WorkloadConfig::for_dynamic(32, 0.5, 0.2));
        let churn = (0..500)
            .filter(|_| matches!(s.next_op(), Op::Churn { .. }))
            .count();
        assert!(churn > 50, "churn rate 0.2 produced only {churn}/500");
    }
}
