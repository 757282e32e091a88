//! # fsdl-bench — the experiments that re-check the paper, and the wire client
//!
//! The paper is theory-only, so the "tables and figures" the `exp_*`
//! binaries regenerate are the quantitative behaviours its theorems
//! predict (see `EXPERIMENTS.md` at the repository root for the index).
//! How fast *our* server, store and router run is not measured here: that
//! is `benchmark/` (`BENCHMARK.json`), compared on every PR. What this
//! crate keeps, and why:
//!
//! * `exp_t1` … `exp_t12`, `exp_f1`, `exp_f2` — one per claim of the paper
//!   (Theorems 2.1 / 2.7 / 3.1, Lemmas 2.5 / 2.6, Figures 1 and 2);
//! * `exp_t14_query_latency` — the decoder's search against the
//!   materializing reference and BFS on `G ∖ F`: the bar a decoder change
//!   is judged by, and the judge of ROADMAP item 5 (where does the oracle
//!   beat BFS?);
//! * `exp_t16_wal` — the availability gate no test or benchmark metric
//!   holds: queries keep their latency while a rebuild is in flight;
//! * `fsdl-loadgen` with [`serveload`] — the only out-of-process wire
//!   client (CI's smokes against a real `fsdl serve` use it) until the CLI
//!   has one.
//!
//! Shared by the binaries:
//!
//! * [`workloads`] — the named graph families with their advertised
//!   doubling dimensions (audited by the estimator before use);
//! * [`measure`] — stretch/size/time measurement runners against the exact
//!   baseline;
//! * [`tables`] — plain-text table rendering so every experiment prints the
//!   same way;
//! * [`serveload`] — `fsdl-loadgen`'s seeded Zipf op stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod serveload;
pub mod tables;
pub mod workloads;
