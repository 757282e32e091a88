//! `fsdl-testkit`: hermetic randomness and property testing for the
//! fsdl workspace.
//!
//! This crate exists so the workspace has **zero external
//! dependencies**: `cargo build` and `cargo test` work with no network
//! and no registry cache. It provides the two things the workspace
//! previously pulled `rand` and `proptest` in for:
//!
//! - [`Rng`]: the seeded xoshiro256** PRNG of [`fsdl_graph::rng`], with
//!   the `gen_range`-shaped API ([`Rng::gen_range`], [`Rng::gen_bool`],
//!   [`Rng::gen_f64`]). Same seed ⇒ same stream, on every platform,
//!   forever — graph generators keyed by a seed are part of the test
//!   suite's stability contract.
//! - [`check`]: a deterministic property-test harness — N cases per
//!   test, each from its own derived seed, failures reported with the
//!   reproducing seed (`FSDL_TESTKIT_REPRO=<seed>` replays one case),
//!   and a soak mode scaled by `FSDL_TESTKIT_SOAK`.
//!
//! There is intentionally no shrinking, no macro DSL, and no trait
//! object soup: generators are plain `fn(&mut Rng) -> T` helpers owned
//! by the tests that use them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub use fsdl_graph::rng;

pub use harness::{check, check_seeded, soak_multiplier, DEFAULT_BASE_SEED};
pub use rng::{Rng, SampleRange};
