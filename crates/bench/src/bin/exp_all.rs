//! Runs every experiment binary in sequence — the one-shot reproduction of
//! `EXPERIMENTS.md`. Each experiment self-asserts its claims, so a clean
//! exit means every theorem's predicted behaviour was re-verified.
//!
//! ```text
//! cargo run --release -p fsdl-bench --bin exp_all
//! ```

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_t1_stretch",
    "exp_t2_labels",
    "exp_t3_query",
    "exp_t4_routing",
    "exp_t5_lowerbound",
    "exp_t6_dynamic",
    "exp_t7_oracle",
    "exp_t8_ablation",
    "exp_t9_related",
    "exp_t10_preproc",
    "exp_t11_recovery",
    "exp_t12_weighted",
    "exp_t14_query_latency",
    "exp_t16_wal",
    "exp_f1_trace",
    "exp_f2_lowlevel",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================= {name} =================\n");
        let path = bin_dir.join(name);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo (e.g. when run via `cargo run` from a
            // different profile directory).
            Command::new("cargo")
                .args([
                    "run",
                    "--quiet",
                    "--release",
                    "-p",
                    "fsdl-bench",
                    "--bin",
                    name,
                ])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("{name} failed to launch: {e}");
                failures.push(*name);
            }
        }
    }
    println!("\n=================================================");
    if failures.is_empty() {
        println!("all {} experiments passed", EXPERIMENTS.len());
    } else {
        println!("FAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}
