//! The fsdl benchmark. See `README.md` beside this crate.
//!
//! ```text
//! fsdl-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                    [--ops FILE] [--trace-out DIR] [--sets K] [--smoke] [--out FILE]
//! fsdl-benchmark gen --workload W --seed S --out FILE
//! fsdl-benchmark compare OLD.json NEW.json [--bounds BENCHMARK.json]
//! ```

mod compare;
mod env;
mod json;
mod layers;
mod ops;
mod report;
mod rng;
mod serve;
mod spec;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

/// `--flag value` pairs and bare words of one invocation.
pub struct Args {
    words: Vec<String>,
}

impl Args {
    /// The value after `flag`, if the flag is present.
    pub fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.words.iter().position(|w| w == flag) {
            None => Ok(None),
            Some(i) => match self.words.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{flag} needs a value")),
            },
        }
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    pub fn has(&self, flag: &str) -> bool {
        self.words.iter().any(|w| w == flag)
    }

    /// Words that are neither a `--flag` nor the value after one.
    pub fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut words = self.words.iter();
        while let Some(word) = words.next() {
            if word.starts_with("--") {
                words.next();
            } else {
                out.push(word.as_str());
            }
        }
        out
    }
}

const USAGE: &str = "usage: fsdl-benchmark <run|gen|compare> [options]  (see benchmark/README.md)";

fn main() -> ExitCode {
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    if words.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = words.remove(0);
    let args = Args { words };
    let result = match command.as_str() {
        "run" => report::run_command(&args),
        "gen" => report::gen_command(&args),
        "compare" => compare::compare_command(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
