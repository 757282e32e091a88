//! `run` and `gen`: one workload in this process (what `BENCHMARK.json`'s
//! command invokes), or all four — each in a child process, so that
//! `peak_rss_mib` is per workload — gathered into one result document.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::compare;
use crate::env::{host, WorkDir};
use crate::json::{self, escape, Value};
use crate::layers;
use crate::ops;
use crate::serve::{Context, Res};
use crate::spec::Workload;
use crate::workloads::{self, Outcome, RunConfig};
use crate::Args;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn workload_arg(args: &Args) -> Res<Option<Workload>> {
    match args.value("--workload")? {
        None => Ok(None),
        Some(name) => Workload::parse(name).map(Some).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        }),
    }
}

/// `gen --workload W --seed S --out FILE`: writes the op stream `run
/// --ops FILE` replays.
pub fn gen_command(args: &Args) -> Res<bool> {
    let workload = workload_arg(args)?.ok_or("gen needs --workload")?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let out = args.value("--out")?.ok_or("gen needs --out FILE")?;
    let bytes = ops::encode(workload, seed, &ops::generate(workload, seed));
    std::fs::write(out, &bytes).context("write op file")?;
    println!(
        "{}: {} bytes, seed {seed}, fingerprint fnv1a:{:016x}",
        out,
        bytes.len(),
        ops::fingerprint(&bytes)
    );
    Ok(true)
}

pub fn run_command(args: &Args) -> Res<bool> {
    let smoke = args.has("--smoke");
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 =
        args.parsed("--seconds")?
            .unwrap_or(if smoke { 1.0 } else { DEFAULT_SECONDS });
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    match workload_arg(args)? {
        Some(workload) => run_one(args, workload, seed, seconds, smoke),
        None => run_all(args, seed, seconds, smoke),
    }
}

// ---- one workload, in this process ------------------------------------------

fn run_one(args: &Args, workload: Workload, seed: u64, seconds: f64, smoke: bool) -> Res<bool> {
    let traced = match args.value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let bytes = match args.value("--ops")? {
        Some(file) => std::fs::read(file).context("read op file")?,
        None => ops::encode(workload, seed, &ops::generate(workload, seed)),
    };
    let (file_workload, file_seed, ops) = ops::decode(&bytes)?;
    if file_workload != workload {
        return Err(format!(
            "op file is for {}, not {}",
            file_workload.name(),
            workload.name()
        ));
    }
    let config = RunConfig {
        workload,
        seed: file_seed,
        ops,
        seconds,
        setup_reps: if smoke { 1 } else { SETUP_REPS },
    };
    let work = WorkDir::create()?;
    let outcome = if traced {
        layers::run(&config, &work, args.value("--trace-out")?.map(Path::new))
    } else {
        workloads::run(&config, &work)
    };
    drop(work);
    let outcome = outcome?;

    println!(
        "workload {} seed {file_seed} seconds {seconds} trace {} ops fnv1a:{:016x}",
        workload.name(),
        u8::from(traced),
        ops::fingerprint(&bytes)
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    let tally = &outcome.tally;
    println!(
        "  failed_ratio {} / {} = {}",
        tally.failed(),
        tally.attempted,
        tally.failed_ratio()
    );
    if tally.failed() > 0 {
        eprintln!("FAILED: {}", tally.describe_failures());
    }
    println!("{}", result_line(&outcome)?);
    Ok(tally.failed() == 0)
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> Res<String> {
    let mut metrics = String::new();
    for (k, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        let sep = if k == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to string");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.tally.failed() == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed(),
    ))
}

// ---- all workloads, one child process each -----------------------------------

/// Runs this executable again for one workload and returns its result
/// line, parsed.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    trace_out: Option<&str>,
) -> Res<Value> {
    let exe = std::env::current_exe().context("locate own executable")?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    if let Some(dir) = trace_out {
        command.args(["--trace-out", dir]);
    }
    let output = command.output().context("start child run")?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(last) = stdout.lines().last() else {
        return Err(format!(
            "{} produced no result ({})",
            workload.name(),
            output.status
        ));
    };
    let value =
        json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
    if !output.status.success() {
        eprintln!("{} exited with {}", workload.name(), output.status);
    }
    Ok(value)
}

/// Merges the traced child's per-layer metrics into the untraced child's
/// result, so one object per workload carries every metric.
fn merged(mut timed: Value, traced: &Value) -> Res<Value> {
    let extra = traced
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("traced result has no metrics")?
        .clone();
    let failed = |v: &Value| v.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
    let attempted = |v: &Value| v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
    let totals = (
        failed(&timed) + failed(traced),
        attempted(&timed) + attempted(traced),
    );
    let Value::Object(map) = &mut timed else {
        return Err("result line is not an object".into());
    };
    let Some(Value::Object(metrics)) = map.get_mut("metrics") else {
        return Err("result has no metrics".into());
    };
    metrics.extend(extra);
    map.insert("failed".into(), Value::Number(totals.0));
    map.insert("attempted".into(), Value::Number(totals.1));
    map.insert("correct".into(), Value::Bool(totals.0 == 0.0));
    Ok(timed)
}

fn render(value: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write!(out, "{b}").expect("write"),
        Value::Number(x) => write!(out, "{x}").expect("write"),
        Value::String(s) => write!(out, "\"{}\"", escape(s)).expect("write"),
        Value::Array(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                out.push_str(if k == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                render(item, indent + 1, out);
            }
            write!(out, "\n{}]", "  ".repeat(indent)).expect("write");
        }
        Value::Object(map) => {
            // A metric ({"value", "unit"}) stays on one line.
            let leaf = map
                .values()
                .all(|v| !matches!(v, Value::Array(_) | Value::Object(_)));
            out.push('{');
            for (k, (key, item)) in map.iter().enumerate() {
                if leaf {
                    out.push_str(if k == 0 { "" } else { ", " });
                } else {
                    out.push_str(if k == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                }
                write!(out, "\"{}\": ", escape(key)).expect("write");
                render(item, indent + 1, out);
            }
            if !leaf {
                write!(out, "\n{}", "  ".repeat(indent)).expect("write");
            }
            out.push('}');
        }
    }
}

fn run_all(args: &Args, seed: u64, seconds: f64, smoke: bool) -> Res<bool> {
    let sets: usize = args.parsed("--sets")?.unwrap_or(1);
    let trace_out = args.value("--trace-out")?;
    let host = host();
    let mut all_sets = Vec::new();
    let mut correct = true;
    for set in 0..sets.max(1) {
        let mut by_workload = std::collections::BTreeMap::new();
        for workload in Workload::ALL {
            eprintln!("set {} of {sets}: {} ...", set + 1, workload.name());
            let timed = child(workload, seed, seconds, false, smoke, None)?;
            let traced = child(workload, seed, seconds, true, smoke, trace_out)?;
            let mut result = merged(timed, &traced)?;
            correct &= result.get("correct") == Some(&Value::Bool(true));
            if let Value::Object(map) = &mut result {
                let bytes = ops::encode(workload, seed, &ops::generate(workload, seed));
                let fingerprint = format!("fnv1a:{:016x}", ops::fingerprint(&bytes));
                map.insert("ops_fingerprint".into(), Value::String(fingerprint));
            }
            by_workload.insert(workload.name().to_string(), result);
        }
        all_sets.push(Value::Object(by_workload));
    }

    let mut doc = std::collections::BTreeMap::new();
    doc.insert("benchmark".to_string(), Value::String("fsdl".into()));
    doc.insert("seed".into(), Value::Number(seed as f64));
    doc.insert("seconds".into(), Value::Number(seconds));
    doc.insert("smoke".into(), Value::Bool(smoke));
    let mut h = std::collections::BTreeMap::new();
    h.insert("nproc".to_string(), Value::Number(host.nproc as f64));
    h.insert("kernel".into(), Value::String(host.kernel));
    h.insert("rustc".into(), Value::String(host.rustc));
    doc.insert("host".into(), Value::Object(h));
    doc.insert("sets".into(), Value::Array(all_sets));
    let doc = Value::Object(doc);

    print_table(&doc);
    if let Some(path) = args.value("--out")? {
        let mut text = String::new();
        render(&doc, 0, &mut text);
        text.push('\n');
        std::fs::write(path, text).context("write results")?;
        eprintln!("results written to {path}");
    }
    // Two sets of the same code must agree within the benchmark's own
    // bounds; a smoke run is too short to hold them.
    if sets >= 2 && !smoke {
        let bounds = compare::load_bounds(Path::new(
            args.value("--bounds")?.unwrap_or("BENCHMARK.json"),
        ))?;
        let sets = doc.get("sets").and_then(Value::as_array).expect("sets");
        let (table, ok) = compare::compare_sets(&bounds, &sets[..1], &sets[1..2]);
        println!("\nset 1 against set 2 (same code):\n{table}");
        correct &= ok;
    }
    Ok(correct)
}

/// Every metric by name and unit, end-to-end first, one column per
/// workload (last set).
fn print_table(doc: &Value) {
    let Some(set) = doc
        .get("sets")
        .and_then(Value::as_array)
        .and_then(|s| s.last())
    else {
        return;
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let metrics_of = |w: &str| {
        set.get(w)
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
    };
    let names = workloads::END_TO_END.iter().chain(layers::PER_LAYER);
    println!(
        "{:<36} {:<6} {:>14} {:>14} {:>14} {:>14}",
        "metric", "unit", workloads[0], workloads[1], workloads[2], workloads[3]
    );
    for (name, unit) in names {
        let mut row = format!("{name:<36} {unit:<6}");
        for w in &workloads {
            let value = metrics_of(w)
                .and_then(|m| m.get(*name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            match value {
                Some(x) => write!(row, " {x:>14.4}").expect("write"),
                None => write!(row, " {:>14}", "-").expect("write"),
            }
        }
        println!("{row}");
    }
    for w in &workloads {
        let field = |k: &str| {
            set.get(w)
                .and_then(|r| r.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        println!(
            "{w}: failed_ratio {} / {}",
            field("failed"),
            field("attempted")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract the driver reads; it must name
    /// exactly what this crate runs and prints.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse");
        let rows = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|row| {
                    let field =
                        |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(rows("end_to_end"), owned(workloads::END_TO_END));
        assert_eq!(rows("per_layer"), owned(layers::PER_LAYER));
        let names: Vec<String> = rows("workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert!(rows("end_to_end").iter().any(|(name, _)| name == "setup_s"));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            tally: Default::default(),
            metrics: vec![workloads::Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
            notes: Vec::new(),
        };
        let line = json::parse(&result_line(&outcome).unwrap()).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("attempted").and_then(Value::as_f64),
            Some(1.0),
            "attempted is at least 1"
        );
        let nan = Outcome {
            metrics: vec![workloads::Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
            ..outcome
        };
        assert!(
            result_line(&nan).is_err(),
            "a non-number must not reach the driver"
        );
    }
}
