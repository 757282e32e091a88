//! `compare OLD.json NEW.json`: applies the bounds `BENCHMARK.json` fixes,
//! per (end-to-end metric, workload) row.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::serve::{Context, Res};
use crate::spec::Workload;
use crate::stats::median;
use crate::Args;

pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` table of `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Res<Vec<Bound>> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let rows = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end table")?;
    rows.iter()
        .map(|row| {
            let text = |key: &str| {
                row.get(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end row lacks {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                lower_is_better: match text("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better must be lower or higher, not {other:?}")),
                },
                bound: row
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end row lacks bound")?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread recorded in the files exceeds the bound, so
    /// "no change" cannot be told from a change of that size.
    Unresolved,
}

/// `(max − min) / median` of repeated runs; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if values.len() < 2 {
        0.0
    } else {
        (hi - lo) / median(values.to_vec()).abs().max(f64::MIN_POSITIVE)
    }
}

pub fn judge(bound: &Bound, old: &[f64], new: &[f64]) -> Verdict {
    let (old_mid, new_mid) = (median(old.to_vec()), median(new.to_vec()));
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (new_mid - old_mid) / old_mid.abs().max(f64::MIN_POSITIVE);
    let better = |n: f64, o: f64| sign * (n - o) < 0.0;
    if worse_by > bound.bound {
        Verdict::Worse
    } else if spread(old).max(spread(new)) > bound.bound {
        // Too noisy to call unchanged — unless every new run beats every old.
        if new.iter().all(|&n| old.iter().all(|&o| better(n, o))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values(sets: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|set| {
            set.get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed(sets: &[Value], workload: &str) -> f64 {
    sets.iter()
        .filter_map(|set| set.get(workload)?.get("failed")?.as_f64())
        .fold(0.0, f64::max)
}

/// One row per (metric, workload); `false` on any `worse` or on more
/// failures than before.
pub fn compare_sets(bounds: &[Bound], old: &[Value], new: &[Value]) -> (String, bool) {
    let mut table = String::new();
    let mut ok = true;
    writeln!(
        table,
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "workload", "old", "new", "change", "bound"
    )
    .expect("write");
    for workload in Workload::ALL.iter().map(|w| w.name()) {
        for bound in bounds {
            let (o, n) = (
                values(old, workload, &bound.name),
                values(new, workload, &bound.name),
            );
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let verdict = judge(bound, &o, &n);
            ok &= verdict != Verdict::Worse;
            let (om, nm) = (median(o), median(n));
            writeln!(
                table,
                "{:<20} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                bound.name,
                workload,
                om,
                nm,
                100.0 * (nm - om) / om.abs().max(f64::MIN_POSITIVE),
                100.0 * bound.bound,
                format!("{verdict:?}").to_lowercase()
            )
            .expect("write");
        }
        let (fo, fn_) = (failed(old, workload), failed(new, workload));
        if fn_ > fo {
            ok = false;
            writeln!(
                table,
                "{:<20} {workload:<14} {fo:>14} {fn_:>14}  worse (more failed ops)",
                "failed"
            )
            .expect("write");
        }
    }
    (table, ok)
}

pub fn compare_command(args: &Args) -> Res<bool> {
    let files = args.positional();
    let [old, new] = files[..] else {
        return Err("compare needs OLD.json NEW.json".into());
    };
    let bounds = load_bounds(Path::new(
        args.value("--bounds")?.unwrap_or("BENCHMARK.json"),
    ))?;
    let load = |path: &str| -> Res<Vec<Value>> {
        let doc = json::parse(&std::fs::read_to_string(path).context(path)?)?;
        let sets = doc
            .get("sets")
            .and_then(Value::as_array)
            .ok_or(format!("{path} has no sets"))?;
        Ok(sets.to_vec())
    };
    let (table, ok) = compare_sets(&bounds, &load(old)?, &load(new)?);
    print!("{table}");
    println!(
        "{}",
        if ok {
            "no regression beyond the bounds"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "query_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let b = lower(0.10);
        assert_eq!(judge(&b, &[10.0], &[10.5]), Verdict::Same);
        assert_eq!(judge(&b, &[10.0], &[11.5]), Verdict::Worse);
        assert_eq!(judge(&b, &[10.0], &[8.0]), Verdict::Better);
        let higher = Bound {
            name: "throughput_ops_s".into(),
            lower_is_better: false,
            bound: 0.10,
        };
        assert_eq!(judge(&higher, &[100.0], &[85.0]), Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0], &[120.0]), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let b = lower(0.10);
        assert_eq!(judge(&b, &[9.0, 11.0], &[9.5, 10.5]), Verdict::Unresolved);
        // ... unless every new run beats every old one.
        assert_eq!(judge(&b, &[9.0, 11.0], &[7.0, 8.5]), Verdict::Better);
        // A clear regression is still a regression.
        assert_eq!(judge(&b, &[9.0, 11.0], &[14.0, 15.0]), Verdict::Worse);
    }

    #[test]
    fn more_failed_ops_fail_the_comparison() {
        let set = |failed: u32| {
            json::parse(&format!(
                r#"{{"serve-hot": {{"failed": {failed}, "metrics": {{"query_p50_ms": {{"value": 1.0, "unit": "ms"}}}}}}}}"#
            ))
            .unwrap()
        };
        let bounds = [lower(0.10)];
        assert!(compare_sets(&bounds, &[set(0)], &[set(0)]).1);
        assert!(!compare_sets(&bounds, &[set(0)], &[set(2)]).1);
    }
}
