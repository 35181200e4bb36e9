//! `ptb_benchmark compare --base A.json.. --change B.json..`: judge a
//! change against its parent from repeated runs of each, row by row
//! (one row per end-to-end metric and workload, plus the error rate).
//!
//! The rule: compare medians and
//! quartiles; pair the runs in the order given and count the pairs the
//! change wins, ties counting for neither. A row is **better** only when
//! at least ten pairs ran, the change wins at least nine tenths of them
//! and the medians differ by more than the parent's inter-quartile
//! range; **worse** when the change's median is worse than the parent's
//! by more than the metric's bound; **unresolved** when the parent's own
//! spread is wider than the bound (unless every change run beats every
//! parent run) or fewer than ten pairs ran. The error rate is worse
//! whenever it rises.

use crate::metrics::{quartiles, Better, END_TO_END};
use ptb_metrics::Table;
use serde::{json, Value};
use std::collections::BTreeMap;

/// Pairs of runs needed before a row can be called better or same.
const MIN_PAIRS: usize = 10;

/// Outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is shown to improve the metric.
    Better,
    /// No regression beyond the bound, and no shown gain.
    Same,
    /// The change worsens the metric beyond its bound.
    Worse,
    /// The parent's spread is wider than the bound: no claim possible.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Pairs the change wins and pairs compared.
pub fn wins(base: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = base.len().min(change.len());
    let won = base
        .iter()
        .zip(change)
        .filter(|(b, c)| match better {
            Better::Higher => c > b,
            Better::Lower => c < b,
        })
        .count();
    (won, pairs)
}

/// Judge one row from each side's per-run values.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (b25, b50, b75) = quartiles(base);
    let (_, c50, _) = quartiles(change);
    let gain = match better {
        Better::Higher => c50 - b50,
        Better::Lower => b50 - c50,
    };
    let (won, pairs) = wins(base, change, better);
    if pairs >= MIN_PAIRS && won * 10 >= pairs * 9 && gain > b75 - b25 {
        return Verdict::Better;
    }
    let scale = b50.abs().max(f64::MIN_POSITIVE);
    if (b75 - b25) / scale > bound {
        let all_better = change.iter().all(|c| {
            base.iter().all(|b| match better {
                Better::Higher => c > b,
                Better::Lower => c < b,
            })
        });
        return if all_better {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    if -gain / scale > bound {
        Verdict::Worse
    } else if pairs < MIN_PAIRS {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Per workload: every run's metric values and op tallies.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

fn load(paths: &[String]) -> Result<BTreeMap<String, Side>, String> {
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
        for run in runs {
            if run.get("trace").and_then(Value::as_bool) == Some(true) {
                continue;
            }
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: run without a workload"))?;
            let side = sides.entry(workload.to_owned()).or_default();
            side.attempted += run.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            side.failed += run.get("failed").and_then(Value::as_u64).unwrap_or(0);
            let metrics = run.get("metrics").and_then(Value::as_object);
            for (name, m) in metrics.into_iter().flatten() {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    side.values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(sides)
}

fn fmt(q: (f64, f64, f64), n: usize) -> String {
    format!("{:.4} [{:.4}, {:.4}] n={n}", q.1, q.0, q.2)
}

/// Run the subcommand on `args` (after `compare`); the exit code is 1
/// when any row is worse or unresolved.
pub fn main(args: &[String]) -> Result<i32, String> {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut into: Option<&mut Vec<String>> = None;
    for arg in args {
        match arg.as_str() {
            "--base" => into = Some(&mut base),
            "--change" => into = Some(&mut change),
            path => match into.as_mut() {
                Some(list) => list.push(path.to_owned()),
                None => return Err(format!("unexpected argument {path:?}")),
            },
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("usage: ptb_benchmark compare --base A.json.. --change B.json..".into());
    }
    let (base, change) = (load(&base)?, load(&change)?);
    let mut table = Table::new(
        "change vs parent: median [p25, p75]",
        &["workload", "metric", "parent", "change", "wins", "verdict"],
    );
    let mut failing = 0;
    for (workload, b) in &base {
        let Some(c) = change.get(workload) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(bv), Some(cv)) = (b.values.get(def.name), c.values.get(def.name)) else {
                continue;
            };
            let v = verdict(bv, cv, def.better, def.bound.unwrap_or(0.0));
            let (won, pairs) = wins(bv, cv, def.better);
            failing += usize::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            table.row(vec![
                workload.clone(),
                def.name.to_owned(),
                fmt(quartiles(bv), bv.len()),
                fmt(quartiles(cv), cv.len()),
                format!("{won}/{pairs}"),
                v.label().to_owned(),
            ]);
        }
        let rate = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
        let worse = rate(c) > rate(b);
        failing += usize::from(worse);
        table.row(vec![
            workload.clone(),
            "error_rate".to_owned(),
            format!("{}/{}", b.failed, b.attempted),
            format!("{}/{}", c.failed, c.attempted),
            "-".to_owned(),
            if worse { Verdict::Worse } else { Verdict::Same }
                .label()
                .to_owned(),
        ]);
    }
    print!("{}", table.to_text());
    Ok(i32::from(failing > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_win_is_better() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0,
        ];
        let change: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&base, &change, Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(wins(&base, &change, Better::Higher), (10, 10));
    }

    #[test]
    fn fewer_than_ten_pairs_claim_nothing() {
        let base = [100.0, 101.0, 99.0];
        let change = [150.0, 151.0, 149.0];
        assert_eq!(
            verdict(&base, &change, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&change, &base, Better::Higher, 0.1), Verdict::Worse);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = [5.0; 10];
        assert_eq!(wins(&base, &base, Better::Lower), (0, 10));
        assert_eq!(verdict(&base, &base, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let base = [
            50.0, 100.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let change = [
            100.0, 95.0, 105.0, 90.0, 110.0, 100.0, 98.0, 102.0, 97.0, 103.0,
        ];
        assert_eq!(
            verdict(&base, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn slowdown_beyond_the_bound_is_worse() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let change: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &change, Better::Lower, 0.1), Verdict::Worse);
        let slight: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&base, &slight, Better::Lower, 0.1), Verdict::Same);
    }
}
