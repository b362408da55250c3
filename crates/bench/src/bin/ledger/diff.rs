//! `ledger diff A B`: compares the end-to-end metrics of two sets of runs
//! with the bounds in `BENCHMARK.json` and prints one row per workload.
//!
//! A and B are saved ledger outputs; every JSON record line in them (one
//! per workload per run) counts, so a file may hold several runs, whose
//! medians are compared. A metric whose spread in A (the distance between
//! the quartiles, as a share of the median) exceeds its bound is
//! unresolved, unless every run of B beats every run of A. The spread is
//! taken between A's runs when it holds several, and from the quartiles of
//! the repetitions inside its one run otherwise.

use crate::json::Json;
use crate::measure::{median, quantile};
use crate::spec::{Better, Spec};
use std::collections::BTreeMap;

/// Ordered so that a workload's row is the maximum of its metrics'
/// verdicts: any worse metric makes the row worse, then any unresolved one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Within,
    Improved,
    Unresolved,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One run's value of a metric, with the quartiles of the repetitions
/// behind it when the record carries them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

/// Metric values per workload per metric, one per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<Value>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let metrics = runs.entry(workload.to_string()).or_default();
        for (name, m) in doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            let num = |key: &str| m.get(key).and_then(Json::as_f64);
            if let Some(value) = num("value") {
                let quartiles = num("q1").zip(num("q3"));
                metrics
                    .entry(name.clone())
                    .or_default()
                    .push(Value { value, quartiles });
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{path}: no ledger records"));
    }
    Ok(runs)
}

/// Judges B against A for one metric. `bound` is the share of A's median
/// by which B may be worse.
pub fn judge(a: &[Value], b: &[Value], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (a, quartiles): (Vec<f64>, Vec<_>) = a.iter().map(|v| (v.value, v.quartiles)).unzip();
    let b: Vec<f64> = b.iter().map(|v| v.value).collect();
    let (ma, mb) = (median(&a), median(&b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / base;
    let spread = match quartiles.as_slice() {
        [Some((q1, q3))] => (q3 - q1) / base,
        _ => (quantile(&a, 0.75) - quantile(&a, 0.25)) / base,
    };
    let fold = |xs: &[f64], f: fn(f64, f64) -> f64, init: f64| xs.iter().copied().fold(init, f);
    let b_always_better = match better {
        Better::Lower => fold(&b, f64::max, f64::MIN) < fold(&a, f64::min, f64::MAX),
        Better::Higher => fold(&b, f64::min, f64::MAX) > fold(&a, f64::max, f64::MIN),
    };
    if spread > bound {
        if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger diff: {e}");
            return 2;
        }
    };
    let spec = Spec::load();
    let empty = BTreeMap::new();
    let mut any_worse = false;
    println!(
        "{:<16} {:<13} metrics (A median -> B median, change, bound)",
        "workload", "verdict"
    );
    for w in spec
        .workloads
        .iter()
        .filter(|w| a.contains_key(*w) || b.contains_key(*w))
    {
        let (ma, mb) = (a.get(w).unwrap_or(&empty), b.get(w).unwrap_or(&empty));
        let mut row = Verdict::Within;
        let mut cells = Vec::new();
        for m in &spec.end_to_end {
            let none = Vec::new();
            let (xa, xb) = (
                ma.get(&m.name).unwrap_or(&none),
                mb.get(&m.name).unwrap_or(&none),
            );
            let bound = m.bound.unwrap_or(0.0);
            let v = judge(xa, xb, m.better, bound);
            row = row.max(v);
            let med = |xs: &[Value]| median(&xs.iter().map(|x| x.value).collect::<Vec<_>>());
            let (da, db) = (med(xa), med(xb));
            cells.push(format!(
                "{} {}->{} {:+.1}% (±{:.0}%) {}",
                m.name,
                significant(da),
                significant(db),
                (db / da - 1.0) * 100.0,
                bound * 100.0,
                v.label()
            ));
        }
        any_worse |= row == Verdict::Worse;
        println!("{w:<16} {:<13} {}", row.label(), cells.join("; "));
    }
    i32::from(any_worse)
}

/// `x` with four significant digits, so that microseconds and megabytes
/// both stay readable.
fn significant(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(xs: &[f64]) -> Vec<Value> {
        xs.iter()
            .map(|&value| Value {
                value,
                quartiles: None,
            })
            .collect()
    }

    #[test]
    fn judges_by_bound_and_spread() {
        let a = runs(&[1.0, 1.01, 0.99, 1.0]);
        let judge_a = |b: &[f64], better| judge(&a, &runs(b), better, 0.1);
        assert_eq!(judge_a(&[1.05], Better::Lower), Verdict::Within);
        assert_eq!(judge_a(&[1.2], Better::Lower), Verdict::Worse);
        assert_eq!(judge_a(&[0.8], Better::Lower), Verdict::Improved);
        assert_eq!(judge_a(&[0.8], Better::Higher), Verdict::Worse);
        // Noisier than the bound: unresolved unless B beats every run of A.
        let noisy = runs(&[1.0, 1.5, 0.7, 1.2]);
        assert_eq!(
            judge(&noisy, &runs(&[1.3]), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &runs(&[0.5, 0.6]), Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            judge(&[], &runs(&[1.0]), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn prints_four_significant_digits() {
        assert_eq!(significant(3.62817e-5), "0.00003628");
        assert_eq!(significant(85.1254), "85.13");
        assert_eq!(significant(3131.3), "3131");
        assert_eq!(significant(0.0), "0");
    }

    #[test]
    fn one_run_is_judged_by_its_own_quartiles() {
        let one = |q1, q3| {
            [Value {
                value: 1.0,
                quartiles: Some((q1, q3)),
            }]
        };
        let b = runs(&[1.3]);
        assert_eq!(
            judge(&one(0.98, 1.02), &b, Better::Lower, 0.25),
            Verdict::Worse
        );
        assert_eq!(
            judge(&one(0.8, 1.1), &b, Better::Lower, 0.25),
            Verdict::Unresolved
        );
        // Several runs: the spread between them counts, not the quartiles.
        let mut two = one(0.8, 1.1).to_vec();
        two.push(two[0]);
        assert_eq!(judge(&two, &b, Better::Lower, 0.25), Verdict::Worse);
    }
}
