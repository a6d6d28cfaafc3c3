//! `compare A.json B.json`: is set B no worse than set A?
//!
//! Applies each end-to-end metric's bound, holds exact counts and the state
//! checksum to equality, prints one row per (metric, workload), and reports
//! whether anything was breached.

use crate::metrics::{END_TO_END, PER_LAYER};
use serde::Content;

pub fn field<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    match c {
        Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(set: &Content, workload: &str, group: &str, metric: &str) -> Option<f64> {
    field(
        field(field(field(set, workload)?, group)?, metric)?,
        "value",
    )?
    .as_f64()
}

/// By what share of `a` is `b` worse, given which direction is better.
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let delta = if better == "higher" { a - b } else { b - a };
    delta / a.abs().max(1e-300)
}

/// Prints the rows; returns the number of breaches.
pub fn compare(a: &Content, b: &Content, workloads: &[&str]) -> usize {
    let mut breaches = 0;
    let mut row = |workload: &str, metric: &str, a: String, b: String, note: String, bad: bool| {
        println!(
            "{:<16} {:<42} {:>16} {:>16}  {}{}",
            workload,
            metric,
            a,
            b,
            note,
            if bad { "  BREACH" } else { "" }
        );
        breaches += usize::from(bad);
    };
    for w in workloads {
        for e in END_TO_END {
            match (
                number(a, w, "end_to_end", e.name),
                number(b, w, "end_to_end", e.name),
            ) {
                (Some(x), Some(y)) => {
                    let worse = worsening(x, y, e.better);
                    let note = format!(
                        "{:+.1}% worse (bound {:.0}%)",
                        100.0 * worse,
                        100.0 * e.bound
                    );
                    row(
                        w,
                        e.name,
                        format!("{x:.4}"),
                        format!("{y:.4}"),
                        note,
                        worse > e.bound,
                    );
                }
                _ => row(w, e.name, "-".into(), "-".into(), "missing".into(), true),
            }
        }
        for p in PER_LAYER.iter().filter(|p| p.exact) {
            match (
                number(a, w, "per_layer", p.name),
                number(b, w, "per_layer", p.name),
            ) {
                (Some(x), Some(y)) => row(
                    w,
                    p.name,
                    x.to_string(),
                    y.to_string(),
                    "exact".into(),
                    x != y,
                ),
                _ => row(w, p.name, "-".into(), "-".into(), "missing".into(), true),
            }
        }
        let sum = |set| field(field(set, w)?, "checksum").cloned();
        let (x, y) = (sum(a), sum(b));
        let bad = x.is_none() || x != y;
        row(
            w,
            "state checksum",
            format!("{x:?}"),
            format!("{y:?}"),
            "exact".into(),
            bad,
        );
        for set in [a, b] {
            let failed =
                field(field(set, w).unwrap_or(&Content::Null), "failed").and_then(Content::as_f64);
            if failed != Some(0.0) {
                row(
                    w,
                    "failed steps",
                    format!("{failed:?}"),
                    String::new(),
                    "must be 0".into(),
                    true,
                );
            }
        }
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worsening(100.0, 90.0, "lower") < 0.0);
    }

    fn set(rate: f64, parcels: f64) -> Content {
        let value = |v: f64| Content::Map(vec![("value".into(), Content::F64(v))]);
        let e2e = END_TO_END.iter().map(|e| {
            (
                e.name.to_string(),
                value(if e.name == "cell_updates_per_s" {
                    rate
                } else {
                    1.0
                }),
            )
        });
        let layers = PER_LAYER.iter().map(|p| {
            (
                p.name.to_string(),
                value(if p.name == "hpx_rt.parcels_per_step" {
                    parcels
                } else {
                    2.0
                }),
            )
        });
        Content::Map(vec![(
            "w".into(),
            Content::Map(vec![
                ("failed".into(), Content::U64(0)),
                ("checksum".into(), Content::Str("abc".into())),
                ("end_to_end".into(), Content::Map(e2e.collect())),
                ("per_layer".into(), Content::Map(layers.collect())),
            ]),
        )])
    }

    #[test]
    fn bounds_and_exact_counts_are_enforced() {
        assert_eq!(compare(&set(10.0, 4.0), &set(7.6, 4.0), &["w"]), 0);
        assert_eq!(compare(&set(10.0, 4.0), &set(7.4, 4.0), &["w"]), 1);
        assert_eq!(compare(&set(10.0, 4.0), &set(10.0, 5.0), &["w"]), 1);
        assert!(compare(&set(10.0, 4.0), &Content::Map(vec![]), &["w"]) > 0);
    }
}
