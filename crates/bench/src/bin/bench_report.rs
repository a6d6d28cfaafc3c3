//! `bench_report` — merge every `BENCH_*.json` artifact at the workspace
//! root into one summary.
//!
//! Each benchmark binary (the Figure 7 kernel report, the autotune closed
//! loop) drops a [`bench::FigureReport`] as `BENCH_<name>.json`.  CI runs them as separate jobs, so no single
//! job sees the whole picture; this binary is the merge point.  It prints
//! a markdown digest (one row per report: series count, point count,
//! checks passed) followed by every failing check verbatim, then the
//! ROADMAP's "size" row — non-test lines and `pub` items per crate, so a
//! deletion is a tracked number — and writes the same digest to
//! `BENCH_SUMMARY.md`.
//!
//! Usage: `cargo run -p bench --bin bench_report [-- <file>...]`
//! With no arguments it globs `BENCH_*.json` in the workspace root.
//! Exit code: 1 on unreadable/unparsable input, 0 otherwise — a failing
//! *check* is reported but does not fail the merge (the job that
//! produced it already failed).

use serde::Content;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

struct ReportDigest {
    file: String,
    id: String,
    title: String,
    series: usize,
    points: usize,
    checks_passed: usize,
    checks_total: usize,
    failing: Vec<String>,
}

fn digest(path: &Path) -> Result<ReportDigest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Content = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let str_of = |v: &Content, key: &str| {
        v.get(key)
            .and_then(Content::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let points = v
        .get("points")
        .and_then(Content::as_seq)
        .unwrap_or_default();
    let series: BTreeSet<&str> = points
        .iter()
        .filter_map(|p| p.get("series").and_then(Content::as_str))
        .collect();
    let checks = v
        .get("checks")
        .and_then(Content::as_seq)
        .unwrap_or_default();
    let passed = checks
        .iter()
        .filter(|c| c.get("pass").and_then(Content::as_bool) == Some(true))
        .count();
    let failing = checks
        .iter()
        .filter(|c| c.get("pass").and_then(Content::as_bool) != Some(true))
        .map(|c| str_of(c, "claim"))
        .collect();
    Ok(ReportDigest {
        file: path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        ),
        id: str_of(&v, "id"),
        title: str_of(&v, "title"),
        series: series.len(),
        points: points.len(),
        checks_passed: passed,
        checks_total: checks.len(),
        failing,
    })
}

fn summarize(digests: &[ReportDigest]) -> String {
    let mut out = String::from("# Benchmark summary\n\n");
    out += "| report | id | series | points | checks | title |\n";
    out += "|---|---|---|---|---|---|\n";
    for d in digests {
        let checks = if d.checks_total == 0 {
            "-".to_owned()
        } else if d.checks_passed == d.checks_total {
            format!("{}/{} PASS", d.checks_passed, d.checks_total)
        } else {
            format!("{}/{} **FAIL**", d.checks_passed, d.checks_total)
        };
        out += &format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            d.file, d.id, d.series, d.points, checks, d.title
        );
    }
    let failing: Vec<(&str, &str)> = digests
        .iter()
        .flat_map(|d| d.failing.iter().map(move |f| (d.file.as_str(), f.as_str())))
        .collect();
    if failing.is_empty() {
        out += "\nAll checks pass.\n";
    } else {
        out += "\n## Failing checks\n\n";
        for (file, claim) in failing {
            out += &format!("- `{file}`: {claim}\n");
        }
    }
    out
}

/// Non-test lines and `pub` items of one source file: everything above
/// its `#[cfg(test)] mod tests` (comments and blank lines included — the
/// measure the ROADMAP's size targets are stated in), and of those the
/// lines that open an unrestricted `pub` item (`pub(crate)` and
/// `pub(super)` are not public surface; fields and re-exports are not
/// items of their own).
fn file_size(text: &str) -> (usize, usize) {
    const ITEMS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .find(|&i| {
            lines[i].trim() == "#[cfg(test)]"
                && lines
                    .get(i + 1)
                    .is_some_and(|l| l.trim_start().starts_with("mod tests"))
        })
        .unwrap_or(lines.len());
    let opens_item = |rest: &str| {
        ITEMS
            .iter()
            .any(|kw| rest.strip_prefix(kw).is_some_and(|r| r.starts_with(' ')))
    };
    let pubs = lines[..end]
        .iter()
        .filter_map(|l| l.trim_start().strip_prefix("pub "))
        .filter(|rest| opens_item(rest.strip_prefix("unsafe ").unwrap_or(rest)))
        .count();
    (end, pubs)
}

/// `(files, non-test lines, pub items)` of every `.rs` file under `dir`.
fn dir_size(dir: &Path) -> (usize, usize, usize) {
    let mut total = (0, 0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for path in entries.filter_map(Result::ok).map(|e| e.path()) {
        let (files, lines, pubs) = if path.is_dir() {
            dir_size(&path)
        } else if path.extension().is_some_and(|e| e == "rs") {
            let (lines, pubs) = file_size(&std::fs::read_to_string(&path).unwrap_or_default());
            (1, lines, pubs)
        } else {
            continue;
        };
        total = (total.0 + files, total.1 + lines, total.2 + pubs);
    }
    total
}

/// The size table: one row per crate under `crates/` (its `src/` tree).
fn size_table(root: &Path) -> String {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|d| d.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    let mut out = String::from("\n## Size\n\n");
    out += "Non-test lines (everything above `#[cfg(test)] mod tests`, comments \
            included) and unrestricted `pub` items under each crate's `src/`.\n\n";
    out += "| crate | files | non-test lines | pub items |\n|---|---|---|---|\n";
    let mut total = (0, 0, 0);
    for dir in crates {
        let (files, lines, pubs) = dir_size(&dir.join("src"));
        if files == 0 {
            continue;
        }
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        out += &format!("| {name} | {files} | {lines} | {pubs} |\n");
        total = (total.0 + files, total.1 + lines, total.2 + pubs);
    }
    out += &format!("| **total** | {} | {} | {} |\n", total.0, total.1, total.2);
    out
}

fn main() {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<PathBuf> = if args.is_empty() {
        let mut found: Vec<PathBuf> = std::fs::read_dir(&root)
            .expect("read workspace root")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        found.sort();
        found
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    if files.is_empty() {
        eprintln!("no BENCH_*.json found in {}", root.display());
        std::process::exit(1);
    }

    let mut digests = Vec::new();
    let mut broken = 0;
    for f in &files {
        match digest(f) {
            Ok(d) => digests.push(d),
            Err(e) => {
                eprintln!("error: {e}");
                broken += 1;
            }
        }
    }
    let summary = summarize(&digests) + &size_table(&root);
    println!("{summary}");
    let out = root.join("BENCH_SUMMARY.md");
    std::fs::write(&out, &summary).expect("write BENCH_SUMMARY.md");
    println!("wrote {}", out.display());
    std::process::exit(i32::from(broken > 0));
}

#[cfg(test)]
mod tests {
    use super::file_size;

    #[test]
    fn size_counts_stop_at_the_test_module_and_skip_restricted_items() {
        let text = "//! doc\npub fn a() {}\npub(crate) fn b() {}\n    pub unsafe fn c() {}\n\
                    pub struct S {\n    pub field: u8,\n}\npub use x::y;\nfn private() {}\n\
                    #[cfg(test)]\nmod tests {\n    pub fn not_counted() {}\n}\n";
        assert_eq!(file_size(text), (9, 3));
        assert_eq!(file_size("pub fn only() {}\n"), (1, 1));
    }
}
