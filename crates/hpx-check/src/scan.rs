//! Source lints over stripped Rust source.
//!
//! **Wait lint** — no blocking waits inside kernel bodies.  A
//! `Future::wait()` (or blocking value getter) inside a
//! `parallel_for`/`parallel_reduce` kernel body occupies a worker for the
//! whole wait.  On the real machine that serializes an entire core team;
//! under the deterministic scheduler it is a stall; with HPX task inlining
//! it can deadlock outright when the awaited task would have run on the
//! same worker.  Futures exist precisely so ordering is expressed with
//! `then`/`when_all` edges *outside* kernels — so the lint bans the
//! blocking calls inside them.
//!
//! **Allocation lint** ([`scan_source_allocs`]) — no heap allocation
//! inside kernel bodies.  The solver's steady state is allocation-free
//! (recycled expansion buffers, scratch arenas, frozen plans); a
//! `vec!`/`.collect()` inside a hot kernel re-introduces per-launch
//! allocator traffic and, on the paper's A64FX nodes, allocator lock
//! contention across the 48 cores of a CMG-spanning team.
//!
//! **FP-determinism lint** ([`scan_source_fp`]) — no shared
//! floating-point accumulators.  `Mutex<f64>` fields and `+=` through a
//! lock make the sum's order depend on task completion order, breaking
//! the bit-identical invariant every solver path pins (the PR 6
//! `boundary_mass_outflow_rate` bug class: accumulate per-task, fold in
//! a fixed order).
//!
//! Mechanics shared by all three: strings and comments are stripped
//! (newlines preserved), each kernel-entry call's balanced-parenthesis
//! argument region is scanned, and banned patterns inside are flagged.
//! Benign deliberate uses go in the allowlist file (`hpx-check.allow`,
//! lines of `path:line` or whole-`path`, `#` comments);
//! [`Allowlist::stale_entries`] reports allowlist lines that no longer
//! match any raw finding so the file cannot rot silently.  The two new
//! lints guard *production* steady-state invariants, so they skip
//! `tests/`, `benches/` and `examples/` directories and blank
//! `#[cfg(test)]` modules before scanning.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Functions whose final closure argument runs *inside* a kernel.
const KERNEL_ENTRIES: &[&str] = &[
    "parallel_for",
    "parallel_for_mut",
    "parallel_reduce",
    "launch_reduce_async",
];

/// Blocking calls banned inside kernel bodies.
const BLOCKING_CALLS: &[&str] = &["wait", "get"];

/// Heap-allocation patterns banned inside kernel bodies.  `vec!` is a
/// macro (bracket follows); the rest must be calls.
const ALLOC_PATTERNS: &[&str] = &["Vec::new", "vec!", "Box::new", ".to_vec", ".collect"];

/// One banned blocking call found inside a kernel argument region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitLintFinding {
    /// Path label of the offending file (as given to the scanner).
    pub path: String,
    /// 1-based line of the blocking call.
    pub line: usize,
    /// The kernel-entry function whose argument region contains the call.
    pub kernel: String,
    /// The banned call (`wait` or `get`).
    pub call: String,
}

impl std::fmt::Display for WaitLintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: blocking `.{}()` inside `{}` kernel arguments — \
             express the ordering with a launch dependency instead",
            self.path, self.line, self.call, self.kernel
        )
    }
}

/// Replace comments, string literals and char literals with spaces,
/// preserving every newline so byte offsets keep their line numbers.
fn strip_comments_and_strings(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for slot in &mut out[from..to] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|o| i + o).unwrap_or(b.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j + 1 < b.len() && depth > 0 {
                    if b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.min(b.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    if b[j] == b'\\' {
                        j += 2;
                    } else if b[j] == b'"' {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                let end = j.min(b.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"..." / r#"..."# (any hash count).
                let mut hashes = 0;
                let mut j = i + 1;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while k < b.len() && b[k] == b'#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    let end = j.min(b.len());
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal ('x', '\n', '\u{1F600}') vs lifetime
                // ('static): a lifetime has no closing quote nearby.
                let rest = &b[i + 1..];
                let close = if rest.first() == Some(&b'\\') {
                    rest.iter().skip(1).position(|&c| c == b'\'').map(|p| p + 1)
                } else if rest.get(1) == Some(&b'\'') {
                    Some(1)
                } else {
                    None
                };
                if let Some(off) = close {
                    let end = (i + 2 + off).min(b.len());
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1; // lifetime: leave it
                }
            }
            _ => i += 1,
        }
    }
    out
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn line_of(src: &[u8], offset: usize) -> usize {
    1 + src[..offset].iter().filter(|&&c| c == b'\n').count()
}

/// Every kernel-entry call's balanced-parenthesis argument region in a
/// stripped source: `(entry name, region start, region end)`.  Nested
/// entries produce nested (overlapping) regions.
fn kernel_regions(clean: &[u8]) -> Vec<(&'static str, usize, usize)> {
    let mut regions = Vec::new();
    for entry in KERNEL_ENTRIES {
        let pat = entry.as_bytes();
        let mut from = 0;
        while let Some(pos) = find_from(clean, pat, from) {
            from = pos + pat.len();
            // Token boundaries: not part of a longer identifier.
            if pos > 0 && is_ident(clean[pos - 1]) {
                continue;
            }
            let mut j = pos + pat.len();
            // Allow whitespace between name and `(`.
            while j < clean.len() && (clean[j] as char).is_whitespace() {
                j += 1;
            }
            if j >= clean.len() || clean[j] != b'(' {
                continue;
            }
            // Balanced-paren argument region.
            let mut depth = 0usize;
            let start = j;
            let mut end = clean.len();
            while j < clean.len() {
                match clean[j] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((*entry, start, end));
        }
    }
    regions
}

/// Scan one file's source text; `path_label` is used verbatim in findings.
pub fn scan_source(path_label: &str, src: &str) -> Vec<WaitLintFinding> {
    let clean = strip_comments_and_strings(src);
    let mut findings = Vec::new();
    for (entry, start, end) in kernel_regions(&clean) {
        for call in BLOCKING_CALLS {
            let needle = format!(".{call}");
            let nb = needle.as_bytes();
            let mut k = start;
            while let Some(hit) = find_from(&clean[..end], nb, k) {
                k = hit + nb.len();
                let after = hit + nb.len();
                // Must be a call: `.wait(` — not `.wait_for` etc.
                let mut a = after;
                while a < end && (clean[a] as char).is_whitespace() {
                    a += 1;
                }
                if a < end && clean[a] == b'(' && !is_ident(clean[after]) {
                    findings.push(WaitLintFinding {
                        path: path_label.to_owned(),
                        line: line_of(&clean, hit),
                        kernel: entry.to_owned(),
                        call: (*call).to_owned(),
                    });
                }
            }
        }
    }
    findings.sort_by(|a, b| (a.line, &a.call).cmp(&(b.line, &b.call)));
    findings.dedup();
    findings
}

/// One banned pattern found by the allocation or FP-determinism lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFinding {
    /// Path label of the offending file (as given to the scanner).
    pub path: String,
    /// 1-based line of the pattern.
    pub line: usize,
    /// Which lint fired: `"alloc"` or `"fp-determinism"`.
    pub lint: &'static str,
    /// The banned pattern that matched (e.g. `.collect`, `Mutex<f64>`).
    pub pattern: String,
    /// Where it matched: the kernel entry whose argument region contains
    /// it, or `"field"` / `"lock-accumulate"` for the FP lint.
    pub context: String,
}

impl std::fmt::Display for SourceFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.lint {
            "alloc" => write!(
                f,
                "{}:{}: heap allocation `{}` inside `{}` kernel arguments — kernels must \
                 stay allocation-free in the steady state (preallocate, recycle, or use \
                 fixed-size arrays)",
                self.path, self.line, self.pattern, self.context
            ),
            _ => write!(
                f,
                "{}:{}: `{}` ({}) — shared floating-point accumulation depends on task \
                 completion order; accumulate per task and fold in a fixed order",
                self.path, self.line, self.pattern, self.context
            ),
        }
    }
}

/// Blank `#[cfg(test)]` items (typically `mod tests { … }`) in a stripped
/// source, preserving newlines: the production-invariant lints must not
/// fire on test scaffolding that allocates or locks freely.
fn strip_cfg_test_modules(clean: &mut [u8]) {
    const ATTR: &[u8] = b"#[cfg(test)]";
    // Search a snapshot while blanking in place; blanked spans are skipped
    // by advancing `from` past them, so stale snapshot hits inside them
    // are never revisited.
    let snapshot = clean.to_vec();
    let mut from = 0;
    while let Some(pos) = find_from(&snapshot, ATTR, from) {
        from = pos + ATTR.len();
        // Find the item's opening brace; a `;` first means a braceless
        // item (nothing to blank).
        let mut j = pos + ATTR.len();
        while j < clean.len() && clean[j] != b'{' && clean[j] != b';' {
            j += 1;
        }
        if j >= clean.len() || clean[j] == b';' {
            continue;
        }
        let start = j;
        let mut depth = 0usize;
        while j < clean.len() {
            match clean[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = (j + 1).min(clean.len());
        for slot in &mut clean[start..end] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
        from = end;
    }
}

/// Allocation lint: flag heap-allocation patterns inside kernel-entry
/// argument regions.  `path_label` is used verbatim in findings.
pub fn scan_source_allocs(path_label: &str, src: &str) -> Vec<SourceFinding> {
    let mut clean = strip_comments_and_strings(src);
    strip_cfg_test_modules(&mut clean);
    let mut findings = Vec::new();
    for (entry, start, end) in kernel_regions(&clean) {
        for pat in ALLOC_PATTERNS {
            let nb = pat.as_bytes();
            let mut k = start;
            while let Some(hit) = find_from(&clean[..end], nb, k) {
                k = hit + nb.len();
                // Token boundary on the left (`.collect`/`.to_vec` carry
                // their own `.`).
                if hit > 0 && !nb.starts_with(b".") && is_ident(clean[hit - 1]) {
                    continue;
                }
                let after = hit + nb.len();
                if after < end && is_ident(clean[after]) {
                    continue; // `.collected`, `vec!x`? not ours
                }
                // Calls need `(` (possibly after `::<…>` turbofish); the
                // `vec!` macro needs a bracket.
                let mut a = after;
                while a < end && (clean[a] as char).is_whitespace() {
                    a += 1;
                }
                if *pat == "vec!" {
                    if a >= end || !matches!(clean[a], b'[' | b'(' | b'{') {
                        continue;
                    }
                } else {
                    if a + 1 < end && clean[a] == b':' && clean[a + 1] == b':' {
                        // Skip a turbofish `::<…>`.
                        a += 2;
                        if a < end && clean[a] == b'<' {
                            let mut depth = 0usize;
                            while a < end {
                                match clean[a] {
                                    b'<' => depth += 1,
                                    b'>' => {
                                        depth -= 1;
                                        if depth == 0 {
                                            a += 1;
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                a += 1;
                            }
                        }
                    }
                    if a >= end || clean[a] != b'(' {
                        continue;
                    }
                }
                findings.push(SourceFinding {
                    path: path_label.to_owned(),
                    line: line_of(&clean, hit),
                    lint: "alloc",
                    pattern: (*pat).to_owned(),
                    context: entry.to_owned(),
                });
            }
        }
    }
    findings.sort_by(|a, b| (a.line, &a.pattern).cmp(&(b.line, &b.pattern)));
    findings.dedup();
    findings
}

/// FP-determinism lint: flag `Mutex<f64>`/`Mutex<f32>` accumulator fields
/// anywhere, and statements that accumulate (`+=`) through a `.lock()` —
/// both make floating-point sums depend on task completion order.
pub fn scan_source_fp(path_label: &str, src: &str) -> Vec<SourceFinding> {
    let mut clean = strip_comments_and_strings(src);
    strip_cfg_test_modules(&mut clean);
    let mut findings = Vec::new();
    for ty in ["Mutex<f64>", "Mutex<f32>", "RwLock<f64>", "RwLock<f32>"] {
        let nb = ty.as_bytes();
        let mut k = 0;
        while let Some(hit) = find_from(&clean, nb, k) {
            k = hit + nb.len();
            if hit > 0 && is_ident(clean[hit - 1]) {
                continue;
            }
            findings.push(SourceFinding {
                path: path_label.to_owned(),
                line: line_of(&clean, hit),
                lint: "fp-determinism",
                pattern: ty.to_owned(),
                context: "field".to_owned(),
            });
        }
    }
    // Statement-level: `.lock(` and `+=` in one statement means a shared
    // accumulator is being folded in completion order.  Statements are
    // delimited by `;` and braces.
    let mut stmt_start = 0usize;
    for i in 0..=clean.len() {
        let boundary = i == clean.len() || matches!(clean[i], b';' | b'{' | b'}');
        if !boundary {
            continue;
        }
        let stmt = &clean[stmt_start..i];
        if let (Some(_), Some(add)) = (find_from(stmt, b".lock(", 0), find_from(stmt, b"+=", 0)) {
            findings.push(SourceFinding {
                path: path_label.to_owned(),
                line: line_of(&clean, stmt_start + add),
                lint: "fp-determinism",
                pattern: "+= through .lock()".to_owned(),
                context: "lock-accumulate".to_owned(),
            });
        }
        stmt_start = i + 1;
    }
    findings.sort_by(|a, b| (a.line, &a.pattern).cmp(&(b.line, &b.pattern)));
    findings.dedup();
    findings
}

fn find_from(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= hay.len() || needle.is_empty() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Allowlist: exact `path:line` entries and whole-`path` entries, with
/// `#` comments.  Paths are compared as written in findings (relative,
/// forward slashes).
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    lines: HashSet<(String, usize)>,
    files: HashSet<String>,
}

impl Allowlist {
    /// Parse allowlist text.
    pub(crate) fn parse(text: &str) -> Self {
        let mut allow = Allowlist::default();
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some((path, num)) = line.rsplit_once(':') {
                if let Ok(n) = num.parse::<usize>() {
                    allow.lines.insert((path.to_owned(), n));
                    continue;
                }
            }
            allow.files.insert(line.to_owned());
        }
        allow
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Self {
        std::fs::read_to_string(path)
            .map(|t| Self::parse(&t))
            .unwrap_or_default()
    }

    /// `true` when `finding` is explicitly allowed.
    pub(crate) fn permits(&self, finding: &WaitLintFinding) -> bool {
        self.permits_site(&finding.path, finding.line)
    }

    /// `true` when the exact `path:line` site (or its whole file) is
    /// allowed.  All lints share one allowlist namespace.
    pub(crate) fn permits_site(&self, path: &str, line: usize) -> bool {
        self.files.contains(path) || self.lines.contains(&(path.to_owned(), line))
    }

    /// Allowlist entries that match none of `sites` (the raw, pre-filter
    /// findings of every lint) — the rot check: a stale entry means the
    /// code it excused moved or was fixed, and the excuse now silently
    /// covers whatever drifts onto that line next.  Returned as the
    /// entries were written (`path:line` or `path`), sorted.
    pub fn stale_entries(&self, sites: &[(String, usize)]) -> Vec<String> {
        let mut stale = Vec::new();
        for (path, line) in &self.lines {
            if !sites.iter().any(|(p, l)| p == path && l == line) {
                stale.push(format!("{path}:{line}"));
            }
        }
        for path in &self.files {
            if !sites.iter().any(|(p, _)| p == path) {
                stale.push(path.clone());
            }
        }
        stale.sort();
        stale
    }
}

/// Recursively collect `.rs` files under `root`, skipping build output,
/// vendored dependencies and VCS metadata.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    const SKIP: &[&str] = &["target", "vendor", ".git"];
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Scan every Rust source file under `root`, dropping findings `allow`
/// permits.  Finding paths are `root`-relative with forward slashes.
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> Vec<WaitLintFinding> {
    let mut findings = Vec::new();
    for file in rust_files(root) {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let label = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(
            scan_source(&label, &src)
                .into_iter()
                .filter(|f| !allow.permits(f)),
        );
    }
    findings
}

/// `true` when `label` (a root-relative, forward-slash path) is test
/// scaffolding the production-invariant lints skip.
fn is_test_scaffolding(label: &str) -> bool {
    label
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

/// Run the allocation and FP-determinism lints over every *production*
/// Rust source file under `root`, dropping findings `allow` permits.
/// Also returns the raw (pre-filter, pre-allowlist) sites of **all three**
/// lints, which [`Allowlist::stale_entries`] compares entries against.
pub fn scan_workspace_invariants(
    root: &Path,
    allow: &Allowlist,
) -> (Vec<SourceFinding>, Vec<(String, usize)>) {
    let mut findings = Vec::new();
    let mut raw_sites = Vec::new();
    for file in rust_files(root) {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let label = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        // The wait lint's raw sites count toward allowlist staleness even
        // though its filtered findings are reported by `waitlint`.
        raw_sites.extend(
            scan_source(&label, &src)
                .into_iter()
                .map(|f| (f.path, f.line)),
        );
        if is_test_scaffolding(&label) {
            continue;
        }
        for f in scan_source_allocs(&label, &src)
            .into_iter()
            .chain(scan_source_fp(&label, &src))
        {
            raw_sites.push((f.path.clone(), f.line));
            if !allow.permits_site(&f.path, f.line) {
                findings.push(f);
            }
        }
    }
    (findings, raw_sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_wait_inside_kernel_body() {
        let src = "fn f(rt: &Runtime) {\n\
                   \x20   parallel_for(&space, policy, |i| {\n\
                   \x20       dep.wait();\n\
                   \x20       out[i] = 1.0;\n\
                   \x20   });\n\
                   }\n";
        let findings = scan_source("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert_eq!(findings[0].call, "wait");
        assert_eq!(findings[0].kernel, "parallel_for");
    }

    #[test]
    fn wait_outside_kernel_is_fine() {
        let src = "fn f() {\n    parallel_for(&s, p, |i| { o[i] = 1.0; });\n    fut.wait();\n}\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_are_ignored() {
        let src = "fn f() {\n\
                   \x20   // parallel_for(&s, p, |i| { d.wait(); });\n\
                   \x20   let msg = \"parallel_for(|i| x.wait())\";\n\
                   \x20   parallel_reduce(&s, p, |i, acc| {\n\
                   \x20       /* d.wait() in a comment */\n\
                   \x20       *acc += 1.0;\n\
                   \x20   }, &mut out);\n\
                   }\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn wait_like_names_are_not_flagged() {
        let src = "fn f() {\n    parallel_for(&s, p, |i| { x.wait_for_it(); y.getter(); });\n}\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn get_inside_async_launch_is_flagged_and_allowlistable() {
        let src = "fn f() {\n    launch_reduce_async(rt, s, p, 0.0, move |i| {\n        m.get(i)\n    }, f64::max);\n}\n";
        let findings = scan_source("a/b.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].call, "get");
        let allow = Allowlist::parse("# comment\na/b.rs:3\n");
        assert!(allow.permits(&findings[0]));
        let whole_file = Allowlist::parse("a/b.rs\n");
        assert!(whole_file.permits(&findings[0]));
        let other = Allowlist::parse("a/b.rs:4\n");
        assert!(!other.permits(&findings[0]));
    }

    #[test]
    fn nested_kernel_regions_are_scanned() {
        let src = "fn f() {\n\
                   \x20   launch_reduce_async(rt, s, p, 0.0, |i| {\n\
                   \x20       parallel_for(&s2, p2, |j| { q.wait(); });\n\
                   \x20       0.0\n\
                   \x20   }, f64::max);\n\
                   }\n";
        let findings = scan_source("x.rs", src);
        // Hit reported for both enclosing regions, deduped by line+call
        // only if identical kernel; at least one finding must survive.
        assert!(findings.iter().any(|f| f.line == 3 && f.call == "wait"));
    }

    // ---- Allocation lint. ----------------------------------------------

    #[test]
    fn alloc_patterns_inside_kernels_are_flagged() {
        let src = "fn f() {\n\
                   \x20   parallel_for_mut(&s, p, buf, |i, out| {\n\
                   \x20       let v: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();\n\
                   \x20       let w = vec![0.0; 8];\n\
                   \x20       let b = Box::new(v);\n\
                   \x20       let c = Vec::new();\n\
                   \x20       let d = ys.to_vec();\n\
                   \x20       *out = w[0];\n\
                   \x20   });\n\
                   }\n";
        let findings = scan_source_allocs("x.rs", src);
        let pats: Vec<&str> = findings.iter().map(|f| f.pattern.as_str()).collect();
        for pat in ALLOC_PATTERNS {
            assert!(pats.contains(pat), "{pat} not flagged: {pats:?}");
        }
        assert!(findings.iter().all(|f| f.context == "parallel_for_mut"));
        assert!(findings
            .iter()
            .any(|f| f.line == 3 && f.pattern == ".collect"));
        let report = findings[0].to_string();
        assert!(
            report.contains("x.rs:3"),
            "report names path:line: {report}"
        );
    }

    #[test]
    fn allocation_outside_kernels_is_fine() {
        let src = "fn f() {\n\
                   \x20   let buf = vec![0.0; 64]; // setup, not a kernel\n\
                   \x20   let v: Vec<f64> = xs.collect();\n\
                   \x20   parallel_for(&s, p, |i| { out[i] = buf[i]; });\n\
                   }\n";
        assert!(scan_source_allocs("x.rs", src).is_empty());
    }

    #[test]
    fn alloc_lint_ignores_raw_strings_and_lookalikes() {
        // A raw string containing `vec!` and identifiers merely *ending*
        // in the patterns must not fire.
        let src = "fn f() {\n\
                   \x20   parallel_for(&s, p, |i| {\n\
                   \x20       let msg = r#\"use vec![] and .collect() here\"#;\n\
                   \x20       let n = my_vec!len;\n\
                   \x20       x.collected();\n\
                   \x20       out[i] = 0.0;\n\
                   \x20   });\n\
                   }\n";
        assert!(scan_source_allocs("x.rs", src).is_empty());
    }

    #[test]
    fn alloc_lint_handles_multi_line_argument_regions_and_turbofish() {
        let src = "fn f() {\n\
                   \x20   parallel_reduce(\n\
                   \x20       &space,\n\
                   \x20       policy,\n\
                   \x20       |i, acc| {\n\
                   \x20           let v = xs.iter().copied().collect::<Vec<f64>>();\n\
                   \x20           *acc += v[i];\n\
                   \x20       },\n\
                   \x20       &mut out,\n\
                   \x20   );\n\
                   }\n";
        let findings = scan_source_allocs("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 6);
        assert_eq!(findings[0].pattern, ".collect");
        assert_eq!(findings[0].context, "parallel_reduce");
    }

    #[test]
    fn alloc_lint_skips_cfg_test_modules() {
        let src = "fn prod() { parallel_for(&s, p, |i| { out[i] = 0.0; }); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t() { parallel_for(&s, p, |i| { let v = vec![0.0; 4]; }); }\n\
                   }\n";
        assert!(scan_source_allocs("x.rs", src).is_empty());
        // The same body outside cfg(test) fires.
        let prod = "fn t() { parallel_for(&s, p, |i| { let v = vec![0.0; 4]; }); }\n";
        assert_eq!(scan_source_allocs("x.rs", prod).len(), 1);
    }

    #[test]
    fn nested_kernel_alloc_is_reported_for_both_regions() {
        let src = "fn f() {\n\
                   \x20   launch_reduce_async(rt, s, p, 0.0, |i| {\n\
                   \x20       parallel_for(&s2, p2, |j| { let v = Vec::new(); });\n\
                   \x20       0.0\n\
                   \x20   }, f64::max);\n\
                   }\n";
        let findings = scan_source_allocs("x.rs", src);
        assert!(findings
            .iter()
            .any(|f| f.line == 3 && f.pattern == "Vec::new"));
    }

    // ---- FP-determinism lint. ------------------------------------------

    #[test]
    fn mutex_float_fields_are_flagged() {
        let src = "struct Ledger {\n\
                   \x20   total: Mutex<f64>,\n\
                   \x20   count: Mutex<u64>,\n\
                   }\n";
        let findings = scan_source_fp("x.rs", src);
        assert_eq!(
            findings.len(),
            1,
            "only the float accumulator: {findings:?}"
        );
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].pattern, "Mutex<f64>");
        assert!(findings[0].to_string().contains("x.rs:2"));
    }

    #[test]
    fn lock_accumulate_statements_are_flagged() {
        let src = "fn on_complete(&self, dm: f64) {\n\
                   \x20   *self.outflow.lock() += dm;\n\
                   }\n";
        let findings = scan_source_fp("x.rs", src);
        assert!(findings
            .iter()
            .any(|f| f.line == 2 && f.context == "lock-accumulate"));
        // Locking without accumulation, and accumulation without a lock,
        // are both fine.
        assert!(scan_source_fp("x.rs", "fn f() { let g = m.lock(); g.push(1); }\n").is_empty());
        assert!(scan_source_fp("x.rs", "fn f(x: &mut f64) { *x += 1.0; }\n").is_empty());
    }

    // ---- Allowlist staleness. ------------------------------------------

    #[test]
    fn stale_allowlist_entries_are_reported() {
        let allow = Allowlist::parse("a/b.rs:3\na/b.rs:99\nwhole/file.rs\n# comment\n");
        let sites = vec![("a/b.rs".to_owned(), 3usize)];
        let stale = allow.stale_entries(&sites);
        assert_eq!(
            stale,
            vec!["a/b.rs:99".to_owned(), "whole/file.rs".to_owned()]
        );
        // A matching site keeps the entry fresh.
        let sites2 = vec![
            ("a/b.rs".to_owned(), 3usize),
            ("a/b.rs".to_owned(), 99usize),
            ("whole/file.rs".to_owned(), 7usize),
        ];
        assert!(allow.stale_entries(&sites2).is_empty());
    }
}
