//! Workspace walker: finds every `.rs` file the invariant rules apply to
//! and runs [`crate::rules::lint_source`] over it.
//!
//! Scope (documented in DESIGN.md §13): crate sources (`crates/*/src`,
//! the facade `src/`) are linted in full. Directories named `target`,
//! `vendor` (offline stand-ins for third-party crates — not this
//! project's code), `tests`, `benches`, and `examples` are skipped:
//! integration tests and examples are test/demo code by construction,
//! which the in-file `#[cfg(test)]` tracking already exempts for unit
//! tests. Hidden directories (`.git`, `.github`) are skipped too.

use crate::rules::{Diagnostic, lint_source};
use crate::scan::{LineCount, count_non_test_lines};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names excluded from the walk (any depth).
pub const SKIPPED_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "examples"];

/// Collects every lintable `.rs` file under `root`, workspace-relative,
/// sorted for deterministic diagnostics.
pub fn lintable_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIPPED_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            files.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`. Diagnostics come back
/// sorted by (path, line) — stable output for CI logs and the self-test.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for rel in lintable_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        out.extend(lint_source(&rel, &source));
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(out)
}

/// Non-test lines ([`count_non_test_lines`]) per crate, keyed by the
/// crate directory (`crates/core`; `.` for the facade's `src/`) in
/// sorted order — the size figure tracked from change to change.
pub fn lines_per_crate(root: &Path) -> io::Result<Vec<(String, LineCount)>> {
    let mut counts: BTreeMap<String, LineCount> = BTreeMap::new();
    for rel in lintable_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        let parts: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let crate_dir = match parts.iter().position(|p| p == "src") {
            Some(0) | None => ".".to_owned(),
            Some(i) => parts[..i].join("/"),
        };
        let file = count_non_test_lines(&source);
        let total = counts.entry(crate_dir).or_default();
        total.code += file.code;
        total.comment += file.comment;
    }
    Ok(counts.into_iter().collect())
}
