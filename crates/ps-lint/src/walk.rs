//! Workspace traversal and file classification.

use std::fs;
use std::path::{Path, PathBuf};

/// What kind of target a file belongs to — rules apply per class (the
/// panic/thread contracts bind library code; tests are free to unwrap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src/**`, the facade `src/**`).
    Lib,
    /// A binary target (`crates/*/src/bin/**`).
    Bin,
    /// Test code (`tests/**` at root or crate level).
    Test,
    /// Example code (`examples/**`).
    Example,
}

/// A file to lint: repo-relative path plus its classification.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Which target class the file belongs to.
    pub class: FileClass,
}

/// The directories a check run scans, relative to the workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Directory names never descended into.
pub const SKIP_DIRS: &[&str] = &["vendor", "target", "fixtures"];

/// Classifies a repo-relative path.  Returns `None` for non-Rust files.
pub fn classify(path: &Path) -> Option<FileClass> {
    if path.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    let parts: Vec<&str> = path.iter().filter_map(|p| p.to_str()).collect();
    let has = |name: &str| parts.contains(&name);
    if has("tests") {
        Some(FileClass::Test)
    } else if has("examples") {
        Some(FileClass::Example)
    } else if has("bin") && has("src") {
        Some(FileClass::Bin)
    } else if has("src") {
        Some(FileClass::Lib)
    } else {
        None
    }
}

/// Walks the scan roots under `root`, returning every Rust source file with
/// its class, sorted by path so runs are deterministic.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            visit(root, &dir, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            visit(root, &path, out)?;
        } else if let Ok(rel) = path.strip_prefix(root) {
            if let Some(class) = classify(rel) {
                out.push(SourceFile {
                    path: rel.to_path_buf(),
                    class,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_layout() {
        let cases = [
            ("crates/ps-base/src/lib.rs", Some(FileClass::Lib)),
            ("src/lib.rs", Some(FileClass::Lib)),
            (
                "crates/ps-bench/src/bin/trajectory.rs",
                Some(FileClass::Bin),
            ),
            ("tests/figure1.rs", Some(FileClass::Test)),
            (
                "crates/ps-lattice/tests/bitmatrix_props.rs",
                Some(FileClass::Test),
            ),
            ("examples/quickstart.rs", Some(FileClass::Example)),
            ("README.md", None),
        ];
        for (path, expected) in cases {
            assert_eq!(classify(Path::new(path)), expected, "{path}");
        }
    }
}
