//! Code, tests and CI cite ARCHITECTURE.md by section name. The planning
//! document's item numbers change whenever it is rewritten, so a citation of
//! one goes stale without anything noticing; this test is what notices.

use std::fs;
use std::path::{Path, PathBuf};

/// Every file under `dir`, skipping build output.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn code_tests_and_ci_cite_no_planning_document() {
    // Assembled from halves so this file does not match itself.
    let needle = ["ROAD", "MAP"].concat();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests", ".github"] {
        files_under(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "walked only {} files", files.len());
    let mut hits = Vec::new();
    for path in &files {
        let Ok(bytes) = fs::read(path) else { continue };
        let shown = path.strip_prefix(&root).unwrap_or(path).display();
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if line.contains(&needle) {
                hits.push(format!("{shown}:{}", i + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "cite an ARCHITECTURE.md section instead of the {needle} at: {hits:#?}"
    );
}
