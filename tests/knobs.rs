//! Knob inventory: every `EMISSARY_*` environment variable the code names
//! has a row in README's "Environment variables" table, and every row in
//! that table names a variable the code still reads.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `"EMISSARY_…"` string literal under `crates/*/src` and `src/`.
fn knobs_in_code() -> BTreeSet<String> {
    let mut dirs = vec![root().join("src")];
    for krate in fs::read_dir(root().join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    let mut knobs = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("readable source file");
        for (at, _) in text.match_indices("\"EMISSARY_") {
            let rest = &text[at + 1..];
            let end = rest.find('"').expect("closed string literal");
            knobs.insert(rest[..end].to_string());
        }
    }
    knobs
}

/// The variables named in the first column of README's table.
fn knobs_in_readme() -> Vec<String> {
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md");
    let table = readme
        .split("## Environment variables")
        .nth(1)
        .expect("README has an \"Environment variables\" section");
    let table = table.split("\n## ").next().unwrap_or(table);
    table
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .filter(|name| name.starts_with("EMISSARY_"))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_knob_has_one_readme_row_and_every_row_a_reader() {
    let code = knobs_in_code();
    let rows = knobs_in_readme();
    let documented: BTreeSet<String> = rows.iter().cloned().collect();
    assert_eq!(
        documented.len(),
        rows.len(),
        "duplicate README rows: {rows:?}"
    );
    let undocumented: Vec<_> = code.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "knobs without a README row: {undocumented:?}"
    );
    let unread: Vec<_> = documented.difference(&code).collect();
    assert!(unread.is_empty(), "README rows nothing reads: {unread:?}");
    println!("{} EMISSARY_* knobs", code.len());
}
