//! The workspace's `unsafe` budget: two blocks, the calls from
//! `Sha256::compress` and `Sha1::compress` into the x86_64 SHA-extension
//! code, each taken only after run-time CPU detection.
//!
//! `sdr-crypto` is `deny(unsafe_code)` with an `allow` at those two call
//! sites; every other crate is `forbid(unsafe_code)`.  The lints keep a
//! crate honest on its own; this scan keeps the whole tree to the budget,
//! so a third `unsafe`, anywhere, fails here and must be argued for.

use std::fs;
use std::path::{Path, PathBuf};

/// The files allowed to hold `unsafe`, relative to the repository root.
const ALLOWED: [&str; 3] = [
    "crates/crypto/src/sha256.rs",
    "crates/crypto/src/sha1.rs",
    "crates/crypto/src/shani.rs",
];

/// How many uses of the keyword the allowed files hold between them.
const BUDGET: usize = 2;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// 1-based numbers of the lines of `src` that use the `unsafe` keyword:
/// comments are skipped, and `unsafe_code` (the lint) is another word.
fn unsafe_lines(src: &str) -> Vec<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    src.lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or("");
            code.match_indices("unsafe").any(|(i, word)| {
                !code[..i].chars().next_back().is_some_and(ident)
                    && !code[i + word.len()..].chars().next().is_some_and(ident)
            })
        })
        .map(|(n, _)| n + 1)
        .collect()
}

#[test]
fn unsafe_stays_within_its_budget() {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("crates"), &mut files);
    files.sort();

    let mut found = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root()).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(path).expect("readable source file");
        for line in unsafe_lines(&src) {
            found.push(format!("{rel}:{line}"));
        }
    }

    let outside: Vec<&String> = found
        .iter()
        .filter(|at| !ALLOWED.iter().any(|f| at.starts_with(&format!("{f}:"))))
        .collect();
    assert!(
        outside.is_empty(),
        "`unsafe` outside {ALLOWED:?}: {outside:?}"
    );
    assert_eq!(
        found.len(),
        BUDGET,
        "the workspace holds exactly {BUDGET} `unsafe` blocks, found {found:?}"
    );
}

#[test]
fn every_other_crate_forbids_unsafe() {
    let mut roots = vec![root().join("src/lib.rs")];
    for dir in ["crates", "crates/shims"] {
        for entry in fs::read_dir(root().join(dir)).expect("crates directory") {
            let lib = entry.expect("directory entry").path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.sort();
    assert!(roots.len() >= 12, "found only {roots:?}");

    for lib in roots {
        let src = fs::read_to_string(&lib).expect("readable crate root");
        if lib.ends_with("crates/crypto/src/lib.rs") {
            assert!(src.contains("#![deny(unsafe_code)]"), "{}", lib.display());
            assert!(
                src.contains("#![deny(clippy::undocumented_unsafe_blocks)]"),
                "{}",
                lib.display()
            );
        } else {
            assert!(src.contains("#![forbid(unsafe_code)]"), "{}", lib.display());
        }
    }
}
