//! Source-level checks of the one lock policy (`ptb_farm::sync`): no
//! file under `crates/*/src` other than the helper's own takes a mutex
//! with `.lock()` followed by `.expect(` or `.unwrap(` — which turns one
//! panicking holder into a panic in every later caller — and none names
//! the vendored `parking_lot` or `crossbeam` shims, which the helper and
//! `std::thread::scope` replace.

use std::path::{Path, PathBuf};

/// The helper's file, relative to `crates/`.
const HELPER: &str = "farm/src/sync.rs";

/// `(path relative to crates/, source)` of every `.rs` file under
/// `crates/*/src`.
fn crate_sources() -> Vec<(String, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("list crates")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("list source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(&crates).unwrap_or(&path);
                let src = std::fs::read_to_string(&path).expect("read source");
                out.push((rel.to_string_lossy().into_owned(), src));
            }
        }
    }
    out
}

/// True when some `.lock()` in `src` is followed, across whitespace and
/// newlines, by `.expect(` or `.unwrap(`.
fn unwraps_a_lock(src: &str) -> bool {
    src.match_indices(".lock()").any(|(at, m)| {
        let rest = src[at + m.len()..].trim_start();
        rest.starts_with(".expect(") || rest.starts_with(".unwrap(")
    })
}

#[test]
fn the_lock_check_sees_across_lines() {
    assert!(unwraps_a_lock("m.lock()\n        .expect(\"m\")"));
    assert!(unwraps_a_lock("let g = m.lock().unwrap();"));
    assert!(!unwraps_a_lock("lock(&m).push(1)"));
    assert!(!unwraps_a_lock("m.lock().unwrap_or_else(recover)"));
}

#[test]
fn every_lock_goes_through_the_helper_and_no_source_names_the_shims() {
    let sources = crate_sources();
    assert!(
        sources.iter().any(|(path, _)| path == HELPER),
        "the lock helper moved: update HELPER"
    );
    let unwrapped: Vec<&str> = sources
        .iter()
        .filter(|(path, src)| path != HELPER && unwraps_a_lock(src))
        .map(|(path, _)| path.as_str())
        .collect();
    assert!(
        unwrapped.is_empty(),
        "take these mutexes with ptb_farm::lock, not .lock().expect/.unwrap: {unwrapped:?}"
    );
    let shims: Vec<&str> = sources
        .iter()
        .filter(|(path, src)| {
            path != HELPER && (src.contains("parking_lot") || src.contains("crossbeam"))
        })
        .map(|(path, _)| path.as_str())
        .collect();
    assert!(
        shims.is_empty(),
        "use std::sync::Mutex through ptb_farm::lock and std::thread::scope \
         instead of the vendored shims: {shims:?}"
    );
}
