//! Golden-file checks shared by the integration tests.
//!
//! A golden is committed under `tests/golden/` and compared byte-for-byte;
//! `CIM_BLESS=1` rewrites it instead, after an *intentional* output change.

use std::fs;
use std::path::PathBuf;

/// `true` when this run rewrites the goldens (`CIM_BLESS=1`).
pub fn blessing() -> bool {
    std::env::var("CIM_BLESS").is_ok_and(|v| v == "1")
}

/// Compares `json` with the committed golden `tests/golden/<name>` (or
/// rewrites it under `CIM_BLESS=1`).
pub fn check_golden(name: &str, json: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let test = env!("CARGO_CRATE_NAME");
    if blessing() {
        fs::write(&path, json).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden {name} unreadable ({e}); bless with CIM_BLESS=1 cargo test --test {test}")
    });
    assert_eq!(
        expected, json,
        "{name} drifted from the committed golden; if the change is \
         intentional, re-bless with CIM_BLESS=1 cargo test --test {test}"
    );
}
