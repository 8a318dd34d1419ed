//! JSON export of experiment records.

use std::fs;
use std::io;
use std::path::Path;

use serde::Serialize;

/// Serializes `records` as pretty JSON to `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Returns I/O errors from directory creation or writing; serialization of
/// the experiment record types is infallible.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, records: &T) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(records).expect("experiment records serialize"); // cim-lint: allow(panic-unwrap) serializing plain records cannot fail
    fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("cim_bench_test_{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
