//! `cim-lint` — the workspace determinism linter and interleaving suite.
//!
//! Usage:
//! ```text
//! cargo run --release -p cim-verify --bin cim-lint [-- options]
//!   --root <path>    workspace root (default: ascend from the cwd)
//!   --interleave     run the exhaustive interleaving suite instead
//!   --list-rules     print the rule table and exit
//!   --json <path>    also export diagnostics (or interleave stats) as JSON
//!   --help           print the usage line and exit
//! ```
//!
//! Exit status: 0 when clean, 1 on any diagnostic (or interleaving
//! violation), 2 on usage/I-O errors — any other argument prints one
//! `error: …` line and the usage line.

use std::path::PathBuf;
use std::process::ExitCode;

use cim_verify::interleave::explore;
use cim_verify::models::{CacheSlotProtocol, LanePoolProtocol, TwoLevelCacheProtocol};
use cim_verify::workspace::{find_workspace_root, lint_workspace};
use cim_verify::RULES;

const USAGE: &str = "usage: cim-lint [--root <path>] [--interleave] [--list-rules] [--json <path>]";

fn main() -> ExitCode {
    let (mut root, mut json, mut interleave, mut list_rules) = (None, None, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--interleave" => interleave = true,
            "--list-rules" => list_rules = true,
            "--root" | "--json" => match args.next().filter(|v| !v.starts_with('-')) {
                Some(path) if arg == "--root" => root = Some(path),
                Some(path) => json = Some(path),
                None => return usage_error(format!("{arg} takes a value <path>")),
            },
            _ if arg.starts_with('-') => return usage_error(format!("unknown flag {arg}")),
            _ => return usage_error(format!("unexpected argument {arg:?}")),
        }
    }

    if list_rules {
        for r in RULES {
            println!("{:<16} {}", r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if interleave {
        return run_interleave_suite(json);
    }

    let root = match root.map(PathBuf::from) {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cim-lint: cannot determine cwd: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("cim-lint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let diags = match lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cim-lint: walking {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for d in &diags {
        println!("{d}");
    }
    if let Some(path) = json {
        let json = serde_json::to_string_pretty(&diags).unwrap_or_else(|_| "[]".to_string());
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cim-lint: writing {path} failed: {e}");
            return ExitCode::from(2);
        }
    }
    if diags.is_empty() {
        println!("cim-lint: workspace clean ({} rules)", RULES.len());
        ExitCode::SUCCESS
    } else {
        println!("cim-lint: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn usage_error(msg: String) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Runs every bounded interleaving model exhaustively, reporting the
/// explored-schedule counts that make "exhaustive" auditable.
fn run_interleave_suite(json: Option<String>) -> ExitCode {
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    let mut failed = false;

    let mut run = |name: &str, result: Result<cim_verify::Exploration, cim_verify::Violation>| {
        match result {
            Ok(stats) => {
                println!(
                    "interleave {name}: OK — {} schedules, {} states, depth {}",
                    stats.schedules, stats.states, stats.max_depth
                );
                rows.push((name.to_string(), stats.schedules, stats.states));
            }
            Err(v) => {
                println!("interleave {name}: VIOLATION — {v}");
                failed = true;
            }
        }
    };

    run("cache_slot/same_key_2", explore(&CacheSlotProtocol::same_key(2)));
    run("cache_slot/same_key_3", explore(&CacheSlotProtocol::same_key(3)));
    run(
        "cache_slot/distinct_keys_2",
        explore(&CacheSlotProtocol::distinct_keys(2)),
    );
    run(
        "cache_slot/mixed_3t_2k",
        explore(&CacheSlotProtocol::with_keys(vec![0, 0, 1])),
    );
    run(
        "two_level/shared_stage_pair",
        explore(&TwoLevelCacheProtocol::shared_stage_pair()),
    );
    run(
        "lane_pool/w2_items4",
        explore(&LanePoolProtocol {
            workers: 2,
            items: 4,
        }),
    );
    run(
        "lane_pool/w3_items5",
        explore(&LanePoolProtocol {
            workers: 3,
            items: 5,
        }),
    );

    let total: u64 = rows.iter().map(|(_, s, _)| s).sum();
    println!("interleave suite: {} models, {total} schedules explored", rows.len());

    if let Some(path) = json {
        // The vendored serde_json has no `json!`; the rows are flat enough
        // to format by hand.
        let entries: Vec<String> = rows
            .iter()
            .map(|(name, schedules, states)| {
                format!(
                    "  {{\"model\": \"{name}\", \"schedules\": {schedules}, \"states\": {states}}}"
                )
            })
            .collect();
        let json = format!("[\n{}\n]\n", entries.join(",\n"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cim-lint: writing {path} failed: {e}");
            return ExitCode::from(2);
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
