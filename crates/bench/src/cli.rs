//! The one command-line parser of the workspace's binaries.
//!
//! Each binary hands [`parse`] the flags it reads: its own, built with
//! [`Flag::value`], [`Flag::switch`] and [`Flag::positional`], plus the
//! shared constants ([`JOBS`], [`JSON`], [`CACHE_DIR`], [`SEED`],
//! [`FAULTS`], [`SWEEP`]). It gets back [`Args`]: the shared flags as
//! typed fields, its own through [`Args::has`], [`Args::value`] and
//! [`Args::get`].
//!
//! Anything else stops the binary before it does any work, with one
//! `error: …` line and the usage line generated from the same list on
//! stderr, and exit status 2: an unknown flag, a missing or malformed
//! value, a repeated flag (except the per-site `--fault-rate`), a second
//! positional argument, `--jobs 0`, a bad `--shard` or `--fault-rate`.
//! Checks only a binary can make go through [`Args::fail`], so they end
//! the same way, as does a `--json` export that cannot be written
//! ([`Args::write_json`]). `--help` (or `-h`) prints the usage line to
//! stdout and exits 0.

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use cim_arch::Architecture;
use cim_ir::Graph;
use cim_mapping::Solver;
use clsa_core::{CoreError, RunConfig, SetPolicy};
use serde::Serialize;

use crate::runner::{
    canonical, parse_rate_spec, FaultHook, FaultPlan, ResultStore, RunnerOptions, ShardMode,
    ShardSpec, Sweep, SweepJob, SweepOutcome,
};

/// One flag a binary reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// `--name`, or a bare name for the binary's positional argument.
    pub name: &'static str,
    /// The value's placeholder in the usage line; `None` for a switch or
    /// the positional argument.
    pub value: Option<&'static str>,
}

impl Flag {
    /// A flag that takes one value, shown as `<placeholder>`.
    pub const fn value(name: &'static str, placeholder: &'static str) -> Flag {
        Flag {
            name,
            value: Some(placeholder),
        }
    }

    /// A flag without a value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, value: None }
    }

    /// The binary's one positional argument, shown as `<name>`.
    pub const fn positional(name: &'static str) -> Flag {
        Flag { name, value: None }
    }

    fn is_positional(&self) -> bool {
        !self.name.starts_with('-')
    }
}

/// `--jobs <N>`: the worker count ([`Args::runner`]).
pub const JOBS: Flag = Flag::value("--jobs", "N");
/// `--json <path>`: the export path ([`Args::json`]).
pub const JSON: Flag = Flag::value("--json", "path");
/// `--cache-dir <dir>`: the persistent result store ([`Args::cache_dir`]).
pub const CACHE_DIR: Flag = Flag::value("--cache-dir", "dir");
/// `--seed <S>`: the seed of a stochastic binary ([`Args::seed`]).
pub const SEED: Flag = Flag::value("--seed", "S");
const SHARD: Flag = Flag::value("--shard", "i/n|merge");
const FAULT_SEED: Flag = Flag::value("--fault-seed", "S");
const FAULT_RATE: Flag = Flag::value("--fault-rate", "site=per_mille");
const FAULT_DELAY_MS: Flag = Flag::value("--fault-delay-ms", "MS");
/// The chaos flags `--fault-seed`, `--fault-rate` (once per site) and
/// `--fault-delay-ms` ([`Args::faults`]).
pub const FAULTS: &[Flag] = &[FAULT_SEED, FAULT_RATE, FAULT_DELAY_MS];
/// The flags of a sweep binary: `--jobs`, `--json`, `--cache-dir`,
/// `--shard` ([`Args::shard`]) and the chaos flags.
pub const SWEEP: &[Flag] = &[
    JOBS,
    JSON,
    CACHE_DIR,
    SHARD,
    FAULT_SEED,
    FAULT_RATE,
    FAULT_DELAY_MS,
];

/// The seed stochastic binaries run with when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// A binary's parsed command line (see the [module docs](self)).
#[derive(Debug)]
pub struct Args {
    usage: String,
    declared: Vec<Flag>,
    /// Flags and the positional in command-line order; a switch has an
    /// empty value.
    given: Vec<(Flag, String)>,
    /// `--jobs <N>` → worker-pool options (one worker per hardware thread
    /// when absent).
    pub runner: RunnerOptions,
    /// `--json <path>` → export path.
    pub json: Option<String>,
    /// `--cache-dir <dir>` → persistent result store directory.
    pub cache_dir: Option<String>,
    /// `--seed <S>` → seed for stochastic binaries (`None` = the flag
    /// was not given; see [`seed_or_default`](Self::seed_or_default)).
    pub seed: Option<u64>,
    /// `--shard i/n` or `--shard merge` → sweep sharding mode
    /// ([`ShardMode::All`] when absent).
    pub shard: ShardMode,
    /// The chaos flags → the deterministic fault plan, `None` outside
    /// chaos runs.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Parses the process arguments against `flags`, the binary's declared
/// flag groups; the binary's name is the file name of `argv[0]`.
///
/// Exits with status 2 on bad input and with 0 after printing the usage
/// line on `--help` (see the [module docs](self)).
pub fn parse(flags: &[&[Flag]]) -> Args {
    let mut argv = std::env::args();
    let argv0 = argv.next().unwrap_or_default();
    let bin = Path::new(&argv0)
        .file_name()
        .map_or_else(|| argv0.clone(), |name| name.to_string_lossy().into_owned());
    let argv: Vec<String> = argv.collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage(&bin, flags));
        std::process::exit(0);
    }
    try_parse(&bin, flags, argv).unwrap_or_else(|e| exit_usage(&usage(&bin, flags), e))
}

fn usage(bin: &str, flags: &[&[Flag]]) -> String {
    let words = flags
        .iter()
        .copied()
        .flatten()
        .map(|flag| match flag.value {
            _ if flag.is_positional() => format!("<{}>", flag.name),
            None => format!("[{}]", flag.name),
            Some(placeholder) => format!("[{} <{placeholder}>]", flag.name),
        });
    std::iter::once(format!("usage: {bin}"))
        .chain(words)
        .collect::<Vec<_>>()
        .join(" ")
}

fn exit_usage(usage: &str, msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{usage}");
    std::process::exit(2)
}

fn try_parse(
    bin: &str,
    flags: &[&[Flag]],
    argv: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let mut args = Args {
        usage: usage(bin, flags),
        declared: flags.iter().copied().flatten().copied().collect(),
        given: Vec::new(),
        runner: RunnerOptions::default(),
        json: None,
        cache_dir: None,
        seed: None,
        shard: ShardMode::All,
        faults: None,
    };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let is_flag = arg.starts_with('-');
        let found = args.declared.iter().copied().find(|f| {
            if is_flag {
                f.name == arg
            } else {
                f.is_positional()
            }
        });
        let Some(flag) = found else {
            return Err(if is_flag {
                format!("unknown flag {arg}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        };
        let value = match flag.value {
            Some(placeholder) => argv
                .next()
                .filter(|v| !v.starts_with('-'))
                .ok_or_else(|| format!("{arg} takes a value <{placeholder}>"))?,
            None if is_flag => String::new(),
            None => arg,
        };
        if flag != FAULT_RATE && args.lookup(flag.name).is_some() {
            return Err(if is_flag {
                format!("{} given twice", flag.name)
            } else {
                format!("unexpected argument {value:?}")
            });
        }
        args.given.push((flag, value));
    }

    args.runner = match args.try_get(JOBS.name)? {
        Some(0) => return Err("--jobs must be at least 1".into()),
        Some(jobs) => RunnerOptions::with_jobs(jobs),
        None => RunnerOptions::default(),
    };
    args.json = args.lookup(JSON.name).map(String::from);
    args.cache_dir = args.lookup(CACHE_DIR.name).map(String::from);
    args.seed = args.try_get(SEED.name)?;
    args.shard = match args.lookup(SHARD.name) {
        None => ShardMode::All,
        Some("merge") => ShardMode::Merge,
        Some(v) => ShardSpec::parse(v).map(ShardMode::Slice).ok_or_else(|| {
            format!("invalid value {v:?} for --shard: expected i/n with i < n, or merge")
        })?,
    };
    let fault_seed = args.try_get(FAULT_SEED.name)?;
    let delay_ms = args.try_get(FAULT_DELAY_MS.name)?;
    let mut rates = args
        .given
        .iter()
        .filter(|(flag, _)| *flag == FAULT_RATE)
        .peekable();
    if fault_seed.is_some() || delay_ms.is_some() || rates.peek().is_some() {
        let mut plan = FaultPlan::new(fault_seed.unwrap_or(0));
        for (_, spec) in rates {
            let (site, per_mille) =
                parse_rate_spec(spec).map_err(|e| format!("--fault-rate {spec}: {e}"))?;
            plan = plan.with_rate(site, per_mille);
        }
        if let Some(ms) = delay_ms {
            plan = plan.with_delay(Duration::from_millis(ms));
        }
        args.faults = Some(Arc::new(plan));
    }
    Ok(args)
}

/// The exit status of a sweep binary from its `quarantined` job count:
/// success on a complete artifact, 3 on a partial one (the quarantined
/// jobs were reported as warnings), and 2 — after printing the error —
/// when the sweep could not run, e.g. a `--shard` mode without
/// `--cache-dir` or a merge against a store missing rows.
pub fn sweep_exit_code(quarantined: Result<usize, CoreError>) -> ExitCode {
    match quarantined {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(3),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

impl Args {
    fn lookup(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(flag, _)| flag.name == name)
            .map(|(_, value)| value.as_str())
    }

    fn try_get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some((flag, v)) = self.given.iter().find(|(flag, _)| flag.name == name) else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|_| {
            let placeholder = flag.value.unwrap_or_default();
            format!("invalid value {v:?} for {name} <{placeholder}>")
        })
    }

    /// Whether the switch (or positional argument) `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of the flag (or positional argument) `name`, if given.
    ///
    /// `name` must be one of the flags handed to [`parse`]: that list is
    /// the binary's whole contract, so reading past it is a bug (checked
    /// in debug builds).
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.declared.iter().any(|f| f.name == name),
            "{name} is not a declared flag"
        );
        self.lookup(name)
    }

    /// The value of the flag `name` parsed as `T`, if given;
    /// [`fail`](Self::fail)s when it does not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)?;
        self.try_get(name).unwrap_or_else(|e| self.fail(e))
    }

    /// Rejects the command line: prints `error: {msg}` and the usage
    /// line to stderr and exits with status 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        exit_usage(&self.usage, msg)
    }

    /// Writes `records` as JSON to the `--json` path, if one was given,
    /// and prints `wrote <path>`. A failed write [`fail`](Self::fail)s.
    pub fn write_json(&self, records: &impl Serialize) {
        if let Some(path) = &self.json {
            crate::write_json(path, records)
                .unwrap_or_else(|e| self.fail(format!("--json {path}: {e}")));
            println!("wrote {path}");
        }
    }

    /// The zoo model (its name and canonicalized graph) and the pipeline
    /// configuration that the schedule-inspection binaries (`inspect`,
    /// `lint-schedule`) select: the positional `model` (a zoo name, in any
    /// case) on the paper's architecture with `PE_min + --x` PEs;
    /// cross-layer unless `--lbl`, greedy duplication with `--wdup`, and
    /// at most `--sets` sets per OFM. The binary must declare those flags.
    ///
    /// A missing or unknown model, an `--x` whose PE count overflows, and
    /// a model or architecture the pipeline rejects [`fail`](Self::fail).
    pub fn zoo_run(&self) -> (&'static str, Arc<Graph>, RunConfig) {
        let Some(model) = self.value("model") else {
            self.fail("missing <model>");
        };
        let zoo = cim_models::all_models();
        let Some(info) = zoo.iter().find(|m| m.name.eq_ignore_ascii_case(model)) else {
            let known = zoo.iter().map(|m| m.name).collect::<Vec<_>>().join(", ");
            self.fail(format!("unknown model `{model}` (known: {known})"));
        };
        let x: usize = self.get("--x").unwrap_or(0);
        let sets: Option<usize> = self.get("--sets");
        let Some(pes) = info.pe_min_256.checked_add(x) else {
            self.fail(format!("--x {x}: PE_min {} + x overflows", info.pe_min_256));
        };
        let (graph, _) = canonical(&info.build()).unwrap_or_else(|e| self.fail(e));
        let arch = Architecture::paper_case_study(pes).unwrap_or_else(|e| self.fail(e));
        let mut config = RunConfig::baseline(arch);
        if !self.has("--lbl") {
            config = config.with_cross_layer();
        }
        if self.has("--wdup") {
            config = config.with_duplication(Solver::Greedy);
        }
        if let Some(n) = sets {
            config.set_policy = SetPolicy::coarse(n);
        }
        (info.name, graph, config)
    }

    /// Opens the persistent [`ResultStore`] named by `--cache-dir` (with
    /// the chaos plan's fault hook, if any), or `None` when the flag was
    /// not given. An unusable directory [`fail`](Self::fail)s.
    pub fn open_store(&self) -> Option<ResultStore> {
        self.cache_dir.as_deref().map(|dir| {
            let mut store = ResultStore::open(dir)
                .unwrap_or_else(|e| self.fail(format!("--cache-dir {dir}: {e}")));
            if let Some(plan) = &self.faults {
                store.set_fault_hook(plan.clone());
            }
            store
        })
    }

    /// The sweep of `jobs` these flags select: `--jobs`, `--shard`, and
    /// the chaos plan, against `store` (from [`open_store`](Self::open_store)).
    pub fn sweep<'a>(&'a self, jobs: &'a [SweepJob], store: Option<&'a ResultStore>) -> Sweep<'a> {
        Sweep {
            jobs,
            runner: self.runner,
            store,
            shard: self.shard,
            faults: self.faults.as_deref().map(|plan| plan as &dyn FaultHook),
        }
    }

    /// Under `--shard i/n`, prints the slice's counters (`total` is the
    /// length of the full job list) and returns `true`: a slice only
    /// warms the store. Returns `false`, printing nothing, otherwise.
    pub fn report_slice(&self, outcome: &SweepOutcome, total: usize) -> bool {
        let ShardMode::Slice(spec) = self.shard else {
            return false;
        };
        println!(
            "shard {spec}: {} of {total} jobs owned; cache {}; store {}",
            outcome.owned,
            outcome.stats,
            outcome.store_stats.unwrap_or_default()
        );
        self.note_slice_done();
        true
    }

    /// Tells the operator of a finished `--shard i/n` slice where the
    /// artifact comes from: the final `--shard merge` run.
    pub fn note_slice_done(&self) {
        println!("slice done — run the remaining slices, then `--shard merge`");
        if self.json.is_some() {
            eprintln!("note: --json ignored for a shard slice; export from `--shard merge`");
        }
    }

    /// Prints the chaos plan's firing report (for CI pinning) if a plan
    /// is active.
    pub fn report_faults(&self) {
        if let Some(plan) = &self.faults {
            println!("fault plan: seed {} — {}", plan.seed(), plan.report());
        }
    }

    /// Prints a note when `--cache-dir` was passed in a mode that runs no
    /// batch sweep (the binary persists results in another mode).
    pub fn note_cache_dir_unused(&self) {
        if let Some(dir) = &self.cache_dir {
            eprintln!(
                "note: --cache-dir {dir} ignored — this mode computes its \
                 artifact directly and runs no batch sweep"
            );
        }
    }

    /// The seed a stochastic binary should run with: the `--seed` value,
    /// or [`DEFAULT_SEED`]. Stochastic binaries must echo this value
    /// (`seed: <n>`) so every printed/exported result names the seed that
    /// produced it.
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FaultSite;

    const PART: Flag = Flag::value("--part", "a|b|c");

    fn parse_from(flags: &[&[Flag]], argv: &[&str]) -> Result<Args, String> {
        try_parse("bin", flags, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_jobs_flag() {
        let args = parse_from(&[&[PART], SWEEP], &["--jobs", "3", "--part", "c"]).unwrap();
        assert_eq!(args.runner.jobs, 3);
        assert_eq!(args.value("--part"), Some("c"));
        let default = parse_from(&[SWEEP], &[]).unwrap();
        assert_eq!(default.runner.jobs, RunnerOptions::default().jobs);
        assert!(default.runner.jobs >= 1);
        for bad in [&["--jobs", "0"][..], &["--jobs", "x"], &["--jobs"]] {
            assert!(parse_from(&[SWEEP], bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_json_flag() {
        let args = parse_from(&[&[PART, JSON]], &["--part", "a", "--json", "out.json"]).unwrap();
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert!(parse_from(&[&[PART, JSON]], &["--part", "a"])
            .unwrap()
            .json
            .is_none());
        // A trailing flag with no value fails instead of vanishing.
        let err = parse_from(&[&[PART, JSON]], &["--part", "c", "--json"]).unwrap_err();
        assert_eq!(err, "--json takes a value <path>");
    }

    #[test]
    fn parses_cache_dir_flag() {
        let args = parse_from(&[SWEEP], &["--cache-dir", "/tmp/store"]).unwrap();
        assert_eq!(args.cache_dir.as_deref(), Some("/tmp/store"));
        assert!(parse_from(&[SWEEP], &[]).unwrap().cache_dir.is_none());
        assert!(parse_from(&[SWEEP], &["--cache-dir"]).is_err());
        assert!(parse_from(&[SWEEP], &["--cache-dir", "--jobs", "2"]).is_err());
    }

    #[test]
    fn parses_seed_flag() {
        let args = parse_from(&[&[SEED]], &["--seed", "12345"]).unwrap();
        assert_eq!(args.seed, Some(12345));
        let absent = parse_from(&[&[SEED]], &[]).unwrap();
        assert_eq!(absent.seed, None);
        assert_eq!(absent.seed_or_default(), DEFAULT_SEED);
        assert!(parse_from(&[&[SEED]], &["--seed", "-1"]).is_err());
    }

    #[test]
    fn parses_shard_flag() {
        let slice = parse_from(&[SWEEP], &["--shard", "1/3"]).unwrap();
        assert_eq!(slice.shard, ShardMode::Slice(ShardSpec::new(1, 3).unwrap()));
        let merge = parse_from(&[SWEEP], &["--shard", "merge"]).unwrap();
        assert_eq!(merge.shard, ShardMode::Merge);
        assert_eq!(parse_from(&[SWEEP], &[]).unwrap().shard, ShardMode::All);
        for bad in ["3/3", "mrege", "1/0"] {
            assert!(parse_from(&[SWEEP], &["--shard", bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_fault_flags() {
        let argv = "--fault-seed 7 --fault-rate store-read=300 --fault-rate job-panic=1000 \
                    --fault-delay-ms 25 --part c";
        let argv: Vec<&str> = argv.split_whitespace().collect();
        let args = parse_from(&[&[PART], SWEEP], &argv).unwrap();
        let plan = args.faults.as_ref().expect("chaos flags build a plan");
        assert_eq!(plan.seed(), 7);
        assert!(
            plan.would_fire(FaultSite::JobPanic, 1, 0),
            "rate 1000 always fires"
        );
        assert!(
            !plan.would_fire(FaultSite::ConnDrop, 1, 0),
            "unset site never fires"
        );
        assert!(args.sweep(&[], None).faults.is_some());

        // Only chaos flags build a plan.
        let args = parse_from(&[&[PART], SWEEP], &["--part", "c", "--jobs", "2"]).unwrap();
        assert!(args.faults.is_none(), "no chaos flags, no plan");
        assert!(args.sweep(&[], None).faults.is_none());
        assert!(parse_from(&[FAULTS], &["--fault-rate", "job-panic=1001"]).is_err());
        assert!(parse_from(&[FAULTS], &["--fault-rate", "nowhere=1"]).is_err());
    }

    #[test]
    fn rejects_what_the_binary_does_not_declare() {
        let flags: &[&[Flag]] = &[&[Flag::positional("model"), Flag::switch("--lbl")], &[JSON]];
        let args = parse_from(flags, &["--lbl", "VGG16"]).unwrap();
        assert!(args.has("--lbl"));
        assert_eq!(args.value("model"), Some("VGG16"));
        assert_eq!(
            parse_from(flags, &["--jobs", "4"]).unwrap_err(),
            "unknown flag --jobs"
        );
        assert_eq!(
            parse_from(flags, &["VGG16", "VGG19"]).unwrap_err(),
            "unexpected argument \"VGG19\""
        );
        assert_eq!(
            parse_from(&[&[JSON]], &["VGG16"]).unwrap_err(),
            "unexpected argument \"VGG16\""
        );
        assert_eq!(
            parse_from(flags, &["--lbl", "--lbl"]).unwrap_err(),
            "--lbl given twice"
        );
        assert_eq!(
            usage("inspect", flags),
            "usage: inspect <model> [--lbl] [--json <path>]"
        );
    }

    #[test]
    fn get_names_the_flag_and_the_value() {
        let flags: &[&[Flag]] = &[&[Flag::value("--x", "n")]];
        let args = parse_from(flags, &["--x", "12"]).unwrap();
        assert_eq!(args.get::<usize>("--x"), Some(12));
        let args = parse_from(flags, &["--x", "abc"]).unwrap();
        assert_eq!(
            args.try_get::<usize>("--x").unwrap_err(),
            "invalid value \"abc\" for --x <n>"
        );
    }
}
