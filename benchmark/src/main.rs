//! `titant-benchmark` — the repo's one benchmark (see `benchmark/README.md`).
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last line of standard output is the
//!   result as one JSON object.
//! * without `--trace` — every workload (or the one named), each pass in a
//!   fresh process: untraced for the end-to-end metrics, then traced for
//!   the per-layer ones; one result line per pass.
//! * `--selfcheck` — all of that twice on the same seed and once on seed 1,
//!   compared (see `report::compare`).

mod alloc;
mod api;
mod fixture;
mod loadgen;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{ResultLine, RunSet};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Env, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 0x7174_616e;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;
/// Threads that carry load. More than the machine has cores would measure
/// the scheduler.
const LOAD_THREADS: usize = 1;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    selfcheck: bool,
    out: PathBuf,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("{text}: {e}"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        selfcheck: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = parse_u64(&value()?)?,
            "--seconds" => {
                args.seconds = parse_u64(&value()?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds takes 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One pass of one workload in this process.
fn run_single(w: Workload, trace: bool, args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        out: &args.out,
    };
    let outcome = if trace {
        workloads::run_traced(w, &env)?
    } else {
        workloads::run_untraced(w, &env)?
    };
    for fault in &outcome.faults {
        eprintln!("FAULT {}: {fault}", w.name());
    }
    println!("{}", outcome.result_line());
    Ok(outcome.faults.is_empty())
}

/// One pass in a fresh process of this executable, so that `setup_s` and
/// `peak_rss_mb` are the workload's own. The child's diagnostics pass
/// through; its result line is returned, as printed and as read.
fn run_child(
    w: Workload,
    trace: bool,
    seed: u64,
    args: &Args,
) -> Result<(String, ResultLine), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // A run whose outputs are wrong still prints its result line (with
    // `correct` false) before it exits with 1.
    let line = stdout.lines().last().unwrap_or_default();
    match ResultLine::parse(line) {
        Ok(read) => Ok((line.to_string(), read)),
        Err(e) => Err(format!(
            "{} (trace {}) exited with {}: {e}",
            w.name(),
            u8::from(trace),
            output.status
        )),
    }
}

/// Every selected workload, untraced then traced. Prints one line per pass
/// and returns every metric read.
fn run_set(seed: u64, args: &Args) -> Result<(RunSet, bool), String> {
    let mut set = RunSet::new();
    let mut correct = true;
    let selected = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for w in selected {
        for trace in [false, true] {
            eprintln!("{} (trace {}, seed {seed:#x})", w.name(), u8::from(trace));
            let (printed, line) = run_child(w, trace, seed, args)?;
            correct &= line.correct;
            println!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {seed}, \"succeeded\": {}, \"result\": {printed}}}",
                w.name(),
                u8::from(trace),
                line.attempted - line.failed,
            );
            for (name, value) in line.metrics.0 {
                set.insert((w.name().to_string(), name), value);
            }
        }
    }
    Ok((set, correct))
}

fn selfcheck(args: &Args) -> Result<bool, String> {
    let (first, ok1) = run_set(args.seed, args)?;
    let (second, ok2) = run_set(args.seed, args)?;
    let (other, ok3) = run_set(1, args)?;
    let (rows, violations) = report::compare(&first, &second, &other);
    println!(
        "{:<15} {:<38} {:>16} {:>16} {:>8} {:>16}",
        "workload", "metric", "first", "second", "ratio", "seed 1"
    );
    for row in rows {
        println!("{row}");
    }
    for v in &violations {
        eprintln!("SELFCHECK {v}");
    }
    Ok(ok1 && ok2 && ok3 && violations.is_empty())
}

fn run(args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if LOAD_THREADS > cores {
        return Err(format!("{LOAD_THREADS} load threads on {cores} cores"));
    }
    eprintln!("titant-benchmark: {LOAD_THREADS} load thread, {cores} cores available");
    match (args.selfcheck, args.workload, args.trace) {
        (true, _, _) => selfcheck(args),
        (false, Some(w), Some(trace)) => run_single(w, trace, args),
        (false, None, Some(_)) => Err("--trace needs --workload".into()),
        (false, _, None) => run_set(args.seed, args).map(|(_, correct)| correct),
    }
}

fn main() -> ExitCode {
    // Returning, not `process::exit`: scratch directories are removed by
    // destructors on every path out.
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("titant-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
