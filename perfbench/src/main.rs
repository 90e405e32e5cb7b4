//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints a human report on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). With
//! `--out-dir` it also writes a result file per run and, when traced, a
//! span file.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, RunMeta};
use perfbench::{run_workload, sys, Budget, RunOpts, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required: one of {WORKLOADS:?}"));
    }
    // One workload per process: `peak_rss_mb` reads the process's own
    // high-water mark, which an earlier workload would otherwise set.
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn write(dir: &std::path::Path, name: &str, body: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let args = parse()?;
    let name = args.workload.as_str();
    let opts = RunOpts {
        trace: args.trace,
        ..RunOpts::new(args.seed, Budget::Seconds(args.seconds as f64))
    };
    let outcome = run_workload(name, &opts)?;
    eprint!("{}", report::human(name, &outcome));
    let meta = RunMeta {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        git_rev: std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        rustc: std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        nproc: sys::nproc(),
    };
    if let Some(dir) = &args.out_dir {
        let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
        write(
            dir,
            &format!("{stem}.json"),
            &report::result_file(&meta, &outcome),
        )?;
        if args.trace {
            write(
                dir,
                &format!("{stem}-spans.json"),
                &report::span_file(&meta, &outcome.spans),
            )?;
        }
    }
    println!("{}", report::result_line(&outcome, args.trace));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
