//! `perf` — the repo's one benchmark.
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1]   one run; last stdout line is the result
//! perf repeat --sets N [--workload W] [--seconds S]          does the benchmark agree with itself?
//! perf smoke                                                  every workload, every oracle, sub-second
//! perf benchmark-json                                         prints BENCHMARK.json
//! ```
//!
//! See `README.md` next to this file for the protocol, the metrics and
//! the noise findings behind them.

mod cold;
mod host;
mod layers;
mod ledger;
mod load;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: cannot read '{value}'");
        match flag.as_str() {
            "--workload" => {
                if !workloads::names().any(|n| n == value) {
                    return Err(format!(
                        "unknown workload '{value}'; one of: {}",
                        workloads::names().collect::<Vec<_>>().join(", ")
                    ));
                }
                out.workload = Some(value.to_string());
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds >= 1.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => out.sets = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(out)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload W [--seed N] [--seconds S] [--trace 0|1]\n       \
         perf repeat --sets N [--workload W] [--seconds S]\n       \
         perf smoke\n       perf benchmark-json\nworkloads: {}",
        workloads::names().collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Before any thread exists: the default configuration, whatever
    // the caller's environment says.
    let cleared = host::clear_knobs();
    // One CPU, before anything sizes itself by the core count: the
    // program under test runs as it would on a one-CPU machine.
    host::cores();
    if !host::confine_to_one_cpu() {
        eprintln!("perf: cannot confine the process to one CPU; numbers will not repeat");
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("smoke") => ("smoke", &argv[1..]),
        Some("repeat") => ("repeat", &argv[1..]),
        Some("benchmark-json") => ("benchmark-json", &argv[1..]),
        Some(_) => ("run", &argv[..]),
        None => return usage(),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return usage();
        }
    };
    match mode {
        "benchmark-json" => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        "smoke" => report::smoke(),
        "repeat" => report::repeat(&args.workload, args.seed, args.seconds, args.sets),
        _ => match &args.workload {
            Some(w) => report::one_run(w, args.seed, args.seconds, args.trace, &cleared),
            None => usage(),
        },
    }
}
