//! What a run prints and writes: the result line the driver reads, the
//! result file with its host section, the smoke pass and the repeat
//! protocol.

use crate::host;
use crate::layers;
use crate::run::{self, Measured, PerRound, Plan};
use crate::spec::{self, END_TO_END};
use crate::stats;
use crate::workloads;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end values of a measured run, in `END_TO_END` order.
fn end_to_end(m: &Measured, w: &workloads::Workload) -> [f64; END_TO_END.len()] {
    [
        m.throughput_ops_s(w).value(),
        m.latency_p50_us(w).value(),
        m.setup_s(w).value(),
        m.peak_rss_mb,
    ]
}

/// A JSON number with every digit measured; a non-finite value (which
/// JSON cannot carry) becomes 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The line the driver reads.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Where result files and span dumps go: under the build directory the
/// caller chose (`CARGO_TARGET_DIR`), else `.bench_build` in the
/// working directory — either way inside the checkout and ignored by
/// git.
fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or(".bench_build".into(), PathBuf::from);
    base.join("perf-results")
}

fn host_section(m: &Measured, w: &workloads::Workload, cleared: &[String]) -> String {
    let executor = snet_runtime::sched::default_executor().kind();
    let bound = snet_runtime::RunCfg::from_env()
        .bound
        .map_or("null".to_string(), |b| b.to_string());
    let drift = (m.calib_after_ms - m.calib_before_ms).abs() / m.calib_before_ms.max(1e-9);
    format!(
        "{{\"cores\": {}, \"confined_to_one_cpu\": {}, \"default_executor\": \"{executor}\", \
         \"stream_bound\": {bound}, \"calib_ms_before\": {}, \"calib_ms_after\": {}, \
         \"calib_drift_share\": {}, \"reference_us_nominal\": {}, \"slowdown\": {}, \
         \"cleared_env\": [{}]}}",
        host::cores(),
        host::confined(),
        num(m.calib_before_ms),
        num(m.calib_after_ms),
        num(drift),
        num(w.ref_us),
        quartile_json(&mut m.slowdowns(w)),
        cleared
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn series(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
    )
}

fn quartile_json(xs: &mut [f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(xs);
    format!(
        "{{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
        xs.len(),
        num(q1),
        num(q2),
        num(q3)
    )
}

/// The three time-valued end-to-end metrics of a run, round by round.
fn per_round(m: &Measured, w: &workloads::Workload) -> [(&'static str, PerRound); 3] {
    [
        ("throughput_ops_s", m.throughput_ops_s(w)),
        ("latency_p50_us", m.latency_p50_us(w)),
        ("setup_s", m.setup_s(w)),
    ]
}

/// Writes the result file of one run; a failure to write is reported
/// and does not fail the run.
fn write_result(
    w: &workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    m: &Measured,
    cleared: &[String],
    line: &str,
) -> PathBuf {
    let dir = out_dir();
    let workload = w.name;
    let path = dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    let rounds: Vec<String> = per_round(m, w)
        .iter()
        .map(|(name, r)| {
            format!(
                "\"{name}\": {{\"at_nominal\": {}, \"raw\": {}, \"series_at_nominal\": {}, \
                 \"series_raw\": {}}}",
                quartile_json(&mut r.at_nominal.clone()),
                quartile_json(&mut r.raw.clone()),
                series(&r.at_nominal),
                series(&r.raw)
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \
         \"trace\": {trace},\n  \"host\": {},\n  \
         \"rounds\": {{{}}},\n  \"slowdown_series\": {},\n  \"result\": {line}\n}}\n",
        host_section(m, w, cleared),
        rounds.join(", "),
        series(&m.slowdowns(w)),
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
    path
}

fn print_rounds(m: &Measured, w: &workloads::Workload) {
    for (name, r) in per_round(m, w) {
        let [q1, q2, q3] = stats::quartiles(&mut r.at_nominal.clone());
        println!(
            "  {name:<18} rounds {:>3}   q1 {q1:>12.6}   median {q2:>12.6}   q3 {q3:>12.6}   \
             (as measured: median {:.6})",
            r.raw.len(),
            r.raw_median()
        );
    }
    let [q1, q2, q3] = stats::quartiles(&mut m.slowdowns(w));
    println!("  host slowdown against the nominal speed: q1 {q1:.3}   median {q2:.3}   q3 {q3:.3}");
}

/// Largest share by which the layer medians of a traced `Service`
/// workload may miss its round-trip median.
const RECONCILE_LIMIT: f64 = 0.10;

/// `perf --workload W …`: one run, untraced or traced. A run with a
/// failed operation, or a traced one whose paced phase was overloaded
/// or whose layer table does not reconcile (`Service` door), reports
/// `"correct": false` and exits non-zero.
pub fn one_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    cleared: &[String],
) -> ExitCode {
    let w = workloads::make(workload, seed, false).expect("workload name was checked");
    println!(
        "perf: {workload}, seed {seed}, {seconds} s, {} cores ({}), trace {}",
        host::cores(),
        if host::confined() {
            "measured on one"
        } else {
            "NOT confined to one"
        },
        u8::from(trace)
    );
    // What makes a run invalid besides a failed operation.
    let mut invalid: Vec<String> = Vec::new();
    let (counts, metrics, m) = if trace {
        let l = layers::run(&w, seed, seconds);
        l.table.print(workload);
        if w.door == workloads::Door::Service && l.table.gap_share > RECONCILE_LIMIT {
            invalid.push(format!(
                "the layer medians miss the round-trip median by {:.1} % (limit {:.0} %)",
                l.table.gap_share * 100.0,
                RECONCILE_LIMIT * 100.0
            ));
        }
        if l.paced_overloaded {
            invalid.push(format!(
                "the paced phase was overloaded at {}/s: the load.p* rows describe a growing queue",
                w.rate
            ));
        }
        let dir = out_dir();
        let spans = dir.join(format!("{workload}-seed{seed}-spans.jsonl"));
        match std::fs::create_dir_all(&dir).and_then(|()| l.table.write_jsonl(&spans)) {
            Ok(()) => println!("  {} spans in {}", l.table.spans.len(), spans.display()),
            Err(e) => eprintln!("perf: cannot write {}: {e}", spans.display()),
        }
        let mut named = Vec::new();
        for (name, unit, _) in spec::per_layer() {
            let Some(v) = l.metrics.get(&name) else {
                eprintln!("perf: per-layer metric {name} was not measured");
                return ExitCode::from(4);
            };
            println!("  {name:<34} {v:>16.4} {unit}");
            named.push((name, *v, unit));
        }
        (l.counts, named, l.measured)
    } else {
        let m = run::measure(&w, &Plan::for_seconds(seconds));
        print_rounds(&m, &w);
        let named = END_TO_END
            .iter()
            .zip(end_to_end(&m, &w))
            .map(|(e, v)| (e.name.to_string(), v, e.unit))
            .collect();
        (m.counts, named, m)
    };
    if counts.failed > 0 || counts.attempted == 0 {
        invalid.push(format!(
            "{} of {} operations failed",
            counts.failed, counts.attempted
        ));
    }
    let line = result_line(
        invalid.is_empty(),
        counts.attempted,
        counts.failed,
        &metrics,
    );
    let path = write_result(&w, seed, seconds, trace, &m, cleared, &line);
    println!(
        "  host: calibration loop {:.4} ms before, {:.4} ms after; result file {}",
        m.calib_before_ms,
        m.calib_after_ms,
        path.display()
    );
    println!("{line}");
    for reason in &invalid {
        eprintln!("perf: {workload}: INVALID RUN: {reason}");
    }
    if invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `perf smoke`: every workload, every phase and oracle, sub-second.
/// Returns the failures it saw.
pub fn smoke_failures() -> Vec<String> {
    let mut failures = Vec::new();
    for name in workloads::names() {
        // Seed 2: not the default, so the smoke pass also shows the
        // oracles hold on a corpus nobody tuned against.
        let w = workloads::make(name, 2, true).expect("a workload of this harness");
        let m = run::measure(&w, &Plan::smoke());
        let values = end_to_end(&m, &w);
        println!(
            "smoke {name:<16} attempted {:>6} failed {}  thr {:.0}/s  p50 {:.0} us  setup {:.4} s",
            m.counts.attempted, m.counts.failed, values[0], values[1], values[2]
        );
        if m.counts.failed != 0 || m.counts.attempted == 0 {
            failures.push(format!(
                "{name}: {} of {} operations failed",
                m.counts.failed, m.counts.attempted
            ));
        }
        // Not the saturate phase's bins: in a debug build an operation
        // of the two heavy workloads outlasts the 20 ms they cover.
        if m.rounds
            .iter()
            .any(|r| r.alone_p50_us == 0.0 || r.cold_s.is_empty())
        {
            failures.push(format!("{name}: a phase measured nothing"));
        }
    }
    failures
}

pub fn smoke() -> ExitCode {
    let failures = smoke_failures();
    for f in &failures {
        eprintln!("SMOKE FAIL: {f}");
    }
    if failures.is_empty() {
        println!("SMOKE OK: five workloads, every response checked");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `x` with four significant digits, whatever its scale.
fn sig4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return "0".to_string();
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// The number after `key` in a result line.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One measured run in a process of its own — the way the driver runs
/// it, and the only way `peak_rss_mb` means anything (a process's
/// high-water mark and its allocator's retained heap outlive the run
/// that caused them). Returns the end-to-end values and the failed
/// operations; `None` if the run printed no result or was invalid.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Option<([f64; END_TO_END.len()], u64)> {
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last()?;
    let mut values = [0.0; END_TO_END.len()];
    for (v, e) in values.iter_mut().zip(&END_TO_END) {
        *v = number_after(line, &format!("\"{}\": {{\"value\": ", e.name))?;
    }
    let failed = number_after(line, "\"failed\": ")? as u64;
    if !out.status.success() && failed == 0 {
        // Invalid for another reason than a failed operation; the
        // child said which.
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        return None;
    }
    Some((values, failed))
}

/// Measured runs per workload in one set of `perf repeat`: enough for
/// a median, few enough that a pass over five workloads takes five
/// minutes a set.
const RUNS_PER_SET: u64 = 3;

/// `perf repeat`: `sets` sets of `RUNS_PER_SET` measured runs per
/// workload, set after set (so the sets see different host states),
/// each run in a child process. A set's value of a metric is the
/// median over its runs (seeds `seed`, `seed+1`, …, the same in every
/// set). Prints, per metric × workload, the largest disagreement
/// between two sets' values as a share of the smaller, next to the
/// metric's bound, and exits non-zero if any disagreement exceeds its
/// bound or any run was invalid.
pub fn repeat(workload: &Option<String>, seed: u64, seconds: f64, sets: usize) -> ExitCode {
    let sets = sets.max(2);
    let names: Vec<&str> = workloads::names()
        .filter(|n| workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    // values[workload][metric][set] = that set's runs.
    let mut values: BTreeMap<&str, Vec<Vec<Vec<f64>>>> = BTreeMap::new();
    let mut failed = 0;
    for set in 0..sets {
        for name in &names {
            for s in seed..seed + RUNS_PER_SET {
                let Some((e2e, run_failed)) = child_run(name, s, seconds) else {
                    eprintln!("perf repeat: {name}, seed {s}: the run gave no valid result");
                    return ExitCode::FAILURE;
                };
                failed += run_failed;
                let per_metric = values
                    .entry(name)
                    .or_insert_with(|| vec![vec![Vec::new(); sets]; END_TO_END.len()]);
                println!(
                    "set {set} {name:<16} seed {s:<3} {}",
                    END_TO_END
                        .iter()
                        .zip(e2e)
                        .map(|(e, v)| format!("{} {}", e.name, sig4(v)))
                        .collect::<Vec<_>>()
                        .join("  "),
                );
                for (k, v) in e2e.into_iter().enumerate() {
                    per_metric[k][set].push(v);
                }
            }
        }
    }
    println!(
        "\n{:<16} {:<18} {:>23} {:>9} {:>7}",
        "workload", "metric", "set medians", "disagree", "bound"
    );
    let mut excess = 0;
    let mut largest: f64 = 0.0;
    for (name, per_metric) in &mut values {
        for (e, by_set) in END_TO_END.iter().zip(per_metric.iter_mut()) {
            let medians: Vec<f64> = by_set.iter_mut().map(|s| stats::median(s)).collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(0.0, f64::max);
            let disagree = if lo > 0.0 { (hi - lo) / lo } else { 0.0 };
            largest = largest.max(disagree);
            let over = disagree > e.bound;
            excess += usize::from(over);
            println!(
                "{name:<16} {:<18} {:>23} {:>8.1}% {:>6.0}%{}",
                e.name,
                medians
                    .iter()
                    .map(|m| sig4(*m))
                    .collect::<Vec<_>>()
                    .join(" / "),
                disagree * 100.0,
                e.bound * 100.0,
                if over { "  EXCESS" } else { "" }
            );
        }
    }
    println!("largest disagreement {:.1} %", largest * 100.0);
    if failed > 0 {
        eprintln!("perf repeat: {failed} operations failed");
    }
    if excess > 0 {
        eprintln!(
            "perf repeat: {excess} metric x workload pairs disagree by more than their bound"
        );
    }
    if excess == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 leg of the benchmark: the smoke pass, whatever
    /// `SNET_*` the test run was started with.
    #[test]
    fn smoke_pass_holds() {
        host::clear_knobs();
        assert_eq!(smoke_failures(), Vec::<String>::new());
    }

    #[test]
    fn result_line_has_the_contracts_keys() {
        let line = result_line(true, 3, 0, &[("a_us".to_string(), 1.25, "us")]);
        assert_eq!(number_after(&line, "\"a_us\": {\"value\": "), Some(1.25));
        assert_eq!(number_after(&line, "\"failed\": "), Some(0.0));
        assert_eq!(sig4(0.000292049), "0.0002920");
        assert_eq!(sig4(137_912.4), "137912");
        assert_eq!(sig4(15.5609), "15.56");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
    }
}
