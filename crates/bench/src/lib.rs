//! # snet-bench — benchmark harness
//!
//! Shared infrastructure for reproducing the paper's evaluation
//! artifacts. The paper (IPPS 2007, a design paper) publishes **no
//! numeric tables**; its evaluation consists of the three networks of
//! Figures 1–3 plus explicit structural claims (pipeline ≤ 81
//! replicas, ≤ 9 replicas per stage / ≤ 729 boxes, throttling to 4
//! parallel instances, 9×9 solved "in far less than a second").
//!
//! Accordingly the crate has two binaries:
//!
//! * `cargo run --release --bin experiments` — a single-shot run of
//!   every figure with metrics enabled, printing the behavioural
//!   table and asserting the paper's bounds; machine-readable rows go
//!   to `experiments.json`. This library holds its helpers.
//! * `src/bin/perf` — the repo's one benchmark (`BENCHMARK.json`):
//!   end-to-end load through the `Service` and FIFO doors, the layer
//!   table and the primitive ledger. It is a package of its own and
//!   does not use this library.

use std::time::{Duration, Instant};

/// One behavioural measurement row of the `experiments` table.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// Experiment id: F1–F3 for Figures 1–3, S2, S3 and S5 for the
    /// paper's Sections 2, 3 and 5.
    pub experiment: String,
    /// Workload description.
    pub workload: String,
    /// Quantity measured.
    pub metric: String,
    /// Bound or expectation from the paper (free text).
    pub paper: String,
    /// Measured value.
    pub measured: f64,
    /// Whether the paper's claim held; `None` when this host cannot
    /// judge it (the row counts neither as held nor as failed).
    pub holds: Option<bool>,
}

impl ExperimentRow {
    pub fn new(
        experiment: &str,
        workload: &str,
        metric: &str,
        paper: &str,
        measured: f64,
        holds: impl Into<Option<bool>>,
    ) -> ExperimentRow {
        ExperimentRow {
            experiment: experiment.to_string(),
            workload: workload.to_string(),
            metric: metric.to_string(),
            paper: paper.to_string(),
            measured,
            holds: holds.into(),
        }
    }
}

/// Prints rows as an aligned text table.
pub fn print_table(rows: &[ExperimentRow]) {
    println!(
        "{:<4} {:<28} {:<34} {:<26} {:>12} {:>6}",
        "exp", "workload", "metric", "paper", "measured", "holds"
    );
    println!("{}", "-".repeat(116));
    for r in rows {
        println!(
            "{:<4} {:<28} {:<34} {:<26} {:>12.3} {:>6}",
            r.experiment,
            truncate(&r.workload, 28),
            truncate(&r.metric, 34),
            truncate(&r.paper, 26),
            r.measured,
            match r.holds {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            }
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders rows as pretty-printed JSON (hand-rolled — the offline
/// build vendors no serde).
pub fn rows_to_json(rows: &[ExperimentRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\n    \"experiment\": \"{}\",\n    \"workload\": \"{}\",\n    \
             \"metric\": \"{}\",\n    \"paper\": \"{}\",\n    \"measured\": {},\n    \
             \"holds\": {}\n  }}{}\n",
            json_escape(&r.experiment),
            json_escape(&r.workload),
            json_escape(&r.metric),
            json_escape(&r.paper),
            if r.measured.is_finite() {
                format!("{}", r.measured)
            } else {
                "null".to_string()
            },
            r.holds.map_or("null".to_string(), |h| h.to_string()),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

/// Writes rows as JSON (one file per harness run).
pub fn write_json(path: &str, rows: &[ExperimentRow]) -> std::io::Result<()> {
    std::fs::write(path, rows_to_json(rows))
}

/// Times a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Median wall time of `n` runs.
pub fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    assert!(n >= 1);
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Thread counts to sweep on this machine: 1, 2, 4, ... up to the
/// available parallelism.
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut v = vec![1];
    while *v.last().unwrap() * 2 <= max {
        v.push(v.last().unwrap() * 2);
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

/// Two cores' worth: a parallel-speedup row is judged only when the
/// two-thread control reaches this multiple of one thread's rate.
pub const TWO_CORES: f64 = 1.8;

/// How many threads' worth of work this host runs on two threads: a
/// fixed ALU loop on one thread, then the same loop on each of two
/// threads at once, median of three each. 2.0 is two free cores; a
/// second vCPU that is not a second core, or is busy elsewhere, gives
/// less.
pub fn two_thread_control() -> f64 {
    fn alu_loop() -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..std::hint::black_box(20_000_000u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x ^ i);
        }
        acc
    }
    let on = |threads: usize| {
        median_time(3, || {
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| std::hint::black_box(alu_loop()));
                }
            })
        })
    };
    2.0 * on(1).as_secs_f64() / on(2).as_secs_f64()
}

/// The rule for a parallel-speedup row ("> 1"): not judged (`None`)
/// when the host's two-thread `control` is short of [`TWO_CORES`],
/// else whether `speedup` exceeds 1.
pub fn judge_speedup(control: f64, speedup: f64) -> Option<bool> {
    (control >= TWO_CORES).then_some(speedup > 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_is_monotone_and_starts_at_one() {
        let s = thread_sweep();
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn median_time_runs_the_closure() {
        let mut count = 0;
        let _ = median_time(5, || count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    fn speedup_rows_are_judged_only_on_two_cores_worth() {
        assert_eq!(judge_speedup(1.95, 1.4), Some(true));
        assert_eq!(judge_speedup(TWO_CORES, 1.01), Some(true));
        assert_eq!(judge_speedup(1.95, 0.9), Some(false));
        assert_eq!(judge_speedup(1.95, 1.0), Some(false));
        assert_eq!(judge_speedup(1.33, 0.9), None);
        assert_eq!(judge_speedup(1.33, 1.4), None);
    }

    #[test]
    fn rows_serialise_to_json() {
        let rows = vec![ExperimentRow::new(
            "F1",
            "classic9",
            "pipeline depth",
            "<= 81",
            52.0,
            true,
        )];
        let json = rows_to_json(&rows);
        assert!(json.contains("\"experiment\": \"F1\""));
        assert!(json.contains("\"holds\": true"));
        assert!(json.contains("\"measured\": 52"));
        let unjudged = ExperimentRow::new("S2", "w", "m", "p", 0.9, None);
        assert!(rows_to_json(&[unjudged]).contains("\"holds\": null"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn truncate_respects_length() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("exactly_te", 10), "exactly_te");
        let t = truncate("much longer than allowed", 10);
        assert!(t.chars().count() <= 10);
    }
}
