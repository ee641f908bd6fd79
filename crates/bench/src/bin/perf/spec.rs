//! The benchmark's contract: every metric by name, unit, direction and
//! bound. `BENCHMARK.json` at the root of the repo is this table
//! printed (`perf benchmark-json`); a test keeps the two equal.

use crate::layers::BOXES;

/// Seconds one run measures (`run_seconds`), and the default of
/// `--seconds`.
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse:
    /// `max(10 %, 2 x the largest disagreement seen)`, capped at 15 %
    /// (README, "Bounds").
    pub bound: f64,
}

/// Every time-valued one is stated at the workload's nominal host speed
/// (`run.rs`). `cpu_us_per_op` is not here: on the one CPU the process
/// runs on it is the reciprocal of `throughput_ops_s` (a saturated CPU
/// spends a CPU-second a second), so it gates nothing the first row
/// does not; it is the per-layer row `load.cpu_us_per_op`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// Per-layer metrics whose larger values are the better ones; every
/// other one is a cost.
const HIGHER: [&str; 6] = [
    "load.raw_throughput_ops_s",
    "serve.slot_reuse_share",
    "sched.pool.throughput_ops_s",
    "sacarray.par_speedup",
    "stage.cpu_share",
    "stage.hops_per_op",
];

/// The unit a per-layer metric's name implies.
fn unit_of(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    if name.starts_with("sched.spawn_us")
        || last.ends_with("_us")
        || last.contains("_us_")
        || last.starts_with("us_")
    {
        "us"
    } else if last.ends_with("_ns") || last.contains("_ns_") {
        "ns"
    } else if last.ends_with("_ms") {
        "ms"
    } else if last.ends_with("_ops_s") {
        "ops/s"
    } else if last.ends_with("_share") {
        "share"
    } else if last.ends_with("_speedup") || last.ends_with("_over_pure") || last == "slowdown" {
        "ratio"
    } else {
        "count"
    }
}

/// Every per-layer metric, grouped by the repo module it belongs to.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let fixed = [
        // serve
        "serve.ingress_us",
        "serve.transit_us",
        "serve.wake_us",
        "serve.door_tax_us",
        "serve.slot_reuse_share",
        "serve.stray",
        // snet-lang / plan / net
        "lang.parse_us",
        "lang.infer_us",
        "plan.compile_us",
        "net.build_us",
        "net.first_out_us",
        "net.teardown_us",
        "net.components",
        "net.replicas_spawned",
        // sched
        "sched.vcsw_per_op",
        "sched.icsw_per_op",
        "sched.sys_share",
        "sched.spawn_us.threads",
        "sched.spawn_us.pool",
        "sched.pool.throughput_ops_s",
        "sched.pool.unloaded_p50_us",
        // stream
        "stream.hop_ns",
        "stream.hop_bounded_ns",
        "stream.pingpong_ns",
        "stream.credit_stalls_per_kop",
        "stream.depth_max",
        // boxfn / filter_exec / fused
        "boxfn.record_ns",
        "fused.record_ns",
        "filter_exec.record_ns",
        "stage.busy_us_per_op",
        "stage.edge_wait_us_per_op",
        "stage.hops_per_op",
        "stage.cpu_share",
        // parallel / split / star / merge
        "parallel.record_ns",
        "parallel.det_record_ns",
        "split.record_ns",
        "split.det_record_ns",
        "star.level_ns",
        "star.det_level_ns",
        "parallel.route_ns",
        // snet-types
        "types.clone_ns",
        "types.split_ns",
        "types.inherit_ns",
        "types.match_ns",
        // metrics
        "metrics.inc_ns",
        "metrics.snapshot_us",
        "metrics.interner_paths",
        // sacarray
        "sacarray.genarray_ns_elem",
        "sacarray.genarray_par_ns_elem",
        "sacarray.fold_ns_elem",
        "sacarray.fold_par_ns_elem",
        "sacarray.modarray_ns_elem",
        "sacarray.fork_join_us",
        "sacarray.par_speedup",
        // sudoku, and the sequential reference of the workload at hand
        "sudoku.compute_opts_us",
        "sudoku.add_number_us",
        "sudoku.pure_solve_us",
        "reference.us_per_op",
        "reference.net_over_pure",
        // load / host / harness
        "load.paced_p50_us",
        "load.p90_us",
        "load.p99_us",
        "load.p999_us",
        "load.late_p99_us",
        "load.cpu_us_per_op",
        "load.raw_throughput_ops_s",
        "load.raw_latency_p50_us",
        "load.sat_p50_us",
        "load.unloaded_p50_us",
        "noise.throughput_iqr_share",
        "noise.p50_iqr_share",
        "host.calib_ms",
        "host.calib_drift_share",
        "host.slowdown",
        "host.slowdown_iqr_share",
        "harness.gen_ns_per_op",
        "harness.cpu_share",
        "trace.overhead_share",
        "trace.reconcile_gap_share",
    ];
    fixed
        .iter()
        .map(|n| n.to_string())
        .chain(BOXES.iter().map(|b| format!("stage.{b}.self_us")))
        .map(|n| {
            let unit = unit_of(&n);
            let higher = HIGHER.contains(&n.as_str());
            (n, unit, higher)
        })
        .collect()
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = crate::workloads::CATALOG
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(n, unit, higher)| {
            format!(
                "    {{\"name\": \"{n}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"crates/bench/src/bin/perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_table() {
        let on_disk = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `perf benchmark-json > BENCHMARK.json`"
        );
    }

    /// The `[profile.release]` table of a manifest: its `key = value`
    /// lines, comments and blank lines dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .map(str::trim)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark's own manifest builds the program under test the
    /// way the repo's does: a package with a workspace of its own does
    /// not inherit the root's release profile, so it restates it, and
    /// this keeps the two from drifting apart.
    #[test]
    fn release_profile_is_the_repos() {
        let ours = release_profile(include_str!("Cargo.toml"));
        let roots = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!roots.is_empty(), "the root manifest has a release profile");
        assert_eq!(ours, roots);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(crate::workloads::names().map(|n| n.to_string()));
        assert!(crate::workloads::CATALOG
            .iter()
            .all(|(_, why)| why.len() <= 200));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.15));
    }
}
