//! The environment's configuration, end to end: every `SNET_*`
//! variable lands in the built net or, set to something it cannot
//! mean, is a typed build error; unset, the default is
//! `RunCfg::default()` on the shared pool with one worker per core.
//! And the runtime reads those variables in one place.
//!
//! One `#[test]` touches the environment, in a binary of its own: the
//! process environment and the process-wide pool are shared state, so
//! the cases run in sequence and no other test's `build` can see a
//! half-set variable.

use snet_runtime::{BuildError, ChaosConfig, FaultPolicy, Net, NetBuilder, RunCfg};
use snet_types::Record;
use std::path::{Path, PathBuf};

/// `id .. id` under exactly the variables of `env`.
fn builder(env: &[(&str, &str)]) -> NetBuilder {
    for var in ["STREAM_BOUND", "FUSE", "WORKERS", "FAULT_POLICY", "CHAOS"] {
        std::env::remove_var(format!("SNET_{var}"));
    }
    env.iter().for_each(|(k, v)| std::env::set_var(k, v));
    NetBuilder::from_source("box id (x) -> (x); net main = id .. id;")
        .unwrap()
        .bind("id", |rec, em| em.emit(rec.clone()))
}

/// Whether the net's data edges are bounded (only a bounded edge
/// registers depth accounting), and how many components it runs as.
fn shape(net: Net) -> (bool, usize) {
    let keys = net.metrics().snapshot().into_keys();
    let shape = (
        keys.into_iter().any(|k| k.ends_with("/stream_depth")),
        net.threads_spawned(),
    );
    net.send(Record::build().field("x", 1i64).finish()).unwrap();
    assert_eq!(net.finish().len(), 1);
    shape
}

#[test]
fn environment_sizes_the_default_pool_or_fails_the_build() {
    // Bad values first: nothing has sized the shared pool yet. Each is
    // an error naming the variable and the value, never the default —
    // whatever a setter says afterwards.
    for (var, value) in [
        ("SNET_WORKERS", "0"),
        ("SNET_WORKERS", "two"),
        ("SNET_STREAM_BOUND", "abc"),
        ("SNET_FUSE", "off"),
        ("SNET_FAULT_POLICY", "skp"),
        ("SNET_CHAOS", "1:2:3"),
    ] {
        match builder(&[(var, value)]).bound(8).fuse(true).build("main") {
            Err(BuildError::Config(e)) => assert!(
                e.to_string()
                    .starts_with(&format!("{var}={value:?}: expected ")),
                "{e}"
            ),
            other => panic!("{var}={value:?}: expected a config error, got {other:?}"),
        }
    }
    assert_eq!(
        RunCfg::try_from_env().unwrap_err().to_string(),
        "SNET_CHAOS=\"1:2:3\": expected seed:rate[:stall_rate:stall_ms] with rate in 0..=1"
    );

    // Nothing set: the default configuration on the shared pool,
    // exactly one worker per core.
    let net = builder(&[]).build("main").unwrap();
    assert_eq!(RunCfg::try_from_env(), Ok(RunCfg::default()));
    assert_eq!(RunCfg::from_env().bound, Some(128));
    let cores = std::thread::available_parallelism().unwrap().get();
    let default = snet_runtime::sched::default_executor();
    assert_eq!(default.kind(), "pool");
    assert_eq!(default.os_thread_bound(), Some(cores));
    assert_eq!(net.executor().os_thread_bound(), Some(cores));
    assert_eq!(shape(net), (true, 1));

    // Good values land in the built net, unless a setter says
    // otherwise.
    let env = [("SNET_STREAM_BOUND", "0"), ("SNET_FUSE", "0")];
    assert_eq!(shape(builder(&env).build("main").unwrap()), (false, 2));
    let set = builder(&env).bound(8).fuse(true).build("main").unwrap();
    assert_eq!(shape(set), (true, 1));

    let env = [
        ("SNET_STREAM_BOUND", "64"),
        ("SNET_FUSE", "1"),
        ("SNET_WORKERS", "3"),
        ("SNET_FAULT_POLICY", "restart:2:1"),
        ("SNET_CHAOS", "7:0.5"),
    ];
    // Half the records panic at a box boundary; under the default
    // policy the first would fail the net.
    let net = builder(&env).build("main").unwrap();
    let want = RunCfg {
        bound: Some(64),
        workers: Some(3),
        fault_policy: FaultPolicy::parse("restart:2:1").unwrap(),
        chaos: Some(ChaosConfig::new(7, 0.5)),
        ..RunCfg::default()
    };
    assert_eq!(RunCfg::try_from_env(), Ok(want));
    for x in 0..32i64 {
        net.send(Record::build().field("x", x).finish()).unwrap();
    }
    let metrics = std::sync::Arc::clone(net.metrics());
    assert!(net.finish().len() < 32 && metrics.get("runtime/chaos_injected") > 0);
    let calm = builder(&env).unbounded().chaos(ChaosConfig::new(7, 0.0));
    assert_eq!(shape(calm.build("main").unwrap()), (false, 1));
    // Leave nothing set behind.
    builder(&[]);
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: PathBuf, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_one_reader_reads_an_snet_variable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let reader = root.join("crates/snet-runtime/src/ctx.rs");
    // The benchmark clears the variables before it measures
    // (`perf/host.rs`), which is not reading them.
    let perf = root.join("crates/bench/src/bin/perf");
    let mut files = Vec::new();
    rust_files(root.join("src"), &mut files);
    rust_files(root.join("crates"), &mut files);
    files.retain(|f| *f != reader && !f.starts_with(&perf));
    assert!(files.len() > 50, "walked {} files", files.len());
    files.retain(|f| {
        let text = std::fs::read_to_string(f).unwrap();
        text.contains("var(\"SNET_") || text.contains("var_os(\"SNET_")
    });
    assert!(files.is_empty(), "SNET_* read outside ctx.rs: {files:?}");
    let reader = std::fs::read_to_string(reader).unwrap();
    assert!(reader.contains("fn try_from_env") && reader.contains("std::env::var_os("));
}
