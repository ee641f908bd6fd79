//! The environment's configuration, end to end: `SNET_WORKERS`, the
//! pool size and the one `SNET_*` variable, sizes the shared pool or,
//! set to something it cannot mean, is a typed build error; unset, the
//! default is `RunCfg::default()` on the shared pool with one worker
//! per core. Everything else is a `NetBuilder` setter. And the runtime
//! reads the variable in one place.
//!
//! One `#[test]` touches the environment, in a binary of its own: the
//! process environment and the process-wide pool are shared state, so
//! the cases run in sequence and no other test's `build` can see a
//! half-set variable.

use snet_runtime::{BuildError, NetBuilder, RunCfg};
use snet_types::Record;
use std::path::{Path, PathBuf};

/// `id .. id` with `SNET_WORKERS` set to `workers`, if anything.
fn builder(workers: Option<&str>) -> NetBuilder {
    match workers {
        Some(v) => std::env::set_var("SNET_WORKERS", v),
        None => std::env::remove_var("SNET_WORKERS"),
    }
    NetBuilder::from_source("box id (x) -> (x); net main = id .. id;")
        .unwrap()
        .bind("id", |rec, em| em.emit(rec.clone()))
}

#[test]
fn environment_sizes_the_default_pool_or_fails_the_build() {
    // Bad values first: nothing has sized the shared pool yet. Each is
    // an error naming the variable and the value, never the default —
    // whatever a setter says afterwards.
    for value in ["0", "two", "-1", "1.5", ""] {
        match builder(Some(value)).bound(8).fuse(true).build("main") {
            Err(BuildError::Config(e)) => assert_eq!(
                e.to_string(),
                format!("SNET_WORKERS={value:?}: expected a positive integer")
            ),
            other => panic!("{value:?}: expected a config error, got {other:?}"),
        }
    }
    assert!(RunCfg::try_from_env().is_err());

    // Nothing set: the default configuration on the shared pool,
    // exactly one worker per core.
    let net = builder(None).build("main").unwrap();
    assert_eq!(RunCfg::try_from_env(), Ok(RunCfg::default()));
    assert_eq!(RunCfg::from_env().bound, Some(128));
    let cores = std::thread::available_parallelism().unwrap().get();
    let default = snet_runtime::sched::default_executor();
    assert_eq!(default.kind(), "pool");
    assert_eq!(default.os_thread_bound(), Some(cores));
    assert_eq!(net.executor().os_thread_bound(), Some(cores));
    net.send(Record::build().field("x", 1i64).finish()).unwrap();
    assert_eq!(net.finish().len(), 1);

    // A good value lands in the configuration and nowhere else: the
    // shared pool was sized on first use above.
    let want = RunCfg {
        workers: Some(3),
        ..RunCfg::default()
    };
    let net = builder(Some("3")).build("main").unwrap();
    assert_eq!(RunCfg::try_from_env(), Ok(want));
    assert_eq!(net.executor().os_thread_bound(), Some(cores));
    assert_eq!(net.finish().len(), 0);
    // Leave nothing set behind.
    builder(None);
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
