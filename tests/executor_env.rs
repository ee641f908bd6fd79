//! The environment's executor selection, end to end: `SNET_EXECUTOR` /
//! `SNET_WORKERS` typos are typed build errors, and the default is the
//! shared pool with one worker per core.
//!
//! One `#[test]` in a binary of its own: the process environment and
//! the process-wide pool are shared state, so the cases run in
//! sequence and no other test's `build` can see a half-set variable.

use snet_runtime::{BuildError, NetBuilder};

fn build() -> Result<snet_runtime::Net, BuildError> {
    NetBuilder::from_source("box id (x) -> (x); net main = id;")
        .unwrap()
        .bind("id", |rec, em| em.emit(rec.clone()))
        .build("main")
}

fn config_error(executor: Option<&str>, workers: Option<&str>) -> String {
    for (name, value) in [("SNET_EXECUTOR", executor), ("SNET_WORKERS", workers)] {
        match value {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
    }
    match build() {
        Err(BuildError::Config(e)) => e.to_string(),
        Err(e) => panic!("expected a config error, got {e}"),
        Ok(_) => panic!("SNET_EXECUTOR={executor:?} SNET_WORKERS={workers:?} built a net"),
    }
}

#[test]
fn environment_selects_the_executor_or_fails_the_build() {
    // Bad values first: nothing has sized the shared pool yet.
    assert!(config_error(Some("pol"), None).contains("SNET_EXECUTOR=\"pol\""));
    assert!(config_error(Some(""), None).contains("SNET_EXECUTOR"));
    assert!(config_error(None, Some("0")).contains("SNET_WORKERS=\"0\""));
    assert!(config_error(None, Some("two")).contains("SNET_WORKERS=\"two\""));
    // A bad worker count is rejected even where it would not be used.
    assert!(config_error(Some("threads"), Some("0")).contains("SNET_WORKERS"));

    // `threads` is the paper's literal model, still reachable.
    std::env::set_var("SNET_EXECUTOR", "threads");
    std::env::remove_var("SNET_WORKERS");
    let net = build().unwrap();
    assert_eq!(net.executor().kind(), "threads");
    assert_eq!(net.executor().os_thread_bound(), None);
    net.finish();

    // Nothing set: the shared pool, exactly one worker per core.
    std::env::remove_var("SNET_EXECUTOR");
    let cores = std::thread::available_parallelism().unwrap().get();
    let default = snet_runtime::sched::default_executor();
    assert_eq!(default.kind(), "pool");
    assert_eq!(default.os_thread_bound(), Some(cores));
    let net = build().unwrap();
    assert_eq!(net.executor().os_thread_bound(), Some(cores));
    net.send(snet_types::Record::build().field("x", 1i64).finish())
        .unwrap();
    assert_eq!(net.finish().len(), 1);
}
