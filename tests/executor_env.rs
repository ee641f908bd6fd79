//! The environment's executor configuration, end to end: an
//! `SNET_WORKERS` typo is a typed build error, and the default is the
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

fn config_error(workers: &str) -> String {
    std::env::set_var("SNET_WORKERS", workers);
    match build() {
        Err(BuildError::Config(e)) => e.to_string(),
        Err(e) => panic!("expected a config error, got {e}"),
        Ok(_) => panic!("SNET_WORKERS={workers:?} built a net"),
    }
}

#[test]
fn environment_sizes_the_default_pool_or_fails_the_build() {
    // Bad values first: nothing has sized the shared pool yet.
    assert!(config_error("0").contains("SNET_WORKERS=\"0\""));
    assert!(config_error("two").contains("SNET_WORKERS=\"two\""));

    // Nothing set: the shared pool, exactly one worker per core.
    std::env::remove_var("SNET_WORKERS");
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
