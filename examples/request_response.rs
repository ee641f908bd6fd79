//! The serve front door in ~60 lines: many concurrent callers, one
//! net, every response routed back to the caller whose request
//! produced it.
//!
//! The box never sees the correlation machinery — the request id
//! rides in a hidden word of the record, which flow inheritance copies
//! onto everything the box emits (see `snet_runtime::serve` module
//! docs).
//!
//! Run with: `cargo run --release --example request_response`

use snet_runtime::{NetBuilder, Service};
use snet_types::Record;

fn main() {
    let net = NetBuilder::from_source(
        "box square (x) -> (x, y);
         net main = square;",
    )
    .expect("program parses")
    .bind("square", |rec, em| {
        let x = rec.field("x").unwrap().as_int().unwrap();
        em.emit(Record::build().field("x", x).field("y", x * x).finish());
    })
    .build("main")
    .expect("network type-checks");

    let svc = Service::start(net);

    // 16 caller threads, each issuing 50 requests and checking it got
    // its own answers back — interleaved arbitrarily inside the net.
    std::thread::scope(|s| {
        for t in 0..16i64 {
            let svc = &svc;
            s.spawn(move || {
                for k in 0..50i64 {
                    let x = t * 1_000 + k;
                    let resp = svc
                        .call(Record::build().field("x", x).finish())
                        .expect("request accepted")
                        .wait()
                        .expect("response arrives");
                    let rec = &resp.records[0];
                    assert_eq!(rec.field("x").unwrap().as_int(), Some(x));
                    assert_eq!(rec.field("y").unwrap().as_int(), Some(x * x));
                }
            });
        }
    });

    let m = std::sync::Arc::clone(svc.metrics());
    svc.shutdown();
    println!(
        "served {} requests, {} completed, {} stray — all correlated",
        m.get("serve/requests"),
        m.get("serve/completed"),
        m.get("serve/stray"),
    );
    assert_eq!(m.get("serve/requests"), 800);
    assert_eq!(m.get("serve/completed"), 800);
}
