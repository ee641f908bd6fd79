//! The five workloads: what each one runs, why it is here, and the
//! sequential reference every response is checked against.
//!
//! A workload is a `.snet` program text, the box functions it binds,
//! and a corpus of cases generated from `--seed`. The program under
//! test receives only the generated records; the expected answers are
//! computed here, sequentially, without a net.

mod frames;
mod sensor;
mod sudoku_nets;

use crate::stats::Rng;
use snet_runtime::{BuildError, Emitter, Net, NetBuilder};
use snet_types::{Label, Record};
use std::sync::{Arc, OnceLock};

/// The correlation tag the harness puts on every request. An ordinary
/// user tag: no box declares it, so flow inheritance must carry it to
/// the response. A response is correlated iff it carries the index of
/// the request that produced it.
const PROBE: &str = "probe";

/// `PROBE` as an interned label: the loader stamps and checks it once
/// per operation, and should not pay a name lookup each time.
pub fn probe() -> Label {
    static LABEL: OnceLock<Label> = OnceLock::new();
    *LABEL.get_or_init(|| Label::tag(PROBE))
}

/// The two front doors of a running net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Door {
    /// `Service::{start, call_with}` / `CallHandle::wait`.
    Service,
    /// `Net::send` from the loader, `Net::recv` on one receiver
    /// thread.
    Fifo,
}

pub type BoxFn = Arc<dyn Fn(&Record, &mut Emitter) + Send + Sync>;

/// A box function as a workload declares it.
#[derive(Clone)]
pub enum Body {
    /// Emits through the `snet_out` interface, any number of records,
    /// computing in between (the sudoku crate's boxes).
    Emits(BoxFn),
    /// One record in, one record out: the result exists before
    /// anything is emitted, so a traced run can tell computing from
    /// emitting.
    Maps(Arc<dyn Fn(&Record) -> Record + Send + Sync>),
}

impl Body {
    pub fn maps(f: impl Fn(&Record) -> Record + Send + Sync + 'static) -> Body {
        Body::Maps(Arc::new(f))
    }

    pub fn emits(f: impl Fn(&Record, &mut Emitter) + Send + Sync + 'static) -> Body {
        Body::Emits(Arc::new(f))
    }
}

/// Turns a declared box into what `NetBuilder::bind` takes: `plain`
/// for the measured runs, a stamping shim for traced ones.
pub type Wrap<'a> = &'a dyn Fn(&'static str, Body) -> BoxFn;

/// What the sequential reference says a case must answer.
pub enum Expect {
    /// Sudoku: the puzzle's unique solution.
    Board(sudoku::Board),
    /// Sensor, clean reading: the report text.
    Report(String),
    /// Sensor, noisy reading: the anomaly tag and the calibrated
    /// samples that must come back quarantined.
    Anomaly { tag: i64, samples: Vec<f64> },
    /// Frames: the gradient energy from the `*_seq` with-loops.
    Energy(f64),
}

pub struct Case {
    /// The request record, without its probe tag.
    pub request: Record,
    pub expect: Expect,
}

pub struct Workload {
    pub name: &'static str,
    pub door: Door,
    /// Fixed arrival rate of the paced phase, operations per second (a
    /// third to a sixth of the saturated rate measured on the seed;
    /// never calibrated at run time).
    pub rate: f64,
    /// What the sequential reference costs per case, µs, at the host
    /// speed the workload's metrics are stated at: the speed this box
    /// ran at most of the time when the benchmark was defined. Only a
    /// scale — every time-valued metric is measured relative to a probe
    /// of the reference and multiplied back by this — so it is never
    /// re-measured.
    pub ref_us: f64,
    /// Operations the saturate phase keeps in flight, and the
    /// in-flight count above which a paced round is declared
    /// overloaded: deep enough that no component thread ever runs dry
    /// (shallow load is the unstable regime: 16 in flight gave
    /// 17.6–49 k ops/s on sensor fusion, 128 gave 80–89 k), shallow
    /// enough that a round's ramp stays short next to the round.
    pub window: usize,
    /// Cold cycles per round of a measured run.
    pub cold_cycles: usize,
    /// Responses must arrive in request order (the deterministic
    /// combinators' contract).
    pub ordered: bool,
    /// The program text: box declarations and `net main`.
    pub source: String,
    pub boxes: Vec<(&'static str, Body)>,
    pub cases: Vec<Case>,
    /// The sequential reference: what a request must be answered
    /// with, computed without a net.
    pub reference: fn(&Record) -> Expect,
    check: fn(&Expect, &Record) -> bool,
}

/// Pairs every generated request with the reference's answer to it.
fn cases(requests: Vec<Record>, reference: fn(&Record) -> Expect) -> Vec<Case> {
    requests
        .into_iter()
        .map(|request| Case {
            expect: reference(&request),
            request,
        })
        .collect()
}

impl Workload {
    /// Source text → parsed, bound builder. The first half of a cold
    /// start; `build` is the second.
    pub fn builder(&self, wrap: Wrap) -> Result<NetBuilder, BuildError> {
        let mut b = NetBuilder::from_source(&self.source)?;
        for (name, f) in &self.boxes {
            let f = wrap(name, f.clone());
            b = b.bind(name, move |r: &Record, e: &mut Emitter| f(r, e));
        }
        Ok(b)
    }

    /// Builds the default configuration of this workload's net.
    pub fn build(&self, wrap: Wrap) -> Result<Net, BuildError> {
        self.builder(wrap)?.build("main")
    }

    /// The `i`-th request: the corpus in rotation, stamped with `i`.
    pub fn request(&self, i: u64) -> Record {
        let mut rec = self.cases[(i % self.cases.len() as u64) as usize]
            .request
            .clone();
        rec.set_tag_label(probe(), i as i64);
        rec
    }

    /// The oracle: does `rec` answer request `i` correctly?
    pub fn check(&self, i: u64, rec: &Record) -> bool {
        rec.tag_label(probe()) == Some(i as i64)
            && (self.check)(
                &self.cases[(i % self.cases.len() as u64) as usize].expect,
                rec,
            )
    }
}

/// No shim: the measured configuration.
pub fn plain(_: &'static str, body: Body) -> BoxFn {
    match body {
        Body::Emits(f) => f,
        Body::Maps(f) => Arc::new(move |r: &Record, e: &mut Emitter| e.emit(f(r))),
    }
}

/// The workloads and why each is here: which layers it loads, and what
/// it is the control for. (`BENCHMARK.json` carries these lines.)
pub const CATALOG: [(&str, &str); 5] = [
    (
        "serve-sudoku",
        "One CPU. Service door, Fig. 1 star on seeded 4x4 puzzles: ~10 star levels a request, so \
         star, fused/boxfn, stream and serve all sit on the path (paced at 3000/s)",
    ),
    (
        "serve-sensor",
        "One CPU. Service door, sensor fusion with !! and ||: box work is negligible, so split, \
         parallel routing, record ops, stream and serve do nearly all the work (paced at 25000/s)",
    ),
    (
        "fifo-sensor-det",
        "One CPU. FIFO door, the same net with ! and |: sort records and det merge instead of \
         first-come merge, no serve; a serve change must not move it (paced at 25000/s)",
    ),
    (
        "batch-sudoku9",
        "One CPU. FIFO door, Fig. 2 on seeded 9x9 puzzles: the paper's application, two thirds box \
         code, replicas unfold dynamically; coordination changes move it a third as much (paced at 300/s)",
    ),
    (
        "array-frames",
        "One CPU. FIFO door, blur .. grad .. energy as genarray/modarray/fold with-loops on 192x192 \
         frames: time is in sacarray; the control where coordination changes predict no change (paced at 250/s)",
    ),
];

pub fn names() -> impl Iterator<Item = &'static str> {
    CATALOG.iter().map(|(n, _)| *n)
}

/// Corpus sizes. `small` is for the smoke pass, where generation time
/// matters more than averaging over cases.
pub fn make(name: &str, seed: u64, small: bool) -> Option<Workload> {
    // One independent stream per workload, so adding a case to one
    // corpus never shifts another's inputs.
    let rng = |salt: u64| Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt);
    Some(match name {
        "serve-sudoku" => sudoku_nets::serve_sudoku(rng(1), if small { 8 } else { 256 }),
        "serve-sensor" => sensor::serve_sensor(rng(2), if small { 8 } else { 64 }),
        "fifo-sensor-det" => sensor::fifo_sensor_det(rng(3), if small { 8 } else { 64 }),
        "batch-sudoku9" => sudoku_nets::batch_sudoku9(rng(4), if small { 2 } else { 32 }),
        "array-frames" => frames::array_frames(rng(5), if small { 2 } else { 8 }),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload's net answers each of its cases with one record
    /// the oracle accepts, and the oracle rejects a wrong probe.
    #[test]
    fn every_case_passes_its_own_oracle() {
        for name in names() {
            let w = make(name, 3, true).unwrap();
            let net = w.build(&plain).unwrap();
            for i in 0..w.cases.len() as u64 {
                net.send(w.request(i)).unwrap();
                let rec = net.recv().expect("one response per request");
                assert!(w.check(i, &rec), "{name}: case {i}");
                assert!(!w.check(i + 1, &rec), "{name}: wrong probe accepted");
            }
            assert!(net.finish().is_empty(), "{name}: extra output");
        }
    }

    /// The paced rate a workload runs at is the one its catalog line
    /// (and so `BENCHMARK.json`) states.
    #[test]
    fn catalog_lines_state_the_paced_rate() {
        for (name, why) in CATALOG {
            let w = make(name, 1, true).unwrap();
            assert_eq!(w.name, name);
            assert!(
                why.ends_with(&format!("(paced at {}/s)", w.rate)),
                "{name}: {why}"
            );
        }
    }
}
