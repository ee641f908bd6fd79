//! The two service workloads behind the PR 7 front door
//! (`serve_bench`, the `serve-smoke` CI leg and the serve tests).
//!
//! Both workloads answer every request with **exactly one** record and
//! carry a caller-chosen `<probe>` tag through the net via flow
//! inheritance, so the harness can verify correlation at the payload
//! level independently of the runtime's own `#rid` plumbing: a
//! response is correctly routed iff its probe value equals the request
//! index that produced it.

use snet_runtime::{BuildError, Net, NetBuilder};
use snet_types::{Record, Value};
use sudoku::boxes::puzzle_record;
use sudoku::networks::{builder as sudoku_builder, FIG1};
use sudoku::puzzles;

/// Caller-side correlation tag (an ordinary user tag — unlike `#rid`
/// it is perfectly forgeable; that is the point: it proves responses
/// carry their request's payload, not just a well-routed rid).
pub const PROBE: &str = "probe";

/// A per-run amendment of a workload's builder (`&|b| b` for none):
/// how `serve_bench --chaos` sets its fault injection without
/// touching the process environment.
pub type Configure<'a> = &'a dyn Fn(NetBuilder) -> NetBuilder;

/// A service workload: how to build the net, produce the `i`-th
/// request, and validate the `i`-th response.
pub struct ServeWorkload {
    pub name: &'static str,
    pub build: fn(Configure) -> Result<Net, BuildError>,
    pub make_req: fn(usize) -> Record,
    pub check: fn(usize, &[Record]) -> bool,
}

/// Sudoku as a service: the paper's Fig. 1 pipeline + solver star on
/// the 4×4 warmup puzzle (unique solution ⇒ one `<done>` record per
/// request).
pub fn sudoku_workload() -> ServeWorkload {
    ServeWorkload {
        name: "sudoku-fig1-mini4",
        build: |configure| configure(sudoku_builder(2, Vec::new())?).build_expr(FIG1),
        make_req: |i| {
            let mut rec = puzzle_record(&puzzles::mini4());
            rec.set_tag(PROBE, i as i64);
            rec
        },
        check: |i, recs| {
            let [rec] = recs else { return false };
            rec.tag(PROBE) == Some(i as i64)
                && rec.tag("done").is_some()
                && sudoku::boxes::board_of(rec, 2).is_solved()
        },
    }
}

/// Samples per sensor reading. Small enough that the box work does not
/// dwarf coordination (this harness measures the front door, not the
/// with-loops), large enough to be a real data-parallel payload.
const SENSOR_SAMPLES: usize = 256;
/// Sensors cycle 0..SENSORS; the noisy one triggers the quarantine
/// route.
const SENSORS: i64 = 4;
const NOISY_SENSOR: i64 = 2;

/// The sensor-fusion network of `examples/sensor_network.rs`:
/// calibrate, per-sensor split, analyze, then a *type-routed* parallel
/// composition (clean stats to the summariser, anomalies to a
/// quarantine filter). Exercises indexed split replicas and best-match
/// routing under the front door.
fn sensor_net(configure: Configure) -> Result<Net, BuildError> {
    let src = "
        box calibrate (samples, <bias_ppm>) -> (samples);
        box analyze (samples) -> (stats) | (samples, <anomaly>);
        box summarize (stats, <sensor>) -> (report, <sensor>);

        net main = calibrate
                .. (analyze !! <sensor>)
                .. (summarize || [{samples, <anomaly>} -> {quarantined=samples, <anomaly>=<anomaly>}]);
    ";
    configure(NetBuilder::from_source(src)?)
        .bind(
            "calibrate",
            |rec: &Record, em: &mut snet_runtime::Emitter| {
                let samples = rec.field("samples").unwrap().as_double_array().unwrap();
                let bias = rec.tag("bias_ppm").unwrap() as f64 / 1_000_000.0;
                let corrected: Vec<f64> = samples.data().iter().map(|s| s - bias).collect();
                em.emit(
                    Record::build()
                        .field("samples", Value::from(sacarray::Array::from_vec(corrected)))
                        .finish(),
                );
            },
        )
        .bind("analyze", |rec: &Record, em: &mut snet_runtime::Emitter| {
            let samples = rec.field("samples").unwrap().as_double_array().unwrap();
            let n = samples.size() as f64;
            let mu = samples.data().iter().sum::<f64>() / n;
            let var = samples
                .data()
                .iter()
                .map(|s| (s - mu) * (s - mu))
                .sum::<f64>()
                / n;
            if var < 1.0 {
                em.emit(
                    Record::build()
                        .field(
                            "stats",
                            Value::from(sacarray::Array::from_vec(vec![mu, var])),
                        )
                        .finish(),
                );
            } else {
                em.emit(
                    Record::build()
                        .field("samples", Value::from(samples.clone()))
                        .tag("anomaly", (var * 1000.0) as i64)
                        .finish(),
                );
            }
        })
        .bind(
            "summarize",
            |rec: &Record, em: &mut snet_runtime::Emitter| {
                let stats = rec.field("stats").unwrap().as_double_array().unwrap();
                let sensor = rec.tag("sensor").unwrap();
                let report = format!(
                    "sensor {sensor}: mean {:+.4}, variance {:.4}",
                    stats.data()[0],
                    stats.data()[1]
                );
                em.emit(
                    Record::build()
                        .field("report", Value::from(report))
                        .tag("sensor", sensor)
                        .finish(),
                );
            },
        )
        .build("main")
}

/// The reading record for request `i`: sensors round-robin, the noisy
/// sensor produces variance ≥ 1 (quarantine route), the others a clean
/// report.
fn sensor_req(i: usize) -> Record {
    let sensor = (i as i64) % SENSORS;
    let noisy = sensor == NOISY_SENSOR;
    let data: Vec<f64> = (0..SENSOR_SAMPLES)
        .map(|k| {
            let x = k as f64 * 0.01 + i as f64;
            let signal = x.sin() * 0.3;
            let noise = if noisy {
                ((k.wrapping_mul(2654435761) ^ i) % 1000) as f64 / 100.0
            } else {
                0.0
            };
            signal + noise
        })
        .collect();
    let mut rec = Record::build()
        .field("samples", Value::from(sacarray::Array::from_vec(data)))
        .tag("sensor", sensor)
        .tag("bias_ppm", 1500)
        .finish();
    rec.set_tag(PROBE, i as i64);
    rec
}

fn sensor_check(i: usize, recs: &[Record]) -> bool {
    let [rec] = recs else { return false };
    if rec.tag(PROBE) != Some(i as i64) || rec.tag("sensor") != Some((i as i64) % SENSORS) {
        return false;
    }
    if (i as i64) % SENSORS == NOISY_SENSOR {
        rec.tag("anomaly").is_some() && rec.field("quarantined").is_some()
    } else {
        rec.field("report").is_some()
    }
}

/// Sensor fusion as a service (see [`sensor_net`]).
pub fn sensor_workload() -> ServeWorkload {
    ServeWorkload {
        name: "sensor-fusion",
        build: sensor_net,
        make_req: sensor_req,
        check: sensor_check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_runtime::Service;

    #[test]
    fn both_workloads_answer_one_record_per_request() {
        for wl in [sudoku_workload(), sensor_workload()] {
            let svc = Service::start((wl.build)(&|b| b).expect("workload builds"));
            for i in 0..8 {
                let resp = svc
                    .call((wl.make_req)(i))
                    .expect("call accepted")
                    .wait()
                    .expect("response arrives");
                assert_eq!(resp.records.len(), 1, "{}: one record per request", wl.name);
                assert!(
                    (wl.check)(i, &resp.records),
                    "{}: response #{i} checks",
                    wl.name
                );
            }
            svc.shutdown();
        }
    }
}
