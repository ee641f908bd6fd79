//! The sensor-fusion net of `examples/sensor_network.rs`, sized so the
//! box work is negligible: per-sensor split, type-routed parallel
//! composition, merge. Once with the non-deterministic combinators
//! behind the `Service` door, once with the deterministic ones behind
//! the FIFO door.

use super::{cases, Body, Door, Expect, Workload};
use crate::stats::Rng;
use sacarray::Array;
use snet_types::{Record, Value};

/// Samples per reading: a real array payload, small enough that
/// coordination, not arithmetic, is what a request costs.
const SAMPLES: usize = 256;
const SENSORS: i64 = 4;
/// The sensor whose readings are noisy enough to be quarantined.
const NOISY: i64 = 2;
const BIAS_PPM: i64 = 1500;
/// `Workload::ref_us` of both sensor workloads: the same reference.
const REF_US: f64 = 1.5;

// The computation layer: pure functions, shared by the boxes and by
// the sequential reference.

fn calibrate(samples: &[f64], bias_ppm: i64) -> Vec<f64> {
    let bias = bias_ppm as f64 / 1e6;
    samples.iter().map(|s| s - bias).collect()
}

fn mean_var(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mu = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mu) * (s - mu)).sum::<f64>() / n;
    (mu, var)
}

fn anomaly_tag(var: f64) -> i64 {
    (var * 1000.0) as i64
}

fn report(sensor: i64, mu: f64, var: f64) -> String {
    format!("sensor {sensor}: mean {mu:+.4}, variance {var:.4}")
}

fn doubles<'a>(rec: &'a Record, field: &str) -> &'a Array<f64> {
    rec.field(field)
        .and_then(|v| v.as_double_array())
        .expect("box input carries its declared array field")
}

fn boxes() -> Vec<(&'static str, Body)> {
    vec![
        (
            "calibrate",
            Body::maps(|rec| {
                let bias = rec.tag("bias_ppm").expect("declared tag");
                let out = calibrate(doubles(rec, "samples").data(), bias);
                Record::build()
                    .field("samples", Value::from(Array::from_vec(out)))
                    .finish()
            }),
        ),
        (
            "analyze",
            Body::maps(|rec| {
                let samples = doubles(rec, "samples");
                let (mu, var) = mean_var(samples.data());
                if var < 1.0 {
                    Record::build()
                        .field("stats", Value::from(Array::from_vec(vec![mu, var])))
                        .finish()
                } else {
                    Record::build()
                        .field("samples", Value::from(samples.clone()))
                        .tag("anomaly", anomaly_tag(var))
                        .finish()
                }
            }),
        ),
        (
            "summarize",
            Body::maps(|rec| {
                let stats = doubles(rec, "stats").data();
                let sensor = rec.tag("sensor").expect("declared tag");
                Record::build()
                    .field("report", Value::from(report(sensor, stats[0], stats[1])))
                    .tag("sensor", sensor)
                    .finish()
            }),
        ),
    ]
}

fn source(split: &str, par: &str) -> String {
    format!(
        "box calibrate (samples, <bias_ppm>) -> (samples);
         box analyze (samples) -> (stats) | (samples, <anomaly>);
         box summarize (stats, <sensor>) -> (report, <sensor>);
         net main = calibrate
                 .. (analyze {split} <sensor>)
                 .. (summarize {par} [{{samples, <anomaly>}} -> {{quarantined=samples, <anomaly>=<anomaly>}}]);"
    )
}

/// The sequential reference: the boxes' arithmetic, in sequence.
fn reference(rec: &Record) -> Expect {
    let sensor = rec.tag("sensor").expect("generated with a sensor");
    let bias = rec.tag("bias_ppm").expect("generated with a bias");
    let calibrated = calibrate(doubles(rec, "samples").data(), bias);
    let (mu, var) = mean_var(&calibrated);
    if var < 1.0 {
        Expect::Report(report(sensor, mu, var))
    } else {
        Expect::Anomaly {
            tag: anomaly_tag(var),
            samples: calibrated,
        }
    }
}

/// Readings for the sensors in rotation; phase, amplitude and the
/// noisy sensor's noise come from the seed.
fn readings(rng: &mut Rng, count: usize) -> Vec<Record> {
    (0..count as i64)
        .map(|k| {
            let sensor = k % SENSORS;
            let phase = rng.next_f64() * std::f64::consts::TAU;
            let amp = 0.2 + 0.2 * rng.next_f64();
            let data: Vec<f64> = (0..SAMPLES)
                .map(|s| {
                    let signal = (s as f64 * 0.01 + phase).sin() * amp;
                    if sensor == NOISY {
                        signal + rng.next_f64() * 10.0
                    } else {
                        signal
                    }
                })
                .collect();
            let rec = Record::build()
                .field("samples", Value::from(Array::from_vec(data)))
                .tag("sensor", sensor)
                .tag("bias_ppm", BIAS_PPM)
                .finish();
            assert_eq!(
                sensor == NOISY,
                matches!(reference(&rec), Expect::Anomaly { .. }),
                "exactly the noisy sensor is quarantined"
            );
            rec
        })
        .collect()
}

fn check(expect: &Expect, rec: &Record) -> bool {
    match expect {
        Expect::Report(want) => {
            rec.field("report").and_then(|v| v.as_str()) == Some(want.as_str())
                && rec.tag("sensor").is_some_and(|s| s != NOISY)
        }
        Expect::Anomaly { tag, samples } => {
            rec.tag("anomaly") == Some(*tag)
                && rec.tag("sensor") == Some(NOISY)
                && rec
                    .field("quarantined")
                    .and_then(|v| v.as_double_array())
                    .is_some_and(|a| a.data() == samples.as_slice())
        }
        _ => false,
    }
}

/// `serve-sensor`: coordination with almost no box work.
pub fn serve_sensor(mut rng: Rng, count: usize) -> Workload {
    Workload {
        name: "serve-sensor",
        door: Door::Service,
        rate: 25000.0,
        ref_us: REF_US,
        window: 128,
        cold_cycles: 12,
        ordered: false,
        source: source("!!", "||"),
        boxes: boxes(),
        cases: cases(readings(&mut rng, count), reference),
        reference,
        check,
    }
}

/// `fifo-sensor-det`: the same net on the deterministic combinators,
/// without `serve`.
pub fn fifo_sensor_det(mut rng: Rng, count: usize) -> Workload {
    Workload {
        name: "fifo-sensor-det",
        door: Door::Fifo,
        rate: 25000.0,
        ref_us: REF_US,
        window: 128,
        cold_cycles: 12,
        ordered: true,
        source: source("!", "|"),
        boxes: boxes(),
        cases: cases(readings(&mut rng, count), reference),
        reference,
        check,
    }
}
