//! A three-box stencil pipeline whose bodies are `sacarray`
//! with-loops: the data-parallel layer of the paper, with the
//! coordination layer doing almost nothing.

use super::{cases, Body, Door, Expect, Workload};
use crate::stats::Rng;
use sacarray::{Array, Eval, Generator, Pool, WithLoop};
use snet_types::{Record, Value};

/// Frame side. 192² elements is ~9 parallel chunks a with-loop, ~2 ms
/// of CPU a frame.
pub const SIDE: usize = 192;

fn interior() -> Generator {
    Generator::range(vec![1, 1], vec![SIDE - 1, SIDE - 1]).expect("static bounds")
}

/// 3×3 box blur of the interior; the border keeps the input
/// (`modarray`).
fn blur(frame: &Array<f64>, eval: Eval) -> Array<f64> {
    let px = frame.data();
    WithLoop::new()
        .gen(interior(), |iv| {
            let (i, j) = (iv[0], iv[1]);
            let mut sum = 0.0;
            for di in 0..3 {
                for dj in 0..3 {
                    sum += px[(i + di - 1) * SIDE + j + dj - 1];
                }
            }
            sum / 9.0
        })
        .modarray_on(Pool::global(), eval, frame)
        .expect("interior lies within the frame")
}

/// Central-difference gradient magnitude (L1) of the interior, zero on
/// the border (`genarray`).
fn grad(frame: &Array<f64>, eval: Eval) -> Array<f64> {
    let px = frame.data();
    WithLoop::new()
        .gen(interior(), |iv| {
            let (i, j) = (iv[0], iv[1]);
            (px[(i + 1) * SIDE + j] - px[(i - 1) * SIDE + j]).abs()
                + (px[i * SIDE + j + 1] - px[i * SIDE + j - 1]).abs()
        })
        .genarray_on(Pool::global(), eval, [SIDE, SIDE], 0.0)
        .expect("interior lies within the frame")
}

/// Sum of squares (`fold`).
fn energy(grad: &Array<f64>, eval: Eval) -> f64 {
    let px = grad.data();
    WithLoop::new()
        .gen(Generator::full(grad.shape()), |iv| {
            let g = px[iv[0] * SIDE + iv[1]];
            g * g
        })
        .fold_on(Pool::global(), eval, 0.0, |a, b| a + b)
}

fn doubles<'a>(rec: &'a Record, field: &str) -> &'a Array<f64> {
    rec.field(field)
        .and_then(|v| v.as_double_array())
        .expect("box input carries its declared array field")
}

fn boxes() -> Vec<(&'static str, Body)> {
    vec![
        (
            "blur",
            Body::maps(|rec| {
                let out = blur(doubles(rec, "frame"), Eval::Auto);
                Record::build().field("frame", Value::from(out)).finish()
            }),
        ),
        (
            "grad",
            Body::maps(|rec| {
                let out = grad(doubles(rec, "frame"), Eval::Auto);
                Record::build().field("grad", Value::from(out)).finish()
            }),
        ),
        (
            "energy",
            Body::maps(|rec| {
                let out = energy(doubles(rec, "grad"), Eval::Auto);
                Record::build().field("energy", Value::from(out)).finish()
            }),
        ),
    ]
}

fn check(expect: &Expect, rec: &Record) -> bool {
    let Expect::Energy(want) = expect else {
        return false;
    };
    // The parallel fold combines per-chunk partial sums, so it may
    // differ from the sequential one in the last bits.
    rec.field("energy")
        .and_then(|v| v.as_double())
        .is_some_and(|got| (got - want).abs() <= want.abs() * 1e-9)
}

/// The sequential reference: the same pipeline on the `*_seq` path.
fn reference(rec: &Record) -> Expect {
    let blurred = blur(doubles(rec, "frame"), Eval::Sequential);
    Expect::Energy(energy(&grad(&blurred, Eval::Sequential), Eval::Sequential))
}

/// `array-frames`: the only workload whose time is inside `sacarray`.
pub fn array_frames(mut rng: Rng, count: usize) -> Workload {
    let frames = (0..count)
        .map(|_| {
            let (fx, fy) = (0.02 + 0.08 * rng.next_f64(), 0.02 + 0.08 * rng.next_f64());
            let data: Vec<f64> = (0..SIDE * SIDE)
                .map(|p| {
                    let (i, j) = ((p / SIDE) as f64, (p % SIDE) as f64);
                    (i * fx).sin() * (j * fy).cos() + 0.1 * rng.next_f64()
                })
                .collect();
            let frame = Array::new([SIDE, SIDE], data).expect("SIDE x SIDE elements");
            Record::build().field("frame", Value::from(frame)).finish()
        })
        .collect();
    Workload {
        name: "array-frames",
        door: Door::Fifo,
        rate: 250.0,
        ref_us: 1250.0,
        window: 16,
        cold_cycles: 12,
        ordered: false,
        source: "box blur (frame) -> (frame);
                 box grad (frame) -> (grad);
                 box energy (grad) -> (energy);
                 net main = blur .. grad .. energy;"
            .to_string(),
        boxes: boxes(),
        cases: cases(frames, reference),
        reference,
        check,
    }
}
