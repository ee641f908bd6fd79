//! S2 — Section 2: with-loop evaluation performance.
//!
//! Regenerates the data-parallel layer's cost model: genarray /
//! modarray / fold at several sizes and thread counts, plus the
//! `addNumber` kernel (the paper's four-generator modarray) at several
//! board sizes. On a multi-core host the thread sweep exhibits the
//! paper's "implicit parallelism" speedup; on a single core it
//! quantifies the overhead of enabling it (shape preserved: Auto is
//! never catastrophically slower than Sequential).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sacarray::{Eval, Generator, Pool, WithLoop};
use snet_bench::thread_sweep;
use sudoku::{add_number, Board, Opts};

fn bench_genarray(c: &mut Criterion) {
    let mut g = c.benchmark_group("S2_genarray");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.sample_size(10);
    for size in [100_000usize, 1_000_000, 4_000_000] {
        g.bench_with_input(BenchmarkId::new("seq", size), &size, |b, &n| {
            b.iter(|| {
                WithLoop::new()
                    .gen(Generator::range(vec![0], vec![n]).unwrap(), |iv| {
                        iv[0] as i64
                    })
                    .genarray_seq([n], 0i64)
                    .unwrap()
            })
        });
        for threads in thread_sweep() {
            let pool = Pool::new(threads);
            g.bench_with_input(
                BenchmarkId::new(format!("par{threads}"), size),
                &size,
                |b, &n| {
                    b.iter(|| {
                        WithLoop::new()
                            .gen(Generator::range(vec![0], vec![n]).unwrap(), |iv| {
                                iv[0] as i64
                            })
                            .genarray_on(&pool, Eval::Auto, [n], 0i64)
                            .unwrap()
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_fold(c: &mut Criterion) {
    let mut g = c.benchmark_group("S2_fold");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.sample_size(10);
    let n = 2_000_000usize;
    g.bench_function("seq", |b| {
        b.iter(|| {
            WithLoop::new()
                .gen(Generator::range(vec![0], vec![n]).unwrap(), |iv| {
                    iv[0] as i64
                })
                .fold_seq(0, |a, x| a + x)
        })
    });
    for threads in thread_sweep() {
        let pool = Pool::new(threads);
        g.bench_function(format!("par{threads}"), |b| {
            b.iter(|| {
                WithLoop::new()
                    .gen(Generator::range(vec![0], vec![n]).unwrap(), |iv| {
                        iv[0] as i64
                    })
                    .fold_on(&pool, Eval::Auto, 0, |a, x| a + x)
            })
        });
    }
    g.finish();
}

fn bench_add_number(c: &mut Criterion) {
    // The paper's kernel: one modarray with four generators. Cost grows
    // with the options cube (n^6 cells).
    let mut g = c.benchmark_group("S2_addNumber");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    for n in [3usize, 4, 5] {
        let board = Board::empty(n);
        let opts = Opts::all_true(n);
        let side = n * n;
        g.bench_with_input(BenchmarkId::from_parameter(side), &n, |b, &n| {
            b.iter(|| add_number(side / 2, side / 2, (n * n / 2) as i64, &board, &opts))
        });
    }
    g.finish();
}

fn bench_modarray_density(c: &mut Criterion) {
    // modarray cost vs. fraction of the array covered by generators —
    // the uncovered part is a copy, the covered part runs the body.
    let mut g = c.benchmark_group("S2_modarray_density");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.sample_size(10);
    let n = 1024usize;
    let base = sacarray::Array::fill([n, n], 1i64);
    for frac in [4usize, 16, 64] {
        let rows = n / frac;
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("1_over_{frac}")),
            &rows,
            |b, &rows| {
                b.iter(|| {
                    WithLoop::new()
                        .gen(Generator::range(vec![0, 0], vec![rows, n]).unwrap(), |iv| {
                            (iv[0] + iv[1]) as i64
                        })
                        .modarray(&base)
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

/// Frame side of the `array-frames` benchmark workload.
const SIDE: usize = 192;

/// The hand-written side of `S2_frames`' blur and grad rows: `init`
/// with the interior overwritten row by row.
fn frame_by_hand(mut init: Vec<f64>, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    for i in 1..SIDE - 1 {
        for (j, o) in init[i * SIDE..][1..SIDE - 1].iter_mut().enumerate() {
            *o = f(i, j + 1);
        }
    }
    init
}

fn bench_frames(c: &mut Criterion) {
    // What the with-loop engine costs over plain Rust: the blur / grad
    // / energy kernels of the `array-frames` benchmark workload
    // (`src/bin/perf/workloads/frames.rs`) on one 192x192 `f64` frame,
    // each through `WithLoop` (sequential) and as a hand-written nested
    // loop over the same slice, allocations included on both sides.
    let mut g = c.benchmark_group("S2_frames");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    let frame = sacarray::Array::new(
        [SIDE, SIDE],
        (0..SIDE * SIDE)
            .map(|p| ((p / SIDE) as f64 * 0.05).sin() * ((p % SIDE) as f64 * 0.07).cos())
            .collect(),
    )
    .unwrap();
    let px = frame.data();
    let interior = || Generator::range(vec![1, 1], vec![SIDE - 1, SIDE - 1]).unwrap();
    let blur = |i: usize, j: usize| {
        let mut sum = 0.0;
        for di in 0..3 {
            for dj in 0..3 {
                sum += px[(i + di - 1) * SIDE + j + dj - 1];
            }
        }
        sum / 9.0
    };
    let grad = |i: usize, j: usize| {
        (px[(i + 1) * SIDE + j] - px[(i - 1) * SIDE + j]).abs()
            + (px[i * SIDE + j + 1] - px[i * SIDE + j - 1]).abs()
    };
    let energy = |i: usize, j: usize| px[i * SIDE + j] * px[i * SIDE + j];
    g.bench_function("blur/withloop", |b| {
        b.iter(|| {
            WithLoop::new()
                .gen(interior(), |iv| blur(iv[0], iv[1]))
                .modarray_seq(&frame)
                .unwrap()
        })
    });
    g.bench_function("blur/by_hand", |b| {
        b.iter(|| frame_by_hand(px.to_vec(), blur))
    });
    g.bench_function("grad/withloop", |b| {
        b.iter(|| {
            WithLoop::new()
                .gen(interior(), |iv| grad(iv[0], iv[1]))
                .genarray_seq([SIDE, SIDE], 0.0)
                .unwrap()
        })
    });
    g.bench_function("grad/by_hand", |b| {
        b.iter(|| frame_by_hand(vec![0.0; SIDE * SIDE], grad))
    });
    g.bench_function("energy/withloop", |b| {
        b.iter(|| {
            WithLoop::new()
                .gen(Generator::full(frame.shape()), |iv| energy(iv[0], iv[1]))
                .fold_seq(0.0, |a, x| a + x)
        })
    });
    g.bench_function("energy/by_hand", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for i in 0..SIDE {
                for j in 0..SIDE {
                    sum += energy(i, j);
                }
            }
            sum
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_genarray,
    bench_fold,
    bench_add_number,
    bench_modarray_density,
    bench_frames
);
criterion_main!(benches);
