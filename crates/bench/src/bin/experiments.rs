//! Single-shot behavioural harness: runs every experiment (F1–F3 for
//! Figures 1–3, S2, S3 and S5 for the paper's Sections 2, 3 and 5) once
//! with metrics enabled, prints their table, asserts every bound the
//! paper states, and writes `experiments.json`.
//!
//! Run with: `cargo run --release -p snet-bench --bin experiments`

use sacarray::{Eval, Generator, Pool, WithLoop};
use snet_bench::{
    judge_speedup, median_time, print_table, thread_sweep, time_once, two_thread_control,
    write_json, ExperimentRow, TWO_CORES,
};
use sudoku::networks::{solve_fig1, solve_fig2, solve_fig3};
use sudoku::puzzles;
use sudoku::sac_solver::{solve_puzzle, Policy};

fn main() {
    let mut rows: Vec<ExperimentRow> = Vec::new();

    experiment_s2(&mut rows);
    experiment_s3(&mut rows);
    experiment_f1(&mut rows);
    experiment_f2(&mut rows);
    experiment_f3(&mut rows);
    experiment_s5(&mut rows);

    println!();
    print_table(&rows);
    let failures: Vec<_> = rows.iter().filter(|r| r.holds == Some(false)).collect();
    let not_judged: Vec<_> = rows
        .iter()
        .filter(|r| r.holds.is_none())
        .map(|r| format!("{} / {} / {}", r.experiment, r.workload, r.metric))
        .collect();
    write_json("experiments.json", &rows).expect("write experiments.json");
    println!("\nwrote {} rows to experiments.json", rows.len());
    if !failures.is_empty() {
        println!("{} CLAIMS FAILED:", failures.len());
        for f in &failures {
            println!("  {} / {} / {}", f.experiment, f.workload, f.metric);
        }
    }
    let verdict = if failures.is_empty() {
        "ALL PAPER CLAIMS HELD"
    } else {
        "PAPER CLAIMS FAILED"
    };
    if not_judged.is_empty() {
        println!("{verdict}");
    } else {
        println!("{verdict}; NOT JUDGED: {}", not_judged.join("; "));
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// S2 — Section 2: with-loop data parallelism "comes for free".
///
/// A speedup row is judged only if a two-thread control, timed before
/// and after the sweep, shows two cores' worth both times: a second
/// vCPU that is not a second core makes the claim unjudgeable on that
/// host, not false.
fn experiment_s2(rows: &mut Vec<ExperimentRow>) {
    println!("[S2] with-loop data-parallel scaling");
    let n = 8_000_000usize;
    let sweep = thread_sweep();
    let before = (sweep.len() > 1).then(two_thread_control);
    let mut t1 = None;
    let mut speedups = Vec::new();
    for threads in sweep {
        let pool = Pool::new(threads);
        let dt = median_time(3, || {
            let a = WithLoop::new()
                .gen(Generator::range(vec![0], vec![n]).unwrap(), |iv| {
                    let x = iv[0] as f64;
                    (x.sqrt() + x.sin()) as i64
                })
                .genarray_on(&pool, Eval::Auto, [n], 0i64)
                .unwrap();
            std::hint::black_box(a);
        });
        println!("  genarray 8e6, {threads} threads: {dt:?}");
        if threads == 1 {
            t1 = Some(dt);
        } else if let Some(t1) = t1 {
            speedups.push((threads, t1.as_secs_f64() / dt.as_secs_f64()));
        }
    }
    if let Some(before) = before {
        let after = two_thread_control();
        println!("  two-thread control: {before:.2}× before, {after:.2}× after (judged at ≥ {TWO_CORES}×)");
        let control = before.min(after);
        for (threads, speedup) in speedups {
            let holds = judge_speedup(control, speedup);
            let paper = match holds {
                Some(_) => "> 1 (implicit parallelism)".to_string(),
                None => format!("not judged: host gives {control:.2}× on two threads"),
            };
            rows.push(ExperimentRow::new(
                "S2",
                &format!("genarray 8e6 / {threads} thr"),
                "speedup vs 1 thread",
                &paper,
                speedup,
                holds,
            ));
        }
    }
    // Parallel evaluation must be observably identical to sequential.
    let pool = Pool::new(4);
    let make = |eval| {
        WithLoop::new()
            .gen(
                Generator::range(vec![0, 0], vec![512, 512]).unwrap(),
                |iv| (iv[0] * 31 + iv[1]) as i64,
            )
            .genarray_on(&pool, eval, [512, 512], 0i64)
            .unwrap()
    };
    let identical = make(Eval::Sequential) == make(Eval::Auto);
    rows.push(ExperimentRow::new(
        "S2",
        "genarray 512x512",
        "parallel == sequential result",
        "identical (no races)",
        f64::from(u8::from(identical)),
        identical,
    ));
}

/// S3 — Section 3: the pure SaC solver and the findMinTrues heuristic.
fn experiment_s3(rows: &mut Vec<ExperimentRow>) {
    println!("[S3] pure SaC solver");
    let puzzle = puzzles::classic9();
    let (_, dt) = time_once(|| solve_puzzle(&puzzle, Policy::MinTrues));
    println!("  classic9 minTrues: {dt:?}");
    rows.push(ExperimentRow::new(
        "S3",
        "classic9 (30 clues)",
        "solve time (ms)",
        "far less than a second",
        dt.as_secs_f64() * 1000.0,
        dt.as_secs_f64() < 1.0,
    ));
    let (_, s_first) = solve_puzzle(&puzzle, Policy::FindFirst);
    let (_, s_min) = solve_puzzle(&puzzle, Policy::MinTrues);
    println!(
        "  placements: findFirst {} vs minTrues {}",
        s_first.placements, s_min.placements
    );
    rows.push(ExperimentRow::new(
        "S3",
        "classic9 (30 clues)",
        "placements findFirst / minTrues",
        "minTrues reduces search",
        s_first.placements as f64 / s_min.placements.max(1) as f64,
        s_min.placements <= s_first.placements,
    ));
}

/// F1 — Figure 1: pipeline unfolding bounded by the cell count.
fn experiment_f1(rows: &mut Vec<ExperimentRow>) {
    println!("[F1] Fig. 1 pipeline");
    for (name, puzzle) in [
        ("classic9", puzzles::classic9()),
        ("easy9", puzzles::easy9()),
        ("medium9", puzzles::medium9()),
        ("hard9", puzzles::hard9()),
    ] {
        let (run, dt) = time_once(|| solve_fig1(&puzzle));
        let stages = run.metrics.max_matching("/stages");
        let solved = run.solutions.len() == 1;
        println!("  {name}: {dt:?}, depth {stages}, solved {solved}");
        rows.push(ExperimentRow::new(
            "F1",
            name,
            "pipeline guards (replicas+1)",
            "<= 81 replicas",
            stages as f64,
            stages <= 82 && solved,
        ));
    }
}

/// F2 — Figure 2: ≤ 9 replicas per stage, ≤ 729 boxes total.
fn experiment_f2(rows: &mut Vec<ExperimentRow>) {
    println!("[F2] Fig. 2 full unfolding");
    for (name, puzzle) in [
        ("classic9", puzzles::classic9()),
        ("medium9", puzzles::medium9()),
        ("hard9", puzzles::hard9()),
    ] {
        let (run, dt) = time_once(|| solve_fig2(&puzzle));
        let width = run.metrics.max_matching("/branches");
        let boxes = run.metrics.count_matching("box:solveOneLevelK/spawned");
        let solved = run.solutions.len() == 1;
        println!("  {name}: {dt:?}, max width {width}, {boxes} boxes, solved {solved}");
        rows.push(ExperimentRow::new(
            "F2",
            name,
            "max replicas per stage",
            "<= 9",
            width as f64,
            width <= 9 && solved,
        ));
        rows.push(ExperimentRow::new(
            "F2",
            name,
            "total solveOneLevel boxes",
            "<= 729",
            boxes as f64,
            boxes <= 729,
        ));
    }
}

/// F3 — Figure 3: modulo throttle and level cutoff.
fn experiment_f3(rows: &mut Vec<ExperimentRow>) {
    println!("[F3] Fig. 3 throttled unfolding");
    // The modulo sweep needs a branchy search (hard9 unfolds to width 9
    // untrottled); the cutoff sweep works on any puzzle.
    let branchy = puzzles::hard9();
    for modulo in [1i64, 2, 4, 8] {
        let (run, dt) = time_once(|| solve_fig3(&branchy, modulo, 60));
        let width = run.metrics.max_matching("/branches") as i64;
        println!("  mod {modulo}: {dt:?}, max width {width}");
        rows.push(ExperimentRow::new(
            "F3",
            &format!("hard9, <k>%{modulo}"),
            "max replicas per stage",
            &format!("<= {modulo} (throttle)"),
            width as f64,
            width <= modulo && !run.solutions.is_empty(),
        ));
    }
    let puzzle = puzzles::medium9();
    let clues = puzzle.placed() as i64;
    for cutoff in [30i64, 40, 60] {
        let (run, dt) = time_once(|| solve_fig3(&puzzle, 4, cutoff));
        let stages = run.metrics.max_matching("/stages") as i64;
        let bound = (cutoff - clues).max(0) + 2;
        println!("  cutoff {cutoff}: {dt:?}, depth {stages} (bound {bound})");
        rows.push(ExperimentRow::new(
            "F3",
            &format!("medium9, level>{cutoff}"),
            "pipeline guards",
            &format!("<= cutoff-clues+2 = {bound}"),
            stages as f64,
            stages <= bound && !run.solutions.is_empty(),
        ));
    }
}

/// S5 — Section 5: all networks find the same solution as the pure
/// solver; batch streaming exposes pipeline concurrency.
fn experiment_s5(rows: &mut Vec<ExperimentRow>) {
    println!("[S5] hybrid vs pure agreement & batch throughput");
    let corpus = [
        ("classic9", puzzles::classic9()),
        ("medium9", puzzles::medium9()),
        ("hard9", puzzles::hard9()),
    ];
    for (name, puzzle) in &corpus {
        let (reference, _) = solve_puzzle(puzzle, Policy::MinTrues);
        let f1 = solve_fig1(puzzle).solutions;
        let f2 = solve_fig2(puzzle).solutions;
        let f3 = solve_fig3(puzzle, 4, 40).solutions;
        let agree = f1 == vec![reference.clone()]
            && f2 == vec![reference.clone()]
            && f3.contains(&reference);
        rows.push(ExperimentRow::new(
            "S5",
            name,
            "all networks agree with pure solver",
            "same unique solution",
            f64::from(u8::from(agree)),
            agree,
        ));
    }

    // Batch streaming: one Fig. 2 network instance, many puzzles in
    // flight. We report the per-puzzle amortised time and judge only
    // that every puzzle of the batch is solved; whether the pipeline
    // overlaps puzzles is not measured here (no sequential baseline).
    let batch = sudoku::gen::corpus9(8, 34, 0xBEEF);
    let (solved, dt_batch) = time_once(|| {
        let net = sudoku::networks::fig2_net(3).unwrap();
        for p in &batch {
            net.send(sudoku::boxes::puzzle_record(p)).unwrap();
        }
        let out = net.finish();
        out.len()
    });
    println!(
        "  batch of {} puzzles through one Fig.2 net: {dt_batch:?} ({} outputs)",
        batch.len(),
        solved
    );
    rows.push(ExperimentRow::new(
        "S5",
        "batch of 8 puzzles (Fig.2)",
        "amortised ms/puzzle",
        "every puzzle of the batch solved; overlap not judged (ROADMAP item 3)",
        dt_batch.as_secs_f64() * 1000.0 / batch.len() as f64,
        solved >= batch.len(),
    ));
}
