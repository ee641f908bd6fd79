//! The paper's application: sudoku on the networks of Fig. 1 and 2.

use super::{cases, Body, Door, Expect, Workload};
use crate::stats::Rng;
use snet_types::Record;
use sudoku::boxes::{board_of, compute_opts_box, puzzle_record, solve_one_level_box, LevelStyle};
use sudoku::gen::{generate, GenConfig};
use sudoku::networks::{BOX_DECLS, FIG1, FIG2};
use sudoku::{solve_puzzle, Policy};

/// The sequential reference: the recursive SaC-style solver, no net.
/// A generated puzzle has exactly one solution, so the net's answer
/// must equal this board cell for cell.
fn reference(rec: &Record, n: usize) -> Expect {
    let puzzle = board_of(rec, n);
    let (solved, _) = solve_puzzle(&puzzle, Policy::MinTrues);
    assert!(solved.is_solved(), "reference solver left the board open");
    assert!(
        puzzle.placed_cells().all(|(i, j, v)| solved.get(i, j) == v),
        "reference solution drops a clue"
    );
    Expect::Board(solved)
}

fn reference4(rec: &Record) -> Expect {
    reference(rec, 2)
}

fn reference9(rec: &Record) -> Expect {
    reference(rec, 3)
}

fn puzzles(rng: &mut Rng, count: usize, n: usize, target_clues: usize) -> Vec<Record> {
    (0..count)
        .map(|_| {
            puzzle_record(&generate(GenConfig {
                n,
                target_clues,
                unique: true,
                seed: rng.next_u64(),
            }))
        })
        .collect()
}

fn solved_as(expect: &Expect, rec: &Record, n: usize) -> bool {
    let Expect::Board(want) = expect else {
        return false;
    };
    rec.tag("done").is_some()
        && rec.field("board").and_then(|v| v.as_int_array()).is_some()
        && board_of(rec, n) == *want
}

fn check4(expect: &Expect, rec: &Record) -> bool {
    solved_as(expect, rec, 2)
}

fn check9(expect: &Expect, rec: &Record) -> bool {
    solved_as(expect, rec, 3)
}

/// `serve-sudoku`: the ROADMAP's named end-to-end call.
pub fn serve_sudoku(mut rng: Rng, count: usize) -> Workload {
    Workload {
        name: "serve-sudoku",
        door: Door::Service,
        rate: 3000.0,
        ref_us: 100.0,
        window: 128,
        cold_cycles: 12,
        ordered: false,
        source: format!("{BOX_DECLS}net main = {FIG1};"),
        boxes: vec![
            ("computeOpts", Body::emits(compute_opts_box(2))),
            (
                "solveOneLevel",
                Body::emits(solve_one_level_box(2, LevelStyle::Plain)),
            ),
        ],
        cases: cases(puzzles(&mut rng, count, 2, 6), reference4),
        reference: reference4,
        check: check4,
    }
}

/// `batch-sudoku9`: the paper's application at full size, and the
/// control on which coordination-layer changes predict no change.
pub fn batch_sudoku9(mut rng: Rng, count: usize) -> Workload {
    Workload {
        name: "batch-sudoku9",
        door: Door::Fifo,
        rate: 300.0,
        ref_us: 1000.0,
        window: 16,
        cold_cycles: 4,
        ordered: false,
        source: format!("{BOX_DECLS}net main = {FIG2};"),
        boxes: vec![
            ("computeOpts", Body::emits(compute_opts_box(3))),
            (
                "solveOneLevelK",
                Body::emits(solve_one_level_box(3, LevelStyle::WithK)),
            ),
        ],
        cases: cases(puzzles(&mut rng, count, 3, 38), reference9),
        reference: reference9,
        check: check9,
    }
}
