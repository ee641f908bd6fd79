//! S-Net box implementations for the sudoku application.
//!
//! Section 5 of the paper "shifts the recursion from the SaC level
//! to the level of S-Net": the recursive call of `solve` becomes a
//! record emitted to the next replica. This module provides the box
//! functions of Figures 1–3:
//!
//! * `computeOpts {board} -> {board, opts}` — options initialisation;
//! * `solveOneLevel` (Fig. 1) `{board, opts} -> {board, opts} | {board, <done>}`;
//! * `solveOneLevelK` (Fig. 2) `{board, opts} -> {board, opts, <k>} | {board, <done>}`;
//! * `solveOneLevelL` (Fig. 3) `{board, opts} -> {board, opts, <k>, <level>}`;
//! * `solve` (Fig. 3's tail) `{board, opts} -> {board, opts}` — the
//!   full Section 3 solver for boards that left the replicator early.
//!
//! Note on the paper's Figure 1 listing: its `snet_out(1, board, opts)`
//! on the completed branch and `snet_out(2, board, 0)` on the
//! continuing branch contradict both the box signature and the prose
//! ("outputs a record containing either the new board and its options
//! or the final board and a tag `<done>`"); we follow the prose —
//! completed boards carry `<done>`, continuing boards carry the new
//! board and options, which is also what the declared signature
//! `(board, opts) -> (board, opts) | (board, <done>)` says.

use crate::board::Board;
use crate::opts::{add_number, compute_opts, Opts};
use crate::sac_solver::{find_min_trues, is_completed, is_stuck, solve, Policy, SolveStats};
use snet_runtime::Emitter;
use snet_types::{Record, Value};

/// Extracts the `board` field of a record.
pub fn board_of(rec: &Record, n: usize) -> Board {
    let arr = rec
        .field("board")
        .and_then(|v| v.as_int_array())
        .expect("record lacks a board field")
        .clone();
    Board::from_array(n, arr)
}

/// Extracts the `opts` field of a record.
pub fn opts_of(rec: &Record, n: usize) -> Opts {
    let arr = rec
        .field("opts")
        .and_then(|v| v.as_bool_array())
        .expect("record lacks an opts field")
        .clone();
    Opts::from_array(n, arr)
}

/// Builds the initial record `{board}` for a puzzle.
pub fn puzzle_record(puzzle: &Board) -> Record {
    Record::build()
        .field("board", Value::from(puzzle.cells().clone()))
        .finish()
}

/// `computeOpts`: replays the puzzle's clues through `addNumber`.
pub fn compute_opts_box(n: usize) -> impl Fn(&Record, &mut Emitter) + Send + Sync {
    move |rec, em| {
        let puzzle = board_of(rec, n);
        let (board, opts) = compute_opts(&puzzle);
        em.emit(
            Record::build()
                .field("board", Value::from(board.cells().clone()))
                .field("opts", Value::from(opts.array().clone()))
                .finish(),
        );
    }
}

/// Which figure's output convention `solve_one_level` follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelStyle {
    /// Fig. 1: `{board, opts} | {board, <done>}`.
    Plain,
    /// Fig. 2: `{board, opts, <k>} | {board, <done>}`.
    WithK,
    /// Fig. 3: `{board, opts, <k>, <level>}` always.
    WithKLevel,
}

/// `solveOneLevel`: "Instead of a recursive call solveOneLevel tries
/// to place one further number at the selected position i,j. For each
/// possible number at that position it outputs a record" (paper,
/// Section 5, Fig. 1).
pub fn solve_one_level_box(
    n: usize,
    style: LevelStyle,
) -> impl Fn(&Record, &mut Emitter) + Send + Sync {
    move |rec, em| {
        let board = board_of(rec, n);
        let opts = opts_of(rec, n);
        if is_stuck(&board, &opts) || is_completed(&board) {
            // Stuck: the search path dies, no record. (A completed
            // board cannot re-enter in a well-formed network: it left
            // through <done> or the level guard.)
            return;
        }
        let (i, j) = find_min_trues(&board, &opts).expect("non-stuck, non-complete board");
        let side = board.side();
        for k in 1..=side as i64 {
            if opts.allows(i, j, k) {
                let (b2, o2) = add_number(i, j, k, &board, &opts);
                let completed = is_completed(&b2);
                match style {
                    LevelStyle::Plain | LevelStyle::WithK => {
                        if completed {
                            em.emit(
                                Record::build()
                                    .field("board", Value::from(b2.cells().clone()))
                                    .tag("done", 1)
                                    .finish(),
                            );
                        } else {
                            let mut r = Record::build()
                                .field("board", Value::from(b2.cells().clone()))
                                .field("opts", Value::from(o2.array().clone()))
                                .finish();
                            if style == LevelStyle::WithK {
                                // "we simply output the SaC-variable k
                                // along with the board and the options"
                                r.set_tag("k", k);
                            }
                            em.emit(r);
                        }
                    }
                    LevelStyle::WithKLevel => {
                        // Fig. 3 communicates "the current level of
                        // unfolding, i.e., the number of numbers placed
                        // already, rather than a boolean flag".
                        // Completed boards have level n⁴ and exit
                        // through the guard like everything else.
                        em.emit(
                            Record::build()
                                .field("board", Value::from(b2.cells().clone()))
                                .field("opts", Value::from(o2.array().clone()))
                                .tag("k", k)
                                .tag("level", b2.placed() as i64)
                                .finish(),
                        );
                    }
                }
            }
        }
    }
}

/// The Fig. 3 tail box: the full Section 3 `solve` for records that
/// exited the replicator before completion.
pub fn solve_box(n: usize) -> impl Fn(&Record, &mut Emitter) + Send + Sync {
    move |rec, em| {
        let board = board_of(rec, n);
        let opts = opts_of(rec, n);
        let mut stats = SolveStats::default();
        let (board, opts) = solve(board, opts, Policy::MinTrues, &mut stats);
        em.emit(
            Record::build()
                .field("board", Value::from(board.cells().clone()))
                .field("opts", Value::from(opts.array().clone()))
                .finish(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puzzles;
    use snet_runtime::NetBuilder;

    fn run_single_box(
        n: usize,
        decl: &str,
        name: &str,
        imp: impl Fn(&Record, &mut Emitter) + Send + Sync + 'static,
        input: Record,
    ) -> Vec<Record> {
        let net = NetBuilder::from_source(&format!("{decl}\nnet main = {name};"))
            .unwrap()
            .bind(name, imp)
            .build("main")
            .unwrap();
        net.send(input).unwrap();
        let _ = n;
        net.finish()
    }

    #[test]
    fn compute_opts_box_emits_board_and_opts() {
        let puzzle = puzzles::mini4();
        let out = run_single_box(
            2,
            "box computeOpts (board) -> (board, opts);",
            "computeOpts",
            compute_opts_box(2),
            puzzle_record(&puzzle),
        );
        assert_eq!(out.len(), 1);
        let board = board_of(&out[0], 2);
        let opts = opts_of(&out[0], 2);
        assert_eq!(board, puzzle);
        assert_eq!(opts.count_at(0, 0), 0); // clue position eliminated
    }

    #[test]
    fn solve_one_level_emits_one_record_per_candidate() {
        let puzzle = puzzles::mini4();
        let (board, opts) = compute_opts(&puzzle);
        let (i, j) = find_min_trues(&board, &opts).unwrap();
        let expected = opts.count_at(i, j);
        let input = Record::build()
            .field("board", Value::from(board.cells().clone()))
            .field("opts", Value::from(opts.array().clone()))
            .finish();
        let out = run_single_box(
            2,
            "box sol (board, opts) -> (board, opts) | (board, <done>);",
            "sol",
            solve_one_level_box(2, LevelStyle::Plain),
            input,
        );
        assert_eq!(out.len(), expected);
        // One number was placed on each emitted board.
        for r in &out {
            let b = board_of(r, 2);
            assert_eq!(b.placed(), puzzle.placed() + 1);
        }
    }

    #[test]
    fn fig2_style_adds_k_tag() {
        let puzzle = puzzles::mini4();
        let (board, opts) = compute_opts(&puzzle);
        let input = Record::build()
            .field("board", Value::from(board.cells().clone()))
            .field("opts", Value::from(opts.array().clone()))
            .finish();
        let out = run_single_box(
            2,
            "box sol (board, opts) -> (board, opts, <k>) | (board, <done>);",
            "sol",
            solve_one_level_box(2, LevelStyle::WithK),
            input,
        );
        for r in &out {
            if r.tag("done").is_none() {
                let k = r.tag("k").unwrap();
                assert!((1..=4).contains(&k));
            }
        }
    }

    #[test]
    fn fig3_style_reports_level() {
        let puzzle = puzzles::mini4();
        let (board, opts) = compute_opts(&puzzle);
        let placed = board.placed() as i64;
        let input = Record::build()
            .field("board", Value::from(board.cells().clone()))
            .field("opts", Value::from(opts.array().clone()))
            .finish();
        let out = run_single_box(
            2,
            "box sol (board, opts) -> (board, opts, <k>, <level>);",
            "sol",
            solve_one_level_box(2, LevelStyle::WithKLevel),
            input,
        );
        assert!(!out.is_empty());
        for r in &out {
            assert_eq!(r.tag("level"), Some(placed + 1));
            assert!(r.tag("k").is_some());
            assert!(r.field("opts").is_some());
        }
    }

    #[test]
    fn stuck_board_emits_nothing() {
        let puzzle = puzzles::stuck4();
        let (board, opts) = compute_opts(&puzzle);
        let input = Record::build()
            .field("board", Value::from(board.cells().clone()))
            .field("opts", Value::from(opts.array().clone()))
            .finish();
        let out = run_single_box(
            2,
            "box sol (board, opts) -> (board, opts) | (board, <done>);",
            "sol",
            solve_one_level_box(2, LevelStyle::Plain),
            input,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn solve_box_completes_partial_boards() {
        let puzzle = puzzles::mini4();
        let (board, opts) = compute_opts(&puzzle);
        let input = Record::build()
            .field("board", Value::from(board.cells().clone()))
            .field("opts", Value::from(opts.array().clone()))
            .finish();
        let out = run_single_box(
            2,
            "box solve (board, opts) -> (board, opts);",
            "solve",
            solve_box(2),
            input,
        );
        assert_eq!(out.len(), 1);
        assert!(board_of(&out[0], 2).is_solved());
    }
}
