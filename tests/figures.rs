//! End-to-end reproduction of the paper's behavioural claims about
//! Figures 1–3 (the paper has no numeric tables; these structural
//! bounds are its evaluation — see EXPERIMENTS.md).

use sudoku::networks::{solve_fig1, solve_fig2, solve_fig3};
use sudoku::puzzles;
use sudoku::sac_solver::{solve_puzzle, Policy};
use sudoku::Board;

fn reference(puzzle: &Board) -> Board {
    let (solved, _) = solve_puzzle(puzzle, Policy::MinTrues);
    assert!(solved.is_solved(), "corpus puzzle must be solvable");
    solved
}

#[test]
fn fig1_pipeline_depth_bounded_by_cell_count() {
    // "this unfolding cannot lead to pipelines longer than 81 replicas
    // of the solveOneLevel box" (Section 5).
    for puzzle in [puzzles::classic9(), puzzles::easy9(), puzzles::medium9()] {
        let run = solve_fig1(&puzzle);
        assert_eq!(run.solutions.len(), 1);
        assert_eq!(run.solutions[0], reference(&puzzle));
        let stages = run.metrics.max_matching("/stages");
        // stages counts guards; replicas = stages - 1 <= 81.
        assert!(
            stages <= 82,
            "pipeline unfolded {stages} guards (> 81 replicas) on a 9x9 puzzle"
        );
        // Tighter: one replica per placed number.
        let placements = (puzzle.cell_count() - puzzle.placed()) as u64;
        assert!(
            stages <= placements + 2,
            "stages {stages} exceed placements {placements} + exit guard"
        );
    }
}

#[test]
fn fig2_replica_bounds_9_per_stage_729_total() {
    // "no more than 9 replicas of the solveOneLevel box will be
    // created [per stage] ... a maximum of 9 x 81 = 729 solveOneLevel
    // boxes" (Section 5).
    for puzzle in [puzzles::classic9(), puzzles::medium9(), puzzles::hard9()] {
        let run = solve_fig2(&puzzle);
        assert_eq!(run.solutions.len(), 1);
        assert_eq!(run.solutions[0], reference(&puzzle));
        let max_per_stage = run.metrics.max_matching("/branches");
        assert!(
            max_per_stage <= 9,
            "a stage unfolded {max_per_stage} parallel replicas (> 9)"
        );
        let total_boxes = run.metrics.count_matching("box:solveOneLevelK/spawned");
        assert!(
            total_boxes <= 729,
            "{total_boxes} solveOneLevelK instances (> 729)"
        );
    }
}

#[test]
fn fig3_modulo_throttles_parallel_width() {
    // "we reduce all potential values for <k> to the range 0 to 3,
    // which implicitly limits the parallel unfolding to a maximum of 4
    // instances" (Section 5).
    let puzzle = puzzles::medium9();
    for modulo in [1i64, 2, 4] {
        let run = solve_fig3(&puzzle, modulo, 40);
        assert!(
            run.solutions.contains(&reference(&puzzle)),
            "throttled net (mod {modulo}) lost the solution"
        );
        let width = run.metrics.max_matching("/branches") as i64;
        assert!(
            width <= modulo,
            "mod {modulo} throttle allowed width {width}"
        );
    }
}

#[test]
fn fig3_level_cutoff_bounds_pipeline_depth() {
    // "we can use a more elaborate predicate for leaving the serial
    // replicator such as {<level>} | <level> > 40 ... we need to link
    // up yet another box which calls the full solver" (Section 5).
    let puzzle = puzzles::classic9();
    let clues = puzzle.placed() as u64;
    for cutoff in [35i64, 45, 60] {
        let run = solve_fig3(&puzzle, 4, cutoff);
        assert!(run.solutions.contains(&reference(&puzzle)));
        let stages = run.metrics.max_matching("/stages");
        // A record exits once its level exceeds the cutoff, i.e. after
        // at most (cutoff - clues + 1) placements, plus the exit guard.
        let bound = (cutoff as u64).saturating_sub(clues) + 2;
        assert!(
            stages <= bound,
            "cutoff {cutoff}: depth {stages} exceeds bound {bound}"
        );
    }
}

#[test]
fn fig3_tail_solver_receives_early_exits() {
    // With a low cutoff, most exits are incomplete boards: the tail
    // solve box must run (outputs > solutions possible) and the true
    // solution must be among the results.
    let puzzle = puzzles::classic9();
    let run = solve_fig3(&puzzle, 4, 35);
    assert!(run.outputs >= 1);
    assert!(run.solutions.contains(&reference(&puzzle)));
    let solve_runs = run.metrics.sum_matching("box:solve/records_in");
    assert!(
        solve_runs >= 1,
        "tail solver never ran despite the early cutoff"
    );
}

#[test]
fn all_three_networks_agree_on_the_corpus() {
    for puzzle in [puzzles::mini4(), puzzles::classic9(), puzzles::easy9()] {
        let expected = reference(&puzzle);
        let cutoff = (puzzle.cell_count() as i64 * 3) / 4;
        let f1 = solve_fig1(&puzzle);
        let f2 = solve_fig2(&puzzle);
        let f3 = solve_fig3(&puzzle, 4, cutoff);
        assert_eq!(f1.solutions, vec![expected.clone()]);
        assert_eq!(f2.solutions, vec![expected.clone()]);
        assert!(f3.solutions.contains(&expected));
    }
}

#[test]
fn unsolvable_puzzles_produce_no_solutions_anywhere() {
    let puzzle = puzzles::stuck4();
    assert!(solve_fig1(&puzzle).solutions.is_empty());
    assert!(solve_fig2(&puzzle).solutions.is_empty());
    assert!(solve_fig3(&puzzle, 2, 8).solutions.is_empty());
}

#[test]
fn fig2_unfolds_wider_than_fig1() {
    // The point of Fig. 2: "the placement of the (n+1)th number
    // concurrently" — its parallel replicators create breadth Fig. 1
    // cannot. On a branchy puzzle, some stage must hold > 1 replica.
    let puzzle = puzzles::hard9();
    let run = solve_fig2(&puzzle);
    let width = run.metrics.max_matching("/branches");
    assert!(
        width >= 2,
        "expected parallel unfolding on a hard puzzle, got width {width}"
    );
}

#[test]
fn fig1_scales_to_16x16_boards() {
    // The footnote's motivation: the same network text runs unchanged
    // on bigger boards (the type layer never mentions sizes).
    let puzzle = puzzles::big16();
    let run = solve_fig1(&puzzle);
    assert!(!run.solutions.is_empty());
    assert!(run.solutions[0].is_solved());
    let stages = run.metrics.max_matching("/stages");
    assert!(stages as usize <= puzzle.cell_count() + 1);
}

/// 25×25 — several seconds of puzzle generation, run explicitly with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "generation of the 25x25 instance takes several seconds"]
fn fig1_scales_to_25x25_boards() {
    let puzzle = puzzles::big25();
    let run = solve_fig1(&puzzle);
    assert!(!run.solutions.is_empty());
    assert!(run.solutions[0].is_solved());
}

#[test]
fn fused_figures_are_a_fixed_set_of_components_however_far_they_unfold() {
    // Fan fusion is transitive: Fig. 2's star of splits (and Fig. 3's
    // star of `filter .. split`) is one component, so the net's
    // component count is the length of its top-level spine and does
    // not move while a puzzle unfolds level after level of replicas
    // inside it. Under `fuse_fan(false)` the same puzzle grows the
    // paper's literal topology, a component per guard, dispatcher,
    // replica and merger (counted on `classic9`, whose 43 levels never
    // branch). The paper's bounds are bounds on the unfolding, which is
    // the same either way.
    use sudoku::networks::{builder, fig3_text, FIG2, FIG2_DET};
    let cases = [
        (FIG2.to_string(), 2, 207),
        (FIG2_DET.to_string(), 2, 208),
        (fig3_text(4, 40), 3, 59),
    ];
    for (expr, spine, classic9_unfused) in cases {
        for (puzzle, unfused_components) in [
            (puzzles::classic9(), Some(classic9_unfused)),
            (puzzles::hard9(), None),
        ] {
            let run = |fan: bool| {
                let mut net = builder(3, Vec::new())
                    .unwrap()
                    .fuse(true)
                    .fuse_fan(fan)
                    .build_expr(&expr)
                    .unwrap();
                let at_build = net.threads_spawned();
                net.send(sudoku::boxes::puzzle_record(&puzzle)).unwrap();
                net.close();
                let solution = reference(&puzzle);
                let solved = std::iter::from_fn(|| net.recv())
                    .filter(|rec| sudoku::boxes::board_of(rec, 3) == solution)
                    .count();
                assert!(solved >= 1, "{expr}");
                let at_end = net.threads_spawned();
                let metrics = std::sync::Arc::clone(net.metrics());
                let _ = net.finish();
                let unfolding = [
                    metrics.max_matching("/stages"),
                    metrics.max_matching("/branches"),
                    metrics.count_matching("box:solveOneLevelK/spawned") as u64,
                    metrics.count_matching("/spawned") as u64,
                ];
                (at_build, at_end, unfolding)
            };
            let (at_build, at_end, fused) = run(true);
            assert_eq!((at_build, at_end), (spine, spine), "{expr}");
            let (at_build, at_end, unfused) = run(false);
            assert!(at_build > spine && at_end > 10 * spine, "{expr}: {at_end}");
            if let Some(components) = unfused_components {
                assert_eq!(at_end, components, "{expr}");
            }
            assert_eq!(fused, unfused, "{expr}: stages, branches, stage paths");
            let [stages, branches, boxes, _] = fused;
            assert!(
                stages <= 82 && branches <= 9 && boxes <= 729,
                "{expr}: {fused:?}"
            );
            if expr.contains('%') {
                assert!(branches <= 4, "{expr}: throttle allowed width {branches}");
            }
        }
    }
}

#[test]
fn fig2_det_order_does_not_depend_on_fan_fusion() {
    // One depth-synchronous walk emits what the det mergers of every
    // level would have released, in their order.
    use sudoku::networks::{builder, run_net_ordered, FIG2_DET};
    let corpus = [
        puzzles::classic9(),
        puzzles::easy9(),
        puzzles::medium9(),
        puzzles::hard9(),
    ];
    let run = |fan: bool| {
        let net = builder(3, Vec::new())
            .unwrap()
            .fuse(true)
            .fuse_fan(fan)
            .build_expr(FIG2_DET)
            .unwrap();
        run_net_ordered(net, &corpus)
    };
    let fused = run(true);
    assert_eq!(
        fused,
        corpus.iter().map(reference).collect::<Vec<_>>(),
        "one solution a puzzle, in input order"
    );
    assert_eq!(fused, run(false));
}

#[test]
fn boxes_spawn_threads_per_replica() {
    // "If we assume that each box creates a separate process/thread"
    // (Section 5) — the literal execution model. Replica fusion runs
    // Fig. 1's whole star as one component by default, so this test
    // pins the paper's topology with the per-net escape hatch.
    let puzzle = puzzles::classic9();
    let net = sudoku::networks::builder(3, Vec::new())
        .unwrap()
        .fuse_fan(false)
        .build_expr(sudoku::networks::FIG1)
        .unwrap();
    net.send(sudoku::boxes::puzzle_record(&puzzle)).unwrap();
    let threads_before_drain = net.threads_spawned();
    let _ = net.finish();
    assert!(
        threads_before_drain >= 3,
        "expected at least computeOpts + guard + merge threads"
    );
}
