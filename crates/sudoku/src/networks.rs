//! The hybrid SaC/S-Net sudoku networks of Figures 1–3.
//!
//! Each figure is expressed in the actual S-Net surface syntax and
//! compiled through the full pipeline (parse → type inference →
//! plan → components), exactly as a user of the library would write
//! it:
//!
//! * **Fig. 1** — `computeOpts .. solveOneLevel ** {<done>}`
//! * **Fig. 2** — `computeOpts .. [{} -> {<k>=1}] ..
//!   (solveOneLevelK !! <k>) ** {<done>}`
//! * **Fig. 3** — `computeOpts .. [{} -> {<k>=1}] ..
//!   ([{<k>} -> {<k>=<k>%m}] .. (solveOneLevelL !! <k>)) **
//!   {<level>} if <level> > c .. solve`
//!
//! Fig. 3's modulo `m` and level cutoff `c` are parameters here (the
//! paper uses 4 and 40); the F3 experiment sweeps them.
//!
//! **How they run.** The paper assumes "each box creates a separate
//! process/thread". By default the runtime compiles fused and does the
//! opposite with these three: each serial replicator — the parallel
//! replicators inside it included — is one stage that walks a puzzle's
//! levels depth by depth, and the boxes and filters around it share its
//! stage run, so each figure is **one** component however far it
//! unfolds, and the replicas of one level run one after another. The
//! unfolding itself (guards, replicas, their counters and paths, hence
//! every bound of Section 5) is the same either way.
//! `NetBuilder::fuse(false)` on [`builder`] gives the literal topology
//! — a component per box, filter, guard, dispatcher, replica and
//! merger, 208 of them for Fig. 2 on `classic9` — which is what to use
//! where the boxes are heavy enough to be worth a core each.

use crate::board::Board;
use crate::boxes::{
    board_of, compute_opts_box, puzzle_record, solve_box, solve_one_level_box, LevelStyle,
};
use snet_runtime::{BuildError, Metrics, Net, NetBuilder, Observer};
use std::sync::Arc;

/// The box declarations shared by all three networks.
pub const BOX_DECLS: &str = "\
box computeOpts (board) -> (board, opts);
box solveOneLevel (board, opts) -> (board, opts) | (board, <done>);
box solveOneLevelK (board, opts) -> (board, opts, <k>) | (board, <done>);
box solveOneLevelL (board, opts) -> (board, opts, <k>, <level>);
box solve (board, opts) -> (board, opts);
";

/// Fig. 1 network text.
pub const FIG1: &str = "computeOpts .. solveOneLevel ** {<done>}";

/// Fig. 2 network text.
pub const FIG2: &str = "computeOpts .. [{} -> {<k>=1}] .. (solveOneLevelK !! <k>) ** {<done>}";

/// Deterministic Fig. 1: the paper's `*` combinator in place of `**`.
/// Output order becomes reproducible — solutions appear in input-
/// record order, and within one puzzle in search order.
pub const FIG1_DET: &str = "computeOpts .. solveOneLevel * {<done>}";

/// Deterministic Fig. 2: `!` and `*` in place of `!!` and `**`.
pub const FIG2_DET: &str = "computeOpts .. [{} -> {<k>=1}] .. (solveOneLevelK ! <k>) * {<done>}";

/// Fig. 3 network text for a given modulo and cutoff.
pub fn fig3_text(modulo: i64, cutoff: i64) -> String {
    format!(
        "computeOpts .. [{{}} -> {{<k>=1}}] .. \
         ([{{<k>}} -> {{<k>=<k>%{modulo}}}] .. (solveOneLevelL !! <k>)) ** \
         {{<level>}} if <level> > {cutoff} \
         .. solve"
    )
}

/// The configurable builder behind every sudoku network: all box
/// bindings attached, no expression chosen yet. Public so callers
/// (`tests/figures.rs`) can pick an expression, an executor and
/// stream bounds before building.
pub fn builder(n: usize, observers: Vec<Observer>) -> Result<NetBuilder, BuildError> {
    let mut b = NetBuilder::from_source(BOX_DECLS)?
        .bind("computeOpts", compute_opts_box(n))
        .bind("solveOneLevel", solve_one_level_box(n, LevelStyle::Plain))
        .bind("solveOneLevelK", solve_one_level_box(n, LevelStyle::WithK))
        .bind(
            "solveOneLevelL",
            solve_one_level_box(n, LevelStyle::WithKLevel),
        )
        .bind("solve", solve_box(n));
    for o in observers {
        b = b.observe(o);
    }
    Ok(b)
}

/// Builds the Fig. 1 network for box size `n`.
pub fn fig1_net(n: usize) -> Result<Net, BuildError> {
    builder(n, Vec::new())?.build_expr(FIG1)
}

/// Builds the Fig. 2 network for box size `n`.
pub fn fig2_net(n: usize) -> Result<Net, BuildError> {
    builder(n, Vec::new())?.build_expr(FIG2)
}

/// Builds the Fig. 2 network on an explicit executor (the
/// construction-cost benches compare thread-per-component against the
/// work-stealing pool on this network).
pub fn fig2_net_on(n: usize, executor: Arc<dyn snet_runtime::Executor>) -> Result<Net, BuildError> {
    builder(n, Vec::new())?.executor(executor).build_expr(FIG2)
}

/// Builds the deterministic Fig. 1 network for box size `n`.
pub fn fig1_det_net(n: usize) -> Result<Net, BuildError> {
    builder(n, Vec::new())?.build_expr(FIG1_DET)
}

/// Builds the deterministic Fig. 2 network for box size `n`.
pub fn fig2_det_net(n: usize) -> Result<Net, BuildError> {
    builder(n, Vec::new())?.build_expr(FIG2_DET)
}

/// Like [`run_net`] but keeps every output board in arrival order,
/// without dedup — used to observe output *ordering* (deterministic
/// variants must reproduce it run for run).
pub fn run_net_ordered(net: Net, puzzles: &[Board]) -> Vec<Board> {
    let n = puzzles.first().map(|p| p.n()).unwrap_or(3);
    for p in puzzles {
        net.send(puzzle_record(p))
            .expect("puzzle record matches net input");
    }
    net.finish().iter().map(|r| board_of(r, n)).collect()
}

/// Builds the Fig. 3 network for box size `n` with the given throttle
/// parameters. `cutoff` must be below n⁴ or completed boards could
/// never leave the replicator.
pub fn fig3_net(n: usize, modulo: i64, cutoff: i64) -> Result<Net, BuildError> {
    assert!(modulo >= 1);
    assert!(
        (cutoff as usize) < n * n * n * n,
        "cutoff {cutoff} must be below the cell count {}",
        n * n * n * n
    );
    builder(n, Vec::new())?.build_expr(&fig3_text(modulo, cutoff))
}

/// Builds any of the three networks with observers attached.
pub fn net_with_observers(
    n: usize,
    expr: &str,
    observers: Vec<Observer>,
) -> Result<Net, BuildError> {
    builder(n, observers)?.build_expr(expr)
}

/// The outcome of running a puzzle through a network.
pub struct NetRun {
    /// Distinct solved boards found (duplicates collapsed; Fig. 3 can
    /// reach the same solution along several exit paths).
    pub solutions: Vec<Board>,
    /// Total output records, including Fig. 3's stuck tail boards.
    pub outputs: usize,
    /// The network's metrics, for bound assertions.
    pub metrics: Arc<Metrics>,
}

/// Feeds one puzzle through a network and drains it to completion.
pub fn run_net(net: Net, puzzle: &Board) -> NetRun {
    let n = puzzle.n();
    let metrics = Arc::clone(net.metrics());
    net.send(puzzle_record(puzzle))
        .expect("puzzle record matches net input");
    let records = net.finish();
    let outputs = records.len();
    let mut solutions: Vec<Board> = Vec::new();
    for rec in &records {
        let board = board_of(rec, n);
        if board.is_solved() && !solutions.contains(&board) {
            solutions.push(board);
        }
    }
    NetRun {
        solutions,
        outputs,
        metrics,
    }
}

/// Convenience: solve a puzzle on the Fig. 1 network.
pub fn solve_fig1(puzzle: &Board) -> NetRun {
    run_net(fig1_net(puzzle.n()).expect("fig1 builds"), puzzle)
}

/// Convenience: solve a puzzle on the Fig. 2 network.
pub fn solve_fig2(puzzle: &Board) -> NetRun {
    run_net(fig2_net(puzzle.n()).expect("fig2 builds"), puzzle)
}

/// Convenience: solve a puzzle on the Fig. 3 network.
pub fn solve_fig3(puzzle: &Board, modulo: i64, cutoff: i64) -> NetRun {
    run_net(
        fig3_net(puzzle.n(), modulo, cutoff).expect("fig3 builds"),
        puzzle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puzzles;
    use crate::sac_solver::{solve_puzzle, Policy};

    #[test]
    fn networks_type_check() {
        assert!(fig1_net(3).is_ok());
        assert!(fig2_net(3).is_ok());
        assert!(fig3_net(3, 4, 40).is_ok());
    }

    #[test]
    fn fig1_solves_mini() {
        let puzzle = puzzles::mini4();
        let run = solve_fig1(&puzzle);
        assert_eq!(run.solutions.len(), 1);
        let (reference, _) = solve_puzzle(&puzzle, Policy::MinTrues);
        assert_eq!(run.solutions[0], reference);
    }

    #[test]
    fn fig2_solves_mini() {
        let puzzle = puzzles::mini4();
        let run = solve_fig2(&puzzle);
        assert_eq!(run.solutions.len(), 1);
        let (reference, _) = solve_puzzle(&puzzle, Policy::MinTrues);
        assert_eq!(run.solutions[0], reference);
    }

    #[test]
    fn fig3_solves_mini() {
        let puzzle = puzzles::mini4();
        // Cutoff below 16 so the guard is exercised on a 4x4 board.
        let run = solve_fig3(&puzzle, 2, 8);
        assert_eq!(run.solutions.len(), 1);
        let (reference, _) = solve_puzzle(&puzzle, Policy::MinTrues);
        assert_eq!(run.solutions[0], reference);
    }

    #[test]
    fn fig1_classic_9x9() {
        let puzzle = puzzles::classic9();
        let run = solve_fig1(&puzzle);
        assert_eq!(run.solutions.len(), 1);
        assert!(run.solutions[0].is_solved());
        // The pipeline depth bound of the paper: at most 81 replicas
        // (here: stages = replicas + the final tapping guard).
        let stages = run.metrics.max_matching("/stages");
        assert!(
            stages <= 82,
            "stages {stages} exceeded the 81-replica bound"
        );
    }

    #[test]
    fn fig3_throttle_caps_parallel_width() {
        let puzzle = puzzles::mini4();
        let run = solve_fig3(&puzzle, 2, 8);
        // Every split instance has at most 2 branches (k reduced mod 2).
        let max_branches = run.metrics.max_matching("/branches");
        assert!(
            max_branches <= 2,
            "throttle failed: a split unfolded {max_branches} branches"
        );
    }

    #[test]
    fn unsolvable_puzzle_yields_no_solutions() {
        let puzzle = puzzles::stuck4();
        let run = solve_fig1(&puzzle);
        assert!(run.solutions.is_empty());
        assert_eq!(run.outputs, 0);
    }

    #[test]
    fn det_variants_type_check_and_solve() {
        let puzzle = puzzles::mini4();
        let (reference, _) = solve_puzzle(&puzzle, Policy::MinTrues);
        for net in [fig1_det_net(2).unwrap(), fig2_det_net(2).unwrap()] {
            let run = run_net(net, &puzzle);
            assert_eq!(run.solutions, vec![reference.clone()]);
        }
    }

    #[test]
    fn det_fig1_output_order_is_reproducible() {
        // A multi-solution puzzle: drop clues from mini4 until several
        // solutions exist, then check the deterministic network emits
        // them in the same order on every run.
        let mut puzzle = puzzles::mini4();
        for (i, j, _) in puzzles::mini4().placed_cells() {
            let dug = puzzle.with(i, j, 0);
            if crate::sac_solver::count_solutions(&dug, 8) >= 3 {
                puzzle = dug;
                break;
            }
            puzzle = dug;
        }
        let n_solutions = crate::sac_solver::count_solutions(&puzzle, 16);
        assert!(n_solutions >= 2, "test puzzle should be ambiguous");
        let batch = vec![puzzle.clone(), puzzle];
        let runs: Vec<Vec<Board>> = (0..3)
            .map(|_| run_net_ordered(fig1_det_net(2).unwrap(), &batch))
            .collect();
        assert_eq!(runs[0].len() as u64, 2 * n_solutions);
        assert_eq!(runs[0], runs[1], "det output order varied between runs");
        assert_eq!(runs[1], runs[2], "det output order varied between runs");
        // Round structure: the first puzzle's solutions all precede the
        // second puzzle's (both are the same board here, so check via
        // counts only).
        for b in &runs[0] {
            assert!(b.is_solved());
        }
    }
}
