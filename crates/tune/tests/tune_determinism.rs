//! End-to-end determinism of the autotuner: the search trajectory and
//! report must be bit-identical across cache-replay engines and worker
//! thread counts (which also set how many families search at once), and
//! every accepted candidate must have passed translation validation.

use codelayout_memsim::SweepEngine;
use codelayout_oltp::{build_study, Scenario};
use codelayout_tune::{run_tune, TuneConfig, TuneReport, TUNE_SIZES_KB};

/// Budget small enough to keep the repeated runs fast, big enough to get
/// past the default point and into descent in every family.
const CANDIDATES: u64 = 12;

#[test]
fn tune_is_deterministic_across_engines_and_threads() {
    let study = build_study(&Scenario::quick());
    let mut cfg = TuneConfig::for_scenario(&study.scenario);
    cfg.candidates = CANDIDATES;

    // 1 thread: one family at a time. 2 and 3: two and three families at
    // once (3 splits four families unevenly). 8: all four families with
    // two sweep workers each, so a candidate's remap replays on several
    // threads. 7 on the direct engine: four families, one worker each.
    let runs: Vec<(SweepEngine, usize, TuneReport)> = [
        (SweepEngine::Stack, 1),
        (SweepEngine::Stack, 2),
        (SweepEngine::Stack, 3),
        (SweepEngine::Stack, 8),
        (SweepEngine::Direct, 7),
    ]
    .into_iter()
    .map(|(engine, threads)| {
        cfg.sweep_engine = engine;
        cfg.sweep_threads = threads;
        (engine, threads, run_tune(&study, &cfg))
    })
    .collect();

    let a = &runs[0].2;
    let ja = serde_json::to_string_pretty(&a.deterministic_json()).unwrap();
    for (engine, threads, r) in &runs[1..] {
        let jr = serde_json::to_string_pretty(&r.deterministic_json()).unwrap();
        assert_eq!(
            ja, jr,
            "tune report differs between stack/1-thread and {engine:?}/{threads}-thread runs"
        );
    }

    // The deterministic report must not leak engine, thread, or wall
    // fields (run_all byte-diffs it across engines).
    for leak in ["sweep_engine", "sweep_threads", "wall_ms", "secs"] {
        assert!(!ja.contains(leak), "deterministic report leaks `{leak}`");
    }

    // Candidates are numbered 0..n and grouped by family in config
    // order, whichever thread searched each family.
    for (_, threads, r) in &runs {
        let numbers: Vec<u64> = r.trajectory.iter().map(|c| c.candidate).collect();
        assert_eq!(
            numbers,
            (0..r.trajectory.len() as u64).collect::<Vec<_>>(),
            "{threads} threads"
        );
        let mut order: Vec<_> = r.trajectory.iter().map(|c| c.series).collect();
        order.dedup();
        assert_eq!(order, cfg.series, "{threads} threads");
    }

    // Structural guarantees the figure asserts on, checked here without
    // a full harness: accepted candidates validated, per-family best no
    // worse than the shipped default, fixed yardsticks present.
    assert!(!a.trajectory.is_empty());
    assert!(a.trajectory.iter().all(|c| c.validated || !c.accepted));
    for f in &a.families {
        assert!(
            f.best_score <= f.default_score,
            "{}: best {} worse than default {}",
            f.series.label(),
            f.best_score,
            f.default_score
        );
        assert_eq!(f.best_cells.len(), TUNE_SIZES_KB.len());
    }
    assert_eq!(a.fixed.len(), 5, "one yardstick per comparison series");
    assert!(a.winner().is_some());
}
