//! Continuous-profiling serving loop, end to end: phase-shifting
//! transaction stream, sampled drift detection, validated live
//! re-layout, and the staleness-recovery evaluation. Writes
//! `results/fig_serve.json` and a run manifest whose `serve` section
//! carries the per-epoch ledger.
//!
//! Unlike the offline figures, the study is built on the serving
//! stream itself ([`ServeConfig::serve_scenario`]): the warmup is
//! folded away and the measured section sized to the full stream so
//! the SGA history region fits every epoch. The loop runs
//! `ServeConfig::drift_demo`; knobs: `CODELAYOUT_SEED` plus the usual
//! scenario/engine/thread knobs.

use codelayout_bench::{figures, finish_run, scenario_label_from_env, Harness};
use codelayout_serve::ServeConfig;

fn main() {
    let root = codelayout_obs::span("fig_serve");
    let base = codelayout_bench::scenario_from_env();
    let cfg = ServeConfig::from_env(&base);
    let mut h = Harness::with_label(&cfg.serve_scenario(&base), scenario_label_from_env());
    let v = figures::fig_serve(&mut h, &cfg);
    h.save_json("fig_serve", &v);
    root.finish();
    finish_run("fig_serve", &h);
}
