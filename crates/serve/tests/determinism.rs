//! Determinism guarantee: for a fixed config and seed, the serving
//! loop's deterministic report — every epoch record and the final image
//! digest — is bit-identical across VM execution tiers, cache-replay
//! engines, and sweep thread counts. Wall-clock fields are excluded by
//! construction (`deterministic_json`), so this is an exact string
//! comparison.

use codelayout_memsim::SweepEngine;
use codelayout_obs::VmEngine;
use codelayout_oltp::{build_study, MixPhase, Scenario};
use codelayout_serve::{run_serve, ServeConfig};

#[test]
fn report_is_bit_identical_across_engines_and_threads() {
    let base = Scenario::quick();
    let variants = [
        (VmEngine::Block, SweepEngine::Stack, 1),
        (VmEngine::Block, SweepEngine::Direct, 7),
        (VmEngine::Interp, SweepEngine::Stack, 2),
        (VmEngine::Interp, SweepEngine::Direct, 1),
    ];
    let mut reference: Option<(String, String)> = None;
    for (vm, sweep, threads) in variants {
        let mut cfg = ServeConfig::drift_demo(&base);
        // A short two-phase stream keeps the matrix fast; the rotation
        // shift still exercises drift scoring and the decay path.
        cfg.phases = vec![MixPhase::new(2, 0), MixPhase::new(2, 3)];
        cfg.vm_engine = vm;
        cfg.sweep_engine = sweep;
        cfg.sweep_threads = threads;
        let study = build_study(&cfg.serve_scenario(&base));
        let report = run_serve(&study, &cfg);
        let json = serde_json::to_string(&report.deterministic_json()).expect("report json");
        match &reference {
            None => reference = Some((json, report.final_image_digest)),
            Some((ref_json, ref_digest)) => {
                assert_eq!(
                    &json, ref_json,
                    "serve report diverged under {vm:?}/{sweep:?}/{threads} threads"
                );
                assert_eq!(&report.final_image_digest, ref_digest);
            }
        }
    }
}
