//! Golden layout test for the ext-TSP pass at sim scale: one FNV-1a
//! digest of [`exttsp_layout_with`] per (profile source × parameter
//! point) on the default-seed `paper_sim` scenario must match the
//! checked-in snapshot.
//!
//! The points are the default and every single-knob neighbor of it in
//! `ParamSpace::for_series(ExtTsp)` — each knob moved to each of its
//! other grid values, the rest at their defaults. The quick-scenario
//! goldens only ever see small chains; sim procedures run to hundreds
//! of blocks, so this is the test that catches a merge tie-break or
//! split-cap regression in the pass.
//!
//! Building the sim study takes minutes in a debug build, so the test is
//! ignored by default. Run it with
//!
//! ```text
//! cargo test --release -p codelayout-bench --test golden_exttsp_sim -- --ignored
//! ```
//!
//! # Updating the snapshot
//!
//! Layouts are meant to stay byte-identical across performance work on
//! the pass. Only when a change intentionally moves them, regenerate with
//!
//! ```text
//! CODELAYOUT_UPDATE_GOLDEN=1 cargo test --release -p codelayout-bench \
//!     --test golden_exttsp_sim -- --ignored
//! ```
//!
//! and explain the shift in the commit message.

use codelayout_core::{exttsp_layout_with, LayoutSeries, ParamPoint, ParamSpace};
use codelayout_ir::Layout;
use codelayout_oltp::{build_study, Scenario};
use serde_json::{json, Value};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exttsp_sim.json");
const UPDATE_ENV: &str = codelayout_obs::env::UPDATE_GOLDEN_ENV;

/// FNV-1a over the layout's block ids (little-endian `u32`s).
fn digest(layout: &Layout) -> String {
    let bytes: Vec<u8> = layout
        .order
        .iter()
        .flat_map(|b| b.0.to_le_bytes())
        .collect();
    format!("{:016x}", codelayout_obs::manifest::fnv1a64(&bytes))
}

/// The default point followed by every single-knob move away from it.
fn single_knob_points(space: &ParamSpace) -> Vec<ParamPoint> {
    let default = space.default_point();
    let mut points = vec![default.clone()];
    for (k, knob) in space.knobs().iter().enumerate() {
        for v in 0..knob.values().len() {
            if v != knob.default_index() {
                let mut idx = default.indices().to_vec();
                idx[k] = v as u32;
                points.push(ParamPoint::new(space, idx));
            }
        }
    }
    points
}

#[test]
#[ignore = "builds the sim study; run with --release -- --ignored"]
fn exttsp_sim_layouts_match_golden_digests() {
    let scenario = Scenario::paper_sim();
    let study = build_study(&scenario);
    let space = ParamSpace::for_series(LayoutSeries::ExtTsp);
    let mut layouts = serde_json::Map::new();
    for (label, profile) in [
        ("measured", &study.profile),
        ("static", &study.static_profile),
    ] {
        for point in single_knob_points(&space) {
            let params = space.params(&point);
            let layout = exttsp_layout_with(&study.app.program, profile, &params);
            let coords: Vec<String> = point.indices().iter().map(u32::to_string).collect();
            layouts.insert(
                format!("{label}/{}", coords.join(",")),
                json!(digest(&layout)),
            );
        }
    }
    let got = json!({
        "scenario": "sim",
        "seed": scenario.seed,
        "knobs": space.knobs().iter().map(|k| k.name()).collect::<Vec<_>>(),
        "layouts": layouts,
    });

    if codelayout_bench::run_env().update_golden {
        let mut text = serde_json::to_string_pretty(&got).expect("serialize snapshot");
        text.push('\n');
        std::fs::write(GOLDEN_PATH, text).expect("write golden snapshot");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }

    let raw = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {GOLDEN_PATH}: {e}\n\
             regenerate with {UPDATE_ENV}=1 cargo test --release -p codelayout-bench \
             --test golden_exttsp_sim -- --ignored"
        )
    });
    let want: Value = serde_json::from_str(&raw).expect("parse golden snapshot");
    assert_eq!(
        got, want,
        "sim-scale ext-TSP layout digests diverged from tests/golden/exttsp_sim.json"
    );
}
