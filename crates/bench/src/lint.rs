//! Shared driver for the `layout_lint` binary and the golden lint test.
//!
//! Both consumers need the identical matrix — every
//! [`LayoutSeries::lint_matrix`] layout (the paper's six sets plus the
//! ext-TSP and Codestitcher passes) of the scenario's application *and*
//! kernel program, validated and linted — so the matrix runner and its
//! JSON rendering live here rather than in the binary.

use codelayout_analysis::{
    analyze_layout, validate_translation, LintConfig, LintReport, Severity, TranslationReport,
};
use codelayout_core::{LayoutPipeline, LayoutSeries};
use codelayout_ir::link::link;
use codelayout_oltp::Study;
use codelayout_vm::{APP_TEXT_BASE, KERNEL_TEXT_BASE};
use serde_json::{json, Value};

/// Lint outcome for one (layout, program) cell of the matrix.
#[derive(Debug)]
pub struct LintCell {
    /// Layout-series label (`base` … `all`, `exttsp`, `stitcher`).
    pub layout: &'static str,
    /// Which program was laid out: `app` or `kernel`.
    pub target: &'static str,
    /// Translation-validation statistics; `None` when validation failed,
    /// in which case `report` carries the `L000` deny describing why.
    pub translation: Option<TranslationReport>,
    /// Layout-quality diagnostics.
    pub report: LintReport,
}

/// Runs the full [`LayoutSeries::lint_matrix`] × {app, kernel} lint
/// matrix on a prepared study. Each series is linted under its own
/// optimization claims ([`LayoutSeries::lint_set`]).
pub fn lint_study(study: &Study) -> Vec<LintCell> {
    let mut cells = Vec::new();
    for series in LayoutSeries::lint_matrix() {
        cells.extend(lint_series_cells(study, series));
    }
    cells
}

/// Runs validation + lints for one series' app and kernel layouts — the
/// two cells [`lint_study`] produces per series, reused by the
/// comparison table for series outside the lint matrix.
pub fn lint_series_cells(study: &Study, series: LayoutSeries) -> Vec<LintCell> {
    let _span = codelayout_obs::span("lint");
    let targets: [(
        &'static str,
        &codelayout_ir::Program,
        &codelayout_profile::Profile,
        u64,
    ); 2] = [
        ("app", &study.app.program, &study.profile, APP_TEXT_BASE),
        (
            "kernel",
            &study.kernel.program,
            &study.kernel_profile,
            KERNEL_TEXT_BASE,
        ),
    ];
    let mut cells = Vec::new();
    for &(target, program, profile, base) in &targets {
        let layout = LayoutPipeline::new(program, profile).build_series(series);
        let image = link(program, &layout, base).expect("pipeline layouts link");
        let translation = validate_translation(program, &layout, &image).ok();
        let report = analyze_layout(
            program,
            profile,
            &layout,
            &image,
            &LintConfig::new(series.lint_set()),
        );
        cells.push(LintCell {
            layout: series.label(),
            target,
            translation,
            report,
        });
    }
    cells
}

/// Total findings at `sev` across the matrix.
pub fn count(cells: &[LintCell], sev: Severity) -> usize {
    cells.iter().map(|c| c.report.count(sev)).sum()
}

/// Whether any cell carries a deny-level finding.
pub fn has_deny(cells: &[LintCell]) -> bool {
    cells.iter().any(|c| c.report.has_deny())
}

/// The matrix summary that flows into the run manifest: severity totals
/// plus per-code (`L000`…) finding counts. Truncated findings (dropped
/// past the per-code cap) are counted too, so the totals reflect what
/// the analysis *found*, not what it chose to print.
pub fn summary_json(cells: &[LintCell]) -> Value {
    let mut by_code: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for c in cells {
        for d in &c.report.diagnostics {
            *by_code.entry(d.code).or_insert(0) += 1;
        }
        for &(code, dropped) in &c.report.truncated {
            *by_code.entry(code).or_insert(0) += dropped as u64;
        }
    }
    let mut codes = serde_json::Map::new();
    for (code, n) in by_code {
        codes.insert(code.to_string(), serde_json::Value::from(n));
    }
    json!({
        "deny": count(cells, Severity::Deny) as u64,
        "warn": count(cells, Severity::Warn) as u64,
        "info": count(cells, Severity::Info) as u64,
        "codes": serde_json::Value::Object(codes),
    })
}

/// Renders the matrix as the stable JSON document consumed by CI and the
/// golden test.
pub fn cells_to_json(scenario: &str, cells: &[LintCell]) -> Value {
    let rendered: Vec<Value> = cells
        .iter()
        .map(|c| {
            let translation = match &c.translation {
                Some(t) => json!({
                    "blocks": t.blocks,
                    "body_instrs": t.body_instrs,
                    "edges": t.edges,
                    "calls": t.calls,
                    "fallthroughs": t.fallthroughs,
                    "inverted_branches": t.inverted_branches,
                    "split_branches": t.split_branches,
                    "reachable_blocks": t.reachable_blocks,
                }),
                None => Value::Null,
            };
            json!({
                "layout": c.layout,
                "target": c.target,
                "translation": translation,
                "lints": c.report.to_json(),
            })
        })
        .collect();
    json!({
        "tool": "layout_lint",
        "scenario": scenario,
        "cells": rendered,
        "summary": {
            "deny": count(cells, Severity::Deny),
            "warn": count(cells, Severity::Warn),
            "info": count(cells, Severity::Info),
        },
    })
}

/// Renders the matrix as a human-readable report.
pub fn render_cells_text(scenario: &str, cells: &[LintCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("layout_lint: scenario `{scenario}`\n"));
    for c in cells {
        out.push_str(&format!("\n== {} / {} ==\n", c.layout, c.target));
        match &c.translation {
            Some(t) => out.push_str(&format!(
                "translation ok: {} blocks, {} edges, {} calls, \
                 {} fallthroughs, {} inverted, {} split\n",
                t.blocks, t.edges, t.calls, t.fallthroughs, t.inverted_branches, t.split_branches,
            )),
            None => out.push_str("translation FAILED (see L000 below)\n"),
        }
        out.push_str(&c.report.render_text());
    }
    out.push_str(&format!(
        "\ntotal: {} deny, {} warn, {} info\n",
        count(cells, Severity::Deny),
        count(cells, Severity::Warn),
        count(cells, Severity::Info),
    ));
    out
}
