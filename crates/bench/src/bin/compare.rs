//! Cross-algorithm layout comparison table: paper trio vs ext-TSP vs
//! Codestitcher (see `codelayout_bench::figures::compare`).
//!
//! Scenario via `CODELAYOUT_SCENARIO` (quick|sim|hw; default sim). The
//! table covers `LayoutSeries::comparison()`: base, all, hotcold,
//! exttsp, stitcher.

fn main() {
    codelayout_bench::figure_main("compare", codelayout_bench::figures::compare);
}
