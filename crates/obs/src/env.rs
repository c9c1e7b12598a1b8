//! `RunEnv`: every `CODELAYOUT_*` knob, parsed once.
//!
//! Before this module, environment handling was scattered: the sweep
//! engine read `CODELAYOUT_THREADS`, the tracer read
//! `CODELAYOUT_TRACE_OUT`, the bench harness matched on
//! `CODELAYOUT_SCENARIO`, and every golden test re-implemented the
//! `CODELAYOUT_UPDATE_GOLDEN` check. Each site parsed, defaulted and
//! documented the knob its own way. [`RunEnv`] is the single source of
//! truth: one struct, parsed once per process by [`run_env`], consumed
//! everywhere (and re-exported by `codelayout-memsim` /
//! `codelayout-bench` so downstream crates need no extra dependency).
//!
//! | Variable | Field | Meaning |
//! |---|---|---|
//! | `CODELAYOUT_SCENARIO` | [`RunEnv::scenario`] | workload scale: `quick` / `sim` / `hw` (default `sim`) |
//! | `CODELAYOUT_THREADS` | [`RunEnv::threads`] | sweep worker count (default: available parallelism) |
//! | `CODELAYOUT_VM_ENGINE` | [`RunEnv::vm_engine`] | `block` (default) or `interp` VM execution tier |
//! | `CODELAYOUT_TRACE_OUT` | [`RunEnv::trace_out`] | JSON-lines span event log file |
//! | `CODELAYOUT_UPDATE_GOLDEN` | [`RunEnv::update_golden`] | `1` = rewrite golden snapshots instead of asserting |
//! | `CODELAYOUT_SEED` | [`RunEnv::seed`] | scenario master-seed override (decimal or `0x` hex) |
//!
//! [`KNOBS`] lists the same six names. A test keeps this table and
//! the README's "Environment knobs" table equal to it, and any other
//! `CODELAYOUT_*` variable in the environment draws a warning.
//!
//! The grid-replay engine (`codelayout_memsim::SweepEngine`) and the
//! profile feeding the layout passes are chosen in code, not here: the
//! direct engine and the static profile estimate are oracles and side
//! studies that callers name explicitly.

use std::sync::OnceLock;

/// Environment variable selecting the workload scenario.
pub const SCENARIO_ENV: &str = "CODELAYOUT_SCENARIO";
/// Environment variable overriding the sweep worker-thread count.
pub const THREADS_ENV: &str = "CODELAYOUT_THREADS";
/// Environment variable selecting the VM execution tier.
pub const VM_ENGINE_ENV: &str = "CODELAYOUT_VM_ENGINE";
/// Environment variable naming the JSON-lines span event log file.
pub const TRACE_OUT_ENV: &str = "CODELAYOUT_TRACE_OUT";
/// Environment variable switching golden tests into rewrite mode.
pub const UPDATE_GOLDEN_ENV: &str = "CODELAYOUT_UPDATE_GOLDEN";
/// Environment variable overriding the scenario's master seed (decimal
/// or `0x`-prefixed hex). One seed determines workload generation, the
/// per-process RNG streams, and therefore every serving-loop epoch
/// record.
pub const SEED_ENV: &str = "CODELAYOUT_SEED";

/// Every knob [`RunEnv`] reads, in table order.
pub const KNOBS: [&str; 6] = [
    SCENARIO_ENV,
    THREADS_ENV,
    VM_ENGINE_ENV,
    TRACE_OUT_ENV,
    UPDATE_GOLDEN_ENV,
    SEED_ENV,
];

/// Workload scale selected by `CODELAYOUT_SCENARIO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSel {
    /// Seconds-scale CI workload.
    Quick,
    /// The paper's 4-CPU simulated system (default).
    Sim,
    /// The paper's single-processor hardware runs.
    Hw,
}

impl ScenarioSel {
    /// The label used for `results/<label>/` manifest directories.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioSel::Quick => "quick",
            ScenarioSel::Sim => "sim",
            ScenarioSel::Hw => "hw",
        }
    }
}

/// VM execution tier selected by `CODELAYOUT_VM_ENGINE`.
///
/// `Block` pre-compiles each basic block of a linked image into a flat
/// superinstruction form and executes whole blocks at a time; `Interp`
/// is the deliberately-plain one-instruction-at-a-time decoder that
/// survives as the equivalence oracle (the same discipline as the
/// direct sweep engine in `codelayout-memsim`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VmEngine {
    /// Decode-dispatch interpreter; the oracle.
    Interp,
    /// Block-compiled tier with a per-image code cache (default).
    #[default]
    Block,
}

impl VmEngine {
    /// Stable lowercase name (`"interp"` / `"block"`), as accepted by
    /// `CODELAYOUT_VM_ENGINE` and recorded in run manifests.
    pub fn label(self) -> &'static str {
        match self {
            VmEngine::Interp => "interp",
            VmEngine::Block => "block",
        }
    }
}

/// Every `CODELAYOUT_*` knob, parsed once per process.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// Workload scale (`CODELAYOUT_SCENARIO`), default [`ScenarioSel::Sim`].
    pub scenario: ScenarioSel,
    /// Sweep worker-thread override (`CODELAYOUT_THREADS`); `None`
    /// falls back to the host's available parallelism.
    pub threads: Option<usize>,
    /// VM execution tier (`CODELAYOUT_VM_ENGINE`), default
    /// [`VmEngine::Block`].
    pub vm_engine: VmEngine,
    /// Span event-log file (`CODELAYOUT_TRACE_OUT`), if any.
    pub trace_out: Option<String>,
    /// True when golden tests should rewrite their snapshots
    /// (`CODELAYOUT_UPDATE_GOLDEN=1`).
    pub update_golden: bool,
    /// Scenario master-seed override (`CODELAYOUT_SEED`), if any.
    pub seed: Option<u64>,
}

impl RunEnv {
    /// Parses the current process environment. Unknown values fall back
    /// to defaults, and `CODELAYOUT_*` names outside [`KNOBS`] are
    /// ignored; both warn on stderr (a misspelled knob should be
    /// visible, not silently ignored).
    pub fn from_process_env() -> Self {
        let vars: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
            .collect();
        let (env, warnings) = Self::parse(&vars);
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        env
    }

    /// Parses knobs from name/value pairs. Pure: returns the parsed
    /// environment and one warning per unusable value or unknown
    /// `CODELAYOUT_*` name, for the caller to print.
    fn parse(vars: &[(String, String)]) -> (Self, Vec<String>) {
        let warnings = vars
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| k.starts_with("CODELAYOUT_") && !KNOBS.contains(k))
            .map(|k| format!("{k} is not a known knob; ignoring it"))
            .collect();
        let mut k = Knobs { vars, warnings };
        let env = RunEnv {
            scenario: k.choose(
                SCENARIO_ENV,
                &[
                    ("sim", ScenarioSel::Sim),
                    ("quick", ScenarioSel::Quick),
                    ("hw", ScenarioSel::Hw),
                ],
            ),
            threads: k.number(
                THREADS_ENV,
                |raw| raw.parse::<usize>().ok().filter(|&n| n > 0),
                "a positive integer; using available parallelism",
            ),
            vm_engine: k.choose(
                VM_ENGINE_ENV,
                &[("block", VmEngine::Block), ("interp", VmEngine::Interp)],
            ),
            trace_out: k
                .get(TRACE_OUT_ENV)
                .filter(|p| !p.is_empty())
                .map(str::to_string),
            update_golden: k.get(UPDATE_GOLDEN_ENV) == Some("1"),
            seed: k.number(SEED_ENV, parse_u64, "an unsigned integer; ignoring"),
        };
        (env, k.warnings)
    }

    /// The sweep worker count: the `CODELAYOUT_THREADS` override, or
    /// the host's available parallelism.
    pub fn sweep_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// Name/value pairs being parsed, plus the warnings raised so far.
struct Knobs<'a> {
    vars: &'a [(String, String)],
    warnings: Vec<String>,
}

impl<'a> Knobs<'a> {
    fn get(&self, name: &str) -> Option<&'a str> {
        self.vars
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The option `name` selects: unset selects the first (default)
    /// option, and an unknown value warns and selects it too.
    fn choose<T: Copy>(&mut self, name: &str, options: &[(&str, T)]) -> T {
        let (default_label, default) = options[0];
        let Some(value) = self.get(name) else {
            return default;
        };
        match options.iter().find(|(label, _)| *label == value) {
            Some(&(_, v)) => v,
            None => {
                let labels: Vec<&str> = options.iter().map(|(label, _)| *label).collect();
                self.warnings.push(format!(
                    "{name}={value} is not {}; using {default_label}",
                    labels.join("/")
                ));
                default
            }
        }
    }

    /// The number `name` holds, if set; a value `parse` rejects warns
    /// that it is not `expected` and counts as unset.
    fn number<T>(&mut self, name: &str, parse: fn(&str) -> Option<T>, expected: &str) -> Option<T> {
        let raw = self.get(name)?;
        let n = parse(raw);
        if n.is_none() {
            self.warnings
                .push(format!("{name}={raw} is not {expected}"));
        }
        n
    }
}

/// Parses a `u64`, accepting decimal or `0x`-prefixed hex.
fn parse_u64(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse::<u64>().ok(),
    }
}

static RUN_ENV: OnceLock<RunEnv> = OnceLock::new();

/// The process-global [`RunEnv`], parsed from the environment on first
/// access and cached for the life of the process.
pub fn run_env() -> &'static RunEnv {
    RUN_ENV.get_or_init(RunEnv::from_process_env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn defaults_without_env() {
        let (env, warnings) = RunEnv::parse(&vars(&[("PATH", "/bin")]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(env.scenario, ScenarioSel::Sim);
        assert_eq!(env.threads, None);
        assert_eq!(env.vm_engine, VmEngine::Block);
        assert_eq!(env.trace_out, None);
        assert!(!env.update_golden);
        assert_eq!(env.seed, None);
        assert_eq!(
            env.sweep_threads(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
    }

    #[test]
    fn every_knob_parses() {
        let (env, warnings) = RunEnv::parse(&vars(&[
            (SCENARIO_ENV, "quick"),
            (THREADS_ENV, "3"),
            (VM_ENGINE_ENV, "interp"),
            (TRACE_OUT_ENV, "t.jsonl"),
            (UPDATE_GOLDEN_ENV, "1"),
            (SEED_ENV, "0xC0DE"),
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(env.scenario, ScenarioSel::Quick);
        assert_eq!(env.sweep_threads(), 3);
        assert_eq!(env.vm_engine, VmEngine::Interp);
        assert_eq!(env.trace_out.as_deref(), Some("t.jsonl"));
        assert!(env.update_golden);
        assert_eq!(env.seed, Some(0xC0DE));
    }

    #[test]
    fn unknown_names_and_bad_values_warn() {
        let (env, warnings) = RunEnv::parse(&vars(&[
            ("CODELAYOUT_THREAD", "2"),
            ("CODELAYOUT_SCENAIRO", "quick"),
            ("OTHER_VAR", "x"),
            (SCENARIO_ENV, "huge"),
            // Deleted knobs: the choices they made are made in code.
            ("CODELAYOUT_SWEEP_ENGINE", "direct"),
            ("CODELAYOUT_PROFILE_SOURCE", "static"),
        ]));
        assert_eq!(env.scenario, ScenarioSel::Sim);
        assert_eq!(env.threads, None);
        assert_eq!(warnings.len(), 5, "{warnings:?}");
        assert!(warnings[0].starts_with("CODELAYOUT_THREAD "));
        assert!(warnings[1].starts_with("CODELAYOUT_SCENAIRO "));
        assert!(warnings[2].starts_with("CODELAYOUT_SWEEP_ENGINE "));
        assert!(warnings[3].starts_with("CODELAYOUT_PROFILE_SOURCE "));
        assert!(warnings[4].contains("huge"));
        for bad in ["0", "-2", "many"] {
            let (env, warnings) = RunEnv::parse(&vars(&[(THREADS_ENV, bad)]));
            assert_eq!(env.threads, None);
            assert_eq!(warnings.len(), 1, "{bad}: {warnings:?}");
            assert!(warnings[0].starts_with(&format!("{THREADS_ENV}={bad} ")));
        }
        let (env, warnings) = RunEnv::parse(&vars(&[(SEED_ENV, "not-a-number")]));
        assert_eq!(env.seed, None);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ScenarioSel::Quick.label(), "quick");
        assert_eq!(ScenarioSel::Sim.label(), "sim");
        assert_eq!(ScenarioSel::Hw.label(), "hw");
        assert_eq!(VmEngine::Interp.label(), "interp");
        assert_eq!(VmEngine::Block.label(), "block");
        assert_eq!(VmEngine::default(), VmEngine::Block);
    }

    #[test]
    fn u64_parsing() {
        assert_eq!(parse_u64("1234"), Some(1234));
        assert_eq!(parse_u64("0xC0DE"), Some(0xC0DE));
        assert_eq!(parse_u64("0Xff"), Some(0xff));
        assert_eq!(parse_u64("not-a-number"), None);
        assert_eq!(parse_u64("-1"), None);
    }

    /// The variable names in the first `| `CODELAYOUT_…` | …` column of
    /// the markdown table under `heading` in `text` (`//! ` doc prefixes
    /// are stripped).
    fn table_knobs(text: &str, heading: &str) -> BTreeSet<String> {
        text.lines()
            .map(|l| l.strip_prefix("//! ").unwrap_or(l))
            .skip_while(|l| *l != heading)
            .skip(1)
            .take_while(|l| !l.starts_with('#'))
            .filter_map(|l| l.strip_prefix("| `CODELAYOUT_"))
            .map(|rest| format!("CODELAYOUT_{}", &rest[..rest.find('`').unwrap()]))
            .collect()
    }

    #[test]
    fn knob_tables_match_knobs() {
        let knobs: BTreeSet<String> = KNOBS.iter().map(|k| k.to_string()).collect();
        assert_eq!(knobs.len(), KNOBS.len(), "duplicate entry in KNOBS");
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).expect("read README.md");
        assert_eq!(
            table_knobs(&readme, "## Environment knobs"),
            knobs,
            "README.md \"Environment knobs\" table"
        );
        assert_eq!(
            table_knobs(include_str!("env.rs"), "| Variable | Field | Meaning |"),
            knobs,
            "env.rs module-doc table"
        );
    }

    #[test]
    fn global_handle_is_stable() {
        let a = run_env() as *const RunEnv;
        let b = run_env() as *const RunEnv;
        assert_eq!(a, b);
    }
}
