//! Span-based phase tracing: RAII timers with nested paths, monotonic
//! timestamps, thread-tagged events, and a JSON-lines exporter.
//!
//! A [`Span`] opened while another span is live on the same thread
//! becomes its child: paths join with `/`, so the harness's phases
//! aggregate under keys like `run_all/fig04/measure/replay`. Dropping
//! (or [`Span::finish`]ing) a span adds its wall time to the tracer's
//! per-path totals; [`Tracer::phase_tree`] turns those totals into a
//! tree and [`Tracer::render_report`] prints the human breakdown:
//!
//! ```text
//! run_all                          2.134s  100.0%
//!   fig04                          0.412s   19.3%
//!     measure                      0.391s   18.3%
//!       live                       0.210s    9.8%
//!       replay                     0.102s    4.8%
//! ```
//!
//! A thread starts with an empty stack, so a span it opens is a root.
//! A worker that does part of its caller's phase reads the caller's
//! path with [`span_path`] and [`Tracer::adopt`]s it first; its spans
//! then nest under the caller's, as if it had opened them inline.
//!
//! When `CODELAYOUT_TRACE_OUT` names a file (see
//! [`Tracer::init_export_from_env`]), every span begin/end is appended
//! as one JSON line `{"ev":"B"|"E","path":...,"thread":...,"t_us":...}`
//! with timestamps in microseconds since the process epoch — a
//! trace-event log that external tools can tail while a sweep runs.

use crate::now_ns;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub use crate::env::TRACE_OUT_ENV;

thread_local! {
    /// The live span names on this thread, innermost last.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated wall time for one phase path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total nanoseconds across all completed spans at this path.
    pub total_ns: u64,
    /// Number of completed spans at this path.
    pub count: u64,
}

/// The tracer: per-path phase totals plus the optional event exporter.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    phases: Mutex<BTreeMap<String, PhaseStat>>,
    export: Mutex<Option<BufWriter<File>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A new, enabled tracer with no exporter.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(true),
            phases: Mutex::new(BTreeMap::new()),
            export: Mutex::new(None),
        }
    }

    /// Turns span recording on or off. Inert spans cost one relaxed
    /// atomic load to create and nothing to drop.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Routes span begin/end events to a JSON-lines file. Any previous
    /// exporter is dropped (flushing it).
    ///
    /// # Errors
    /// Returns the I/O error if the file cannot be created.
    pub fn init_export(&self, path: &str) -> std::io::Result<()> {
        let file = File::create(path)?;
        *self.export.lock().expect("tracer export poisoned") = Some(BufWriter::new(file));
        Ok(())
    }

    /// Initializes the exporter from [`crate::run_env`]'s
    /// `CODELAYOUT_TRACE_OUT` when set; prints a warning (and records
    /// nothing) when the file cannot be created.
    pub fn init_export_from_env(&self) {
        if let Some(path) = crate::run_env().trace_out.as_deref() {
            if let Err(e) = self.init_export(path) {
                eprintln!("warning: cannot open {TRACE_OUT_ENV}={path}: {e}");
            }
        }
    }

    /// Opens a span named `name`, nested under this thread's live span
    /// (if any). The span records on drop or [`Span::finish`].
    pub fn span<'t>(&'t self, name: &str) -> Span<'t> {
        if !self.is_enabled() {
            return Span {
                tracer: self,
                path: String::new(),
                start_ns: 0,
                active: false,
            };
        }
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = if let Some(parent) = stack.last() {
                format!("{parent}/{name}")
            } else {
                name.to_string()
            };
            stack.push(path.clone());
            path
        });
        let start_ns = now_ns();
        self.export_event("B", &path, start_ns);
        Span {
            tracer: self,
            path,
            start_ns,
            active: true,
        }
    }

    /// Seeds this thread's span stack with `path` (a caller's
    /// [`span_path`]) until the returned guard drops: spans opened
    /// meanwhile nest under it. The adopted path itself records
    /// nothing; the span that owns it does, on its own thread.
    pub fn adopt(&self, path: &str) -> Adopted {
        STACK.with(|s| s.borrow_mut().push(path.to_string()));
        Adopted {
            path: path.to_string(),
        }
    }

    /// Writes one instant event to the exporter (no phase accounting).
    /// Free when no exporter is installed.
    pub fn instant(&self, name: &str) {
        if self.is_enabled() {
            self.export_event("i", name, now_ns());
        }
    }

    /// Writes one structured record event to the exporter: a JSON line
    /// `{"ev":"O","path":name,"thread":...,"t_us":...,"data":payload}`
    /// (`O` for object, mirroring the trace-event format's instant
    /// events with arguments). The serving loop streams its epoch
    /// records through this. Free when no exporter is installed; no
    /// phase accounting.
    pub fn event(&self, name: &str, payload: Value) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self.export.lock().expect("tracer export poisoned");
        if let Some(w) = guard.as_mut() {
            let thread = std::thread::current();
            let tag = match thread.name() {
                Some(n) => n.to_string(),
                None => format!("{:?}", thread.id()),
            };
            let line = json!({
                "ev": "O",
                "path": name,
                "thread": tag,
                "t_us": now_ns() / 1_000,
                "data": payload,
            });
            let _ = writeln!(
                w,
                "{}",
                serde_json::to_string(&line).expect("span event json")
            );
        }
    }

    fn export_event(&self, ev: &str, path: &str, t_ns: u64) {
        let mut guard = self.export.lock().expect("tracer export poisoned");
        if let Some(w) = guard.as_mut() {
            let thread = std::thread::current();
            let tag = match thread.name() {
                Some(n) => n.to_string(),
                None => format!("{:?}", thread.id()),
            };
            let line = json!({
                "ev": ev,
                "path": path,
                "thread": tag,
                "t_us": t_ns / 1_000,
            });
            let _ = writeln!(
                w,
                "{}",
                serde_json::to_string(&line).expect("span event json")
            );
        }
    }

    fn record(&self, path: &str, dur_ns: u64) {
        let mut phases = self.phases.lock().expect("tracer phases poisoned");
        let stat = phases.entry(path.to_string()).or_default();
        stat.total_ns += dur_ns;
        stat.count += 1;
    }

    /// Flushes the event exporter, if any.
    pub fn flush(&self) {
        if let Some(w) = self.export.lock().expect("tracer export poisoned").as_mut() {
            let _ = w.flush();
        }
    }

    /// Clears all recorded phases (exporter and enabled flag are kept).
    pub fn reset(&self) {
        self.phases.lock().expect("tracer phases poisoned").clear();
    }

    /// All completed phase paths with their totals, in path order.
    pub fn phase_snapshot(&self) -> Vec<(String, PhaseStat)> {
        self.phases
            .lock()
            .expect("tracer phases poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The completed phases as a forest (children in path order). Spans
    /// from worker threads (opened with an empty stack) appear as extra
    /// roots next to the main thread's root phase.
    pub fn phase_tree(&self) -> Vec<PhaseNode> {
        build_tree(&self.phase_snapshot())
    }

    /// Renders the phase breakdown as an indented text tree with
    /// percentages relative to each root. Each node that has timed
    /// children accounts any remainder to an `(untracked)` line, so the
    /// percentages always add up.
    pub fn render_report(&self) -> String {
        let tree = self.phase_tree();
        let mut out = String::new();
        for root in &tree {
            render_node(&mut out, root, root.stat.total_ns.max(1), 0);
        }
        out
    }
}

/// One node of the aggregated phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseNode {
    /// Final path segment (phase name).
    pub name: String,
    /// Aggregated wall time and completion count.
    pub stat: PhaseStat,
    /// Child phases in path order.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Fraction of this node's time covered by its direct children,
    /// in percent (100.0 for leaves).
    pub fn coverage_pct(&self) -> f64 {
        if self.children.is_empty() {
            return 100.0;
        }
        if self.stat.total_ns == 0 {
            return 0.0;
        }
        let covered: u64 = self.children.iter().map(|c| c.stat.total_ns).sum();
        100.0 * covered.min(self.stat.total_ns) as f64 / self.stat.total_ns as f64
    }

    /// JSON rendering used in the run manifest: name, wall time,
    /// percentage of `root_ns`, completion count, children.
    pub fn to_json(&self, root_ns: u64) -> Value {
        let children: Vec<Value> = self.children.iter().map(|c| c.to_json(root_ns)).collect();
        json!({
            "name": self.name.clone(),
            "wall_ns": self.stat.total_ns,
            "pct": round2(100.0 * self.stat.total_ns as f64 / root_ns.max(1) as f64),
            "count": self.stat.count,
            "children": children,
        })
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Builds the phase forest from `(path, stat)` pairs. Parent paths that
/// were never directly timed get a zero stat (their children still
/// attach under them).
pub fn build_tree(snapshot: &[(String, PhaseStat)]) -> Vec<PhaseNode> {
    let mut roots: Vec<PhaseNode> = Vec::new();
    for (path, stat) in snapshot {
        let segs: Vec<&str> = path.split('/').collect();
        let mut level = &mut roots;
        for (i, seg) in segs.iter().enumerate() {
            let pos = match level.iter().position(|n| n.name == *seg) {
                Some(p) => p,
                None => {
                    level.push(PhaseNode {
                        name: (*seg).to_string(),
                        stat: PhaseStat::default(),
                        children: Vec::new(),
                    });
                    level.len() - 1
                }
            };
            if i == segs.len() - 1 {
                level[pos].stat = *stat;
            }
            level = &mut level[pos].children;
        }
    }
    roots
}

fn render_node(out: &mut String, node: &PhaseNode, root_ns: u64, depth: usize) {
    let pct = 100.0 * node.stat.total_ns as f64 / root_ns as f64;
    let label = format!("{}{}", "  ".repeat(depth), node.name);
    let _ = writeln!(
        out,
        "{label:<40} {:>10}  {pct:>5.1}%{}",
        fmt_dur(node.stat.total_ns),
        if node.stat.count > 1 {
            format!("  (x{})", node.stat.count)
        } else {
            String::new()
        }
    );
    for child in &node.children {
        render_node(out, child, root_ns, depth + 1);
    }
    if !node.children.is_empty() {
        let covered: u64 = node.children.iter().map(|c| c.stat.total_ns).sum();
        let rest = node.stat.total_ns.saturating_sub(covered);
        // Only worth a line when the gap is visible at 0.1% of the root.
        if rest * 1000 > root_ns {
            let pct = 100.0 * rest as f64 / root_ns as f64;
            let label = format!("{}(untracked)", "  ".repeat(depth + 1));
            let _ = writeln!(out, "{label:<40} {:>10}  {pct:>5.1}%", fmt_dur(rest));
        }
    }
}

fn fmt_dur(ns: u64) -> String {
    let d = Duration::from_nanos(ns);
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{}us", ns / 1_000)
    }
}

/// The calling thread's innermost live span path, if any: what a
/// worker thread passes to [`Tracer::adopt`] to nest under it.
pub fn span_path() -> Option<String> {
    STACK.with(|s| s.borrow().last().cloned())
}

/// Pops `path` (and anything a leaked span left above it) off this
/// thread's span stack.
fn pop_through(path: &str) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Robust even if an inner span was leaked (e.g. across a panic
        // boundary).
        while let Some(top) = stack.pop() {
            if top == path {
                break;
            }
        }
    });
}

/// Guard from [`Tracer::adopt`]: un-adopts the path on drop.
#[derive(Debug)]
#[must_use = "the adopted path is dropped again at once"]
pub struct Adopted {
    path: String,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        pop_through(&self.path);
    }
}

/// An RAII phase timer from [`Tracer::span`]. Records its wall time
/// into the tracer when dropped or explicitly [`finish`](Span::finish)ed.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    path: String,
    start_ns: u64,
    active: bool,
}

impl<'t> Span<'t> {
    /// This span's full `/`-joined path (empty for inert spans).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Wall time since the span opened.
    pub fn elapsed(&self) -> Duration {
        if self.active {
            Duration::from_nanos(now_ns() - self.start_ns)
        } else {
            Duration::ZERO
        }
    }

    /// Ends the span now, returning its wall time (zero for inert
    /// spans).
    pub fn finish(mut self) -> Duration {
        let d = self.elapsed();
        self.close();
        d
    }

    fn close(&mut self) {
        if !self.active {
            return;
        }
        self.active = false;
        let end_ns = now_ns();
        pop_through(&self.path);
        self.tracer
            .record(&self.path, end_ns.saturating_sub(self.start_ns));
        self.tracer.export_event("E", &self.path, end_ns);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_paths() {
        let t = Tracer::new();
        {
            let _a = t.span("outer");
            {
                let b = t.span("inner");
                assert_eq!(b.path(), "outer/inner");
                let d = b.finish();
                assert!(d <= Duration::from_secs(1));
            }
            let c = t.span("inner");
            assert_eq!(c.path(), "outer/inner");
        }
        let snap = t.phase_snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
        let inner = snap.iter().find(|(p, _)| p == "outer/inner").unwrap().1;
        assert_eq!(inner.count, 2);
    }

    #[test]
    fn sibling_spans_after_finish_are_roots_again() {
        let t = Tracer::new();
        t.span("a").finish();
        let b = t.span("b");
        assert_eq!(b.path(), "b");
        drop(b);
        assert_eq!(t.phase_snapshot().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.set_enabled(false);
        let s = t.span("ghost");
        assert_eq!(s.path(), "");
        assert_eq!(s.finish(), Duration::ZERO);
        assert!(t.phase_snapshot().is_empty());
        // Re-enabling works and the stack was not corrupted.
        t.set_enabled(true);
        t.span("real").finish();
        assert_eq!(t.phase_snapshot().len(), 1);
    }

    #[test]
    fn adopted_path_nests_worker_spans() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let adopted = t.adopt("a/b");
                assert_eq!(span_path().as_deref(), Some("a/b"));
                assert_eq!(t.span("c").path(), "a/b/c");
                drop(adopted);
                assert_eq!(span_path(), None);
            });
            s.spawn(|| {
                assert_eq!(span_path(), None);
                assert_eq!(t.span("c").path(), "c");
            });
        });
        let snap = t.phase_snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        // The adopted path itself is not timed; only real spans record.
        assert_eq!(paths, vec!["a/b/c", "c"]);
    }

    #[test]
    fn tree_and_coverage() {
        let snapshot = vec![
            (
                "root".to_string(),
                PhaseStat {
                    total_ns: 1000,
                    count: 1,
                },
            ),
            (
                "root/a".to_string(),
                PhaseStat {
                    total_ns: 600,
                    count: 1,
                },
            ),
            (
                "root/b".to_string(),
                PhaseStat {
                    total_ns: 380,
                    count: 2,
                },
            ),
            (
                "worker".to_string(),
                PhaseStat {
                    total_ns: 50,
                    count: 4,
                },
            ),
        ];
        let tree = build_tree(&snapshot);
        assert_eq!(tree.len(), 2);
        let root = &tree[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert!((root.coverage_pct() - 98.0).abs() < 1e-9);
        assert_eq!(tree[1].name, "worker");
        assert_eq!(tree[1].coverage_pct(), 100.0);
    }

    #[test]
    fn untimed_intermediate_nodes_attach_children() {
        let snapshot = vec![(
            "a/b/c".to_string(),
            PhaseStat {
                total_ns: 10,
                count: 1,
            },
        )];
        let tree = build_tree(&snapshot);
        assert_eq!(tree[0].name, "a");
        assert_eq!(tree[0].stat.total_ns, 0);
        assert_eq!(tree[0].children[0].children[0].name, "c");
    }

    #[test]
    fn report_renders_percentages() {
        let t = Tracer::new();
        {
            let _root = t.span("root");
            t.span("child").finish();
        }
        let report = t.render_report();
        assert!(report.contains("root"));
        assert!(report.contains("child"));
        assert!(report.contains('%'));
    }

    #[test]
    fn jsonl_export_writes_thread_tagged_events() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("codelayout-obs-test-{}.jsonl", std::process::id()));
        let t = Tracer::new();
        t.init_export(path.to_str().unwrap()).unwrap();
        t.span("phase").finish();
        t.instant("marker");
        t.event("serve/epoch", json!({"epoch": 3, "drift_milli": 412}));
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let begin = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(begin.get("ev").as_str(), Some("B"));
        assert_eq!(begin.get("path").as_str(), Some("phase"));
        assert!(begin.get("thread").as_str().is_some());
        assert!(begin.get("t_us").as_u64().is_some());
        let end = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(end.get("ev").as_str(), Some("E"));
        let inst = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(inst.get("ev").as_str(), Some("i"));
        let rec = serde_json::from_str(lines[3]).unwrap();
        assert_eq!(rec.get("ev").as_str(), Some("O"));
        assert_eq!(rec.get("path").as_str(), Some("serve/epoch"));
        assert_eq!(rec.get("data").get("epoch").as_u64(), Some(3));
        assert_eq!(rec.get("data").get("drift_milli").as_u64(), Some(412));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn phase_json_shape() {
        let node = PhaseNode {
            name: "x".into(),
            stat: PhaseStat {
                total_ns: 500,
                count: 1,
            },
            children: vec![],
        };
        let v = node.to_json(1000);
        assert_eq!(v.get("name").as_str(), Some("x"));
        assert_eq!(v.get("wall_ns").as_u64(), Some(500));
        assert_eq!(v.get("pct").as_f64(), Some(50.0));
        assert!(v.get("children").as_array().unwrap().is_empty());
    }
}
