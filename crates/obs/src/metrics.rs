//! Named event counters: how many images were linked, branches
//! inverted, layouts built, trace events recorded.
//!
//! Counters carry counts only. Time lives in spans ([`crate::span`]),
//! so a wall-clock figure has exactly one source: the phase tree.
//!
//! Every update ([`Registry::add`]) takes one mutex, which is fine for
//! the coarse events counted here (an image linked, a sweep finished);
//! nothing is counted per replayed event. Snapshots
//! ([`Registry::snapshot`]) are immutable, name-sorted maps rendered to
//! JSON ([`MetricsSnapshot::to_json`]) for the run manifest.

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The counter registry: named `u64` counters behind one mutex, with an
/// enabled flag checked before the lock so disabled counting costs one
/// relaxed atomic load.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, u64>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A new, enabled, empty registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether updates are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut counters = self.counters.lock().expect("metrics registry poisoned");
        *counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Clears every counter (the enabled flag is kept).
    pub fn reset(&self) {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .clear();
    }

    /// An immutable copy of every counter's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .clone(),
        }
    }
}

/// Immutable view of a [`Registry`] at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// JSON rendering: `{"counters": {...}}` with names in sorted order.
    pub fn to_json(&self) -> Value {
        let counters: Map = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        json!({ "counters": counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let r = Registry::new();
        r.add("c.events", 3);
        r.add("c.events", 4);
        r.add("c.other", 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c.events"], 7);
        assert_eq!(snap.counters["c.other"], 1);
        r.reset();
        assert!(r.snapshot().counters.is_empty());
        assert!(r.is_enabled());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        r.add("c", 5);
        assert!(r.snapshot().counters.is_empty());
        r.set_enabled(true);
        r.add("c", 5);
        assert_eq!(r.snapshot().counters["c"], 5);
    }

    #[test]
    fn snapshot_json_is_name_sorted() {
        let r = Registry::new();
        r.add("z.last", 1);
        r.add("a.first", 2);
        let v = r.snapshot().to_json();
        assert_eq!(v.get("counters").get("a.first").as_u64(), Some(2));
        let s = serde_json::to_string(&v).unwrap();
        assert!(s.find("a.first").unwrap() < s.find("z.last").unwrap());
    }
}
