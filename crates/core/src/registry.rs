//! The per-experiment index: ids → runnable experiments.
//!
//! DESIGN.md requires every table and figure in the paper to map to a
//! module and a regenerating target. [`ExperimentRegistry`] is the runtime
//! form of that index: crates register their experiments under stable ids
//! (`"T1"`, `"E2.10"`, ...) and callers can enumerate or run them by id.
//! The registry is also how the umbrella crate's examples expose "run
//! everything the paper reports" as a single loop.

use crate::experiment::{run_once, Experiment, Params, RunRecord};
use std::collections::BTreeMap;

/// A registered experiment: the paper location it reproduces, a
/// description, default parameters, and the boxed runner.
pub struct Entry {
    /// Paper location (e.g. `"Table 1"`, `"Section 2.10"`).
    pub location: String,
    /// One-line description of what is reproduced.
    pub description: String,
    /// Default parameters for a representative run.
    pub defaults: Params,
    runner: Box<dyn Experiment + Send + Sync>,
}

impl Entry {
    /// The underlying experiment's name.
    pub fn name(&self) -> &str {
        self.runner.name()
    }

    /// The boxed experiment itself — what the supervised executor wraps
    /// in adapters ([`crate::fault::FaultyExperiment`]) before running.
    pub fn runner(&self) -> &(dyn Experiment + Send + Sync) {
        self.runner.as_ref()
    }
}

/// Registry of experiments keyed by stable id.
#[derive(Default)]
pub struct ExperimentRegistry {
    entries: BTreeMap<String, Entry>,
}

impl ExperimentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an experiment under `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is already taken — duplicate ids would make the
    /// index ambiguous, which defeats its purpose.
    pub fn register(
        &mut self,
        id: &str,
        location: &str,
        description: &str,
        defaults: Params,
        runner: Box<dyn Experiment + Send + Sync>,
    ) {
        let prev = self.entries.insert(
            id.to_string(),
            Entry {
                location: location.to_string(),
                description: description.to_string(),
                defaults,
                runner,
            },
        );
        assert!(prev.is_none(), "duplicate experiment id '{id}'");
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, entry)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Entry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Looks up an entry.
    pub fn get(&self, id: &str) -> Option<&Entry> {
        self.entries.get(id)
    }

    /// Runs the experiment registered under `id` with its default
    /// parameters and the given seed.
    ///
    /// Returns `None` for unknown ids.
    pub fn run(&self, id: &str, seed: u64) -> Option<RunRecord> {
        let e = self.entries.get(id)?;
        Some(run_once(e.runner.as_ref(), seed, e.defaults.clone()))
    }

    /// Runs the experiment under `id` with explicit parameters.
    pub fn run_with(&self, id: &str, seed: u64, params: Params) -> Option<RunRecord> {
        let e = self.entries.get(id)?;
        Some(run_once(e.runner.as_ref(), seed, params))
    }

    /// Renders the index as a plain-text table (id, location, description).
    pub fn render_index(&self) -> String {
        let mut out = String::from("id        location        description\n");
        for (id, e) in self.iter() {
            out.push_str(&format!("{:<9} {:<15} {}\n", id, e.location, e.description));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RunContext;

    struct Dummy(&'static str);
    impl Experiment for Dummy {
        fn name(&self) -> &str {
            self.0
        }
        fn run(&self, ctx: &mut RunContext) {
            let n = ctx.int("n", 1);
            ctx.record("n_echo", n as f64);
        }
    }

    fn registry() -> ExperimentRegistry {
        let mut r = ExperimentRegistry::new();
        r.register(
            "T1",
            "Table 1",
            "goal table",
            Params::new().with_int("n", 9),
            Box::new(Dummy("t1")),
        );
        r.register("E2.2", "Section 2.2", "particle filter", Params::new(), Box::new(Dummy("pf")));
        r
    }

    #[test]
    fn register_and_run() {
        let r = registry();
        assert_eq!(r.len(), 2);
        let rec = r.run("T1", 5).unwrap();
        assert_eq!(rec.metric("n_echo"), Some(9.0));
        assert!(r.run("missing", 5).is_none());
    }

    #[test]
    fn run_with_overrides_defaults() {
        let r = registry();
        let rec = r.run_with("T1", 5, Params::new().with_int("n", 42)).unwrap();
        assert_eq!(rec.metric("n_echo"), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_id_panics() {
        let mut r = registry();
        r.register("T1", "x", "y", Params::new(), Box::new(Dummy("dup")));
    }

    #[test]
    fn iteration_is_id_ordered() {
        let r = registry();
        let ids: Vec<&str> = r.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec!["E2.2", "T1"]);
    }

    #[test]
    fn index_render_lists_everything() {
        let s = registry().render_index();
        assert!(s.contains("T1"));
        assert!(s.contains("particle filter"));
    }
}
