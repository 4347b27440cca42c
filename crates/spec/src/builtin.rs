//! The built-in scenario corpus: every `repro` target as a declarative
//! [`Spec`].
//!
//! The committed `scenarios/*.toml` files are the only definition of the
//! corpus. This module embeds them at compile time and parses each through
//! [`from_toml_str`] — the path `repro run-spec` takes — so a named target
//! and its file are one datum. Adding a scenario is one `.toml` and one
//! line of `CORPUS`; `tests/golden_corpus.rs` fails when the two differ.

use crate::document::Spec;
use crate::io::from_toml_str;

/// `(name, scenarios/<name>.toml)` for each name, embedded at compile time.
macro_rules! corpus {
    ($($name:literal,)*) => {
        [$(($name, include_str!(concat!("../../../scenarios/", $name, ".toml")))),*]
    };
}

/// Every committed scenario, in the order `repro all` runs them.
const CORPUS: [(&str, &str); 22] = corpus![
    "table1",
    "collection",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ann",
    "kpi",
    "table2",
    "overlay",
    "sensitivity",
    "ext-outage",
    "ext-online",
    "ext-retries",
    "broker-faults",
    "ablation-transport",
    "ablation-jitter",
    "trace",
    "fleet",
    "regime-shift",
];

fn parse(name: &str, text: &str) -> Spec {
    from_toml_str(text).unwrap_or_else(|e| panic!("scenarios/{name}.toml: {e}"))
}

impl Spec {
    /// Looks up a built-in scenario by its `repro` target name.
    ///
    /// # Panics
    ///
    /// Panics if the embedded document does not parse and validate — a
    /// broken committed file, which tier-1 catches.
    #[must_use]
    pub fn builtin(name: &str) -> Option<Spec> {
        CORPUS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, text)| parse(n, text))
    }
}

/// Every built-in scenario, in the order `repro all` runs them.
///
/// # Panics
///
/// Panics if an embedded document does not parse and validate.
#[must_use]
pub fn all() -> Vec<Spec> {
    CORPUS.iter().map(|(n, text)| parse(n, text)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::ExperimentSpec;
    use desim::SimTime;
    use kafkasim::config::DeliverySemantics;
    use kafkasim::source::{RateSpec, SizeSpec};

    #[test]
    fn every_builtin_validates() {
        let specs = all();
        assert_eq!(specs.len(), 22);
        for spec in &specs {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let specs = all();
        for spec in &specs {
            assert_eq!(Spec::builtin(&spec.name).as_ref(), Some(spec));
        }
        let mut names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        assert_eq!(Spec::builtin("fig99"), None);
    }

    #[test]
    fn fig4_matches_the_legacy_operating_point() {
        let Spec { experiment, .. } = Spec::builtin("fig4").unwrap();
        let ExperimentSpec::Sweep(sweep) = experiment else {
            panic!("fig4 is a sweep");
        };
        let run = sweep.run_at(0, 3, 1_000);
        assert_eq!(run.source.size, SizeSpec::Fixed(200));
        assert_eq!(run.network.at(SimTime::ZERO).loss_rate, 0.19);
        assert_eq!(run.source.rate, RateSpec::FullLoad);
        assert_eq!(run.producer.semantics, DeliverySemantics::AtMostOnce);
    }
}
