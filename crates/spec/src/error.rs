//! Spec validation and loading errors.
//!
//! Every validation failure carries the *field path* of the offending
//! value (`experiment.Sweep.base.loss_rate`), so a broken scenario file
//! points straight at the line to fix. [`SpecError`] and
//! [`kafkasim::ConfigError`] follow the same convention: both implement
//! [`std::error::Error`] + [`Display`](std::fmt::Display), and producer
//! configuration problems surfaced during spec validation are wrapped
//! with their field path prefixed.

use std::error::Error;
use std::fmt;

/// A validation error anchored at a field path inside a spec document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (e.g. `experiment.Sweep.axis`).
    pub path: String,
    /// What is wrong with the value there.
    pub message: String,
}

impl SpecError {
    /// Creates an error at `path`.
    pub(crate) fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError {
            path: path.into(),
            message: message.into(),
        }
    }

    /// Wraps a `Result<(), String>`-style validation (the convention used
    /// by `netsim::TraceConfig`, `testbed::KpiWeights`, …) with a path.
    ///
    /// # Errors
    ///
    /// Propagates `r`'s message, anchored at `path`.
    pub(crate) fn wrap(path: &str, r: Result<(), String>) -> Result<(), SpecError> {
        r.map_err(|message| SpecError::new(path, message))
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`: {}", self.path, self.message)
    }
}

impl Error for SpecError {}

/// An error loading a spec document from disk.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(String, std::io::Error),
    /// The file's extension selects no known format (`.toml` / `.json`).
    UnknownFormat(String),
    /// The document failed to parse or deserialize.
    Parse(SpecError),
    /// The document parsed but failed [`crate::Spec::validate`].
    Invalid(SpecError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(path, e) => write!(f, "cannot read {path}: {e}"),
            LoadError::UnknownFormat(path) => {
                write!(f, "{path}: unknown spec format (expected .toml or .json)")
            }
            LoadError::Parse(e) => write!(f, "parse error at {e}"),
            LoadError::Invalid(e) => write!(f, "invalid spec at {e}"),
        }
    }
}

impl Error for LoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadError::Io(_, e) => Some(e),
            LoadError::UnknownFormat(_) => None,
            LoadError::Parse(e) | LoadError::Invalid(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_path_and_message() {
        let e = SpecError::new("experiment.Sweep.base.loss_rate", "must be within [0, 1]");
        assert_eq!(
            e.to_string(),
            "`experiment.Sweep.base.loss_rate`: must be within [0, 1]"
        );
    }

    #[test]
    fn wrap_anchors_string_validations() {
        let r: Result<(), String> = Err("weights must sum to 1".into());
        let e = SpecError::wrap("experiment.KpiGrid.weights", r).unwrap_err();
        assert_eq!(e.path, "experiment.KpiGrid.weights");
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&SpecError::new("a", "b"));
        takes_error(&LoadError::UnknownFormat("x.yaml".into()));
    }
}
