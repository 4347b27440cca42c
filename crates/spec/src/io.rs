//! Loading and saving scenario documents (TOML and JSON).
//!
//! TOML is the committed-corpus format (`scenarios/*.toml`); JSON is the
//! machine-interchange format. Both round-trip through the same
//! `serde::Value` data model, and every load validates the document
//! before returning it, so a returned [`Spec`] is always runnable.

use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::document::Spec;
use crate::error::{LoadError, SpecError};
use crate::toml::{parse_toml, to_toml};

/// Parses and validates a TOML scenario document.
///
/// # Errors
///
/// [`LoadError::Parse`] for syntax or shape errors, [`LoadError::Invalid`]
/// when the document parses but fails [`Spec::validate`].
pub fn from_toml_str(text: &str) -> Result<Spec, LoadError> {
    let value = parse_toml(text)
        .map_err(|e| LoadError::Parse(SpecError::new(format!("line {}", e.line), e.message)))?;
    decode(&value)
}

/// Parses and validates a JSON scenario document.
///
/// # Errors
///
/// [`LoadError::Parse`] for syntax or shape errors, [`LoadError::Invalid`]
/// when the document parses but fails [`Spec::validate`].
pub fn from_json_str(text: &str) -> Result<Spec, LoadError> {
    let value = serde_json::parse_value(text)
        .map_err(|e| LoadError::Parse(SpecError::new("document", e.to_string())))?;
    decode(&value)
}

/// Decodes and validates a parsed document. A document whose shape does not
/// fit names the field path where decoding failed (`document` when the
/// root itself is wrong).
fn decode(value: &Value) -> Result<Spec, LoadError> {
    let spec = Spec::from_value(value).map_err(|e| {
        let path = if e.path().is_empty() {
            "document"
        } else {
            e.path()
        };
        LoadError::Parse(SpecError::new(path, e.message()))
    })?;
    spec.validate().map_err(LoadError::Invalid)?;
    Ok(spec)
}

/// Renders a spec as a TOML document.
///
/// # Panics
///
/// Panics if the spec's value tree cannot be expressed in TOML — cannot
/// happen for [`Spec`]: every field serializes to tables, arrays and
/// scalars.
#[must_use]
pub fn to_toml_string(spec: &Spec) -> String {
    to_toml(&spec.to_value()).expect("Spec serializes to TOML-expressible values")
}

/// Renders a spec as pretty-printed JSON.
#[must_use]
pub fn to_json_string(spec: &Spec) -> String {
    serde_json::to_string_pretty(spec).expect("Spec serializes to JSON")
}

/// Loads a scenario document from disk, dispatching on the extension
/// (`.toml` / `.json`).
///
/// # Errors
///
/// [`LoadError::Io`] when the file cannot be read,
/// [`LoadError::UnknownFormat`] for other extensions, and the
/// [`from_toml_str`] / [`from_json_str`] errors beyond that.
pub fn load(path: &Path) -> Result<Spec, LoadError> {
    let display = path.display().to_string();
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    let read = || std::fs::read_to_string(path).map_err(|e| LoadError::Io(display.clone(), e));
    match ext.as_deref() {
        Some("toml") => from_toml_str(&read()?),
        Some("json") => from_json_str(&read()?),
        _ => Err(LoadError::UnknownFormat(display)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    #[test]
    fn every_builtin_round_trips_through_toml() {
        for spec in builtin::all() {
            let text = to_toml_string(&spec);
            let back = from_toml_str(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(back, spec, "TOML round-trip of {}", spec.name);
        }
    }

    #[test]
    fn every_builtin_round_trips_through_json() {
        for spec in builtin::all() {
            let text = to_json_string(&spec);
            let back = from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(back, spec, "JSON round-trip of {}", spec.name);
        }
    }

    #[test]
    fn invalid_documents_fail_with_field_paths() {
        let spec = {
            let mut s = builtin::all().remove(2); // fig4
            if let crate::document::ExperimentSpec::Sweep(sweep) = &mut s.experiment {
                sweep.base.loss_rate = 7.0;
            }
            s
        };
        let text = to_toml_string(&spec);
        match from_toml_str(&text) {
            Err(LoadError::Invalid(e)) => {
                assert_eq!(e.path, "experiment.Sweep.base.loss_rate");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn shape_errors_name_the_field_path() {
        let ann = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/ann.toml"
        ))
        .expect("the committed ann scenario");
        let parse_error = |text: &str| match from_toml_str(text) {
            Err(LoadError::Parse(e)) => e,
            other => panic!("expected Parse, got {other:?}"),
        };
        // A training design without its broker-fault grid (the file's last
        // table), through TOML and through JSON.
        let (without, _) = ann
            .split_once("[experiment.Train.collection.broker_faults]")
            .expect("ann.toml trains with broker faults");
        let e = parse_error(without);
        assert_eq!(e.path, "experiment.Train.collection.broker_faults");
        assert_eq!(e.message, "expected map for BrokerFaultGrid");
        let json = serde_json::to_string(&crate::toml::parse_toml(without).unwrap()).unwrap();
        match from_json_str(&json) {
            Err(LoadError::Parse(json_error)) => assert_eq!(json_error, e),
            other => panic!("expected Parse, got {other:?}"),
        }
        // A sequence element is named by its index.
        let bad_size = ann.replacen("message_sizes = [50, 100,", "message_sizes = [50, -1,", 1);
        assert_eq!(
            parse_error(&bad_size).path,
            "experiment.Train.collection.normal.message_sizes[1]"
        );
    }

    #[test]
    fn toml_syntax_errors_carry_line_numbers() {
        match from_toml_str("name = \"x\"\ntitle = = broken") {
            Err(LoadError::Parse(e)) => assert_eq!(e.path, "line 2"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn unknown_extensions_are_rejected() {
        match load(Path::new("scenario.yaml")) {
            Err(LoadError::UnknownFormat(p)) => assert!(p.contains("yaml")),
            other => panic!("expected UnknownFormat, got {other:?}"),
        }
    }
}
