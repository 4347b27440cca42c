//! Persistence of experiment results: the training data a model was fitted
//! on is an artefact worth keeping (the paper publishes its datasets and
//! configuration files on GitHub).
//!
//! A [`ResultSet`] wraps a batch of [`ExperimentResult`]s with the
//! provenance needed to reproduce them — the calibration, the per-point
//! message count and the base seed — and round-trips through JSON.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::calibration::Calibration;
use crate::experiment::ExperimentResult;

/// A persisted batch of experiment results with its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Schema version for forwards compatibility.
    pub version: u32,
    /// The calibration the experiments ran under.
    pub calibration: Calibration,
    /// Messages per experiment point.
    pub messages_per_point: u64,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// The results themselves.
    pub results: Vec<ExperimentResult>,
}

/// Error loading a result set.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the file failed.
    Io(io::Error),
    /// The contents were not a valid result set.
    Parse(serde_json::Error),
    /// The file was produced by an incompatible schema version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this library writes.
        expected: u32,
    },
    /// The file's calibration differs from the expected one, so its labels
    /// are not comparable.
    CalibrationMismatch,
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse(e) => write!(f, "parse error: {e}"),
            LoadError::VersionMismatch { found, expected } => {
                write!(f, "schema version {found}, expected {expected}")
            }
            LoadError::CalibrationMismatch => {
                write!(f, "result set was collected under a different calibration")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<serde_json::Error> for LoadError {
    fn from(e: serde_json::Error) -> Self {
        LoadError::Parse(e)
    }
}

impl ResultSet {
    /// Current schema version.
    pub const VERSION: u32 = 1;

    /// Wraps results with their provenance.
    #[must_use]
    pub fn new(
        calibration: Calibration,
        messages_per_point: u64,
        base_seed: u64,
        results: Vec<ExperimentResult>,
    ) -> Self {
        ResultSet {
            version: ResultSet::VERSION,
            calibration,
            messages_per_point,
            base_seed,
            results,
        }
    }

    /// Serialises to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (effectively unreachable).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a result set, checking the schema version.
    ///
    /// # Errors
    ///
    /// [`LoadError::Parse`] or [`LoadError::VersionMismatch`].
    pub fn from_json(json: &str) -> Result<Self, LoadError> {
        let set: ResultSet = serde_json::from_str(json)?;
        if set.version != ResultSet::VERSION {
            return Err(LoadError::VersionMismatch {
                found: set.version,
                expected: ResultSet::VERSION,
            });
        }
        Ok(set)
    }

    /// Writes the set to a file.
    ///
    /// # Errors
    ///
    /// I/O errors from the filesystem.
    pub fn save(&self, path: &Path) -> Result<(), LoadError> {
        fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads a set from a file.
    ///
    /// # Errors
    ///
    /// See [`LoadError`].
    pub fn load(path: &Path) -> Result<Self, LoadError> {
        ResultSet::from_json(&fs::read_to_string(path)?)
    }

    /// Loads a set and verifies it was collected under `expected`
    /// calibration.
    ///
    /// # Errors
    ///
    /// [`LoadError::CalibrationMismatch`] in addition to the load errors.
    pub fn load_for(path: &Path, expected: &Calibration) -> Result<Self, LoadError> {
        let set = ResultSet::load(path)?;
        if &set.calibration != expected {
            return Err(LoadError::CalibrationMismatch);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentPoint;
    use crate::sweep::run_sweep;

    fn tiny_set() -> ResultSet {
        let cal = Calibration::paper();
        let points = vec![ExperimentPoint::default(); 3];
        let results = run_sweep(&points, &cal, 100, 5, 2);
        ResultSet::new(cal, 100, 5, results)
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let set = tiny_set();
        let back = ResultSet::from_json(&set.to_json().unwrap()).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn file_round_trip() {
        let set = tiny_set();
        let dir = std::env::temp_dir().join("kafka_predict_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        set.save(&path).unwrap();
        let back = ResultSet::load(&path).unwrap();
        assert_eq!(set, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_detected() {
        let mut set = tiny_set();
        set.version = 999;
        let json = serde_json::to_string(&set).unwrap();
        match ResultSet::from_json(&json) {
            Err(LoadError::VersionMismatch { found: 999, .. }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn calibration_mismatch_detected() {
        let set = tiny_set();
        let dir = std::env::temp_dir().join("kafka_predict_dataset_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        set.save(&path).unwrap();
        let mut other = Calibration::paper();
        other.max_retries += 1;
        match ResultSet::load_for(&path, &other) {
            Err(LoadError::CalibrationMismatch) => {}
            o => panic!("expected calibration mismatch, got {o:?}"),
        }
        assert!(ResultSet::load_for(&path, &Calibration::paper()).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match ResultSet::load(Path::new("/nonexistent/nowhere.json")) {
            Err(LoadError::Io(_)) => {}
            o => panic!("expected io error, got {o:?}"),
        }
    }
}
