//! The digests pinned in `expected.json` for the default seed.
//!
//! The file holds, per mode (`full`, `smoke`) and workload, the digest of
//! every job of one round. It is compiled in, so a run needs no path to it;
//! `--bless` rewrites it and only a `benchmark` PR may run that.

use serde_json::Value;

use crate::digest;
use crate::workloads::Job;

/// The seed whose digests are pinned.
pub const PINNED_SEED: u64 = 42;

const PINNED: &str = include_str!("../expected.json");

pub fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The pinned job digests of a workload, if `expected.json` has them.
fn pinned(mode: &str, workload: &str) -> Option<Vec<String>> {
    let doc = serde_json::parse_value(PINNED).expect("expected.json parses");
    let jobs = doc.get(mode)?.get(workload)?.as_seq()?;
    Some(
        jobs.iter()
            .map(|j| j.as_str().expect("a hex digest").to_string())
            .collect(),
    )
}

/// Compares one round's jobs with the pinned digests; the error names the
/// first job that differs.
pub fn check(mode: &str, workload: &str, jobs: &[Job]) -> Result<(), String> {
    let Some(pinned) = pinned(mode, workload) else {
        return Err(format!(
            "expected.json pins no {mode} digests for {workload}; run --bless"
        ));
    };
    if pinned.len() != jobs.len() {
        return Err(format!(
            "expected.json pins {} jobs for {workload}, the round ran {}",
            pinned.len(),
            jobs.len()
        ));
    }
    for (i, (job, want)) in jobs.iter().zip(&pinned).enumerate() {
        let got = digest::hex(job.digest);
        if &got != want {
            return Err(format!(
                "job {i} ({}) digests to {got}, expected.json pins {want}",
                job.label
            ));
        }
    }
    Ok(())
}

/// Renders `expected.json` from one round of every workload in both modes.
pub fn render(entries: &[(&str, &str, Vec<Job>)]) -> String {
    let mut modes: Vec<(String, Value)> = Vec::new();
    for (mode, workload, jobs) in entries {
        let digests = Value::Seq(
            jobs.iter()
                .map(|j| Value::Str(digest::hex(j.digest)))
                .collect(),
        );
        let entry = ((*workload).to_string(), digests);
        match modes.iter_mut().find(|(m, _)| m == mode) {
            Some((_, Value::Map(workloads))) => workloads.push(entry),
            _ => modes.push(((*mode).to_string(), Value::Map(vec![entry]))),
        }
    }
    let mut text = serde_json::to_string_pretty(&Value::Map(modes)).expect("digests serialise");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, digest: u64) -> Job {
        Job {
            label: label.into(),
            ns: 0,
            msgs: 0,
            digest,
            error: None,
        }
    }

    #[test]
    fn every_workload_is_pinned_in_both_modes() {
        for mode in ["full", "smoke"] {
            for workload in crate::WORKLOADS {
                let jobs = pinned(mode, workload);
                assert!(
                    jobs.is_some_and(|j| !j.is_empty()),
                    "{mode}/{workload} is not pinned"
                );
            }
        }
    }

    #[test]
    fn a_mismatch_names_the_first_differing_job() {
        let want = pinned("smoke", "sim-steady").expect("pinned");
        let mut jobs: Vec<Job> = want
            .iter()
            .enumerate()
            .map(|(i, hex)| job(&format!("run {i}"), u64::from_str_radix(hex, 16).unwrap()))
            .collect();
        assert_eq!(check("smoke", "sim-steady", &jobs), Ok(()));
        jobs[2].digest ^= 1;
        jobs[3].digest ^= 1;
        let err = check("smoke", "sim-steady", &jobs).unwrap_err();
        assert!(err.starts_with("job 2 (run 2) digests to"), "{err}");
        jobs.pop();
        assert!(check("smoke", "sim-steady", &jobs)
            .unwrap_err()
            .contains("the round ran"));
        assert!(check("smoke", "no-such", &jobs)
            .unwrap_err()
            .contains("--bless"));
    }

    #[test]
    fn render_groups_workloads_by_mode() {
        let text = render(&[
            ("full", "a", vec![job("x", 1)]),
            ("full", "b", vec![job("y", 2), job("z", 3)]),
            ("smoke", "a", vec![job("x", 4)]),
        ]);
        let doc = serde_json::parse_value(&text).unwrap();
        let b = doc.get("full").and_then(|m| m.get("b")).unwrap();
        assert_eq!(b.as_seq().unwrap().len(), 2);
        let a = doc.get("smoke").and_then(|m| m.get("a")).unwrap();
        assert_eq!(a.as_seq().unwrap()[0].as_str(), Some("0000000000000004"));
    }
}
