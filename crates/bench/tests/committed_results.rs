//! The committed `results/*.txt` of the targets that run in milliseconds,
//! byte for byte: each target is rerun at its default effort and seed and
//! its output compared with the text in `results/`.
//!
//! `broker-faults` covers held `acks=all` responses, leader failover and
//! connection teardown; `trace` covers the per-message trace, connection
//! epochs included; `fleet` covers the flow-level fleet engine. A change
//! that moves one of these texts has changed what the simulation does.
//! `table1`, `kpi`, `fig9` and `collection` run no simulation: they cover
//! the Fig. 2 state machine, the Eq. 2 KPI, the Fig. 9 trace generator and
//! the Fig. 3 collection grids.

use std::path::PathBuf;
use std::process::Command;

fn committed(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn fast_targets_reproduce_their_committed_texts() {
    for (target, file) in [
        ("broker-faults", "broker_faults.txt"),
        ("trace", "trace.txt"),
        ("fleet", "fleet.txt"),
        ("table1", "table1.txt"),
        ("kpi", "kpi.txt"),
        ("fig9", "fig9.txt"),
        ("collection", "collection.txt"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(target)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{target}: {stderr}");
        assert!(stderr.is_empty(), "{target} wrote to stderr: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        assert!(
            stdout == committed(file),
            "repro {target} no longer prints results/{file}:\n{stdout}"
        );
    }
}
