//! Acceptance pin for the committed `regime-shift` scenario (CPL-1).
//!
//! The control-plane comparison only earns its keep if, on the scenario
//! the repo ships, the online-adaptive policy actually *beats* the frozen
//! planner after the network regime shifts — strictly lower mean
//! post-drift γ prediction error — while behaving identically before the
//! drift. This test runs the full pipeline (train the model at quick
//! effort, splice the regime-shift trace, run all three policies) and
//! pins those relationships, so it survives calibration tweaks but fails
//! the moment adaptation stops paying off. A second case pins the quick
//! figure's exact bytes.

#[path = "../../../tests/support/fnv1a.rs"]
mod fnv1a;

use fnv1a::fnv1a;

use bench::figures::Effort;
use bench::{exec, figures};
use spec::ExperimentSpec;

#[test]
fn online_adaptive_beats_frozen_after_the_shift() {
    let doc = spec::Spec::builtin("regime-shift").expect("committed builtin");
    let ExperimentSpec::RegimeShift(shift) = &doc.experiment else {
        panic!("regime-shift must carry a RegimeShift experiment");
    };
    let effort = Effort::quick();
    let mut memo = exec::ModelMemo::new(true, None);
    let trained = (memo.model_for(&figures::training_design(), effort))
        .expect("collection grids are large enough");
    let rows = exec::regime_shift(shift, trained.model.clone(), effort);
    assert_eq!(rows.len(), 3, "frozen, online-adaptive, bandit");

    let row = |kind: &str| -> &figures::RegimeShiftRow {
        rows.iter()
            .find(|r| r.policy == kind)
            .unwrap_or_else(|| panic!("missing {kind} row"))
    };
    let frozen = row("frozen");
    let online = row("online-adaptive");
    let bandit = row("bandit");

    // The frozen planner never refits; the online policy must have
    // detected the shift and refit at least once.
    assert_eq!(frozen.generation, 0, "frozen must not refit");
    assert!(online.generation >= 1, "online policy must refit on drift");

    // Before the drift the online policy plans with the same frozen
    // model over the same cache, so its γ trace is bit-identical.
    let pre_frozen = frozen.pre_shift_err.expect("frozen pre-drift windows");
    let pre_online = online.pre_shift_err.expect("online pre-drift windows");
    assert_eq!(
        pre_frozen.to_bits(),
        pre_online.to_bits(),
        "pre-drift the adaptive policy must match the frozen planner bit-for-bit"
    );

    // The acceptance criterion: adaptation strictly lowers the mean
    // post-drift γ prediction error.
    let post_frozen = frozen.post_shift_err.expect("frozen post-drift windows");
    let post_online = online.post_shift_err.expect("online post-drift windows");
    assert!(
        post_online < post_frozen,
        "online-adaptive post-drift γ error {post_online:.4} must be strictly \
         below frozen {post_frozen:.4}"
    );

    // The bandit baseline reports a γ trajectory in the same figure.
    assert!(
        !bandit.gamma.is_empty(),
        "bandit must report a γ trajectory alongside the model policies"
    );
    assert_eq!(bandit.generation, 0, "the bandit has no model to refit");
}

/// The figure itself, byte for byte: FNV-1a of `repro regime-shift
/// --quick` stdout, written by the commit before the policies were folded
/// onto one planning loop. A change that moves it has changed a decision.
///
/// The first run saves its collection sweep with `--save-data` and the
/// second trains on it with `--data`: both must print the same figure, so
/// the flag reaches this training target as it does `ann`.
#[test]
fn quick_figure_is_pinned() {
    let data = std::env::temp_dir().join(format!("regime-shift-{}.json", std::process::id()));
    let data = data.to_str().expect("utf-8 temp path");
    for (flag, note) in [
        ("--save-data", " results to "),
        ("--data", " cached results from "),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["regime-shift", "--quick", flag, data])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flag}: {stderr}");
        assert!(
            stderr.contains(note),
            "{flag} did not say {note:?}: {stderr}"
        );
        let digest = fnv1a(&out.stdout);
        assert_eq!(format!("{digest:016x}"), "13be51c8629d05d5", "{flag}");
    }
    std::fs::remove_file(data).expect("the saved sweep is there");
}
