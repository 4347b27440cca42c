//! A trained model's bytes exist once: its JSON is written without a tree
//! in between, and its clones share the heads until one is refitted.
//!
//! One paper-topology model (three 200/200/200/64 heads, about 2.2 MB of
//! weights) goes through three gates, in order:
//!
//! 1. `to_json` raises the process's resident high-water mark by at most
//!    1.5x the length of the JSON it returns: the text itself plus the
//!    slack of its growing buffer. Building a `Value` tree first costs
//!    about 4x.
//! 2. Eight clones raise it by less than one head's weights: a clone bumps
//!    reference counts, it copies no weight.
//! 3. Refitting one clone (`head_mut` plus an `IncrementalTrainer` step)
//!    copies only the head it refits, and the original's predictions and
//!    JSON bytes stay bit for bit what they were.
//!
//! The peak is read as `VmHWM` from `/proc/self/status`, as in
//! `testbed/tests/heap_per_message.rs`: a counting allocator would need
//! `unsafe`. This file is its own test binary holding one test, so no other
//! test's allocations share the process while it measures.

#![cfg(target_os = "linux")]

use annet::{Dataset, IncrementalTrainer, TrainConfig};
use desim::SimRng;
use kafka_predict::model::Topology;
use kafka_predict::{Features, Predictor, ReliabilityModel};
use kafkasim::config::DeliverySemantics;

/// The process's resident-set high-water mark in bytes.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("Linux reports VmHWM");
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a count of kB");
    kb * 1024
}

/// A few feature rows across the three heads.
fn probes() -> Vec<Features> {
    let semantics = [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
        DeliverySemantics::All,
    ];
    (0..12)
        .map(|i| Features {
            semantics: semantics[i % 3],
            loss_rate: 0.02 * i as f64,
            delay_ms: 5.0 + 20.0 * i as f64,
            batch_size: 1 + i,
            ..Features::default()
        })
        .collect()
}

fn bits(model: &ReliabilityModel, rows: &[Features]) -> Vec<(u64, u64)> {
    model
        .predict_batch(rows)
        .iter()
        .map(|p| (p.p_loss.to_bits(), p.p_dup.to_bits()))
        .collect()
}

#[test]
fn a_models_bytes_exist_once() {
    let model = ReliabilityModel::new(Topology::Paper, &mut SimRng::seed_from_u64(37));
    let rows = probes();
    let predicted = bits(&model, &rows);
    let head_bytes = 8 * model.head(DeliverySemantics::AtMostOnce).parameter_count() as u64;

    // 1. Streaming serialisation.
    let before = vm_hwm_bytes();
    let json = model.to_json().expect("the model serialises");
    let growth = vm_hwm_bytes() - before;
    let len = json.len() as u64;
    eprintln!("to_json: {len} B of JSON, VmHWM grew {growth} B");
    assert!(
        2 * growth <= 3 * len,
        "to_json grew VmHWM by {growth} B for {len} B of JSON (budget 1.5x)"
    );

    // 2. Clones share the heads.
    let before = vm_hwm_bytes();
    let clones: Vec<ReliabilityModel> = (0..8).map(|_| model.clone()).collect();
    let growth = vm_hwm_bytes() - before;
    eprintln!("8 clones: VmHWM grew {growth} B, one head is {head_bytes} B");
    assert!(
        growth < head_bytes,
        "eight clones grew VmHWM by {growth} B, one head's weights are {head_bytes} B"
    );

    // 3. Copy-on-write: refit one clone's at-least-once head.
    let mut refit = clones.into_iter().next().expect("eight clones");
    let x: Vec<Vec<f64>> = rows.iter().map(Features::scaled_head_vector).collect();
    let y = vec![vec![1.0, 1.0]; rows.len()];
    let data = Dataset::from_rows(x, y).expect("aligned rows");
    let config = TrainConfig {
        epochs: 1,
        learning_rate: 0.5,
        batch_size: rows.len(),
        shuffle: false,
        momentum: 0.0,
    };
    let head = refit.head_mut(DeliverySemantics::AtLeastOnce);
    let mut trainer = IncrementalTrainer::new(head);
    let order: Vec<usize> = (0..rows.len()).collect();
    trainer.step(head, &data, &order, &config);

    assert_ne!(bits(&refit, &rows), predicted, "the refit changed nothing");
    assert_eq!(
        bits(&model, &rows),
        predicted,
        "the refit moved the original"
    );
    assert!(
        model.to_json().expect("the model serialises") == json,
        "the refit moved the original's JSON"
    );
    for (semantics, shared) in [
        (DeliverySemantics::AtMostOnce, true),
        (DeliverySemantics::AtLeastOnce, false),
        (DeliverySemantics::All, true),
    ] {
        assert_eq!(
            std::ptr::eq(model.head(semantics), refit.head(semantics)),
            shared,
            "{semantics:?} head shared"
        );
    }
}
