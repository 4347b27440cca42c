//! Bytes per simulated message: the per-message engine's memory peak,
//! gated.
//!
//! One 60 000-message run of the `sim-steady` benchmark's point 0
//! (at-least-once, M = 200 B, B = 8, L = 2 %, D = 20 ms, full load) must
//! raise the process's resident high-water mark by at most 64 B per source
//! message. The run's peak is its audit: the producer's ledger, the
//! partition logs and the consumer's two per-key columns are all alive at
//! once. A log that kept a copy of every record's payload size and creation
//! time, or an audit that listed every consumed copy, lands above 100 B.
//!
//! The peak is read as `VmHWM` from `/proc/self/status`, not with a
//! counting global allocator: such an allocator needs `unsafe impl
//! GlobalAlloc`, and nine of the ten crates forbid `unsafe` (`ci.sh` guards
//! that). This file is its own test binary holding one test, so no other
//! test's allocations share the process while it measures.

#![cfg(target_os = "linux")]

use desim::SimDuration;
use kafkasim::runtime::KafkaRun;
use testbed::experiment::ExperimentPoint;
use testbed::Calibration;

const MESSAGES: u64 = 60_000;
const BUDGET_BYTES_PER_MESSAGE: u64 = 64;

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

#[test]
fn one_steady_run_peaks_under_64_bytes_per_source_message() {
    let point = ExperimentPoint {
        batch_size: 8,
        loss_rate: 0.02,
        delay: SimDuration::from_millis(20),
        poll_interval: SimDuration::ZERO,
        ..ExperimentPoint::default()
    };
    let run = KafkaRun::new(point.to_run_spec(&Calibration::paper(), MESSAGES), 801);
    let before = vm_hwm_bytes();
    let outcome = run.execute();
    let growth = vm_hwm_bytes() - before;
    assert_eq!(outcome.report.n_source, MESSAGES, "the run was cut short");
    let per_message = growth / MESSAGES;
    assert!(
        per_message <= BUDGET_BYTES_PER_MESSAGE,
        "VmHWM grew {growth} B over {MESSAGES} messages: {per_message} B per message \
         (budget {BUDGET_BYTES_PER_MESSAGE})"
    );
    eprintln!("VmHWM growth: {growth} B, {per_message} B per source message");
}
