//! `kafkasim`: the partition log's append path, and the shipped span
//! profiler harvested through `KafkaRun::execute_profiled`.

use desim::{SimDuration, SimTime};
use kafkasim::broker::ProduceRecord;
use kafkasim::log::PartitionLog;
use kafkasim::message::MessageKey;
use kafkasim::runtime::KafkaRun;
use obs::{NoopSink, Profiler};

use super::{best_of, Shape};
use crate::metrics::Metrics;
use crate::workloads::{per_s, ratio};

fn append_rows(shape: &Shape, rows: u64) -> u64 {
    let mut log = PartitionLog::new(0);
    let mut batch = Vec::with_capacity(shape.batch);
    let mut key = 0;
    while key < rows {
        let at = SimTime::from_micros(key);
        batch.clear();
        batch.extend((0..shape.batch as u64).map(|i| ProduceRecord {
            key: MessageKey(key + i),
            payload_bytes: shape.message_size,
            created_at: at,
        }));
        key += batch.len() as u64;
        log.append_batch(&batch, at + SimDuration::from_millis(1));
    }
    std::hint::black_box(log.len() as u64)
}

/// One produce request of the workload's batch size per `append_batch`.
pub fn log_append(shape: &Shape, out: &mut Metrics) {
    let rows = (shape.messages * 20).clamp(10_000, 2_000_000);
    let (appended, ns) = best_of(|| append_rows(shape, rows));
    out.set("kafkasim.log.append_rows_per_s", per_s(appended as f64, ns));
}

/// The handler spans `runtime.rs` charges its events to; anything else the
/// profile holds (fault, election, replication ...) is reported as `other`.
const SPANS: [&str; 8] = [
    "setup",
    "poll-source",
    "batch-form",
    "dispatch",
    "request-pump",
    "append",
    "housekeeping",
    "audit",
];

/// Executes every run once under the PR 6 profiler and reports where the
/// run's own wall time went, as self-time shares of all profiled time.
pub fn profile(runs: impl Iterator<Item = KafkaRun>, messages: u64, out: &mut Metrics) {
    let prof = Profiler::enabled();
    let mut n_runs = 0u64;
    for run in runs {
        let _ = run.execute_profiled(Box::new(NoopSink), prof.clone());
        n_runs += 1;
    }
    let snapshot = prof.snapshot();
    let self_ns = |name: &str| -> u64 {
        let spans = snapshot.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.self_ns).sum()
    };
    let total_ns = |name: &str| -> u64 {
        let spans = snapshot.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.total_ns).sum()
    };
    let all: u64 = snapshot.spans.iter().map(|s| s.self_ns).sum();
    let share = |ns: u64| ratio(ns as f64, all as f64);
    let mut named = self_ns("desim.run-slice");
    out.set("desim.run-slice.self_share", share(named));
    for span in SPANS {
        let ns = self_ns(&format!("kafkasim.{span}"));
        named += ns;
        out.set(&format!("kafkasim.span.{span}.self_share"), share(ns));
    }
    out.set("kafkasim.span.other.self_share", share(all - named));
    out.set(
        "kafkasim.audit.rows_per_s",
        per_s((n_runs * messages) as f64, total_ns("kafkasim.audit")),
    );
    out.set(
        "kafkasim.setup.us_per_run",
        ratio(total_ns("kafkasim.setup") as f64 / 1e3, n_runs as f64),
    );
}
