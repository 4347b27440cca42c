//! The metric dictionary: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test holds
//! the two together); `README.md` says what each one means.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

const LO: &str = "lower";
const HI: &str = "higher";

/// What a user of the system sees. Every workload reports every one of
/// them, non-zero, from a run with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", LO),
    def("msgs_per_s", "1/s", HI),
    def("round_wall_s", "s", LO),
    def("job_p50_us", "us", LO),
    def("job_tail_us", "us", LO),
    def("peak_rss_mb", "MB", LO),
];

/// Single-layer metrics, reported by the traced run. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // desim
    def("desim.events_fired", "count", LO),
    def("desim.events_per_msg", "ratio", LO),
    def("desim.ns_per_event", "ns", LO),
    def("desim.minq.ops_per_s", "1/s", HI),
    def("desim.minq.deep_ops_per_s", "1/s", HI),
    def("desim.engine.events_per_s", "1/s", HI),
    def("desim.run-slice.self_share", "ratio", LO),
    // netsim
    def("netsim.packets_offered", "count", LO),
    def("netsim.packets_lost", "count", LO),
    def("netsim.bytes_delivered", "B", LO),
    def("netsim.packets_per_msg", "ratio", LO),
    def("netsim.wire_efficiency", "ratio", HI),
    def("netsim.conn_resets", "count", LO),
    def("netsim.channel.records_per_s", "1/s", HI),
    def("netsim.channel.packets_per_s", "1/s", HI),
    def("netsim.channel.resets_per_s", "1/s", HI),
    // kafkasim
    def("kafkasim.runs", "count", HI),
    def("kafkasim.run.busy_s", "s", LO),
    def("kafkasim.requests_sent", "count", LO),
    def("kafkasim.retries", "count", LO),
    def("kafkasim.retry_ratio", "ratio", LO),
    def("kafkasim.expired", "count", LO),
    def("kafkasim.records_appended", "count", HI),
    def("kafkasim.msgs_lost", "count", LO),
    def("kafkasim.msgs_duplicated", "count", LO),
    def("kafkasim.delivered_ratio", "ratio", HI),
    def("kafkasim.span.setup.self_share", "ratio", LO),
    def("kafkasim.span.poll-source.self_share", "ratio", LO),
    def("kafkasim.span.batch-form.self_share", "ratio", LO),
    def("kafkasim.span.dispatch.self_share", "ratio", LO),
    def("kafkasim.span.request-pump.self_share", "ratio", LO),
    def("kafkasim.span.append.self_share", "ratio", LO),
    def("kafkasim.span.housekeeping.self_share", "ratio", LO),
    def("kafkasim.span.audit.self_share", "ratio", LO),
    def("kafkasim.span.other.self_share", "ratio", LO),
    def("kafkasim.audit.rows_per_s", "1/s", HI),
    def("kafkasim.setup.us_per_run", "us", LO),
    def("kafkasim.log.append_rows_per_s", "1/s", HI),
    def("kafkasim.fleet.events_fired", "count", LO),
    def("kafkasim.fleet.events_per_s", "1/s", HI),
    def("kafkasim.fleet.rebalances", "count", LO),
    def("kafkasim.fleet.round-robin.wall_share", "ratio", LO),
    def("kafkasim.fleet.key-hash.wall_share", "ratio", LO),
    def("kafkasim.fleet.locality.wall_share", "ratio", LO),
    // obs, and this benchmark's own tracing
    def("obs.noop_over_untraced", "ratio", LO),
    def("obs.profiled_over_untraced", "ratio", LO),
    def("obs.ring.events_per_s", "1/s", HI),
    def("obs.trace_events", "count", LO),
    def("trace.overhead_ratio", "ratio", LO),
    def("trace.attributed_share", "ratio", HI),
    // annet
    def("annet.train.row_epochs_per_s", "1/s", HI),
    def("annet.train.flops", "flop", LO),
    def("annet.train.gflops_per_s", "Gflop/s", HI),
    def("annet.predict.rows_per_s", "1/s", HI),
    def("annet.matmul.gflops_per_s", "Gflop/s", HI),
    def("annet.incremental.steps_per_s", "1/s", HI),
    // core
    def("core.train.wall_s", "s", LO),
    def("core.train.model_mae", "ratio", LO),
    def("core.predict.scalar_rows_per_s", "1/s", HI),
    def("core.predict.batch_rows_per_s", "1/s", HI),
    def("core.predict.cached_rows_per_s", "1/s", HI),
    def("core.cache.hit_ratio", "ratio", HI),
    def("core.replan.greedy_per_s", "1/s", HI),
    def("core.replan.grid_per_s", "1/s", HI),
    def("core.policy.frozen.decides_per_s", "1/s", HI),
    def("core.policy.online.decides_per_s", "1/s", HI),
    def("core.policy.bandit.decides_per_s", "1/s", HI),
    def("core.policy.online.refits", "count", LO),
    def("core.policy.online.refit_ms", "ms", LO),
    // perfmodel
    def("perfmodel.kpi.evals_per_s", "1/s", HI),
    // spec
    def("spec.parse.docs_per_s", "1/s", HI),
    def("spec.parse.bytes_per_s", "B/s", HI),
    def("spec.roundtrip_failures", "count", LO),
    // testbed
    def("testbed.collect.runs_per_s", "1/s", HI),
    def("testbed.collect.msgs_per_s", "1/s", HI),
    def("testbed.dynamic.msgs_per_s", "1/s", HI),
    def("testbed.sweep.points", "count", HI),
    // bench
    def("bench.render.bytes", "B", LO),
    def("bench.render.bytes_per_s", "B/s", HI),
    def("pipeline.stage.parse.share", "ratio", LO),
    def("pipeline.stage.collect.share", "ratio", LO),
    def("pipeline.stage.train.share", "ratio", LO),
    def("pipeline.stage.predict.share", "ratio", LO),
    def("pipeline.stage.plan.share", "ratio", LO),
    def("pipeline.stage.dynamic.share", "ratio", LO),
    def("pipeline.stage.render.share", "ratio", LO),
    // the harness itself: the noise band each end-to-end delta is read against
    def("harness.rounds", "count", HI),
    def("harness.decide_samples", "count", HI),
    def("harness.msgs_per_s.p50", "1/s", HI),
    def("harness.msgs_per_s.iqr", "1/s", LO),
    def("harness.round_wall_s.p50", "s", LO),
    def("harness.round_wall_s.iqr", "s", LO),
    def("harness.train_rows_per_s.p50", "1/s", HI),
    def("harness.train_rows_per_s.iqr", "1/s", LO),
    def("harness.traced_round_wall_s", "s", LO),
    def("harness.point0.oneshot_msgs_per_s", "1/s", HI),
    def("harness.point0.p50_msgs_per_s", "1/s", HI),
    def("harness.point0.min_msgs_per_s", "1/s", HI),
];

/// Measured values by metric name. Setting a name the dictionary does not
/// hold is a bug in the benchmark, not a measurement, and panics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            lookup(name).is_some(),
            "metric {name} is not in the dictionary"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name.to_string(), value);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Metrics) {
        for (name, &value) in &other.0 {
            self.0.insert(name.clone(), value);
        }
    }

    /// The `metrics` object of the result line: exactly the names of `defs`.
    #[must_use]
    pub fn to_json(&self, defs: &[MetricDef]) -> serde_json::Value {
        serde_json::Value::Map(
            defs.iter()
                .map(|d| {
                    let entry = serde_json::json!({"value": self.get(d.name), "unit": d.unit});
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }
}

#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn dictionary_names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(d.better == LO || d.better == HI);
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.contains(&def("setup_s", "s", LO)));
    }

    /// `BENCHMARK.json` at the repo root declares exactly this dictionary.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(serde_json::Value::as_seq)
                .expect("a list of metrics")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        let v = m.get(k).and_then(serde_json::Value::as_str);
                        v.expect("a string field").to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let declared: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, declared, "{key} differs from the dictionary");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(serde_json::Value::as_seq)
            .expect("a list of workloads")
            .iter()
            .map(|w| w.get("name").and_then(serde_json::Value::as_str))
            .map(|name| name.expect("a workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn json_holds_exactly_the_asked_names() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("desim.events_fired", 7.0);
        let json = serde_json::to_string(&m.to_json(END_TO_END)).unwrap();
        assert!(json.starts_with("{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert!(!json.contains("desim"));
        assert_eq!(m.get("desim.events_fired"), 7.0);
        assert_eq!(m.get("desim.events_per_msg"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in the dictionary")]
    fn undeclared_names_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
