//! `bench` — the harness that regenerates every table and figure of the
//! paper.
//!
//! Every experiment is defined declaratively by a committed
//! `scenarios/*.toml` document (embedded by [`spec::builtin`]); the
//! [`exec`] module materialises a spec into figure/table data, and
//! [`figures`] holds the effort knob, the row types, the shared training
//! design and the `--quick` model options. The `repro` binary resolves a
//! target name to its document and prints the result; it trains one model
//! per process, the paper's at full effort, and passes it to every
//! executor that predicts or plans with it. The repo's `benchmark/`
//! package times the same code paths. [`report`] is the one way to look
//! inside a run: `repro report` (a sweep's first point or a trace demo)
//! and `repro profile` (the profiled smoke run) write its run report.
//!
//! | Paper artefact | `repro` target | Executor |
//! |---|---|---|
//! | Fig. 4 (P_l vs message size) | `fig4` | [`exec::sweep`] |
//! | Fig. 5 (P_l vs message timeout) | `fig5` | [`exec::sweep`] |
//! | Fig. 6 (P_l vs polling interval) | `fig6` | [`exec::sweep`] |
//! | Fig. 7 (P_l vs loss × batch × semantics) | `fig7` | [`exec::sweep`] |
//! | Fig. 8 (P_d vs batch) | `fig8` | [`exec::sweep`] |
//! | Fig. 9 (network trace) | `fig9` | [`exec::network_trace`] |
//! | Fig. 3 (collection design) | `collection` | [`exec::collection_sizes`] |
//! | §III-G (ANN accuracy) | `ann` | [`exec::collect_training`], [`kafka_predict::train_model`] |
//! | Eq. 2 (weighted KPI) | `kpi` | [`exec::kpi_grid`] |
//! | Table I (delivery cases) | `table1` | [`exec::table1`] |
//! | Table II (dynamic configuration) | `table2` | [`exec::table2`] |
//! | Figs. 4–6 predicted-vs-measured overlay | `overlay` | [`exec::overlay`] |
//! | EXT-1 broker failure (future work) | `ext-outage` | [`exec::sweep`] |
//! | EXT-2 retry strategy (future work) | `ext-retries` | [`exec::sweep`] |
//! | EXT-3 online control (future work) | `ext-online` | [`exec::online_compare`] |
//! | EXT-4 broker-fault matrix | `broker-faults` | [`exec::broker_fault_matrix`] |
//! | ABL-1 transport ablation | `ablation-transport` | [`exec::sweep`] |
//! | ABL-2 service-jitter ablation | `ablation-jitter` | [`exec::sweep`] |

#![forbid(unsafe_code)]

pub mod exec;
pub mod figures;
pub mod render;
pub mod report;
