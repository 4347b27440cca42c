//! `bench` — the harness that regenerates every table and figure of the
//! paper.
//!
//! Every experiment is defined declaratively in the [`spec`] crate (the
//! built-in corpus, mirrored by the committed `scenarios/*.toml` files);
//! the [`exec`] module materialises a spec into figure/table data, and
//! [`figures`] exposes one named wrapper per paper artefact. The `repro`
//! binary prints them; the repo's `benchmark/` package times the same
//! code paths.
//!
//! | Paper artefact | Scenario | Function |
//! |---|---|---|
//! | Fig. 4 (P_l vs message size) | `fig4` | [`figures::fig4`] |
//! | Fig. 5 (P_l vs message timeout) | `fig5` | [`figures::fig5`] |
//! | Fig. 6 (P_l vs polling interval) | `fig6` | [`figures::fig6`] |
//! | Fig. 7 (P_l vs loss × batch × semantics) | `fig7` | [`figures::fig7`] |
//! | Fig. 8 (P_d vs batch) | `fig8` | [`figures::fig8`] |
//! | Fig. 9 (network trace) | `fig9` | [`figures::fig9`] |
//! | Fig. 3 (collection design) | `collection` | [`figures::collection_summary`] |
//! | §III-G (ANN accuracy) | `ann` | [`figures::ann_accuracy`] |
//! | Eq. 2 (weighted KPI) | `kpi` | [`figures::kpi_sweep`] |
//! | Table I (delivery cases) | `table1` | [`figures::table1`] |
//! | Table II (dynamic configuration) | `table2` | [`figures::table2`] |
//! | Figs. 4–6 predicted-vs-measured overlay | `overlay` | [`figures::prediction_overlay`] |
//! | EXT-1 broker failure (future work) | `ext-outage` | [`figures::ext_broker_outage`] |
//! | EXT-2 retry strategy (future work) | `ext-retries` | [`figures::ext_retry_strategy`] |
//! | EXT-3 online control (future work) | `ext-online` | [`figures::ext_online`] |
//! | EXT-4 broker-fault matrix | `broker-faults` | [`figures::ext_broker_faults`] |
//! | ABL-1 transport ablation | `ablation-transport` | [`figures::ablation_early_retransmit`] |
//! | ABL-2 service-jitter ablation | `ablation-jitter` | [`figures::ablation_service_jitter`] |

#![forbid(unsafe_code)]

pub mod exec;
pub mod figures;
pub mod render;
pub mod report;
