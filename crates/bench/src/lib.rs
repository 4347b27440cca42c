//! `bench` — the harness that regenerates every table and figure of the
//! paper.
//!
//! Every experiment is defined declaratively by a committed
//! `scenarios/*.toml` document (embedded by [`spec::builtin`]).
//! [`exec::run_document`] is the one run path of every target: it runs a
//! document's experiment through the [`exec`] function of its kind,
//! renders the rows in [`render`], and returns the text with its JSON,
//! taking the model of every document that predicts or plans from one
//! [`exec::ModelMemo`], so a process trains once. [`figures`] holds the
//! effort knob, the row types, the shared training design and the
//! `--quick` model options. The `repro` binary parses flags, does the file
//! I/O they name and prints; README's target table maps each paper
//! artefact to its target. The repo's `benchmark/` package times the same
//! code paths. [`report`] is the one way to look inside a run: `repro
//! report` (a sweep's first point or a trace demo) and `repro profile`
//! (the profiled smoke run) write its run report.

#![forbid(unsafe_code)]

pub mod exec;
pub mod figures;
pub mod render;
pub mod report;
