//! `repro` — regenerate the paper's tables and figures from declarative
//! scenario documents.
//!
//! ```text
//! repro <target> [--messages N] [--quick] [--seed S] [--json]
//! repro run-spec FILE.toml [flags...]      # run any scenario document
//! repro list-scenarios [DIR]               # list the corpus (or DIR's)
//! repro validate-scenarios [DIR]           # parse + validate DIR's documents
//!
//! targets:
//!   fig4 fig5 fig6 fig7 fig8 fig9 collection ann kpi table1 table2 fleet all
//! ```
//!
//! Every named target resolves to its committed scenario document
//! (`scenarios/<target>.toml`, embedded by `spec::builtin`) and runs
//! through the same executor as `run-spec`; `--json` dumps
//! machine-readable output instead.

use std::path::Path;

use bench::exec;
use bench::figures::{self, Effort};
use bench::render;
use kafka_predict::prelude::{train_model, TrainOptions, TrainedModel};
use spec::{CollectionDesign, ExperimentSpec, Spec};

struct Args {
    effort: Effort,
    quick: bool,
    json: bool,
    data: Option<String>,
    save_data: Option<String>,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<(String, Option<String>, Args), String> {
    let mut argv = std::env::args().skip(1);
    let target = argv.next().ok_or_else(usage)?;
    let mut operand = None;
    let mut effort = Effort::full();
    let mut quick = false;
    let mut messages = None;
    let mut json = false;
    let mut data = None;
    let mut save_data = None;
    let mut trace_out = None;
    let mut out = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--grid" => effort.grid_planner = true,
            "--json" => json = true,
            "--messages" => {
                let v = argv.next().ok_or("--messages needs a value")?;
                let n = v.parse().map_err(|_| format!("bad message count {v}"))?;
                // Rejected here for every target, the ones that ignore the
                // flag included: a run spec of zero messages is invalid, and
                // a worker thread finding that out is a panic.
                if n == 0 {
                    return Err("--messages must be at least 1".into());
                }
                messages = Some(n);
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                effort.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                effort.threads = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if effort.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--data" => data = Some(argv.next().ok_or("--data needs a path")?),
            "--save-data" => save_data = Some(argv.next().ok_or("--save-data needs a path")?),
            "--trace-out" => trace_out = Some(argv.next().ok_or("--trace-out needs a path")?),
            "--out" => out = Some(argv.next().ok_or("--out needs a directory")?),
            other if !other.starts_with("--") && operand.is_none() => {
                operand = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    // `--quick` lowers only the default message count (and trains the
    // compact model), so every other flag holds wherever it stands, and an
    // explicit `--messages` wins over it in either order.
    let defaults = if quick {
        Effort::quick()
    } else {
        Effort::full()
    };
    effort.messages = messages.unwrap_or(defaults.messages);
    Ok((
        target,
        operand,
        Args {
            effort,
            quick,
            json,
            data,
            save_data,
            trace_out,
            out,
        },
    ))
}

fn usage() -> String {
    "usage: repro <fig4|fig5|fig6|fig7|fig8|fig9|collection|ann|kpi|table1|table2|overlay|sensitivity|ext-outage|ext-online|ext-retries|broker-faults|ablation-transport|ablation-jitter|trace|fleet|regime-shift|all> \
     [--messages N] [--quick] [--grid] [--seed S] [--threads T] [--json] [--data FILE] [--save-data FILE] [--trace-out FILE.jsonl]\n\
     \x20      (--threads sizes every untraced grid, fixed-seed sweeps and the broker-fault matrix included, and the grid planner; a fleet runs on one thread)\n\
     \x20      repro run-spec FILE.{toml|json} [flags as above]\n\
     \x20      repro list-scenarios [DIR]\n\
     \x20      repro validate-scenarios [DIR]\n\
     \x20      repro profile [--out DIR] [--seed S] [--messages N]\n\
     \x20      repro report [SCENARIO|FILE.toml] [--out DIR] [--seed S] [--messages N]"
        .to_string()
}

fn main() {
    let (target, operand, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut model = None;
    match target.as_str() {
        "list-scenarios" => list_scenarios(operand.as_deref()),
        "validate-scenarios" => validate_scenarios(operand.as_deref().unwrap_or("scenarios")),
        "profile" => profile(&args),
        "report" => report(operand.as_deref(), &args),
        "run-spec" => {
            let Some(file) = operand else {
                eprintln!("run-spec needs a scenario file\n{}", usage());
                std::process::exit(2);
            };
            let doc = match spec::io::load(Path::new(&file)) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("{file}: {e}");
                    std::process::exit(1);
                }
            };
            run_document(&doc, &args, &mut model);
        }
        "all" => {
            for doc in spec::builtin::all() {
                run_document(&doc, &args, &mut model);
            }
        }
        name => match Spec::builtin(name) {
            Some(doc) => run_document(&doc, &args, &mut model),
            None => {
                eprintln!("unknown target {name}\n{}", usage());
                std::process::exit(2);
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Observability subcommands
// ---------------------------------------------------------------------------

/// `repro profile` — runs the full-stack profiled smoke scenario and
/// writes the Chrome trace, folded stacks and windowed KPIs.
fn profile(args: &Args) {
    let dir = args.out.as_deref().unwrap_or("target/profile");
    let smoke = bench::report::profile_smoke(args.effort);
    let written = match bench::report::write_profile(&smoke, Path::new(dir)) {
        Ok(written) => written,
        Err(e) => {
            eprintln!("cannot write profile to {dir}: {e}");
            std::process::exit(1);
        }
    };
    if args.json {
        println!(
            "{}",
            serde_json::to_string(&serde_json::json!({
                "events": smoke.events,
                "windows": smoke.windows.rows.len(),
                "span_paths": smoke.profile.spans.len(),
                "span_events": smoke.profile.events.len(),
                "root_total_ns": smoke.profile.root_total_ns(),
                "files": written,
            }))
            .expect("serialisable")
        );
        return;
    }
    println!(
        "profiled smoke run: {} trace events, {} windows, {} span paths, \
         {:.1} ms profiled wall-clock (P_l {:.4})",
        smoke.events,
        smoke.windows.rows.len(),
        smoke.profile.spans.len(),
        smoke.profile.root_total_ns() as f64 / 1e6,
        smoke.report.p_loss(),
    );
    for path in &written {
        println!("  wrote {path}");
    }
    println!("open trace.json at https://ui.perfetto.dev (or chrome://tracing)");
}

/// `repro report` — generates the self-describing run report for one
/// scenario (built-in name or document path; defaults to `fig4`, the
/// scenario whose document carries a `[report]` block).
fn report(operand: Option<&str>, args: &Args) {
    let target = operand.unwrap_or("fig4");
    let doc = if Path::new(target).is_file() {
        match spec::io::load(Path::new(target)) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{target}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match Spec::builtin(target) {
            Some(doc) => doc,
            None => {
                eprintln!("unknown scenario {target}\n{}", usage());
                std::process::exit(2);
            }
        }
    };
    let run_report = match bench::report::generate(&doc, args.effort) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let dir = args.out.as_deref().unwrap_or("target/report");
    let written = match bench::report::write_report(&run_report, Path::new(dir)) {
        Ok(written) => written,
        Err(e) => {
            eprintln!("cannot write report to {dir}: {e}");
            std::process::exit(1);
        }
    };
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&run_report.json).expect("report serialises")
        );
        return;
    }
    print!("{}", run_report.markdown);
    for path in &written {
        println!("wrote {path}");
    }
}

// ---------------------------------------------------------------------------
// Scenario-corpus subcommands
// ---------------------------------------------------------------------------

/// Loads every `*.toml` scenario in `dir`, sorted by file name. Exits
/// with an error message naming the offending file on the first failure.
fn load_dir(dir: &str) -> Vec<Spec> {
    let mut paths: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            std::process::exit(1);
        }
    };
    paths.sort();
    paths
        .iter()
        .map(|path| match spec::io::load(path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                std::process::exit(1);
            }
        })
        .collect()
}

/// The control-plane policy kinds a scenario runs: the policy list for
/// regime-shift comparisons, the implicit frozen planner for the online
/// experiment, `-` for experiments with no online control plane.
fn policy_kinds(doc: &Spec) -> String {
    match &doc.experiment {
        ExperimentSpec::RegimeShift(spec) => spec
            .policies
            .iter()
            .map(|p| p.kind.slug())
            .collect::<Vec<_>>()
            .join(","),
        ExperimentSpec::Online(_) => "frozen".to_string(),
        _ => "-".to_string(),
    }
}

/// Lists `dir`'s scenarios, or the embedded corpus when no directory is
/// named (whatever the working directory).
fn list_scenarios(dir: Option<&str>) {
    let (source, docs) = match dir {
        Some(dir) => (format!("from {dir}/"), load_dir(dir)),
        None => ("built-in".to_string(), spec::builtin::all()),
    };
    println!("{} scenarios ({source}):", docs.len());
    println!("  {:<20} {:<30} description", "name", "policy");
    for doc in &docs {
        println!(
            "  {:<20} {:<30} {}",
            doc.name,
            policy_kinds(doc),
            doc.description
        );
    }
}

/// Parses and validates every `*.toml` scenario in `dir`; [`load_dir`]
/// exits non-zero naming the first file that fails.
fn validate_scenarios(dir: &str) {
    let docs = load_dir(dir);
    println!("parsed and validated {} scenarios from {dir}/", docs.len());
}

// ---------------------------------------------------------------------------
// Running one document
// ---------------------------------------------------------------------------

/// The one trained model of a `repro` process, with the collection design
/// it was trained on.
type ModelMemo = Option<(CollectionDesign, TrainedModel)>;

fn run_document(doc: &Spec, args: &Args, model: &mut ModelMemo) {
    match &doc.experiment {
        ExperimentSpec::Table1(cases) => table1(doc, cases, args.json),
        ExperimentSpec::Collection(design) => collection(doc, design, args.json),
        ExperimentSpec::Sweep(sweep) => series(
            &doc.title,
            &sweep.x_label,
            &sweep.metric,
            &exec::sweep(sweep, args.effort),
            args.json,
        ),
        ExperimentSpec::NetworkTrace(trace) => fig9(doc, trace, args.effort.seed, args.json),
        ExperimentSpec::Train(train) => ann(doc, model_for(&train.collection, args, model), args),
        ExperimentSpec::KpiGrid(grid) => kpi(doc, grid, args.json),
        ExperimentSpec::Table2(table) => table2(doc, table, args, model),
        ExperimentSpec::Overlay(overlay) => {
            let trained = model_for(&overlay.collection, args, model);
            let (series_data, mae) = exec::overlay(overlay, &trained.model, args.effort);
            series(&doc.title, "M (bytes)", "P_l", &series_data, args.json);
            if !args.json {
                println!("overlay MAE vs fresh measurements: {mae:.4}\n");
            }
        }
        ExperimentSpec::Sensitivity(sens) => sensitivity(doc, sens, args),
        ExperimentSpec::BrokerFaultMatrix(matrix) => broker_faults(doc, matrix, args),
        ExperimentSpec::Online(online) => ext_online(doc, online, args, model),
        ExperimentSpec::TraceDemo(demo) => trace_demo(doc, demo, args),
        ExperimentSpec::Fleet(fleet) => fleet_report(doc, fleet, args),
        ExperimentSpec::RegimeShift(shift) => regime_shift(doc, shift, args, model),
    }
}

fn fleet_report(doc: &Spec, fleet: &spec::FleetSpec, args: &Args) {
    let rows = exec::fleet(fleet, args.effort);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!(
        "{} producers, {} partitions, {} consumers ({} assignor), {} scripted churn events, {}s",
        fleet.producers,
        fleet.partitions,
        fleet.consumers,
        fleet.assignor.name(),
        fleet.churn.len(),
        fleet.duration_s
    );
    for row in &rows {
        let loss_pct = if row.produced == 0 {
            0.0
        } else {
            100.0 * row.lost as f64 / row.produced as f64
        };
        println!(
            "\n-- {} --  skew {:.2}  produced {}  delivered {}  lost {} ({:.2}%)  duplicated {}",
            row.strategy, row.skew, row.produced, row.delivered, row.lost, loss_pct, row.duplicated
        );
        println!(
            "   rebalances {} (moved {} partitions, {} group trace events)",
            row.rebalances, row.moved_partitions, row.group_trace_events
        );
        println!(
            "   {:<22} {:>9} {:>10} {:>10} {:>8} {:>8} {:>7} {:>6}  met",
            "class", "producers", "produced", "delivered", "P_l", "P_d", "gamma", "req"
        );
        for c in &row.classes {
            println!(
                "   {:<22} {:>9} {:>10} {:>10} {:>8.4} {:>8.4} {:>7.3} {:>6.2}  {}",
                c.class,
                c.producers,
                c.produced,
                c.delivered,
                c.p_loss,
                c.p_dup,
                c.gamma,
                c.gamma_requirement,
                if c.gamma_met { "yes" } else { "NO" }
            );
        }
    }
    println!(
        "\nkeyed routing concentrates heavy tenants (skew > 1 means a hot\n\
         partition); each membership change pauses and re-reads the moved\n\
         partitions, which shows up as duplicates in the windowed KPIs.\n"
    );
}

fn series(title: &str, x: &str, metric: &str, data: &[figures::Series], json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(data).expect("serialisable")
        );
    } else {
        println!("{}", render::render_series(title, x, metric, data));
    }
}

fn table1(doc: &Spec, cases: &spec::Table1Spec, json: bool) {
    let rows = exec::table1(cases);
    if json {
        let rows: Vec<_> = rows
            .iter()
            .map(|(case, path, ok)| {
                serde_json::json!({"case": case.to_string(), "path": path, "verified": ok})
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    for (case, path, ok) in rows {
        println!(
            "{case}: {path:<42} {}",
            if ok { "verified" } else { "MISMATCH" }
        );
    }
    println!();
}

fn collection(doc: &Spec, design: &spec::CollectionDesign, json: bool) {
    let (normal, abnormal, broker_faults) = exec::collection_sizes(design);
    if json {
        println!(
            "{}",
            serde_json::to_string(&serde_json::json!({
                "normal_points": normal,
                "abnormal_points": abnormal,
                "broker_fault_points": broker_faults,
            }))
            .expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!("normal cases   (D < 200ms, L = 0): {normal} experiment points");
    println!("abnormal cases (faults injected):  {abnormal} experiment points");
    println!("broker faults  (beyond the paper): {broker_faults} experiment points");
    println!();
}

fn broker_faults(doc: &Spec, matrix: &spec::BrokerFaultMatrixSpec, args: &Args) {
    let rows = exec::broker_fault_matrix(matrix, args.effort);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!(
        "{:<9} {:<17} {:>8} {:>8} {:>6} {:>14} {:>15}",
        "acks", "scenario", "P_l", "P_d", "lost", "broker-caused", "elections(c/u)"
    );
    for r in &rows {
        println!(
            "{:<9} {:<17} {:>8.4} {:>8.4} {:>6} {:>14} {:>12}/{}",
            r.acks,
            r.scenario,
            r.p_loss,
            r.p_dup,
            r.lost,
            r.broker_caused,
            r.clean_elections,
            r.unclean_elections
        );
    }
    println!(
        "\nacks=all + clean election loses nothing; acks=1 loses the acked-but-\n\
         unreplicated tail; unclean elections lose data at every acks level,\n\
         attributed to the broker (leader-failover), not the network.\n"
    );
}

fn fig9(doc: &Spec, spec: &spec::NetworkTraceSpec, seed: u64, json: bool) {
    let trace = exec::network_trace(spec, seed);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&trace).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!(
        "{:>8} {:>10} {:>8} {:>6}",
        "t (s)", "delay(ms)", "loss", "state"
    );
    for ((t, cond), state) in trace.timeline.breakpoints().iter().zip(&trace.states) {
        println!(
            "{:>8} {:>10.1} {:>7.1}% {:>6?}",
            t.as_millis() / 1000,
            cond.delay.as_secs_f64() * 1e3,
            cond.loss_rate * 100.0,
            state
        );
    }
    println!(
        "mean loss {:.1}%, bad-state fraction {:.0}%\n",
        trace.mean_loss() * 100.0,
        trace.bad_fraction() * 100.0
    );
}

/// The collection sweep over `design`, or the results `--data` names;
/// `--save-data` writes a fresh sweep out.
fn training_results(design: &CollectionDesign, args: &Args) -> Vec<testbed::ExperimentResult> {
    use testbed::dataset::ResultSet;
    use testbed::Calibration;
    let effort = args.effort;
    if let Some(path) = &args.data {
        let set = ResultSet::load_for(Path::new(path), &Calibration::paper()).unwrap_or_else(|e| {
            eprintln!("failed to load {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("loaded {} cached results from {path}", set.results.len());
        return set.results;
    }
    let results = exec::collect_training(design, effort);
    if let Some(path) = &args.save_data {
        let set = ResultSet::new(
            Calibration::paper(),
            effort.messages,
            effort.seed,
            results.clone(),
        );
        if let Err(e) = set.save(Path::new(path)) {
            eprintln!("failed to save {path}: {e}");
        } else {
            eprintln!("saved {} results to {path}", results.len());
        }
    }
    results
}

/// The model trained on `design`: the paper's [`TrainOptions::paper`], or
/// [`figures::quick_train_options`] under `--quick`. The first target that
/// needs a model trains it into `memo`, and a later target training on the
/// same design reuses it, so `repro all` collects and trains once.
fn model_for<'m>(
    design: &CollectionDesign,
    args: &Args,
    memo: &'m mut ModelMemo,
) -> &'m TrainedModel {
    if !matches!(memo, Some((trained_on, _)) if trained_on == design) {
        let results = training_results(design, args);
        let options = if args.quick {
            figures::quick_train_options()
        } else {
            TrainOptions::paper()
        };
        let trained = train_model(&results, &options, args.effort.seed)
            .expect("collection grids are large enough");
        *memo = Some((design.clone(), trained));
    }
    &memo.as_ref().expect("trained above").1
}

fn ann(doc: &Spec, trained: &TrainedModel, args: &Args) {
    if args.json {
        println!(
            "{}",
            serde_json::to_string(&serde_json::json!({
                "amo": trained.amo, "alo": trained.alo, "all": trained.all,
                "worst_mae": trained.worst_mae()
            }))
            .expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    let mut heads = vec![
        ("at-most-once", trained.amo),
        ("at-least-once", trained.alo),
    ];
    if let Some(all) = trained.all {
        heads.push(("acks=all", all));
    }
    for (name, head) in heads {
        println!(
            "{name:>14} head: {} train / {} test samples, held-out MAE = {:.4}",
            head.train_samples, head.test_samples, head.test_mae
        );
    }
    println!("worst-head MAE: {:.4}\n", trained.worst_mae());
}

fn kpi(doc: &Spec, grid: &spec::KpiGridSpec, json: bool) {
    let predictor = figures::heuristic_predictor();
    let rows = exec::kpi_grid(grid, &predictor);
    if json {
        let rows: Vec<_> = rows
            .iter()
            .map(|(label, g)| serde_json::json!({"config": label, "gamma": g}))
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    for (label, gamma) in rows {
        println!("{label:>24}: gamma = {gamma:.3}");
    }
    println!();
}

fn sensitivity(doc: &Spec, spec: &spec::SensitivitySpec, args: &Args) {
    let rows = exec::sensitivity(spec, args.effort);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "feature", "P_l -50%", "P_l base", "P_l +50%", "impact", "selected?"
    );
    for r in &rows {
        println!(
            "{:<24} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>10}",
            r.feature.name(),
            r.down_p_loss * 100.0,
            r.base_p_loss * 100.0,
            r.up_p_loss * 100.0,
            r.impact() * 100.0,
            if r.is_selected(spec.threshold) {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!();
}

fn ext_online(doc: &Spec, spec: &spec::OnlineCompareSpec, args: &Args, model: &mut ModelMemo) {
    eprintln!("{}: training the prediction model first...", doc.name);
    let trained = model_for(&figures::training_design(), args, model);
    eprintln!(
        "{}: model trained (worst-head MAE {:.4}); running control modes...",
        doc.name,
        trained.worst_mae()
    );
    let rows = exec::online_compare(spec, trained.model.clone(), args.effort);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!(
        "{:<36} {:>8} {:>8} {:>10} {:>9}",
        "mode", "R_l", "R_d", "switches", "stale"
    );
    for row in &rows {
        let r = &row.report;
        println!(
            "{:<36} {:>7.2}% {:>7.2}% {:>10} {:>8.2}%",
            row.mode,
            r.r_loss * 100.0,
            r.r_dup * 100.0,
            r.config_switches,
            r.stale_fraction * 100.0
        );
    }
    for row in &rows {
        if let Some(m) = &row.planner_metrics {
            let hits = m.counters.get("planner-cache-hit").copied().unwrap_or(0);
            let misses = m.counters.get("planner-cache-miss").copied().unwrap_or(0);
            let evicts = m.counters.get("planner-cache-evict").copied().unwrap_or(0);
            let replans = m.counters.get("planner-replan").copied().unwrap_or(0);
            let total = hits + misses;
            let rate = if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            };
            println!(
                "\n{} planner cache: {replans} replans, {hits} hits / {misses} misses \
                 ({:.1}% hit rate), {evicts} evictions",
                row.mode,
                rate * 100.0
            );
        }
    }
    println!();
}

fn regime_shift(doc: &Spec, spec: &spec::RegimeShiftSpec, args: &Args, model: &mut ModelMemo) {
    eprintln!("{}: training the prediction model first...", doc.name);
    let trained = model_for(&figures::training_design(), args, model);
    eprintln!(
        "{}: model trained (worst-head MAE {:.4}); running {} policies over the regime shift...",
        doc.name,
        trained.worst_mae(),
        spec.policies.len()
    );
    let rows = exec::regime_shift(spec, trained.model.clone(), args.effort);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("== {} ==", doc.title);
    println!("network regime shifts at t = {}s", spec.shift_at_s);
    println!(
        "{:<18} {:>8} {:>8} {:>9} {:>12} {:>13} {:>7}",
        "policy", "R_l", "R_d", "switches", "pre-drift", "post-drift", "refits"
    );
    for row in &rows {
        let fmt = |e: Option<f64>| e.map_or("-".to_string(), |v| format!("{v:.4}"));
        println!(
            "{:<18} {:>7.2}% {:>7.2}% {:>9} {:>12} {:>13} {:>7}",
            row.policy,
            row.report.r_loss * 100.0,
            row.report.r_dup * 100.0,
            row.report.config_switches,
            fmt(row.pre_shift_err),
            fmt(row.post_shift_err),
            row.generation
        );
    }
    println!("\npre/post-drift columns: mean |γ_pred − γ_obs| per observation window");
    println!(
        "{}",
        render::render_regime_shift(&doc.title, spec.shift_at_s, &rows)
    );
}

/// The trace-demo targets: runs the spec's reliability-failure scenarios
/// with full lifecycle tracing, reconstructs a per-message timeline from
/// the events, and cross-checks it against the audit so every lost and
/// duplicated message is shown with its cause. With `--trace-out
/// base.jsonl`, each scenario's event stream is written to
/// `base-<tag>.jsonl` and re-parsed to verify the round-trip.
fn trace_demo(doc: &Spec, demo: &spec::TraceDemoSpec, args: &Args) {
    use kafkasim::runtime::KafkaRun;
    use obs::{MessageFate, RingBufferSink, TimelineReport};

    let json = args.json;
    let trace_out = args.trace_out.as_deref();
    if !json {
        println!("== {} ==", doc.title);
    }
    let mut rows = Vec::new();
    for (tag, label, spec, seed) in exec::trace_runs(demo) {
        let (outcome, mut sink) =
            KafkaRun::new(spec, seed).execute_traced(Box::new(RingBufferSink::new(1 << 22)));
        let events = exec::drain_trace(sink.as_mut(), format_args!("trace, {label}"));
        let timeline = TimelineReport::reconstruct(&events);
        let audit = kafkasim::crosscheck(&outcome.report, &timeline);

        let written = trace_out.map(|base| {
            let path = derive_trace_path(base, &tag);
            if let Err(e) = write_trace(&path, &events) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            (path, events.len())
        });

        if json {
            rows.push(serde_json::json!({
                "scenario": label,
                "seed": seed,
                "events": events.len(),
                "report": outcome.report,
                "lost_by_cause": timeline
                    .lost_by_cause()
                    .into_iter()
                    .map(|(c, n)| (c.to_string(), n))
                    .collect::<std::collections::BTreeMap<_, _>>(),
                "fully_explained": audit.fully_explains(),
                "trace_file": written.as_ref().map(|(p, _)| p.clone()),
            }));
            continue;
        }

        println!("\n-- {label} (seed {seed}) --");
        println!(
            "{} events traced; N={} delivered_once={} lost={} duplicated={}",
            events.len(),
            outcome.report.n_source,
            outcome.report.delivered_once,
            outcome.report.lost,
            outcome.report.duplicated
        );
        for (cause, n) in timeline.lost_by_cause() {
            println!("  lost via {cause}: {n}");
        }
        let mut dup_causes: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for tl in timeline.timelines() {
            if let MessageFate::Duplicated {
                cause: Some(cause), ..
            } = &tl.fate
            {
                *dup_causes.entry(cause.to_string()).or_insert(0) += 1;
            }
        }
        for (cause, n) in dup_causes {
            println!("  duplicated via {cause}: {n}");
        }
        println!(
            "  trace vs audit: {}",
            if audit.fully_explains() {
                "every lost/duplicated message attributed".to_string()
            } else {
                format!("DISCREPANCIES: {:?}", audit.discrepancies)
            }
        );
        // Show one worked example of each failure the scenario produced.
        if let Some(tl) = timeline
            .timelines()
            .find(|t| matches!(t.fate, MessageFate::Lost { .. }))
        {
            println!("  example lost message:\n{}", indent(&tl.narrate()));
        }
        if let Some(tl) = timeline
            .timelines()
            .find(|t| matches!(t.fate, MessageFate::Duplicated { .. }))
        {
            println!("  example duplicated message:\n{}", indent(&tl.narrate()));
        }
        if let Some((path, n)) = written {
            println!("  wrote {n} events to {path} (round-trip verified)");
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
    } else {
        println!();
    }
}

/// Writes `events` to `path` as JSONL, then re-reads the file and checks
/// that it parses back to the same events.
fn write_trace(path: &str, events: &[obs::TraceEvent]) -> Result<(), String> {
    use obs::TraceSink;

    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut jsonl = obs::JsonlSink::new(std::io::BufWriter::new(file));
    for e in events {
        jsonl.record(e.clone());
    }
    if jsonl.errors() > 0 {
        return Err(format!(
            "cannot write {path}: {} events failed",
            jsonl.errors()
        ));
    }
    jsonl
        .into_inner()
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = obs::parse_jsonl(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    assert_eq!(parsed, events, "JSONL round-trip preserves the trace");
    Ok(())
}

/// `base.jsonl` + `amo` → `base-amo.jsonl`.
fn derive_trace_path(base: &str, tag: &str) -> String {
    match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{tag}.{ext}"),
        _ => format!("{base}-{tag}.jsonl"),
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn table2(doc: &Spec, spec: &spec::Table2Spec, args: &Args, model: &mut ModelMemo) {
    eprintln!("{}: training the prediction model first...", doc.name);
    let trained = model_for(&figures::training_design(), args, model);
    eprintln!(
        "{}: model trained (worst-head MAE {:.4}); running scenarios...",
        doc.name,
        trained.worst_mae()
    );
    let rows = exec::table2(spec, &trained.model, args.effort);
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serialisable")
        );
        return;
    }
    println!("{}", render::render_table2(&rows));
}
