//! `repro` — regenerate the paper's tables and figures from declarative
//! scenario documents.
//!
//! ```text
//! repro <target> [--messages N] [--quick] [--seed S] [--json]
//! repro run-spec FILE.toml [flags...]      # run any scenario document
//! repro check-results [--threads T]        # every target vs results/
//! repro list-scenarios [DIR]               # list the corpus (or DIR's)
//! repro validate-scenarios [DIR]           # parse + validate DIR's documents
//!
//! targets:
//!   fig4 fig5 fig6 fig7 fig8 fig9 collection ann kpi table1 table2 fleet all
//! ```
//!
//! Every named target resolves to its committed scenario document
//! (`scenarios/<target>.toml`, embedded by `spec::builtin`) and runs
//! through `bench::exec::run_document`, as `run-spec` does; `--json` prints
//! its machine-readable output instead of its text. This binary parses
//! flags, reads and writes the files they name, and prints.

use std::path::Path;

use bench::exec::{self, ModelMemo};
use bench::figures::Effort;
use bench::report::RunReport;
use spec::{ExperimentSpec, Spec};
use testbed::dataset::ResultSet;
use testbed::Calibration;

/// The command line: the target, its one operand, and the flags.
struct Args {
    target: String,
    operand: Option<String>,
    effort: Effort,
    quick: bool,
    json: bool,
    data: Option<String>,
    save_data: Option<String>,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        target: argv.next().ok_or_else(usage)?,
        operand: None,
        effort: Effort::full(),
        quick: false,
        json: false,
        data: None,
        save_data: None,
        trace_out: None,
        out: None,
    };
    let mut messages = None;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--grid" => args.effort.grid_planner = true,
            "--json" => args.json = true,
            "--messages" => {
                let v = value("a value")?;
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
                let v = value("a value")?;
                args.effort.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--threads" => {
                let v = value("a value")?;
                let threads = v.parse().map_err(|_| format!("bad thread count {v}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.effort.threads = threads;
            }
            "--data" => args.data = Some(value("a path")?),
            "--save-data" => args.save_data = Some(value("a path")?),
            "--trace-out" => args.trace_out = Some(value("a path")?),
            "--out" => args.out = Some(value("a directory")?),
            other if !other.starts_with("--") && args.operand.is_none() => {
                args.operand = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    // `--quick` lowers only the default message count (and trains the
    // compact model), so every other flag holds wherever it stands, and an
    // explicit `--messages` wins over it in either order.
    let defaults = if args.quick {
        Effort::quick()
    } else {
        Effort::full()
    };
    args.effort.messages = messages.unwrap_or(defaults.messages);
    Ok(args)
}

fn usage() -> String {
    "usage: repro <fig4|fig5|fig6|fig7|fig8|fig9|collection|ann|kpi|table1|table2|overlay|sensitivity|ext-outage|ext-online|ext-retries|broker-faults|ablation-transport|ablation-jitter|trace|fleet|regime-shift|all> \
     [--messages N] [--quick] [--grid] [--seed S] [--threads T] [--json] [--data FILE] [--save-data FILE] [--trace-out FILE.jsonl]\n\
     \x20      (--threads sizes every untraced grid, fixed-seed sweeps and the broker-fault matrix included, and the grid planner; a fleet runs on one thread)\n\
     \x20      repro run-spec FILE.{toml|json} [flags as above]\n\
     \x20      repro check-results [--threads T]\n\
     \x20      repro list-scenarios [DIR]\n\
     \x20      repro validate-scenarios [DIR]\n\
     \x20      repro profile [--out DIR] [--seed S] [--messages N]\n\
     \x20      repro report [SCENARIO|FILE.toml] [--out DIR] [--seed S] [--messages N]"
        .to_string()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit(2, e));
    let operand = args.operand.as_deref();
    match args.target.as_str() {
        "list-scenarios" => list_scenarios(operand),
        "validate-scenarios" => validate_scenarios(operand.unwrap_or("scenarios")),
        "profile" => publish(
            &bench::report::profile_smoke(args.effort),
            "target/profile",
            &args,
        ),
        "report" => report(operand.unwrap_or("fig4"), &args),
        "check-results" => check_results(&args),
        "run-spec" => {
            let file = operand
                .unwrap_or_else(|| exit(2, format!("run-spec needs a scenario file\n{}", usage())));
            run(&[load(Path::new(file))], &args);
        }
        "all" => run(&spec::builtin::all(), &args),
        name => match Spec::builtin(name) {
            Some(doc) => run(&[doc], &args),
            None => exit(2, format!("unknown target {name}\n{}", usage())),
        },
    }
}

/// Prints `message` on stderr and exits with `code`: 2 for a usage error,
/// 1 for a failed run.
fn exit(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code);
}

/// Prints a result: its JSON under `--json`, else its text.
fn emit(text: &str, json: &serde_json::Value, args: &Args) {
    if args.json {
        let json = serde_json::to_string_pretty(json).expect("serde_json's writer cannot fail");
        println!("{json}");
    } else {
        print!("{text}");
    }
}

// ---------------------------------------------------------------------------
// Observability subcommands
// ---------------------------------------------------------------------------

/// `repro report` — generates the self-describing run report for one
/// scenario (built-in name or document path; defaults to `fig4`, the
/// scenario whose document carries a `[report]` block).
fn report(target: &str, args: &Args) {
    let doc = if Path::new(target).is_file() {
        load(Path::new(target))
    } else {
        Spec::builtin(target)
            .unwrap_or_else(|| exit(2, format!("unknown scenario {target}\n{}", usage())))
    };
    let run_report = bench::report::generate(&doc, args.effort).unwrap_or_else(|e| exit(1, e));
    publish(&run_report, "target/report", args);
}

/// Writes `report` into `--out` (default `dir`), then prints it: its
/// markdown and the paths written, or its JSON.
fn publish(report: &RunReport, dir: &str, args: &Args) {
    let dir = args.out.as_deref().unwrap_or(dir);
    let written = bench::report::write_report(report, Path::new(dir))
        .unwrap_or_else(|e| exit(1, format!("cannot write report to {dir}: {e}")));
    let mut text = report.markdown();
    for path in &written {
        text += &format!("wrote {path}\n");
    }
    emit(&text, &report.json(), args);
}

// ---------------------------------------------------------------------------
// Scenario-corpus subcommands
// ---------------------------------------------------------------------------

/// Loads one scenario document, or exits 1 naming the file and what is
/// wrong with it.
fn load(path: &Path) -> Spec {
    spec::io::load(path).unwrap_or_else(|e| exit(1, format!("{}: {e}", path.display())))
}

/// Loads every `*.toml` scenario in `dir`, sorted by file name. Exits
/// with an error message naming the offending file on the first failure.
fn load_dir(dir: &str) -> Vec<Spec> {
    let mut paths: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .collect(),
        Err(e) => exit(1, format!("cannot read {dir}: {e}")),
    };
    paths.sort();
    paths.iter().map(|path| load(path)).collect()
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
// Running documents
// ---------------------------------------------------------------------------

/// The model memo `--quick` and `--data` ask for; `--data` is read here.
fn memo(args: &Args) -> ModelMemo {
    let data = args.data.as_ref().map(|path| {
        let set = ResultSet::load_for(Path::new(path), &Calibration::paper())
            .unwrap_or_else(|e| exit(1, format!("failed to load {path}: {e}")));
        eprintln!("loaded {} cached results from {path}", set.results.len());
        (path.clone(), set.results)
    });
    ModelMemo::new(args.quick, data)
}

/// Runs `docs` in order through one memo, printing each as it finishes:
/// a fresh collection sweep goes to `--save-data`, traced events to
/// `--trace-out`, before the text that says they were written.
fn run(docs: &[Spec], args: &Args) {
    let mut memo = memo(args);
    for doc in docs {
        let rendered = exec::run_document(doc, args.effort, &mut memo, args.trace_out.as_deref())
            .unwrap_or_else(|e| exit(1, e));
        if let (Some(path), Some(results)) = (&args.save_data, memo.take_collected()) {
            let n = results.len();
            let set = ResultSet::new(
                Calibration::paper(),
                args.effort.messages,
                args.effort.seed,
                results,
            );
            match set.save(Path::new(path)) {
                Ok(()) => eprintln!("saved {n} results to {path}"),
                Err(e) => eprintln!("failed to save {path}: {e}"),
            }
        }
        for (path, events) in &rendered.traces {
            write_trace(path, events).unwrap_or_else(|e| exit(1, e));
        }
        emit(&rendered.text, &rendered.json, args);
    }
}

/// `repro check-results`: renders every built-in target at `args`'s
/// effort in this process, training once, and compares each text with
/// `results/<target>.txt`. Names the first differing line of every text
/// that moved and exits 1 if any did.
fn check_results(args: &Args) {
    let mut memo = memo(args);
    let docs = spec::builtin::all();
    let mut moved = 0;
    for doc in &docs {
        let file = format!("results/{}.txt", doc.name.replace('-', "_"));
        let committed = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| exit(1, format!("cannot read {file}: {e}")));
        let rendered =
            exec::run_document(doc, args.effort, &mut memo, None).unwrap_or_else(|e| exit(1, e));
        if let Some(difference) = bench::render::first_difference(&committed, &rendered.text) {
            eprintln!("{file}: {difference}");
            moved += 1;
        }
    }
    if moved > 0 {
        exit(
            1,
            format!(
                "{moved} of {} committed texts differ from a fresh run",
                docs.len()
            ),
        );
    }
    println!("all {} committed texts in results/ reproduced", docs.len());
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
    if parsed != events {
        return Err(format!("{path} does not read back as the events written"));
    }
    Ok(())
}
