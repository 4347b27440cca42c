//! The repo benchmark: four workloads, layer-attributed, noise-banded.
//!
//! ```text
//! benchmark --workload <name> [--seed S] [--seconds N] [--trace 0|1]
//! benchmark --smoke          # all four workloads, both passes, seconds
//! benchmark --bless          # regenerate expected.json (benchmark PRs only)
//! ```
//!
//! One process runs one workload: a closed loop with one client, a fixed
//! list of jobs back to back on one thread, in identical rounds until
//! `--seconds` have been measured. Rates come from the fastest round. The
//! process prints `# ...` notes, then one `name value unit` line per metric
//! of the pass, then the result as one JSON object on the last line. See
//! `README.md` for the workload and metric dictionary.

#![forbid(unsafe_code)]

mod check;
mod digest;
mod drivers;
mod expected;
mod harness;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim-steady", "sim-lossy", "fleet", "pipeline"];

const USAGE: &str = "usage: benchmark --workload <sim-steady|sim-lossy|fleet|pipeline> \
[--seed S] [--seconds N] [--trace 0|1] | --smoke | --bless";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: expected::PINNED_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds <= 120.0) {
                    return Err("--seconds must be between 0 and 120".into());
                }
            }
            // `--trace 0|1`, or a bare `--trace` for 1.
            "--trace" => {
                out.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => out.smoke = true,
            "--bless" => out.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &out.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload {name}"));
        }
    } else if !out.smoke && !out.bless {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match harness::bless() {
            Ok(path) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("--bless: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `--smoke` alone runs every workload through both passes in seconds.
    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let passes: &[bool] = if args.workload.is_some() {
        &[args.trace]
    } else {
        &[false, true]
    };
    let mut correct = true;
    for workload in selected {
        for &trace in passes {
            let seconds = if args.smoke { 0.0 } else { args.seconds };
            match harness::run(workload, args.seed, seconds, trace, args.smoke) {
                Ok(ok) => correct &= ok,
                Err(e) => {
                    eprintln!("{workload}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(
            !parse(&["--workload", "fleet", "--trace", "0"])
                .unwrap()
                .trace
        );
        // A bare `--trace` switches tracing on and eats no other flag.
        let a = parse(&["--trace", "--workload", "pipeline"]).unwrap();
        assert!(a.trace && a.workload.as_deref() == Some("pipeline"));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "fleet", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "fleet", "--seed"]).is_err());
        assert!(parse(&["--workload", "fleet", "--frobnicate"]).is_err());
        assert!(parse(&["--smoke"]).is_ok());
    }
}
