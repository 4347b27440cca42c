//! The round loop, the two passes and the result line.

use std::path::PathBuf;
use std::time::Instant;

use crate::expected::{self, PINNED_SEED};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::trace::{self, Recorder};
use crate::workloads::{self, Round, Workload};
use crate::{digest, stats};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// No run measures past this, whatever `--seconds` asks: the driver stops a
/// run at 180 s.
const HARD_CAP_S: f64 = 120.0;
/// Share of a traced run's seconds given to the interleaved rounds; the
/// layer drivers take the rest.
const TRACED_ROUNDS_SHARE: f64 = 0.5;

/// Operations attempted and failed, and why the first one failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Counts a round's operations; `reference` is the warm-up round every
    /// later round must digest identically to.
    fn round(&mut self, round: &Round, reference: Option<&Round>) {
        self.attempted += round.attempted();
        self.failed += round.extra_failed;
        for (i, job) in round.jobs.iter().enumerate() {
            if let Some(e) = &job.error {
                self.fail(format!("job {i} ({}): {e}", job.label));
            } else if reference.is_some_and(|r| r.jobs[i].digest != job.digest) {
                self.fail(format!(
                    "job {i} ({}) digests to {}, the warm-up round to {}: not deterministic",
                    job.label,
                    digest::hex(job.digest),
                    digest::hex(reference.expect("checked").jobs[i].digest)
                ));
            }
        }
    }
}

/// The fixed job list with every job at the fastest of its repeats: the
/// round the host would run if no repeat of any job were disturbed. Host
/// noise here comes in bursts of a second or two, longer than a job and
/// shorter than a run, so this holds still where the fastest whole round
/// does not.
struct BestRound {
    wall_ns: u64,
    msgs_per_s: f64,
}

fn best_round(rounds: &[Round]) -> BestRound {
    let mut wall_ns = 0;
    let mut msgs_ns = 0;
    for (j, job) in rounds[0].jobs.iter().enumerate() {
        let repeats = rounds.iter().map(|r| r.jobs[j].ns);
        let best = repeats.min().expect("at least one round");
        wall_ns += best;
        if job.msgs > 0 {
            msgs_ns += best;
        }
    }
    BestRound {
        wall_ns,
        msgs_per_s: workloads::per_s(rounds[0].msgs() as f64, msgs_ns),
    }
}

/// Builds the workload and runs its warm-up round: the benchmark's set-up.
fn set_up(name: &str, seed: u64, smoke: bool) -> Result<(Box<dyn Workload>, Round, f64), String> {
    let start = Instant::now();
    let mut workload = workloads::build(name, seed, smoke)?;
    let warm = workload.round(&mut Recorder::new(false));
    Ok((workload, warm, start.elapsed().as_secs_f64()))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

fn host_notes(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!(
        "# workload {name} seed {seed} seconds {seconds} trace {} mode {}",
        u8::from(trace),
        expected::mode(smoke)
    );
    println!(
        "# host_cores {cores} threads {} cpu {cpu:?} rustc {rustc:?}",
        workloads::THREADS
    );
}

/// The end-to-end pass: tracing off, set-up timed [`SETUPS`] times, then
/// identical rounds until `seconds` have been measured.
fn untraced_pass(
    name: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tally: &mut Tally,
) -> Result<(Metrics, Round), String> {
    let mut setups = Vec::new();
    let (mut workload, warm, setup_s) = set_up(name, seed, smoke)?;
    setups.push(setup_s);
    tally.round(&warm, None);
    // A smoke run checks the plumbing, not the spread: one set-up.
    for _ in 1..if smoke { 1 } else { SETUPS } {
        let (again, rewarm, setup_s) = set_up(name, seed, smoke)?;
        setups.push(setup_s);
        tally.round(&rewarm, Some(&warm));
        workload = again;
    }

    let mut off = Recorder::new(false);
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || (start.elapsed().as_secs_f64() < seconds.min(HARD_CAP_S)) {
        let round = workload.round(&mut off);
        tally.round(&round, Some(&warm));
        rounds.push(round);
    }

    let walls: Vec<f64> = rounds.iter().map(Round::wall_s).collect();
    let rates: Vec<f64> = rounds.iter().map(Round::msgs_per_s).collect();
    let best = best_round(&rounds);
    // Latency likewise: every request of the fixed list at the best of its
    // repeats; the percentiles are taken over the list, the tail's rank
    // chosen from all the samples behind it.
    let mut latency = vec![u64::MAX; warm.latency_ns.len()];
    for round in &rounds {
        for (best, &ns) in latency.iter_mut().zip(&round.latency_ns) {
            *best = (*best).min(ns);
        }
    }
    latency.sort_unstable();
    let samples = latency.len() * rounds.len();
    let tail = stats::tail_percentile(samples, workload.tail_cap());

    let mut m = Metrics::default();
    m.set("setup_s", stats::median_iqr(&setups).0);
    m.set("msgs_per_s", best.msgs_per_s);
    m.set("round_wall_s", best.wall_ns as f64 / 1e9);
    m.set("job_p50_us", stats::percentile(&latency, 50) as f64 / 1e3);
    m.set(
        "job_tail_us",
        stats::percentile(&latency, tail) as f64 / 1e3,
    );
    m.set("peak_rss_mb", peak_rss_mb());

    let (wall_p50, wall_iqr) = stats::median_iqr(&walls);
    let (rate_p50, rate_iqr) = stats::median_iqr(&rates);
    println!(
        "# rounds {} round_wall_s best-of-jobs {} min {} p50 {wall_p50} iqr {wall_iqr}",
        rounds.len(),
        m.get("round_wall_s"),
        stats::min(&walls)
    );
    println!(
        "# msgs_per_s best-of-jobs {} max {} p50 {rate_p50} iqr {rate_iqr}",
        best.msgs_per_s,
        rates.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "# job latency: {} requests x {} rounds = {samples} samples, job_tail_us is p{tail}",
        latency.len(),
        rounds.len()
    );
    if let Some([oneshot, p50, min]) = workload.first_customer(&warm, &rounds) {
        println!(
            "# point 0 msgs/s: one-shot {oneshot}, median-of-{n} {p50}, min-of-{n} {min}",
            n = rounds.len()
        );
    }
    Ok((m, warm))
}

/// The per-layer pass: untraced and traced rounds interleaved (their ratio
/// is the tracing overhead), then the workload's layer drivers. End-to-end
/// metrics are never taken from here.
fn traced_pass(
    name: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tally: &mut Tally,
) -> Result<(Metrics, Round), String> {
    let (mut workload, warm, _) = set_up(name, seed, smoke)?;
    tally.round(&warm, None);

    let mut rec = Recorder::new(false);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    // Root span index of every traced round.
    let mut roots = Vec::new();
    let start = Instant::now();
    let budget = (seconds * TRACED_ROUNDS_SHARE).min(HARD_CAP_S);
    while plain.len() < MIN_ROUNDS - 1 || start.elapsed().as_secs_f64() < budget {
        rec.set_on(false);
        plain.push(workload.round(&mut rec));
        rec.set_on(true);
        roots.push(rec.spans().len());
        traced.push(rec.span("harness.round", |r| workload.round(r)));
    }
    for round in plain.iter().chain(&traced) {
        tally.round(round, Some(&warm));
    }

    let mut m = Metrics::default();
    let fastest = |rounds: &[Round]| {
        let best = rounds.iter().enumerate().min_by_key(|(_, r)| r.wall_ns());
        best.expect("at least one round").0
    };
    let best_plain = &plain[fastest(&plain)];
    let best_traced = fastest(&traced);
    m.merge(&best_plain.layer);
    m.set(
        "trace.overhead_ratio",
        workloads::ratio(
            best_round(&traced).wall_ns as f64,
            best_round(&plain).wall_ns as f64,
        ),
    );

    // Where the fastest traced round's wall time went, by span.
    let lo = roots[best_traced];
    let hi = roots
        .get(best_traced + 1)
        .copied()
        .unwrap_or(rec.spans().len());
    let round_spans: Vec<trace::Span> = rec.spans()[lo..hi]
        .iter()
        .map(|s| trace::Span {
            parent: s.parent.map(|p| p - lo),
            ..*s
        })
        .collect();
    let root_ns = round_spans[0].dur_ns() as f64;
    let own = trace::self_time_by_name(&round_spans);
    let unattributed = own.get("harness.round").copied().unwrap_or(0) as f64;
    m.set("trace.attributed_share", 1.0 - unattributed / root_ns);
    m.set("harness.traced_round_wall_s", root_ns / 1e9);
    let busy: u64 = round_spans
        .iter()
        .filter(|s| SIM_SPANS.contains(&s.name))
        .map(trace::Span::dur_ns)
        .sum();
    m.set("kafkasim.run.busy_s", busy as f64 / 1e9);
    println!("# self time by span, fastest traced round ({root_ns} ns):");
    for (span, ns) in &own {
        println!("#   {span} {ns} ns {:.4}", *ns as f64 / root_ns);
    }

    rec.span("harness.drivers", |r| workload.drivers(r, &mut m));

    let walls: Vec<f64> = plain.iter().map(Round::wall_s).collect();
    let rates: Vec<f64> = plain.iter().map(Round::msgs_per_s).collect();
    let train: Vec<f64> = plain
        .iter()
        .map(|r| r.layer.get("annet.train.row_epochs_per_s"))
        .collect();
    for (name, values) in [
        ("harness.round_wall_s", &walls),
        ("harness.msgs_per_s", &rates),
        ("harness.train_rows_per_s", &train),
    ] {
        let (p50, iqr) = stats::median_iqr(values);
        m.set(&format!("{name}.p50"), p50);
        m.set(&format!("{name}.iqr"), iqr);
    }
    m.set("harness.rounds", (plain.len() + traced.len()) as f64);
    m.set(
        "harness.decide_samples",
        plain.iter().map(|r| r.latency_ns.len()).sum::<usize>() as f64,
    );
    if let Some([oneshot, p50, min]) = workload.first_customer(&warm, &plain) {
        m.set("harness.point0.oneshot_msgs_per_s", oneshot);
        m.set("harness.point0.p50_msgs_per_s", p50);
        m.set("harness.point0.min_msgs_per_s", min);
    }

    let out = out_dir();
    let path = out.join(format!("trace-{name}.json"));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, rec.to_chrome_trace()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# {} spans written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok((m, warm))
}

/// Spans inside which `kafkasim` runs execute: one run on the sim
/// workloads, many short ones under `bench::exec` on `pipeline`.
const SIM_SPANS: [&str; 3] = ["kafkasim.execute", "bench.collect_training", "bench.table2"];

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Runs one pass of one workload and prints its notes, metric lines and
/// result line. `Ok(false)` when an operation failed.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<bool, String> {
    host_notes(name, seed, seconds, trace, smoke);
    let mut tally = Tally::default();
    let (metrics, warm) = if trace {
        traced_pass(name, seed, seconds, smoke, &mut tally)?
    } else {
        untraced_pass(name, seed, seconds, smoke, &mut tally)?
    };

    // For the pinned seed the round must digest to what `expected.json`
    // holds; for any other seed the repeats of the warm-up round, checked
    // above, are the evidence.
    println!(
        "# round digest {}",
        digest::hex(digest::fold(&warm.job_digests()))
    );
    if seed == PINNED_SEED {
        tally.attempted += 1;
        if let Err(e) = expected::check(expected::mode(smoke), name, &warm.jobs) {
            tally.fail(e);
        }
    }
    if let Some(why) = &tally.first_failure {
        println!("# FAILED: {why}");
        eprintln!("{name}: {why}");
    }

    let defs = if trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        println!("{} {} {}", d.name, metrics.get(d.name), d.unit);
    }
    let correct = tally.failed == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics.to_json(defs),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("the result serialises")
    );
    Ok(correct)
}

/// Regenerates `expected.json`: one round of every workload at the pinned
/// seed, full-size and smoke-size.
pub fn bless() -> Result<String, String> {
    let mut entries = Vec::new();
    for smoke in [false, true] {
        for name in crate::WORKLOADS {
            let (_, warm, _) = set_up(name, PINNED_SEED, smoke)?;
            if let Some(job) = warm.jobs.iter().find(|j| j.error.is_some()) {
                return Err(format!(
                    "{name}: job {} fails its checks: {}",
                    job.label,
                    job.error.as_deref().unwrap_or_default()
                ));
            }
            entries.push((expected::mode(smoke), name, warm.jobs));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");
    std::fs::write(path, expected::render(&entries)).map_err(|e| format!("{path}: {e}"))?;
    Ok(path.to_string())
}
