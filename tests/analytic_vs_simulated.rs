//! Cross-validation between the analytic queueing view of the producer
//! (the paper's ref. [6]: service rate `μ` from kafkasim's `HostModel`,
//! M/M/1 waits over it) and the discrete-event simulator: in the regimes
//! where the M/M/1 abstraction is valid, the two must agree.

use desim::SimDuration;
use kafkasim::config::DeliverySemantics;
use testbed::experiment::ExperimentPoint;
use testbed::Calibration;

/// The analytic service rate `μ(M, B)` of the calibrated host.
fn service_rate(cal: &Calibration, m: u64, b: usize) -> f64 {
    1.0 / cal.host.mean_service_s(m, b)
}

/// Whether an M/M/1 queue with arrival rate `λ` and service rate `μ` has
/// a stationary distribution (`λ/μ < 1`).
fn mm1_is_stable(lambda: f64, mu: f64) -> bool {
    lambda / mu < 1.0
}

/// Mean M/M/1 sojourn (wait + service) `1 / (μ − λ)` of a stable queue.
fn mm1_mean_sojourn(lambda: f64, mu: f64) -> f64 {
    1.0 / (mu - lambda)
}

/// `P(W > t)`, the M/M/1 sojourn tail `e^{−(μ−λ)t}` of a stable queue:
/// the analytic form of Fig. 5 (loss from `T_o`-expiry under load).
fn mm1_sojourn_exceeds(lambda: f64, mu: f64, t: f64) -> f64 {
    (-(mu - lambda) * t).exp()
}

#[test]
fn mm1_textbook_values() {
    // λ=8, μ=10: ρ=0.8, W = 1/(10−8) = 0.5 s, Wq = W − 1/μ = 0.4 s.
    assert!(mm1_is_stable(8.0, 10.0));
    assert!(!mm1_is_stable(12.0, 10.0));
    assert!((mm1_mean_sojourn(8.0, 10.0) - 0.5).abs() < 1e-12);
    assert!((mm1_mean_sojourn(8.0, 10.0) - 1.0 / 10.0 - 0.4).abs() < 1e-12);
}

#[test]
fn mm1_tail_probability() {
    // P(W > 0.5) = e^{-2·0.5} = e^{-1}
    assert!((mm1_sojourn_exceeds(8.0, 10.0, 0.5) - (-1.0f64).exp()).abs() < 1e-12);
    // Tail decreases with t.
    assert!(mm1_sojourn_exceeds(8.0, 10.0, 1.0) < mm1_sojourn_exceeds(8.0, 10.0, 0.5));
}

fn point(m: u64, poll_ms: u64, timeout_ms: u64) -> ExperimentPoint {
    ExperimentPoint {
        message_size: m,
        timeliness: None,
        delay: SimDuration::from_millis(1),
        loss_rate: 0.0,
        semantics: DeliverySemantics::AtLeastOnce,
        batch_size: 1,
        poll_interval: SimDuration::from_millis(poll_ms),
        message_timeout: SimDuration::from_millis(timeout_ms),
        ..ExperimentPoint::default()
    }
}

#[test]
fn analytic_service_rate_matches_simulated_throughput_under_overload() {
    // Under sustained overload the simulator's delivery throughput should
    // approach the analytic μ: the CPU never idles.
    let cal = Calibration::paper();
    let m = 100u64;
    let mu = service_rate(&cal, m, 1);
    let p = point(m, 0, 1_000); // full load, δ = 0
    let result = p.run(&cal, 6_000, 3);
    let simulated = result.report.throughput();
    let ratio = simulated / mu;
    assert!(
        (0.85..1.15).contains(&ratio),
        "simulated throughput {simulated:.1}/s should track analytic μ {mu:.1}/s (ratio {ratio:.2})"
    );
}

#[test]
fn overload_loss_floor_matches_one_minus_rho_inverse() {
    // P_l at δ=0 ≈ 1 − μ/λ (the Fig. 6 floor), with λ the I/O-bound rate.
    let cal = Calibration::paper();
    let m = 100u64;
    let lambda = 1.0 / cal.host.fetch_time(m).as_secs_f64();
    let mu = service_rate(&cal, m, 1);
    let analytic_floor = 1.0 - mu / lambda;
    let result = point(m, 0, 500).run(&cal, 6_000, 4);
    assert!(
        (result.p_loss - analytic_floor).abs() < 0.12,
        "simulated floor {:.3} vs analytic {:.3}",
        result.p_loss,
        analytic_floor
    );
}

#[test]
fn mm1_tail_bounds_the_simulated_expiry_loss() {
    // Near saturation, simulated expiry loss must sit in the same ballpark
    // as the M/M/1 sojourn tail P(W > T_o). The simulator's arrivals are
    // deterministic (D/M/1), whose tail is *thinner* than M/M/1, so the
    // analytic value upper-bounds the measurement (with slack for the
    // finite run).
    let cal = Calibration::paper();
    let m = 620u64;
    let lambda = 1.0 / cal.host.fetch_time(m).as_secs_f64();
    let mu = service_rate(&cal, m, 1);
    assert!(
        mm1_is_stable(lambda, mu),
        "the fig5 operating point must be stable"
    );
    for timeout_ms in [400u64, 1_000] {
        let analytic = mm1_sojourn_exceeds(lambda, mu, timeout_ms as f64 / 1e3);
        let measured = point(m, 0, timeout_ms).run(&cal, 6_000, 5).p_loss;
        assert!(
            measured <= analytic + 0.05,
            "T_o={timeout_ms}ms: measured {measured:.3} should not exceed M/M/1 tail {analytic:.3}"
        );
    }
    // And the tail ordering is respected: longer T_o, less loss.
    let short = point(m, 0, 300).run(&cal, 6_000, 6).p_loss;
    let long = point(m, 0, 2_000).run(&cal, 6_000, 6).p_loss;
    assert!(long < short);
}

#[test]
fn latency_tracks_mm1_sojourn_in_the_stable_regime() {
    // At moderate utilisation, mean delivery latency ≈ analytic mean
    // sojourn (plus small network/broker constants).
    let cal = Calibration::paper();
    let m = 200u64;
    let poll_ms = 70u64;
    let lambda = 1.0 / (poll_ms as f64 / 1e3).max(cal.host.fetch_time(m).as_secs_f64());
    let mu = service_rate(&cal, m, 1);
    assert!(mm1_is_stable(lambda, mu));
    let analytic_sojourn = mm1_mean_sojourn(lambda, mu);
    let result = point(m, poll_ms, 5_000).run(&cal, 5_000, 7);
    let measured = result.report.latency.mean_s;
    assert!(
        measured > 0.5 * analytic_sojourn && measured < 2.0 * analytic_sojourn,
        "measured mean latency {measured:.3}s vs analytic sojourn {analytic_sojourn:.3}s"
    );
}

#[test]
fn batching_speedup_agrees_between_model_and_simulator() {
    // The analytic amortisation μ(B)/μ(1) should predict the simulator's
    // overload-throughput gain from batching.
    let cal = Calibration::paper();
    let m = 100u64;
    let analytic_gain = service_rate(&cal, m, 8) / service_rate(&cal, m, 1);
    let run = |b: usize| {
        let mut p = point(m, 0, 2_000);
        p.batch_size = b;
        p.run(&cal, 6_000, 8).report.throughput()
    };
    let simulated_gain = run(8) / run(1);
    assert!(
        (simulated_gain / analytic_gain - 1.0).abs() < 0.30,
        "batching gain: simulated {simulated_gain:.2}x vs analytic {analytic_gain:.2}x"
    );
}
