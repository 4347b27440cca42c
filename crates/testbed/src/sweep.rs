//! Parallel execution of experiment grids.
//!
//! The paper runs "numerous experiments" to collect training data; the
//! feature grids here can hold hundreds of points, each an independent
//! simulation, so they fan out over worker threads. Results come back in
//! the input order regardless of completion order, keeping downstream
//! processing deterministic.
//!
//! Work is split by *chunked ownership*: the grid is cut into one
//! contiguous chunk per worker, each worker owns its chunk's result vector
//! outright (no shared slots, no locks), and the chunks are concatenated
//! in order at the end. Each worker also threads one [`RunArena`] through
//! its runs, so per-run buffers are allocated once per worker instead of
//! once per point.

use kafkasim::runtime::RunArena;

use crate::calibration::Calibration;
use crate::experiment::{ExperimentPoint, ExperimentResult};

/// Runs every point, in parallel, with `threads` workers.
///
/// Each point gets a deterministic seed derived from `base_seed` and its
/// index, so a sweep is reproducible regardless of thread count and
/// interleaving.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
#[must_use]
pub fn run_sweep(
    points: &[ExperimentPoint],
    cal: &Calibration,
    n_messages: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<ExperimentResult> {
    assert!(threads > 0, "need at least one worker");
    if points.is_empty() {
        return Vec::new();
    }
    let workers = threads.min(points.len());
    let chunk_len = points.len().div_ceil(workers);
    let chunks: Vec<Vec<ExperimentResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = points
            .chunks(chunk_len)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move || {
                    let mut arena = RunArena::new();
                    let offset = w * chunk_len;
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, point)| {
                            let seed = derive_seed(base_seed, (offset + j) as u64);
                            point.run_pooled(cal, n_messages, seed, &mut arena)
                        })
                        .collect::<Vec<ExperimentResult>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut results = Vec::with_capacity(points.len());
    for chunk in chunks {
        results.extend(chunk);
    }
    results
}

/// The seed used for point `index` of a sweep rooted at `base_seed`.
///
/// SplitMix64-style mixing so adjacent indices get unrelated streams.
#[must_use]
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the same point `repeats` times with distinct seeds and returns the
/// mean `(P_l, P_d)` — the testbed's answer to sampling noise.
#[must_use]
pub fn run_repeated(
    point: &ExperimentPoint,
    cal: &Calibration,
    n_messages: u64,
    base_seed: u64,
    repeats: usize,
    threads: usize,
) -> (f64, f64) {
    assert!(repeats > 0, "need at least one repeat");
    let points = vec![point.clone(); repeats];
    let results = run_sweep(&points, cal, n_messages, base_seed, threads);
    let n = results.len() as f64;
    let p_l = results.iter().map(|r| r.p_loss).sum::<f64>() / n;
    let p_d = results.iter().map(|r| r.p_dup).sum::<f64>() / n;
    (p_l, p_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn grid(n: usize) -> Vec<ExperimentPoint> {
        (0..n)
            .map(|i| ExperimentPoint {
                message_size: 100 + 50 * i as u64,
                poll_interval: SimDuration::from_millis(50),
                ..ExperimentPoint::default()
            })
            .collect()
    }

    #[test]
    fn sweep_preserves_input_order() {
        let cal = Calibration::paper();
        let points = grid(6);
        let results = run_sweep(&points, &cal, 100, 7, 3);
        assert_eq!(results.len(), 6);
        for (p, r) in points.iter().zip(&results) {
            assert_eq!(&r.point, p);
        }
    }

    #[test]
    fn sweep_matches_sequential_execution() {
        let cal = Calibration::paper();
        let points = grid(4);
        let parallel = run_sweep(&points, &cal, 100, 3, 4);
        let sequential: Vec<ExperimentResult> = points
            .iter()
            .enumerate()
            .map(|(i, p)| p.run(&cal, 100, derive_seed(3, i as u64)))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn sweep_with_more_threads_than_points_preserves_order() {
        let cal = Calibration::paper();
        let points = grid(3);
        let parallel = run_sweep(&points, &cal, 100, 7, 8);
        let sequential: Vec<ExperimentResult> = points
            .iter()
            .enumerate()
            .map(|(i, p)| p.run(&cal, 100, derive_seed(7, i as u64)))
            .collect();
        assert_eq!(parallel, sequential);
        for (p, r) in points.iter().zip(&parallel) {
            assert_eq!(&r.point, p);
        }
    }

    #[test]
    fn derived_seeds_differ() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn empty_sweep_is_empty() {
        let cal = Calibration::paper();
        assert!(run_sweep(&[], &cal, 100, 1, 4).is_empty());
    }

    #[test]
    fn repeated_runs_average() {
        let cal = Calibration::paper();
        let point = ExperimentPoint {
            poll_interval: SimDuration::from_millis(50),
            ..ExperimentPoint::default()
        };
        let (p_l, p_d) = run_repeated(&point, &cal, 100, 5, 3, 3);
        assert!(p_l < 0.05);
        assert_eq!(p_d, 0.0);
    }
}
