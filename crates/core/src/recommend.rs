//! The §V stepwise configuration search.
//!
//! "For each parameter, we move its current value stepwise forward or
//! backward and substitute the value into our prediction model to obtain
//! the predicted results. We repeat this until the predicted γ meets the
//! requirement." The purpose is *not* to find the maximum of γ but the
//! first configuration satisfying the user; we implement exactly that —
//! greedy coordinate steps, accepting the first configuration whose
//! predicted γ reaches the requirement (and keeping the best seen as a
//! fallback when nothing reaches it).

use kafkasim::config::DeliverySemantics;
use serde::{Deserialize, Serialize};
use testbed::scenarios::KpiWeights;

use crate::features::Features;
use crate::kpi::KpiModel;
use crate::model::Predictor;

/// One shard of grid candidates plus the slot its best lands in:
/// `(shard index, candidates, per-shard best (global index, γ))`.
type ShardJob<'g> = (usize, &'g [Features], &'g mut Option<(usize, f64)>);

/// The tunable-parameter ranges the search may move within.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Batch-size bounds (inclusive).
    pub batch: (usize, usize),
    /// Batch-size step.
    pub batch_step: usize,
    /// Message-timeout bounds in ms (inclusive).
    pub timeout_ms: (f64, f64),
    /// Message-timeout step in ms.
    pub timeout_step_ms: f64,
    /// Polling-interval bounds in ms (inclusive).
    pub poll_ms: (f64, f64),
    /// Polling-interval step in ms.
    pub poll_step_ms: f64,
    /// Whether the search may flip delivery semantics.
    pub allow_semantics_switch: bool,
    /// Maximum stepwise moves before giving up.
    pub max_steps: usize,
}

impl Default for SearchSpace {
    /// The paper's search space, derived from the one grid definition the
    /// spec layer owns ([`spec::ConfigGrid::planner_default`]) so the
    /// planner and the scenario files can never disagree about the grid.
    fn default() -> Self {
        SearchSpace::try_from(&spec::ConfigGrid::planner_default())
            .expect("the planner-default grid uses range axes")
    }
}

impl TryFrom<&spec::ConfigGrid> for SearchSpace {
    type Error = String;

    /// Derives the stepwise search space from a declarative grid. Requires
    /// every axis to be a [`spec::GridAxis::Range`] — the stepwise search
    /// moves by a fixed step, which an explicit value list cannot express.
    fn try_from(grid: &spec::ConfigGrid) -> Result<Self, String> {
        let range = |axis: &spec::GridAxis, name: &str| {
            axis.as_range()
                .ok_or_else(|| format!("{name} axis must be a range for the stepwise search"))
        };
        let (b_min, b_max, b_step) = range(&grid.batch, "batch")?;
        let (t_min, t_max, t_step) = range(&grid.timeout_ms, "timeout_ms")?;
        let (p_min, p_max, p_step) = range(&grid.poll_ms, "poll_ms")?;
        let space = SearchSpace {
            batch: (b_min.round() as usize, b_max.round() as usize),
            batch_step: b_step.round() as usize,
            timeout_ms: (t_min, t_max),
            timeout_step_ms: t_step,
            poll_ms: (p_min, p_max),
            poll_step_ms: p_step,
            allow_semantics_switch: grid.allow_semantics_switch,
            max_steps: grid.max_steps,
        };
        space.validate()?;
        Ok(space)
    }
}

impl SearchSpace {
    /// Validates the space.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch.0 == 0 || self.batch.0 > self.batch.1 {
            return Err("batch bounds must be ordered and positive".into());
        }
        if self.batch_step == 0 {
            return Err("batch step must be positive".into());
        }
        if self.timeout_ms.0 <= 0.0 || self.timeout_ms.0 > self.timeout_ms.1 {
            return Err("timeout bounds must be ordered and positive".into());
        }
        if self.poll_ms.0 < 0.0 || self.poll_ms.0 > self.poll_ms.1 {
            return Err("poll bounds must be ordered and non-negative".into());
        }
        if self.timeout_step_ms <= 0.0 || self.poll_step_ms <= 0.0 {
            return Err("steps must be positive".into());
        }
        if self.max_steps == 0 {
            return Err("max_steps must be positive".into());
        }
        Ok(())
    }
}

/// The outcome of a search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The selected feature/configuration combination.
    pub features: Features,
    /// Its predicted γ.
    pub gamma: f64,
    /// Whether γ met the requirement (otherwise `features` is the best
    /// configuration found).
    pub meets_requirement: bool,
    /// Stepwise moves taken.
    pub steps: usize,
}

/// The stepwise configuration recommender.
pub struct Recommender<'a> {
    kpi: &'a KpiModel,
    predictor: &'a dyn Predictor,
    space: SearchSpace,
}

impl<'a> Recommender<'a> {
    /// Creates a recommender over the given KPI model and predictor.
    ///
    /// # Panics
    ///
    /// Panics when `space` fails validation.
    #[must_use]
    pub fn new(kpi: &'a KpiModel, predictor: &'a dyn Predictor, space: SearchSpace) -> Self {
        space.validate().expect("invalid search space");
        Recommender {
            kpi,
            predictor,
            space,
        }
    }

    fn gamma(&self, features: &Features, weights: &KpiWeights) -> f64 {
        self.kpi.gamma(self.predictor, features, weights)
    }

    /// Every single-step neighbour of `f` within the space, deduplicated:
    /// distinct moves can land on the same configuration (e.g. a clamped
    /// move coinciding with another axis's step), and the recommender must
    /// never score the same `Features` twice in one step. The first
    /// occurrence wins, so the candidate order is stable.
    fn neighbours(&self, f: &Features) -> Vec<Features> {
        let mut out = self.raw_neighbours(f);
        let mut seen = 0;
        for i in 0..out.len() {
            if !out[..seen].contains(&out[i]) {
                out[seen] = out[i];
                seen += 1;
            }
        }
        out.truncate(seen);
        out
    }

    /// The neighbour moves before deduplication.
    fn raw_neighbours(&self, f: &Features) -> Vec<Features> {
        let s = &self.space;
        let mut out = Vec::with_capacity(7);
        if f.batch_size + s.batch_step <= s.batch.1 {
            out.push(Features {
                batch_size: f.batch_size + s.batch_step,
                ..*f
            });
        }
        if f.batch_size >= s.batch.0 + s.batch_step {
            out.push(Features {
                batch_size: f.batch_size - s.batch_step,
                ..*f
            });
        }
        let t_up = f.message_timeout_ms + s.timeout_step_ms;
        if t_up <= s.timeout_ms.1 {
            out.push(Features {
                message_timeout_ms: t_up,
                ..*f
            });
        }
        let t_down = f.message_timeout_ms - s.timeout_step_ms;
        if t_down >= s.timeout_ms.0 {
            out.push(Features {
                message_timeout_ms: t_down,
                ..*f
            });
        }
        let p_up = f.poll_interval_ms + s.poll_step_ms;
        if p_up <= s.poll_ms.1 {
            out.push(Features {
                poll_interval_ms: p_up,
                ..*f
            });
        }
        let p_down = f.poll_interval_ms - s.poll_step_ms;
        if p_down >= s.poll_ms.0 {
            out.push(Features {
                poll_interval_ms: p_down,
                ..*f
            });
        }
        if s.allow_semantics_switch {
            for other in [
                DeliverySemantics::AtMostOnce,
                DeliverySemantics::AtLeastOnce,
                DeliverySemantics::All,
            ] {
                if other != f.semantics {
                    out.push(Features {
                        semantics: other,
                        ..*f
                    });
                }
            }
        }
        out
    }

    /// Runs the stepwise search from `start` until γ meets `requirement`
    /// or no neighbour improves γ any further.
    ///
    /// Each step scores all neighbours through one
    /// [`Predictor::predict_batch`] call — for the ANN-backed predictor
    /// that is one matmul chain per step instead of one per candidate.
    /// By the `predict_batch` contract the result is bit-identical to the
    /// scalar greedy search ([`Recommender::recommend_reference`]).
    #[must_use]
    pub fn recommend(
        &self,
        start: &Features,
        weights: &KpiWeights,
        requirement: f64,
    ) -> Recommendation {
        let mut current = *start;
        let mut current_gamma = self.gamma(&current, weights);
        let mut steps = 0;
        if current_gamma >= requirement {
            return Recommendation {
                features: current,
                gamma: current_gamma,
                meets_requirement: true,
                steps,
            };
        }
        while steps < self.space.max_steps {
            // Greedy: take the best single-parameter move, scoring the
            // whole neighbourhood in one batched forward pass.
            let candidates = self.neighbours(&current);
            let predictions = self.predictor.predict_batch(&candidates);
            let mut best: Option<(Features, f64)> = None;
            for (candidate, prediction) in candidates.iter().zip(predictions) {
                let g = self.kpi.gamma_with(prediction, candidate, weights);
                if best.as_ref().is_none_or(|(_, bg)| g > *bg) {
                    best = Some((*candidate, g));
                }
            }
            let Some((next, next_gamma)) = best else {
                break;
            };
            if next_gamma <= current_gamma {
                break; // local optimum: nothing improves γ
            }
            current = next;
            current_gamma = next_gamma;
            steps += 1;
            if current_gamma >= requirement {
                return Recommendation {
                    features: current,
                    gamma: current_gamma,
                    meets_requirement: true,
                    steps,
                };
            }
        }
        Recommendation {
            features: current,
            gamma: current_gamma,
            meets_requirement: false,
            steps,
        }
    }

    /// The pre-batching scalar greedy search, kept as the reference the
    /// property tests pin [`Recommender::recommend`] against bit for bit.
    /// Prefer [`Recommender::recommend`]; this path calls the predictor
    /// once per candidate.
    #[doc(hidden)]
    #[must_use]
    pub fn recommend_reference(
        &self,
        start: &Features,
        weights: &KpiWeights,
        requirement: f64,
    ) -> Recommendation {
        let mut current = *start;
        let mut current_gamma = self.gamma(&current, weights);
        let mut steps = 0;
        if current_gamma >= requirement {
            return Recommendation {
                features: current,
                gamma: current_gamma,
                meets_requirement: true,
                steps,
            };
        }
        while steps < self.space.max_steps {
            let mut best: Option<(Features, f64)> = None;
            for candidate in self.neighbours(&current) {
                let g = self.gamma(&candidate, weights);
                if best.as_ref().is_none_or(|(_, bg)| g > *bg) {
                    best = Some((candidate, g));
                }
            }
            let Some((next, next_gamma)) = best else {
                break;
            };
            if next_gamma <= current_gamma {
                break;
            }
            current = next;
            current_gamma = next_gamma;
            steps += 1;
            if current_gamma >= requirement {
                return Recommendation {
                    features: current,
                    gamma: current_gamma,
                    meets_requirement: true,
                    steps,
                };
            }
        }
        Recommendation {
            features: current,
            gamma: current_gamma,
            meets_requirement: false,
            steps,
        }
    }

    /// Enumerates the full configuration grid of the space, in the fixed
    /// scan order (semantics → batch → timeout → poll; every value is
    /// `lo + i·step`, never a running sum, so the lattice is exact). All
    /// non-searched fields come from `start`; semantics covers all three
    /// values only when the space allows switching.
    fn grid(&self, start: &Features) -> Vec<Features> {
        let s = &self.space;
        let axis = |lo: f64, hi: f64, step: f64| -> Vec<f64> {
            let mut vals = Vec::new();
            let mut i = 0u32;
            loop {
                let v = lo + f64::from(i) * step;
                if v > hi {
                    break;
                }
                vals.push(v);
                i += 1;
            }
            vals
        };
        let batches: Vec<usize> = (s.batch.0..=s.batch.1).step_by(s.batch_step).collect();
        let timeouts = axis(s.timeout_ms.0, s.timeout_ms.1, s.timeout_step_ms);
        let polls = axis(s.poll_ms.0, s.poll_ms.1, s.poll_step_ms);
        let semantics: Vec<DeliverySemantics> = if s.allow_semantics_switch {
            vec![
                DeliverySemantics::AtMostOnce,
                DeliverySemantics::AtLeastOnce,
                DeliverySemantics::All,
            ]
        } else {
            vec![start.semantics]
        };
        let mut grid =
            Vec::with_capacity(semantics.len() * batches.len() * timeouts.len() * polls.len());
        for &sem in &semantics {
            for &batch_size in &batches {
                for &message_timeout_ms in &timeouts {
                    for &poll_interval_ms in &polls {
                        grid.push(Features {
                            semantics: sem,
                            batch_size,
                            message_timeout_ms,
                            poll_interval_ms,
                            ..*start
                        });
                    }
                }
            }
        }
        grid
    }

    /// Candidates per evaluation shard of [`Recommender::recommend_grid`].
    ///
    /// The shard plan is a function of the grid alone — like the training
    /// path's gradient shards, it never depends on the worker count, and
    /// shard results are reduced in ascending shard order, which is what
    /// makes the recommendation bit-identical at any thread count.
    pub const GRID_SHARD: usize = 512;

    /// Exhaustively scans the full `SearchSpace` grid with batched
    /// inference and returns the γ-maximal configuration (the first one in
    /// scan order on exact ties).
    ///
    /// Unlike the stepwise [`Recommender::recommend`], this cannot get
    /// stuck in a local optimum; in exchange it evaluates every lattice
    /// point, so [`Recommendation::steps`] reports the number of
    /// configurations scored. Non-searched feature fields are taken from
    /// `start`; note the scan is restricted to the lattice, so a `start`
    /// lying off-lattice is *not* itself a candidate. Shards of
    /// [`Self::GRID_SHARD`] candidates are distributed over `threads`
    /// workers; the result is **bit-identical for every `threads` value**.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn recommend_grid(
        &self,
        start: &Features,
        weights: &KpiWeights,
        requirement: f64,
        threads: usize,
    ) -> Recommendation {
        assert!(threads > 0, "need at least one worker");
        let grid = self.grid(start);
        let shards: Vec<&[Features]> = grid.chunks(Self::GRID_SHARD).collect();
        // (global index, γ) of each shard's best candidate.
        let mut bests: Vec<Option<(usize, f64)>> = vec![None; shards.len()];
        let eval_shard = |shard_no: usize, shard: &[Features]| -> Option<(usize, f64)> {
            let predictions = self.predictor.predict_batch(shard);
            let mut best: Option<(usize, f64)> = None;
            for (j, (candidate, prediction)) in shard.iter().zip(predictions).enumerate() {
                let g = self.kpi.gamma_with(prediction, candidate, weights);
                if best.is_none_or(|(_, bg)| g > bg) {
                    best = Some((shard_no * Self::GRID_SHARD + j, g));
                }
            }
            best
        };
        if threads <= 1 {
            for (shard_no, (shard, slot)) in shards.iter().zip(bests.iter_mut()).enumerate() {
                *slot = eval_shard(shard_no, shard);
            }
        } else {
            let mut jobs: Vec<ShardJob<'_>> = shards
                .iter()
                .zip(bests.iter_mut())
                .enumerate()
                .map(|(shard_no, (shard, slot))| (shard_no, *shard, slot))
                .collect();
            let per_worker = jobs.len().div_ceil(threads.min(jobs.len()));
            std::thread::scope(|scope| {
                for worker_jobs in jobs.chunks_mut(per_worker) {
                    scope.spawn(move || {
                        for (shard_no, shard, slot) in worker_jobs.iter_mut() {
                            **slot = eval_shard(*shard_no, shard);
                        }
                    });
                }
            });
        }
        // Reduce in ascending shard order — fixed, thread-independent.
        let (best_idx, best_gamma) = bests
            .into_iter()
            .flatten()
            .fold(None::<(usize, f64)>, |acc, (i, g)| {
                if acc.is_none_or(|(_, bg)| g > bg) {
                    Some((i, g))
                } else {
                    acc
                }
            })
            .expect("grid is never empty");
        Recommendation {
            features: grid[best_idx],
            gamma: best_gamma,
            meets_requirement: best_gamma >= requirement,
            steps: grid.len(),
        }
    }

    /// Scalar sequential version of [`Recommender::recommend_grid`], kept
    /// as the reference the property tests pin the sharded batched scan
    /// against bit for bit.
    #[doc(hidden)]
    #[must_use]
    pub fn recommend_grid_reference(
        &self,
        start: &Features,
        weights: &KpiWeights,
        requirement: f64,
    ) -> Recommendation {
        let grid = self.grid(start);
        let mut best: Option<(usize, f64)> = None;
        for (i, candidate) in grid.iter().enumerate() {
            let g = self.gamma(candidate, weights);
            if best.is_none_or(|(_, bg)| g > bg) {
                best = Some((i, g));
            }
        }
        let (best_idx, best_gamma) = best.expect("grid is never empty");
        Recommendation {
            features: grid[best_idx],
            gamma: best_gamma,
            meets_requirement: best_gamma >= requirement,
            steps: grid.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FnPredictor, Prediction};
    use testbed::Calibration;

    /// A synthetic predictor with a clear structure: batching reduces loss
    /// under network faults, at-least-once halves it, and duplicates grow
    /// mildly with loss under at-least-once.
    fn oracle() -> FnPredictor<impl Fn(&Features) -> Prediction> {
        FnPredictor(|f: &Features| {
            let base = f.loss_rate * 4.0 / (f.batch_size as f64 + 1.0);
            let p_loss = match f.semantics {
                DeliverySemantics::AtMostOnce => base,
                DeliverySemantics::AtLeastOnce => base / 2.0,
                DeliverySemantics::All => base / 2.5,
            }
            .clamp(0.0, 1.0);
            let p_dup = match f.semantics {
                DeliverySemantics::AtMostOnce => 0.0,
                DeliverySemantics::AtLeastOnce | DeliverySemantics::All => {
                    (f.loss_rate * 0.05).min(1.0)
                }
            };
            Prediction { p_loss, p_dup }
        })
    }

    fn recommender_fixture() -> (KpiModel, SearchSpace) {
        (
            KpiModel::from_calibration(&Calibration::paper()),
            SearchSpace::default(),
        )
    }

    #[test]
    fn already_satisfied_start_returns_immediately() {
        let (kpi, space) = recommender_fixture();
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features::default(); // clean network, zero loss
        let out = rec.recommend(&start, &KpiWeights::paper_default(), 0.3);
        assert!(out.meets_requirement);
        assert_eq!(out.steps, 0);
        assert_eq!(out.features, start);
    }

    #[test]
    fn search_batches_its_way_out_of_loss() {
        let (kpi, space) = recommender_fixture();
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            loss_rate: 0.15,
            batch_size: 1,
            semantics: DeliverySemantics::AtMostOnce,
            ..Features::default()
        };
        let out = rec.recommend(&start, &KpiWeights::paper_default(), 0.9);
        assert!(
            out.features.batch_size > 1 || out.features.semantics == DeliverySemantics::AtLeastOnce,
            "search should batch or switch semantics: {:?}",
            out.features
        );
        assert!(out.gamma > rec.gamma(&start, &KpiWeights::paper_default()));
    }

    #[test]
    fn unreachable_requirement_reports_best_effort() {
        let (kpi, space) = recommender_fixture();
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            loss_rate: 0.45,
            ..Features::default()
        };
        let out = rec.recommend(&start, &KpiWeights::paper_default(), 2.0);
        assert!(!out.meets_requirement);
        assert!(out.gamma <= 1.0);
    }

    #[test]
    fn search_respects_bounds() {
        let (kpi, mut space) = recommender_fixture();
        space.batch = (1, 3);
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            loss_rate: 0.3,
            ..Features::default()
        };
        let out = rec.recommend(&start, &KpiWeights::paper_default(), 1.5);
        assert!(out.features.batch_size <= 3);
        assert!(out.features.message_timeout_ms <= 5_000.0);
    }

    #[test]
    fn invalid_space_rejected() {
        let space = SearchSpace {
            batch: (0, 5),
            ..SearchSpace::default()
        };
        assert!(space.validate().is_err());
        let space = SearchSpace {
            timeout_step_ms: 0.0,
            ..SearchSpace::default()
        };
        assert!(space.validate().is_err());
        let space = SearchSpace {
            max_steps: 0,
            ..SearchSpace::default()
        };
        assert!(space.validate().is_err());
    }

    #[test]
    fn batched_recommend_matches_reference() {
        let (kpi, space) = recommender_fixture();
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        for loss in [0.0, 0.1, 0.3, 0.45] {
            let start = Features {
                loss_rate: loss,
                batch_size: 2,
                ..Features::default()
            };
            let batched = rec.recommend(&start, &KpiWeights::paper_default(), 0.9);
            let reference = rec.recommend_reference(&start, &KpiWeights::paper_default(), 0.9);
            assert_eq!(batched.features, reference.features);
            assert_eq!(batched.gamma.to_bits(), reference.gamma.to_bits());
            assert_eq!(batched.steps, reference.steps);
            assert_eq!(batched.meets_requirement, reference.meets_requirement);
        }
    }

    #[test]
    fn neighbours_are_deduplicated() {
        let (kpi, space) = recommender_fixture();
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        for start in [
            Features::default(),
            Features {
                batch_size: 10,
                poll_interval_ms: 0.0,
                message_timeout_ms: 5_000.0,
                ..Features::default()
            },
        ] {
            let n = rec.neighbours(&start);
            for (i, a) in n.iter().enumerate() {
                assert!(
                    !n[..i].contains(a),
                    "duplicate candidate at position {i}: {a:?}"
                );
            }
        }
    }

    #[test]
    fn grid_scan_is_thread_invariant_and_matches_reference() {
        let (kpi, mut space) = recommender_fixture();
        // Shrink the lattice so the test stays fast but still spans
        // several shards' worth of structure.
        space.timeout_step_ms = 1_600.0;
        space.poll_step_ms = 50.0;
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            loss_rate: 0.2,
            ..Features::default()
        };
        let weights = KpiWeights::paper_default();
        let reference = rec.recommend_grid_reference(&start, &weights, 0.9);
        for threads in [1, 2, 8] {
            let got = rec.recommend_grid(&start, &weights, 0.9, threads);
            assert_eq!(got.features, reference.features, "{threads} threads");
            assert_eq!(got.gamma.to_bits(), reference.gamma.to_bits());
            assert_eq!(got.steps, reference.steps);
        }
    }

    #[test]
    fn grid_beats_or_matches_greedy() {
        let (kpi, space) = recommender_fixture();
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            loss_rate: 0.3,
            ..Features::default()
        };
        let weights = KpiWeights::paper_default();
        let greedy = rec.recommend(&start, &weights, 2.0); // unreachable → best effort
        let grid = rec.recommend_grid(&start, &weights, 2.0, 2);
        assert!(
            grid.gamma >= greedy.gamma,
            "exhaustive scan can never do worse: {} vs {}",
            grid.gamma,
            greedy.gamma
        );
    }

    #[test]
    fn grid_respects_semantics_lock() {
        let (kpi, mut space) = recommender_fixture();
        space.allow_semantics_switch = false;
        space.timeout_step_ms = 2_400.0;
        space.poll_step_ms = 100.0;
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            semantics: DeliverySemantics::AtMostOnce,
            loss_rate: 0.2,
            ..Features::default()
        };
        let out = rec.recommend_grid(&start, &KpiWeights::paper_default(), 0.9, 2);
        assert_eq!(out.features.semantics, DeliverySemantics::AtMostOnce);
    }

    #[test]
    fn semantics_switch_can_be_disabled() {
        let (kpi, mut space) = recommender_fixture();
        space.allow_semantics_switch = false;
        let oracle = oracle();
        let rec = Recommender::new(&kpi, &oracle, space);
        let start = Features {
            loss_rate: 0.2,
            semantics: DeliverySemantics::AtMostOnce,
            ..Features::default()
        };
        let out = rec.recommend(&start, &KpiWeights::paper_default(), 1.5);
        assert_eq!(out.features.semantics, DeliverySemantics::AtMostOnce);
    }

    #[test]
    fn default_space_is_the_paper_grid() {
        // The derived default must stay pinned to the paper's values — the
        // planner digests and Table II runs depend on this grid.
        let space = SearchSpace::default();
        assert_eq!(space.batch, (1, 10));
        assert_eq!(space.batch_step, 1);
        assert_eq!(space.timeout_ms, (200.0, 5_000.0));
        assert_eq!(space.timeout_step_ms, 400.0);
        assert_eq!(space.poll_ms, (0.0, 200.0));
        assert_eq!(space.poll_step_ms, 20.0);
        assert!(space.allow_semantics_switch);
        assert_eq!(space.max_steps, 64);
    }

    #[test]
    fn value_list_axes_cannot_drive_the_stepwise_search() {
        let mut grid = spec::ConfigGrid::planner_default();
        grid.batch = spec::GridAxis::Values(vec![1.0, 4.0]);
        let err = SearchSpace::try_from(&grid).unwrap_err();
        assert!(err.contains("batch axis"));
    }
}
