//! `perfmodel`, reached through `KpiModel::gamma`: the analytic bandwidth
//! and service-rate terms of Eq. 2, evaluated once per planner candidate.

use kafka_predict::kpi::KpiModel;
use kafka_predict::model::ReliabilityModel;
use kafka_predict::{Features, Predictor};
use testbed::scenarios::KpiWeights;
use testbed::Calibration;

use super::best_of;
use crate::metrics::Metrics;
use crate::workloads::per_s;

/// Serves predictions made ahead of time, so the loop below times the
/// analytic model and not the network.
struct Precomputed<'a> {
    rows: &'a [Features],
    predictions: Vec<kafka_predict::Prediction>,
}

impl Predictor for Precomputed<'_> {
    fn predict(&self, features: &Features) -> kafka_predict::Prediction {
        let i = self.rows.iter().position(|f| f == features);
        self.predictions[i.expect("a candidate row")]
    }
}

pub fn kpi_evals(
    model: &ReliabilityModel,
    cal: &Calibration,
    candidates: &[Features],
    out: &mut Metrics,
) {
    let kpi = KpiModel::from_calibration(cal);
    let weights = KpiWeights::paper_default();
    // One row, so the look-up above costs one comparison.
    let rows = &candidates[..1];
    let predictor = Precomputed {
        rows,
        predictions: model.predict_batch(rows),
    };
    let evals = 200_000;
    let (_, ns) = best_of(|| {
        let mut sum = 0.0;
        for _ in 0..evals {
            sum += kpi.gamma(&predictor, std::hint::black_box(&rows[0]), &weights);
        }
        std::hint::black_box(sum)
    });
    out.set("perfmodel.kpi.evals_per_s", per_s(f64::from(evals), ns));
}
