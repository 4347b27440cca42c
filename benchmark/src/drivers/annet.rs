//! `annet`: the kernels under the trained model, at the paper topology's
//! batch shape.

use annet::{Dataset, IncrementalTrainer, Matrix, TrainConfig};
use desim::SimRng;
use kafka_predict::model::ReliabilityModel;
use kafka_predict::Features;
use kafkasim::config::DeliverySemantics;

use super::best_of;
use crate::metrics::Metrics;
use crate::workloads::per_s;

/// Mini-batch of the paper's SGD set-up, and the hidden width it meets.
const BATCH: usize = 32;
const HIDDEN: usize = 200;

fn random_matrix(rows: usize, cols: usize, rng: &mut SimRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.next_f64()).collect(),
    )
}

pub fn run(model: &ReliabilityModel, candidates: &[Features], seed: u64, out: &mut Metrics) {
    let mut rng = SimRng::seed_from_u64(seed);
    let reps = 40 + candidates.len();

    let (a, b) = (
        random_matrix(BATCH, HIDDEN, &mut rng),
        random_matrix(HIDDEN, HIDDEN, &mut rng),
    );
    let (_, ns) = best_of(|| {
        for _ in 0..reps {
            std::hint::black_box(a.matmul(std::hint::black_box(&b)));
        }
    });
    let flops = (2 * BATCH * HIDDEN * HIDDEN * reps) as f64;
    out.set("annet.matmul.gflops_per_s", per_s(flops, ns) / 1e9);

    // The trained at-least-once head, fed the candidates as one matrix.
    let head = model.head(DeliverySemantics::AtLeastOnce);
    let rows: Vec<Vec<f64>> = candidates
        .iter()
        .map(Features::scaled_head_vector)
        .collect();
    let x = Matrix::from_vec(rows.len(), head.input_dim(), rows.concat());
    let (_, ns) = best_of(|| std::hint::black_box(head.predict_batch(&x)));
    out.set("annet.predict.rows_per_s", per_s(rows.len() as f64, ns));

    // Refit-shaped steps: mini-batches of 8 over the same rows, on a copy.
    let y: Vec<Vec<f64>> = (0..rows.len())
        .map(|_| vec![rng.next_f64(), rng.next_f64()])
        .collect();
    let data = Dataset::from_rows(rows, y).expect("aligned rows");
    let config = TrainConfig {
        epochs: 1,
        learning_rate: 0.3,
        batch_size: 8,
        shuffle: false,
        momentum: 0.0,
    };
    let order: Vec<usize> = (0..data.len()).collect();
    let (steps, ns) = best_of(|| {
        let mut net = head.clone();
        let mut trainer = IncrementalTrainer::new(&net);
        let chunks = order.chunks(8);
        let steps = chunks.len();
        for chunk in chunks {
            trainer.step(&mut net, &data, chunk, &config);
        }
        steps
    });
    out.set("annet.incremental.steps_per_s", per_s(steps as f64, ns));
}
