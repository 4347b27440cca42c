//! `annet` — a small, dependency-free feed-forward neural-network library.
//!
//! The paper's prediction model (§III-G) is an artificial neural network
//! with four hidden layers of 200, 200, 200 and 64 neurons, trained with
//! stochastic gradient descent (learning rate 0.5, 1000 epochs) to predict
//! the reliability metrics `P_l` and `P_d`; sigmoid outputs keep the
//! predictions inside `[0, 1]` ("avoids … corner cases such that P̂ become
//! negative"). The Rust ML ecosystem being thin, this crate implements the
//! required pieces from scratch:
//!
//! * [`matrix`] — a row-major `f64` matrix with the handful of operations
//!   backpropagation needs;
//! * [`activation`] — sigmoid, tanh, ReLU and linear activations (`tanh` is
//!   the crate's own, not the host libm's: `tanh.rs`);
//! * [`layer`] — dense layers with Xavier/He initialisation;
//! * [`network`] — the sequential network, mini-batch SGD training with
//!   mean-squared-error loss, and prediction;
//! * [`scaler`] — min–max feature scaling;
//! * [`dataset`] — in-memory datasets with shuffling and train/test splits;
//! * [`metrics`] — MAE (the paper's accuracy criterion), RMSE and R².
//!
//! # Example
//!
//! ```
//! use annet::prelude::*;
//! use desim::SimRng;
//!
//! // Learn y = x0 AND x1 (a tiny binary function).
//! let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
//! let y = vec![vec![0.0], vec![0.0], vec![0.0], vec![1.0]];
//! let data = Dataset::from_rows(x, y).unwrap();
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! let mut net = NetworkBuilder::new(2)
//!     .dense(8, Activation::Tanh)
//!     .dense(1, Activation::Sigmoid)
//!     .build(&mut rng);
//! let config = TrainConfig { epochs: 400, learning_rate: 0.8, ..TrainConfig::default() };
//! net.train(&data, &config, &mut rng);
//! let pred = net.predict(&[1.0, 1.0]);
//! assert!(pred[0] > 0.7);
//! ```

// `deny`, not `forbid`: calling a `#[target_feature]` function from ordinary
// code takes one `unsafe` call, and `matrix::Kernel::run` is the one place
// allowed to make it (`ci.sh` counts). Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod dataset;
pub mod layer;
pub mod matrix;
pub mod metrics;
pub mod network;
pub mod scaler;
mod tanh;

/// Convenient glob import of the main types.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::dataset::Dataset;
    pub use crate::matrix::Matrix;
    pub use crate::metrics::{mae, r_squared, rmse};
    pub use crate::network::{
        IncrementalTrainer, InferScratch, Network, NetworkBuilder, TrainConfig, TrainReport,
    };
    pub use crate::scaler::MinMaxScaler;
}

pub use activation::Activation;
pub use dataset::Dataset;
pub use matrix::Matrix;
pub use network::{
    IncrementalTrainer, InferScratch, Network, NetworkBuilder, TrainConfig, TrainReport,
};
pub use scaler::MinMaxScaler;
