//! Activation functions and their derivatives.

use serde::{Deserialize, Serialize};

/// An element-wise activation function.
///
/// The paper's model uses sigmoid outputs so that predicted probabilities
/// stay in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// `1 / (1 + e^{-x})` — bounded to `(0, 1)`.
    Sigmoid,
    /// Hyperbolic tangent — bounded to `(-1, 1)`.
    Tanh,
    /// Rectified linear unit — `max(0, x)`.
    Relu,
    /// Identity (for regression output layers).
    Linear,
}

impl Activation {
    /// Applies the activation to one pre-activation value.
    #[inline]
    #[must_use]
    pub(crate) fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => crate::tanh::lane(x),
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
        }
    }

    /// [`Activation::apply`] over a slice, bit for bit: tanh runs as the
    /// crate's vectorised kernel (`tanh.rs`), the rest element by
    /// element.
    #[inline]
    pub(crate) fn apply_in_place(self, xs: &mut [f64]) {
        match self {
            Activation::Tanh => crate::tanh::in_place(xs),
            _ => {
                for x in xs {
                    *x = self.apply(*x);
                }
            }
        }
    }

    /// The derivative expressed in terms of the *output* `y = f(x)`.
    ///
    /// All four supported activations admit this form, which lets the
    /// backward pass avoid storing pre-activations.
    #[inline]
    #[must_use]
    pub(crate) fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Linear => 1.0,
        }
    }

    /// The recommended weight-initialisation gain (He for ReLU, Xavier
    /// otherwise).
    #[must_use]
    pub(crate) fn init_gain(self) -> f64 {
        match self {
            Activation::Relu => 2.0,
            _ => 1.0,
        }
    }
}

impl core::fmt::Display for Activation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Relu => "relu",
            Activation::Linear => "linear",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_derivative(a: Activation, x: f64) -> f64 {
        let h = 1e-6;
        (a.apply(x + h) - a.apply(x - h)) / (2.0 * h)
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply(10.0) > 0.999);
        assert!(s.apply(-10.0) < 0.001);
    }

    #[test]
    fn derivatives_match_numeric() {
        for a in [Activation::Sigmoid, Activation::Tanh, Activation::Linear] {
            for &x in &[-2.0, -0.5, 0.0, 0.7, 3.0] {
                let y = a.apply(x);
                let analytic = a.derivative_from_output(y);
                let numeric = numeric_derivative(a, x);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{a} at {x}: {analytic} vs {numeric}"
                );
            }
        }
        // ReLU away from the kink.
        for &x in &[-1.0, 1.0] {
            let a = Activation::Relu;
            let y = a.apply(x);
            assert!((a.derivative_from_output(y) - numeric_derivative(a, x)).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn gains() {
        assert_eq!(Activation::Relu.init_gain(), 2.0);
        assert_eq!(Activation::Sigmoid.init_gain(), 1.0);
    }
}
