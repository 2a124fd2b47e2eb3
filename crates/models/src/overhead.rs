//! Overhead interpolation from minimal profiling (paper §4.3).
//!
//! Job setup (overhead) times depend on the data size actually read, hence on the
//! drop ratio. To keep profiling minimal the paper samples overhead at exactly two
//! configurations — no dropping, and the maximum considered drop ratio (90%) — and
//! linearly interpolates in between. [`OverheadProfile`] reproduces that procedure
//! and generalizes it to any number of profiled points via least squares.

use serde::{Deserialize, Serialize};

use dias_stochastic::fit::linear_fit;

use crate::ModelError;

/// A linear model of mean overhead (setup) time versus drop ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadProfile {
    intercept: f64,
    slope: f64,
}

impl OverheadProfile {
    /// The paper's two-point procedure: mean overheads profiled at `θ = 0` and
    /// `θ = 0.9`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadParameter`] if either overhead is non-positive.
    pub fn from_two_points(at_zero: f64, at_ninety: f64) -> Result<Self, ModelError> {
        if at_zero <= 0.0 || at_ninety <= 0.0 {
            return Err(ModelError::BadParameter(
                "profiled overheads must be positive".into(),
            ));
        }
        let slope = (at_ninety - at_zero) / 0.9;
        Ok(OverheadProfile {
            intercept: at_zero,
            slope,
        })
    }

    /// Least-squares fit through any number of `(θ, mean overhead)` points.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadParameter`] with fewer than two points or coincident
    /// θ values.
    pub fn fit(points: &[(f64, f64)]) -> Result<Self, ModelError> {
        if points.len() < 2 {
            return Err(ModelError::BadParameter(
                "need at least two profiled points".into(),
            ));
        }
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        if xs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15) {
            return Err(ModelError::BadParameter(
                "profiled drop ratios must differ".into(),
            ));
        }
        let (intercept, slope) = linear_fit(&xs, &ys);
        Ok(OverheadProfile { intercept, slope })
    }

    /// Interpolated mean overhead at drop ratio `theta`, floored at a small positive
    /// value so downstream rates stay valid.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is outside `[0, 1]`.
    #[must_use]
    pub fn mean_at(&self, theta: f64) -> f64 {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0,1]");
        (self.intercept + self.slope * theta).max(1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_interpolation_endpoints() {
        let p = OverheadProfile::from_two_points(12.0, 6.0).unwrap();
        assert!((p.mean_at(0.0) - 12.0).abs() < 1e-12);
        assert!((p.mean_at(0.9) - 6.0).abs() < 1e-12);
        // Midpoint.
        assert!((p.mean_at(0.45) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_line() {
        let pts = [(0.0, 12.0), (0.3, 10.0), (0.6, 8.0), (0.9, 6.0)];
        let p = OverheadProfile::fit(&pts).unwrap();
        assert!((p.mean_at(0.45) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn floor_prevents_nonpositive_overhead() {
        // Steeply decreasing line would go negative at θ=1.
        let p = OverheadProfile::from_two_points(1.0, 0.05).unwrap();
        assert!(p.mean_at(1.0) > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(OverheadProfile::from_two_points(0.0, 5.0).is_err());
        assert!(OverheadProfile::fit(&[(0.0, 1.0)]).is_err());
        assert!(OverheadProfile::fit(&[(0.5, 1.0), (0.5, 2.0)]).is_err());
    }
}
