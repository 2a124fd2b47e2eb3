//! The task-level processing-time model (paper §4.1, Eq. 1).
//!
//! A priority-`k` job is a continuous-time Markov chain over the phases
//! `{O, M_t̄, …, M_1, S, R_ū, …, R_1}`: an exponential setup stage `O`, a map stage
//! counting down remaining map tasks with parallelism `min(t, C)`, an exponential
//! shuffle stage `S`, and a reduce stage counting down remaining reduce tasks. Task
//! dropping reduces the entry point: a job with `t` map tasks starts the map stage at
//! `t̄ = ⌈t(1−θ_m)⌉` (early drop), and likewise for reduce.

use serde::{Deserialize, Serialize};

use dias_linalg::Matrix;
use dias_stochastic::{DiscreteDist, Ph};

use crate::{effective_tasks, ModelError};

/// Parameters of the task-level model for one priority class (paper Table 1).
///
/// Rates are per-second exponential rates; `1/µ` are the corresponding mean stage
/// durations.
///
/// # Examples
///
/// ```
/// use dias_models::TaskLevelModel;
/// use dias_stochastic::DiscreteDist;
///
/// let model = TaskLevelModel {
///     slots: 20,
///     map_tasks: DiscreteDist::constant(50),
///     reduce_tasks: DiscreteDist::constant(10),
///     setup_rate: 1.0 / 12.0,
///     map_task_rate: 1.0 / 35.0,
///     shuffle_rate: 1.0 / 8.0,
///     reduce_task_rate: 1.0 / 12.0,
///     theta_map: 0.2,
///     theta_reduce: 0.0,
/// };
/// let ph = model.ph().unwrap();
/// // Dropping 20% of 50 map tasks leaves 40 = 2 full waves of 20.
/// assert!(ph.mean() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskLevelModel {
    /// Number of computing slots `C` in the cluster (or partition).
    pub slots: usize,
    /// Distribution of the number of map tasks `p_m(t)`.
    pub map_tasks: DiscreteDist,
    /// Distribution of the number of reduce tasks `p_r(u)`.
    pub reduce_tasks: DiscreteDist,
    /// Setup rate `µ_o` (mean setup time `1/µ_o`).
    pub setup_rate: f64,
    /// Per-task map rate `µ_m`.
    pub map_task_rate: f64,
    /// Shuffle rate `µ_s`.
    pub shuffle_rate: f64,
    /// Per-task reduce rate `µ_r`.
    pub reduce_task_rate: f64,
    /// Map task-drop ratio `θ_m ∈ [0, 1]`.
    pub theta_map: f64,
    /// Reduce task-drop ratio `θ_r ∈ [0, 1]`.
    pub theta_reduce: f64,
}

impl TaskLevelModel {
    /// Returns a copy with different drop ratios.
    #[must_use]
    pub fn with_drop(&self, theta_map: f64, theta_reduce: f64) -> Self {
        TaskLevelModel {
            theta_map,
            theta_reduce,
            ..self.clone()
        }
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.slots == 0 {
            return Err(ModelError::BadParameter("slots must be >= 1".into()));
        }
        for (name, rate) in [
            ("setup_rate", self.setup_rate),
            ("map_task_rate", self.map_task_rate),
            ("shuffle_rate", self.shuffle_rate),
            ("reduce_task_rate", self.reduce_task_rate),
        ] {
            if rate <= 0.0 {
                return Err(ModelError::BadParameter(format!(
                    "{name} must be positive, got {rate}"
                )));
            }
        }
        for (name, theta) in [
            ("theta_map", self.theta_map),
            ("theta_reduce", self.theta_reduce),
        ] {
            if !(0.0..=1.0).contains(&theta) {
                return Err(ModelError::BadParameter(format!(
                    "{name} must be in [0,1], got {theta}"
                )));
            }
        }
        Ok(())
    }

    /// Builds the phase-type representation `(ϕ, F)` of the job processing time
    /// (Eq. 1), with `N̄_m + N̄_r + 2` phases.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadParameter`] for invalid rates, drop ratios or slots.
    pub fn ph(&self) -> Result<Ph, ModelError> {
        self.validate()?;
        let c = self.slots;
        let nm_max = self.map_tasks.max_value();
        let nr_max = self.reduce_tasks.max_value();
        let nm_bar = effective_tasks(nm_max, self.theta_map);
        let nr_bar = effective_tasks(nr_max, self.theta_reduce);

        // Phase layout: 0 = O; 1..=nm_bar: M_t with t = nm_bar..1 (index 1 + nm_bar - t);
        // s_idx = 1 + nm_bar = S; then R_u with u = nr_bar..1.
        let s_idx = 1 + nm_bar;
        let order = nm_bar + nr_bar + 2;
        let map_idx = |t: usize| 1 + (nm_bar - t);
        let red_idx = |u: usize| s_idx + 1 + (nr_bar - u);

        let mut f = Matrix::zeros(order, order);

        // Row O: µ_o * p_m(t) into M_t̄ (aggregating all t that share one t̄); a job
        // whose map stage drops to zero tasks jumps straight to the shuffle stage.
        for (t, p) in self.map_tasks.support() {
            let t_bar = effective_tasks(t, self.theta_map);
            let target = if t_bar == 0 { s_idx } else { map_idx(t_bar) };
            f[(0, target)] += self.setup_rate * p;
        }
        f[(0, 0)] = -self.setup_rate;

        // Map countdown: rate min(t, C) * µ_m from M_t to M_{t-1} (M_1 exits to S).
        for t in 1..=nm_bar {
            let rate = (t.min(c)) as f64 * self.map_task_rate;
            let from = map_idx(t);
            let to = if t == 1 { s_idx } else { map_idx(t - 1) };
            f[(from, to)] = rate;
            f[(from, from)] = -rate;
        }

        // Shuffle: µ_s * p_r(u) into R_ū; zero effective reduce tasks absorb directly
        // (handled by leaving the rate as exit mass).
        let mut shuffle_exit = 0.0;
        for (u, p) in self.reduce_tasks.support() {
            let u_bar = effective_tasks(u, self.theta_reduce);
            if u_bar == 0 {
                shuffle_exit += self.shuffle_rate * p;
            } else {
                f[(s_idx, red_idx(u_bar))] += self.shuffle_rate * p;
            }
        }
        // Diagonal carries the full shuffle rate; `shuffle_exit` leaves the chain.
        let _ = shuffle_exit;
        f[(s_idx, s_idx)] = -self.shuffle_rate;

        // Reduce countdown; R_1 exits to absorption (row sum strictly negative).
        for u in 1..=nr_bar {
            let rate = (u.min(c)) as f64 * self.reduce_task_rate;
            let from = red_idx(u);
            f[(from, from)] = -rate;
            if u > 1 {
                f[(from, red_idx(u - 1))] = rate;
            }
        }

        let mut phi = vec![0.0; order];
        phi[0] = 1.0;
        Ph::new(phi, f).map_err(ModelError::from)
    }

    /// Mean processing time under the current drop ratios.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`TaskLevelModel::ph`].
    pub fn mean_processing_time(&self) -> Result<f64, ModelError> {
        Ok(self.ph()?.mean())
    }

    /// First and second raw moments of the processing time, as consumed by the
    /// priority-queue formulas.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`TaskLevelModel::ph`].
    pub fn moments(&self) -> Result<(f64, f64), ModelError> {
        let ph = self.ph()?;
        Ok((ph.moment(1), ph.moment(2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_model() -> TaskLevelModel {
        TaskLevelModel {
            slots: 20,
            map_tasks: DiscreteDist::constant(50),
            reduce_tasks: DiscreteDist::constant(10),
            setup_rate: 1.0 / 12.0,
            map_task_rate: 1.0 / 35.0,
            shuffle_rate: 1.0 / 8.0,
            reduce_task_rate: 1.0 / 12.0,
            theta_map: 0.0,
            theta_reduce: 0.0,
        }
    }

    /// Expected mean for deterministic task counts: sum over countdown rates.
    fn analytic_mean(model: &TaskLevelModel, t: usize, u: usize) -> f64 {
        let c = model.slots;
        let t_bar = effective_tasks(t, model.theta_map);
        let u_bar = effective_tasks(u, model.theta_reduce);
        let map_time: f64 = (1..=t_bar)
            .map(|k| 1.0 / (k.min(c) as f64 * model.map_task_rate))
            .sum();
        let red_time: f64 = (1..=u_bar)
            .map(|k| 1.0 / (k.min(c) as f64 * model.reduce_task_rate))
            .sum();
        1.0 / model.setup_rate + map_time + 1.0 / model.shuffle_rate + red_time
    }

    #[test]
    fn mean_matches_stagewise_sum() {
        let m = base_model();
        let expected = analytic_mean(&m, 50, 10);
        let got = m.mean_processing_time().unwrap();
        assert!(
            (got - expected).abs() < 1e-8,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn dropping_reduces_mean_monotonically() {
        let m = base_model();
        let mut last = f64::INFINITY;
        for theta in [0.0, 0.1, 0.2, 0.4, 0.6, 0.8] {
            let mean = m.with_drop(theta, 0.0).mean_processing_time().unwrap();
            assert!(mean < last, "mean must decrease with drop ratio");
            last = mean;
        }
    }

    #[test]
    fn drop_matches_effective_task_count() {
        let m = base_model().with_drop(0.2, 0.0);
        // 50 * 0.8 = 40 tasks.
        let expected = analytic_mean(&m, 50, 10);
        assert!((m.mean_processing_time().unwrap() - expected).abs() < 1e-8);
    }

    #[test]
    fn full_drop_skips_stage() {
        let m = base_model().with_drop(1.0, 1.0);
        let got = m.mean_processing_time().unwrap();
        let expected = 12.0 + 8.0; // setup + shuffle only
        assert!((got - expected).abs() < 1e-8, "got {got}");
    }

    #[test]
    fn random_task_counts_average() {
        let mut m = base_model();
        m.map_tasks = DiscreteDist::from_weights(&{
            let mut w = vec![0.0; 50];
            w[29] = 0.5; // 30 tasks
            w[49] = 0.5; // 50 tasks
            w
        })
        .unwrap();
        let expected = 0.5 * analytic_mean(&m, 30, 10) + 0.5 * analytic_mean(&m, 50, 10);
        assert!((m.mean_processing_time().unwrap() - expected).abs() < 1e-8);
    }

    #[test]
    fn sf_is_monotone_decreasing() {
        let ph = base_model().ph().unwrap();
        let mut last = 1.0;
        for t in [0.0, 30.0, 60.0, 120.0, 240.0, 480.0] {
            let s = ph.sf(t);
            assert!(s <= last + 1e-12);
            last = s;
        }
    }

    #[test]
    fn order_matches_paper_formula() {
        // N̄m + N̄r + 2 phases.
        let m = base_model();
        assert_eq!(m.ph().unwrap().order(), 50 + 10 + 2);
        let dropped = m.with_drop(0.2, 0.5);
        assert_eq!(dropped.ph().unwrap().order(), 40 + 5 + 2);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut m = base_model();
        m.slots = 0;
        assert!(matches!(m.ph(), Err(ModelError::BadParameter(_))));
        let mut m = base_model();
        m.map_task_rate = 0.0;
        assert!(m.ph().is_err());
        let mut m = base_model();
        m.theta_map = 1.5;
        assert!(m.ph().is_err());
    }

    #[test]
    fn second_moment_exceeds_squared_mean() {
        let (m1, m2) = base_model().moments().unwrap();
        assert!(m2 > m1 * m1, "variance must be positive");
    }
}
