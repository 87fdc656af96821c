//! # archline-fit — regression substrate and the model-fitting pipeline
//!
//! The paper estimates `τ_flop`, `τ_mem`, `ε_flop`, `ε_mem`, `π_1`, and `Δπ`
//! per platform by "(nonlinear) regression parameter fitting" on
//! microbenchmark measurements (§V-A). This crate implements that from
//! scratch:
//!
//! * [`linalg`] — small dense linear solves (Gaussian elimination).
//! * [`ols`] — multivariate ordinary least squares (+ a non-negative
//!   variant used for energy decompositions).
//! * [`nelder_mead`] — derivative-free simplex minimization.
//! * [`measurement`] — the `(W, Q, time, energy)` run tuples produced by
//!   the microbenchmark suite.
//! * [`pipeline`] — the staged fit: sustained peaks → linear energy
//!   decomposition → joint nonlinear refinement, for both the capped and
//!   the uncapped (prior) model.
//! * [`residuals`] — the relative-error distributions Fig. 4 analyzes.
//! * [`robust`] — typed fit errors, MAD outlier rejection, Huber loss,
//!   and the perturbed-restart policy for dirty measurements.
//! * [`ci`] — percentile bootstrap intervals for the fitted constants.
//! * [`selection`] — AICc scores across the model families.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod linalg;
pub mod measurement;
pub mod nelder_mead;
pub mod ols;
pub mod pipeline;
pub mod residuals;
pub mod robust;
pub mod selection;

pub use ci::{fit_platform_ci, FitCi, Interval};
pub use measurement::{MeasurementSet, Run};
pub use nelder_mead::{nelder_mead, NmOptions, NmResult};
pub use ols::{ols, ols_nonneg};
pub use pipeline::{
    fit_level_cost, fit_platform, fit_random_cost, refinement_loss, try_fit_platform,
    FitDiagnostics, FitReport,
};
pub use residuals::{relative_errors, ErrorKind};
pub use robust::{iqr, mad, mad_outliers, median, FitError, FitOptions, Loss};
pub use selection::{aic_c, select_model, ModelScore};
