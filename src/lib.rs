//! # archline — energy-roofline analysis of HPC compute building blocks
//!
//! A from-scratch Rust reproduction of Choi, Dukhan, Liu & Vuduc,
//! *"Algorithmic time, energy, and power on candidate HPC compute building
//! blocks"* (IPDPS 2014): the extended energy-roofline model (power caps,
//! memory-hierarchy energy costs, random access), the 12 evaluation
//! platforms, a simulated measurement substrate (platform simulator +
//! PowerMon 2 power sampler), the nonlinear model-fitting pipeline, real
//! host microbenchmark kernels, and a harness regenerating every table and
//! figure of the paper.
//!
//! This facade crate re-exports the workspace crates under stable names:
//!
//! * [`model`] — the energy-roofline model (eqs. 1–7), scenarios, crossovers.
//! * [`platforms`] — Table I as data.
//! * [`stats`] — quantiles, K-S and Mann–Whitney tests, correlation.
//! * [`fit`] — regression substrate and the model-fitting pipeline.
//! * [`par`] — the minimal data-parallelism substrate.
//! * [`faults`] — seeded fault injection over traces and measurement runs.
//! * [`obs`] — structured tracing, metrics, and convergence diagnostics.
//! * [`powermon`] — power traces, the simulated PowerMon 2 and interposer.
//! * [`machine`] — the continuous-time platform simulator.
//! * [`microbench`] — microbenchmark kernels and sweep drivers.
//! * [`repro`] — per-table/figure regeneration of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use archline::model::{EnergyRoofline, Workload};
//! use archline::platforms::{platform, PlatformId, Precision};
//!
//! let titan = platform(PlatformId::GtxTitan);
//! let model = EnergyRoofline::new(titan.machine_params(Precision::Single).unwrap());
//! let fft = Workload::from_intensity(1e12, 4.0); // 1 Tflop at 4 flop:Byte
//! println!(
//!     "time {:.3} s, energy {:.1} J, power {:.0} W",
//!     model.time(&fft),
//!     model.energy(&fft),
//!     model.avg_power(&fft),
//! );
//! ```

#![forbid(unsafe_code)]

pub mod prelude;

pub use archline_core as model;
pub use archline_faults as faults;
pub use archline_fit as fit;
pub use archline_machine as machine;
pub use archline_microbench as microbench;
pub use archline_obs as obs;
pub use archline_par as par;
pub use archline_platforms as platforms;
pub use archline_powermon as powermon;
pub use archline_repro as repro;
pub use archline_stats as stats;
