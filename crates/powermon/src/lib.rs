//! # archline-powermon — power-measurement substrate
//!
//! The paper measures power with **PowerMon 2** (Bedard et al.): an 8-channel
//! DC power monitor that sits between a device and its DC source, sampling
//! voltage and current at 1024 Hz per channel (3072 Hz aggregate), plus a
//! custom **PCIe interposer** that separates the motherboard-slot rail from
//! the 6-/8-pin PCIe power connectors of high-end GPUs. Average power is the
//! mean of instantaneous samples; multi-source devices sum rail averages;
//! energy is average power × execution time (paper §IV-h).
//!
//! We do not have that hardware, so this crate implements a faithful
//! simulation of the measurement chain — rail splitting, current/voltage
//! sensing with noise, 12-bit ADC quantization, per-channel sample-rate
//! budgeting — plus the estimators the paper uses on top, and an optional
//! reader for Linux RAPL (`/sys/class/powercap`) so the same API can report
//! live energy on hosts that expose it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
pub mod device;
pub mod interposer;
pub mod logger;
pub mod noise;
pub mod rail;
pub mod rapl;
pub mod trace;

pub use adc::Adc;
pub use device::{ChannelConfig, Measurement, PowerMon2};
pub use interposer::PcieInterposer;
pub use logger::{parse_log, write_log, LogError};
pub use rail::{Rail, RailSplit};
pub use rapl::{counter_delta_uj, RaplReader};
pub use trace::{PowerTrace, Sample, SanitizeReport, TraceError};
