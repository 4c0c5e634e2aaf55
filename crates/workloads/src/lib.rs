#![warn(missing_docs)]
//! Synthetic SPLASH-2-like barrier workloads (Table 2 of the paper).
//!
//! The paper evaluates on ten SPLASH-2 applications; what the thrifty
//! barrier actually *sees* of an application is its barrier structure:
//! which static barrier sites execute, how often, how long the compute
//! phases between them run, how that work is distributed across threads
//! (the *barrier imbalance*), how stable each site's interval time is
//! across dynamic instances, and how much dirty shared data each phase
//! leaves in the caches. This crate reproduces exactly those statistics:
//!
//! * [`spec`] — application descriptions: phases with base interval times,
//!   per-instance variability models (stable / swinging / drifting), and
//!   dirty-line footprints.
//! * `calibrate` — solves each application's imbalance knob so that the
//!   generated trace's *measured* baseline barrier imbalance matches the
//!   paper's Table 2 value (Volrend 48.2 % … Radiosity 1.04 %).
//! * [`apps`] — the ten application models, with each app's documented
//!   quirks: Ocean's swinging interval times that defeat last-value
//!   prediction, FFT's and Cholesky's handful of *non-repeating* barriers
//!   that leave the PC-indexed predictor unused, Volrend's huge intervals.
//! * [`trace`] — deterministic generation of per-(phase, instance, thread)
//!   compute durations from a seed.
//!
//! # Examples
//!
//! ```
//! use tb_workloads::AppSpec;
//!
//! let fmm = AppSpec::by_name("FMM").unwrap();
//! let trace = fmm.generate(64, 42);
//! // The calibrated trace matches Table 2's imbalance for FMM (16.56%).
//! assert!((trace.analytic_imbalance() - 0.1656).abs() < 0.02);
//! ```

pub mod apps;
mod calibrate;
pub mod spec;
pub mod trace;

pub use spec::{AppSpec, PhaseSpec, Variability};
pub use trace::{AppTrace, TraceStep};
