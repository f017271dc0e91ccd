//! # anp-metrics — statistics substrate
//!
//! Small, dependency-free statistical tools shared by the measurement
//! methodology (`anp-core`) and the experiment harnesses (`anp-bench`):
//!
//! * [`OnlineStats`] — streaming mean/variance (Welford) for latency
//!   samples;
//! * [`Ewma`], [`WindowedQuantiles`], [`Cusum`] — the live monitor's
//!   estimators: decaying moments, sliding-window quantiles, and
//!   change-point detection over probe streams;
//! * [`Histogram`] — fixed-bin latency histograms with the paper's PDFLT
//!   overlap integral `∫ f·g` and distance metrics;
//! * [`Interval`] — `µ±σ` intervals and their overlap (AverageStDevLT);
//! * [`QuartileSummary`] — five-number summaries (Fig. 9 box data);
//! * [`linear_fit`] — least-squares trend lines (Fig. 7 overlays).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod histogram;
pub mod interval;
pub mod linfit;
pub mod online;
pub mod quartiles;

pub use histogram::Histogram;
pub use interval::Interval;
pub use linfit::{linear_fit, LinearFit};
pub use online::{Cusum, Ewma, OnlineStats, Shift, WindowedQuantiles};
pub use quartiles::{quantile, quantile_sorted, MetricsError, QuartileSummary};
