//! Change-point detection (CPD) for fleet telemetry time series.
//!
//! The paper's region monitor answers "did *this region's* behaviour
//! change?" per interval. Operating millions of sessions needs the
//! fleet-level analogue: "which tenant's series stepped, and at which
//! round?". This crate implements the E-divisive means family of
//! change-point detectors — the technique behind Hunter
//! (arXiv:2301.03034) and MongoDB's CI change-point system
//! (arXiv:2003.00584) — which beats threshold alerting because it needs
//! no per-series tuning: a change point is wherever splitting the series
//! maximizes the between-segment energy statistic, and its confidence
//! comes from a permutation test rather than a magic constant.
//!
//! * [`ediv`] — the batch kernel: hierarchical E-divisive means with a
//!   deterministic permutation significance test.
//! * [`stream`] — a bounded-ring streaming wrapper that re-runs the
//!   batch kernel on a sliding window and emits each change point once.
//! * [`hub`] — a keyed collection of streaming detectors (one per
//!   tenant × region × metric) as used by the fleet driver and the
//!   offline `regmon cpd` analyzer.
//!
//! Everything here is deterministic: the permutation PRNG is a fixed
//! splitmix64 sequence, detection cadence is a pure function of the
//! point sequence, and the hub iterates series in `BTreeMap` order — so
//! identical inputs produce byte-identical reports regardless of thread
//! count, SIMD level, or shard batching.
//!
//! # Example
//!
//! ```
//! use regmon_cpd::{detect, EDivConfig};
//!
//! // A clean level shift at index 32.
//! let series: Vec<f64> = (0..64).map(|i| if i < 32 { 1.0 } else { 5.0 }).collect();
//! let found = detect(&series, &EDivConfig::default());
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].index, 32);
//! assert!(found[0].magnitude > 3.0);
//! assert!(found[0].confidence > 0.9);
//! ```

#![forbid(unsafe_code)]

pub mod ediv;
pub mod hub;
pub mod stream;

pub use ediv::{detect, Detection, EDivConfig};
pub use hub::{ChangePoint, CpdHub, Metric, SeriesKey, NO_REGION, NO_TENANT};
pub use stream::{StreamConfig, StreamDetection, StreamingCpd};
