//! Streaming change-point detection over a bounded ring.
//!
//! [`StreamingCpd`] keeps the last `window` points of one series as
//! `(round, value)` pairs and re-runs the batch kernel every
//! `detect_every` pushes. Detection cadence is counted in *points*, not
//! wall rounds, so two runs that feed the same point sequence detect at
//! identical moments regardless of how pushes interleave with other
//! series — the property the fleet's byte-identity contract relies on.
//!
//! Each change point is emitted exactly once: the ring maps a detected
//! split index back to the round label of its first post-change point,
//! and rounds at or before the high-water mark of previous emissions
//! are suppressed. (Change points arrive in round order in practice —
//! a regime shift keeps its round label as the window slides — so a
//! monotone high-water mark is enough for deduplication.)

use crate::ediv::{detect, EDivConfig};
use std::collections::VecDeque;

/// Configuration for one streaming detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Ring capacity: how many trailing points each series keeps.
    pub window: usize,
    /// Run the batch kernel every this many pushes (≥ 1).
    pub detect_every: usize,
    /// Batch kernel settings shared by every detection pass.
    pub ediv: EDivConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            window: 64,
            detect_every: 8,
            ediv: EDivConfig::default(),
        }
    }
}

/// A change point surfaced by the streaming layer, labelled with the
/// round of its first post-change observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDetection {
    /// Round label supplied with the first post-change point.
    pub round: u64,
    /// `mean(after) − mean(before)` within the detection window.
    pub magnitude: f64,
    /// `1 − p` from the permutation test.
    pub confidence: f64,
}

/// Bounded-ring streaming wrapper around the batch E-divisive kernel.
#[derive(Debug, Clone)]
pub struct StreamingCpd {
    config: StreamConfig,
    ring: VecDeque<(u64, f64)>,
    since_detect: usize,
    /// Highest round already emitted; earlier rounds are suppressed.
    emitted_up_to: Option<u64>,
}

impl StreamingCpd {
    /// Creates an empty detector. `window` and `detect_every` are
    /// clamped to at least 1.
    #[must_use]
    pub fn new(config: StreamConfig) -> Self {
        let config = StreamConfig {
            window: config.window.max(1),
            detect_every: config.detect_every.max(1),
            ..config
        };
        Self {
            config,
            ring: VecDeque::with_capacity(config.window.max(1)),
            since_detect: 0,
            emitted_up_to: None,
        }
    }

    /// Appends one observation and returns any change points that
    /// became detectable. Non-finite values are clamped to zero so a
    /// stray NaN cannot poison the pair sums.
    pub fn push(&mut self, round: u64, value: f64) -> Vec<StreamDetection> {
        let value = if value.is_finite() { value } else { 0.0 };
        if self.ring.len() == self.config.window {
            self.ring.pop_front();
        }
        self.ring.push_back((round, value));
        self.since_detect += 1;
        if self.since_detect >= self.config.detect_every {
            self.since_detect = 0;
            self.detect_now(true)
        } else {
            Vec::new()
        }
    }

    /// Runs one final detection pass over whatever the ring holds,
    /// regardless of cadence or confirmation. Called at end of run so a
    /// change close to the last round is not lost to the `detect_every`
    /// stride.
    pub fn flush(&mut self) -> Vec<StreamDetection> {
        self.since_detect = 0;
        self.detect_now(false)
    }

    /// Points currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no points are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    fn detect_now(&mut self, confirmed_only: bool) -> Vec<StreamDetection> {
        let values: Vec<f64> = self.ring.iter().map(|&(_, v)| v).collect();
        let detections = detect(&values, &self.config.ediv);
        // Confirmation: as a regime shift slides *into* the window the
        // kernel briefly maximizes at the minimum-size tail segment,
        // mislocating the split. Mid-stream passes therefore only
        // report a split once 2·min_segment post-change points exist;
        // the end-of-run flush waives this (no more data is coming).
        let confirm = 2 * self.config.ediv.min_segment.max(2);
        let mut fresh = Vec::new();
        for d in detections {
            if confirmed_only && d.index + confirm > values.len() {
                continue;
            }
            let round = self.ring[d.index].0;
            if self.emitted_up_to.is_some_and(|hi| round <= hi) {
                continue;
            }
            self.emitted_up_to = Some(round);
            fresh.push(StreamDetection {
                round,
                magnitude: d.magnitude,
                confidence: d.confidence,
            });
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> StreamConfig {
        StreamConfig::default()
    }

    #[test]
    fn step_detected_shortly_after_it_happens() {
        let mut s = StreamingCpd::new(cfg());
        let mut hits = Vec::new();
        for round in 0..64u64 {
            let v = if round < 40 { 1.0 } else { 6.0 };
            for d in s.push(round, v) {
                hits.push((round, d));
            }
        }
        assert_eq!(hits.len(), 1, "{hits:?}");
        let (seen_at, d) = hits[0];
        assert_eq!(d.round, 40);
        // Detected within two detection windows of the change.
        assert!(
            seen_at - d.round <= 2 * cfg().detect_every as u64,
            "change at {} only seen at {seen_at}",
            d.round
        );
    }

    #[test]
    fn each_change_point_emitted_once() {
        let mut s = StreamingCpd::new(cfg());
        let mut emitted = Vec::new();
        for round in 0..128u64 {
            let v = if round < 40 { 1.0 } else { 6.0 };
            emitted.extend(s.push(round, v));
        }
        emitted.extend(s.flush());
        assert_eq!(emitted.len(), 1, "{emitted:?}");
        assert_eq!(emitted[0].round, 40);
    }

    #[test]
    fn flush_catches_late_changes() {
        let mut s = StreamingCpd::new(StreamConfig {
            detect_every: 1000, // cadence alone would never fire
            ..cfg()
        });
        for round in 0..60u64 {
            let v = if round < 30 { 2.0 } else { 9.0 };
            assert!(s.push(round, v).is_empty());
        }
        let final_pass = s.flush();
        assert_eq!(final_pass.len(), 1, "{final_pass:?}");
        assert_eq!(final_pass[0].round, 30);
    }

    #[test]
    fn ring_is_bounded() {
        let mut s = StreamingCpd::new(StreamConfig {
            window: 16,
            ..cfg()
        });
        for round in 0..1000u64 {
            s.push(round, 1.0);
        }
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn rounds_survive_ring_wraparound() {
        // Change lands after the ring has already slid: the detection
        // must still carry the original round label, not a ring index.
        let mut s = StreamingCpd::new(cfg());
        let mut emitted = Vec::new();
        for round in 0..200u64 {
            let v = if round < 150 { 1.0 } else { 5.0 };
            emitted.extend(s.push(round, v));
        }
        assert_eq!(emitted.len(), 1, "{emitted:?}");
        assert_eq!(emitted[0].round, 150);
    }

    #[test]
    fn non_finite_values_are_clamped() {
        let mut s = StreamingCpd::new(cfg());
        for round in 0..64u64 {
            let v = if round % 7 == 0 { f64::NAN } else { 1.0 };
            for d in s.push(round, v) {
                assert!(d.magnitude.is_finite());
            }
        }
    }

    proptest! {
        /// With the window covering the whole series and detection
        /// triggered once at the end, the streaming wrapper must agree
        /// exactly with the batch kernel on the same input: same split
        /// rounds, same magnitudes, same confidences.
        #[test]
        fn streaming_matches_batch_on_identical_input(
            values in prop::collection::vec(-1e3..1e3f64, 16..80),
            step_at in 4..60usize,
            shift in 50.0..200.0f64,
        ) {
            let mut series = values;
            let at = step_at.min(series.len().saturating_sub(1));
            for v in &mut series[at..] {
                *v += shift;
            }
            let batch = crate::ediv::detect(&series, &EDivConfig::default());

            let mut stream = StreamingCpd::new(StreamConfig {
                window: series.len(),
                detect_every: series.len(),
                ..StreamConfig::default()
            });
            let mut emitted = Vec::new();
            for (round, &v) in series.iter().enumerate() {
                emitted.extend(stream.push(round as u64, v));
            }
            emitted.extend(stream.flush());

            prop_assert_eq!(emitted.len(), batch.len());
            for (s, b) in emitted.iter().zip(&batch) {
                prop_assert_eq!(s.round, b.index as u64);
                prop_assert!((s.magnitude - b.magnitude).abs() < 1e-12);
                prop_assert!((s.confidence - b.confidence).abs() < 1e-12);
            }
        }
    }
}
