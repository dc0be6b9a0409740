//! Self-monitoring of deployed optimizations (paper §5 / §3 "dual goal").
//!
//! Region monitoring's second purpose is verifying that a deployed
//! optimization actually helps: speculative optimizations like data
//! prefetching can backfire. The self-monitor accumulates each patched
//! region's observed benefit over a window of intervals; a region whose
//! cumulative benefit is negative is *blacklisted* — its trace is undone
//! and never redeployed.
//!
//! With [`SelfMonitorConfig::change_points`] enabled, each region's
//! benefit series additionally runs through a streaming E-divisive
//! change-point detector ([`regmon_cpd`]): a confident *downward* shift
//! whose post-change benefit is non-positive blacklists the region even
//! while earlier gains in the cumulative window would still mask it.

use std::collections::{HashMap, HashSet, VecDeque};

use regmon_cpd::{EDivConfig, StreamConfig, StreamingCpd};
use regmon_regions::RegionId;

/// Self-monitoring policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfMonitorConfig {
    /// Number of patched intervals observed before judging a region.
    pub evaluation_intervals: usize,
    /// Also watch each region's benefit series for confident downward
    /// change points (blacklisting on a shift into non-positive
    /// benefit). Off by default: cumulative judging alone reproduces
    /// the paper's policy.
    pub change_points: bool,
}

impl Default for SelfMonitorConfig {
    fn default() -> Self {
        Self {
            evaluation_intervals: 4,
            change_points: false,
        }
    }
}

/// Streaming windowing for the per-region benefit detector: tighter
/// than the fleet defaults because a single region sees few patched
/// intervals.
fn benefit_stream_config() -> StreamConfig {
    StreamConfig {
        window: 32,
        detect_every: 4,
        ediv: EDivConfig {
            min_segment: 4,
            ..EDivConfig::default()
        },
    }
}

/// Minimum permutation-test confidence for a blacklisting shift.
const SHIFT_CONFIDENCE: f64 = 0.9;

/// Per-region benefit trend state for change-point mode.
#[derive(Debug, Clone)]
struct Trend {
    cpd: StreamingCpd,
    /// Recent `(ordinal, benefit)` pairs, bounded to the detector
    /// window — used to judge the post-shift mean in original units.
    recent: VecDeque<(u64, f64)>,
    pushes: u64,
}

impl Trend {
    fn new() -> Self {
        Self {
            cpd: StreamingCpd::new(benefit_stream_config()),
            recent: VecDeque::new(),
            pushes: 0,
        }
    }

    /// Feeds one benefit observation; `true` when a confident downward
    /// shift into non-positive benefit landed.
    fn push(&mut self, benefit: f64) -> bool {
        let ordinal = self.pushes;
        self.pushes += 1;
        self.recent.push_back((ordinal, benefit));
        if self.recent.len() > benefit_stream_config().window {
            self.recent.pop_front();
        }
        self.cpd.push(ordinal, benefit).iter().any(|d| {
            d.magnitude < 0.0 && d.confidence >= SHIFT_CONFIDENCE && {
                let tail: Vec<f64> = self
                    .recent
                    .iter()
                    .filter(|(o, _)| *o >= d.round)
                    .map(|(_, b)| *b)
                    .collect();
                !tail.is_empty() && tail.iter().sum::<f64>() <= 0.0
            }
        })
    }
}

/// Tracks observed per-region benefit and blacklists harmful patches.
#[derive(Debug, Clone, Default)]
pub struct SelfMonitor {
    config: SelfMonitorConfig,
    observed: HashMap<RegionId, (usize, f64)>, // (patched intervals, cumulative benefit)
    trends: HashMap<RegionId, Trend>,
    blacklist: HashSet<RegionId>,
}

impl SelfMonitor {
    /// Creates a self-monitor.
    #[must_use]
    pub fn new(config: SelfMonitorConfig) -> Self {
        Self {
            config,
            observed: HashMap::new(),
            trends: HashMap::new(),
            blacklist: HashSet::new(),
        }
    }

    /// Records one patched interval's observed benefit for `region`.
    /// Returns `true` when the region was just blacklisted.
    pub fn record(&mut self, region: RegionId, benefit_cycles: f64) -> bool {
        if self.blacklist.contains(&region) {
            return false;
        }
        if self.config.change_points
            && self
                .trends
                .entry(region)
                .or_insert_with(Trend::new)
                .push(benefit_cycles)
        {
            self.observed.remove(&region);
            self.trends.remove(&region);
            self.blacklist.insert(region);
            return true;
        }
        let entry = self.observed.entry(region).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += benefit_cycles;
        if entry.0 >= self.config.evaluation_intervals {
            let harmful = entry.1 <= 0.0;
            // Restart the window either way so a later behaviour change
            // can still be caught.
            *entry = (0, 0.0);
            if harmful {
                self.observed.remove(&region);
                self.trends.remove(&region);
                self.blacklist.insert(region);
                return true;
            }
        }
        false
    }

    /// `true` when `region` must not be (re)patched.
    #[must_use]
    pub fn is_blacklisted(&self, region: RegionId) -> bool {
        self.blacklist.contains(&region)
    }

    /// Number of blacklisted regions.
    #[must_use]
    pub fn blacklisted(&self) -> usize {
        self.blacklist.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beneficial_region_is_never_blacklisted() {
        let mut sm = SelfMonitor::new(SelfMonitorConfig::default());
        for _ in 0..20 {
            sm.record(RegionId(1), 100.0);
        }
        assert!(!sm.is_blacklisted(RegionId(1)));
        assert_eq!(sm.blacklisted(), 0);
    }

    #[test]
    fn harmful_region_is_blacklisted_after_window() {
        let mut sm = SelfMonitor::new(SelfMonitorConfig {
            evaluation_intervals: 3,
            ..Default::default()
        });
        assert!(!sm.is_blacklisted(RegionId(2)));
        sm.record(RegionId(2), -50.0);
        sm.record(RegionId(2), -50.0);
        assert!(!sm.is_blacklisted(RegionId(2)));
        sm.record(RegionId(2), -50.0);
        assert!(sm.is_blacklisted(RegionId(2)));
        assert_eq!(sm.blacklisted(), 1);
    }

    #[test]
    fn mixed_but_net_positive_survives() {
        let mut sm = SelfMonitor::new(SelfMonitorConfig {
            evaluation_intervals: 2,
            ..Default::default()
        });
        sm.record(RegionId(3), -10.0);
        sm.record(RegionId(3), 30.0);
        assert!(!sm.is_blacklisted(RegionId(3)));
    }

    #[test]
    fn blacklisted_region_stays_blacklisted() {
        let mut sm = SelfMonitor::new(SelfMonitorConfig {
            evaluation_intervals: 1,
            ..Default::default()
        });
        sm.record(RegionId(4), -1.0);
        assert!(sm.is_blacklisted(RegionId(4)));
        sm.record(RegionId(4), 1_000.0);
        assert!(sm.is_blacklisted(RegionId(4)));
    }

    #[test]
    fn late_turn_to_harmful_is_caught() {
        let mut sm = SelfMonitor::new(SelfMonitorConfig {
            evaluation_intervals: 2,
            ..Default::default()
        });
        // Two good windows...
        for _ in 0..4 {
            sm.record(RegionId(5), 10.0);
        }
        // ...then the behaviour flips.
        sm.record(RegionId(5), -100.0);
        sm.record(RegionId(5), -100.0);
        assert!(sm.is_blacklisted(RegionId(5)));
    }

    /// A long evaluation window where early gains keep the cumulative
    /// sum positive long after the flip.
    fn masked_flip_config() -> SelfMonitorConfig {
        SelfMonitorConfig {
            evaluation_intervals: 64,
            change_points: true,
        }
    }

    #[test]
    fn change_point_mode_catches_a_masked_flip() {
        let mut sm = SelfMonitor::new(masked_flip_config());
        let region = RegionId(6);
        let mut caught_at = None;
        for i in 0..40 {
            let benefit = if i < 16 { 50.0 } else { -50.0 };
            if sm.record(region, benefit) {
                caught_at = Some(i);
                break;
            }
        }
        let caught_at = caught_at.expect("downward shift must blacklist");
        assert!(sm.is_blacklisted(region));
        // Cumulative benefit first reaches zero at record 32; the
        // change-point path must beat the masking, and certainly the
        // 64-interval window.
        assert!(
            caught_at < 32,
            "shift should be caught while gains still mask it, was {caught_at}"
        );
    }

    #[test]
    fn change_point_mode_tolerates_a_drop_that_stays_beneficial() {
        let mut sm = SelfMonitor::new(masked_flip_config());
        let region = RegionId(7);
        for i in 0..40 {
            let benefit = if i < 16 { 200.0 } else { 50.0 };
            assert!(
                !sm.record(region, benefit),
                "positive post-shift benefit must not blacklist (record {i})"
            );
        }
        assert!(!sm.is_blacklisted(region));
    }

    #[test]
    fn change_point_mode_is_off_by_default() {
        assert!(!SelfMonitorConfig::default().change_points);
        // Same masked-flip series, default config: the cumulative judge
        // with its short window eventually catches the flip, but only
        // once the sums turn — not via the detector.
        let mut sm = SelfMonitor::new(SelfMonitorConfig::default());
        let region = RegionId(8);
        for i in 0..24 {
            let benefit = if i < 16 { 50.0 } else { -50.0 };
            sm.record(region, benefit);
        }
        // Windows of 4: [50×4]+, [50×4]+, ... then [-50×4]− at i=19.
        assert!(sm.is_blacklisted(region));
    }
}
