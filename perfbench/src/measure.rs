//! Timing, percentiles and the resident-memory probe.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `min, median, max` of `values`, for the notes on stderr that show
/// how far the units of one run spread.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn range_note(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("min {lo:.0}, median {:.0}, max {hi:.0}", median(values))
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Wall-time samples of a repeated operation, in seconds.
#[derive(Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Runs `f` once, records its wall time and returns its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(start.elapsed().as_secs_f64());
        out
    }

    /// Records one sample.
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    /// Median of the samples.
    ///
    /// # Panics
    ///
    /// When nothing was recorded.
    #[must_use]
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Per-interval latency samples, in nanoseconds, stored in a buffer
/// whose pages are touched before the timed phase so that recording
/// does not show up as memory growth. Samples are grouped by unit of
/// work (a pass over the inputs), and percentiles are taken per unit.
#[derive(Debug)]
pub struct Latencies {
    ns: Vec<u64>,
    /// End offset of each closed unit in `ns`.
    unit_ends: Vec<usize>,
}

impl Latencies {
    /// A buffer for at least `capacity` samples, already resident.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut ns = Vec::with_capacity(capacity);
        // `resize` writes every element, which faults the pages in;
        // `vec![0; n]` would map untouched zero pages instead.
        ns.resize(capacity, 1);
        ns.clear();
        Self {
            ns,
            unit_ends: Vec::new(),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, elapsed: Duration) {
        self.ns.push(elapsed.as_nanos() as u64);
    }

    /// Closes the current unit: later samples belong to the next one.
    pub fn end_unit(&mut self) {
        self.unit_ends.push(self.ns.len());
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// `(p50, p99)` in microseconds, each the median over the units of
    /// that unit's percentile, so that a burst of host noise in a few
    /// units does not move them; plus how many samples in all lie above
    /// their unit's p99. Samples after the last closed unit form one
    /// more unit.
    ///
    /// # Panics
    ///
    /// When nothing was recorded.
    #[must_use]
    pub fn p50_p99_us(&self) -> (f64, f64, usize) {
        let mut bounds = vec![0];
        bounds.extend(self.unit_ends.iter().copied());
        if bounds.last() != Some(&self.ns.len()) {
            bounds.push(self.ns.len());
        }
        let (mut p50s, mut p99s, mut beyond) = (Vec::new(), Vec::new(), 0);
        for pair in bounds.windows(2).filter(|w| w[1] > w[0]) {
            let mut sorted = self.ns[pair[0]..pair[1]].to_vec();
            sorted.sort_unstable();
            let p99 = percentile(&sorted, 99.0);
            p50s.push(percentile(&sorted, 50.0) as f64 / 1e3);
            p99s.push(p99 as f64 / 1e3);
            beyond += sorted.len() - sorted.partition_point(|&v| v <= p99);
        }
        (median(&p50s), median(&p99s), beyond)
    }
}

/// Peak resident memory over a phase, measured against the resident set
/// at the phase start. Linux resets the `VmHWM` high-water mark when
/// `5` is written to `/proc/self/clear_refs`; memory the process held
/// before the phase (its inputs) is then not counted as growth.
#[derive(Debug)]
struct MemProbe {
    start_kb: u64,
}

impl MemProbe {
    /// Resets the high-water mark and records the current resident
    /// set. `Err` explains why the reset is not possible here.
    fn start() -> Result<Self, String> {
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))?;
        let (rss, hwm) = status_kb()?;
        // After a reset the mark equals the resident set; a mark far
        // above it means the kernel ignored the request.
        if hwm > rss + 1024 {
            return Err(format!(
                "VmHWM stayed at {hwm} kB over VmRSS {rss} kB after writing clear_refs"
            ));
        }
        Ok(Self { start_kb: rss })
    }

    /// Peak resident set since [`MemProbe::start`] minus the resident
    /// set at that point, in MiB.
    fn growth_mb(&self) -> Result<f64, String> {
        let (_, hwm) = status_kb()?;
        Ok(hwm.saturating_sub(self.start_kb) as f64 / 1024.0)
    }
}

/// Memory growth of each timed unit of work (a pass, a fleet run, a
/// serve round), each measured from the unit's own start, so that
/// set-up and recovery between the units are never counted.
#[derive(Debug, Default)]
pub struct MemGrowth {
    mb: Vec<f64>,
    error: Option<String>,
}

impl MemGrowth {
    /// Runs one unit of work `f` between a high-water reset and a read.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let probe = MemProbe::start();
        let out = f();
        match probe.and_then(|p| p.growth_mb()) {
            Ok(mb) => self.mb.push(mb),
            Err(why) => {
                self.error.get_or_insert(why);
            }
        }
        out
    }

    /// The largest growth of any unit in MiB, or why it was not
    /// measured.
    pub fn peak_mb(&self) -> Result<f64, String> {
        if let Some(why) = &self.error {
            return Err(why.clone());
        }
        self.mb
            .iter()
            .copied()
            .reduce(f64::max)
            .ok_or_else(|| "no timed unit ran".to_string())
    }
}

/// `(VmRSS, VmHWM)` of this process in kB.
fn status_kb() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let field = |key: &str| -> Result<u64, String> {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("/proc/self/status has no {key} line"))
    };
    Ok((field("VmRSS:")?, field("VmHWM:")?))
}

/// `(all, steal)` CPU ticks of the whole machine from `/proc/stat`. The
/// steal column counts time the hypervisor ran something else while a
/// virtual CPU wanted to run.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_medians_over_units() {
        let mut latencies = Latencies::with_capacity(0);
        // Three units of 100 samples: 1..=100 µs, the same shifted by a
        // burst of +1 ms, and 1..=100 µs again.
        for burst in [0, 1_000, 0] {
            for us in 1..=100 {
                latencies.push(Duration::from_micros(burst + us));
            }
            latencies.end_unit();
        }
        let (p50, p99, beyond) = latencies.p50_p99_us();
        assert_eq!((p50, p99), (50.0, 99.0));
        assert_eq!(beyond, 3);
    }
}
