//! Batch E-divisive means change-point detection.
//!
//! Given a series `x[0..n]`, the kernel searches for the split `τ` that
//! maximizes the sample divergence energy statistic
//!
//! ```text
//! Q(τ) = (m·n)/(m+n) · Ê(L, R)
//! Ê    = 2/(m·n) Σ|xᵢ−yⱼ| − C(m,2)⁻¹ Σ|xᵢ−xₖ| − C(n,2)⁻¹ Σ|yⱼ−yₗ|
//! ```
//!
//! where `L = x[..τ]` (size `m`) and `R = x[τ..]` (size `n`). `Ê` is an
//! unbiased estimator of the energy distance between the two segment
//! distributions; it is zero when both segments are drawn from the same
//! distribution and grows with any distributional difference — mean,
//! variance, or shape — which is why E-divisive needs no per-series
//! threshold tuning (Matteson & James; applied to performance series by
//! arXiv:2003.00584 and Hunter, arXiv:2301.03034).
//!
//! Significance comes from a permutation test: shuffle the segment with
//! a deterministic splitmix64 PRNG, re-maximize `Q`, and count how often
//! chance beats the observed statistic. Change points recurse
//! hierarchically: each significant split is recorded and both halves
//! are searched again.
//!
//! All scans are `O(n²)` per segment via incremental pair-sum updates
//! (moving one element between segments adjusts the three pair sums in
//! `O(n)`), which is plenty for the bounded windows the streaming layer
//! feeds us.

/// Tuning knobs for the batch kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EDivConfig {
    /// Minimum points on each side of a candidate split (≥ 2).
    pub min_segment: usize,
    /// Number of random permutations backing the significance test.
    /// `p`-values are quantized to multiples of `1/(permutations+1)`.
    pub permutations: usize,
    /// Largest permutation `p`-value still reported as a change point.
    pub significance: f64,
    /// Cap on detections per call (hierarchical recursion stops there).
    pub max_change_points: usize,
    /// Seed for the deterministic permutation PRNG.
    pub seed: u64,
}

impl Default for EDivConfig {
    fn default() -> Self {
        Self {
            min_segment: 8,
            permutations: 63,
            significance: 0.05,
            max_change_points: 8,
            seed: 0x5eed_c9d0_2301_0358,
        }
    }
}

/// One detected change point within the analyzed series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Index of the first point of the *new* regime (`series[index]` is
    /// the first post-change observation).
    pub index: usize,
    /// `mean(after) − mean(before)` across the split, in series units.
    pub magnitude: f64,
    /// `1 − p` from the permutation test, in `(0, 1]`.
    pub confidence: f64,
}

/// Detects change points in `series`, sorted ascending by index.
///
/// Returns an empty vector when the series is shorter than
/// `2 · min_segment` or statistically homogeneous.
#[must_use]
pub fn detect(series: &[f64], config: &EDivConfig) -> Vec<Detection> {
    let cfg = config.sanitized();
    let mut found = Vec::new();
    segment(series, 0, series.len(), &cfg, &mut found);
    found.sort_by_key(|d| d.index);
    found
}

impl EDivConfig {
    fn sanitized(&self) -> Self {
        Self {
            min_segment: self.min_segment.max(2),
            permutations: self.permutations.max(1),
            significance: self.significance.clamp(0.0, 1.0),
            max_change_points: self.max_change_points,
            seed: self.seed,
        }
    }
}

/// Recursive hierarchical search over `series[lo..hi)`.
fn segment(series: &[f64], lo: usize, hi: usize, cfg: &EDivConfig, out: &mut Vec<Detection>) {
    if out.len() >= cfg.max_change_points || hi - lo < 2 * cfg.min_segment {
        return;
    }
    let xs = &series[lo..hi];
    let Some((tau, q)) = best_split(xs, cfg.min_segment) else {
        return;
    };
    // A flat (or near-flat) segment maximizes at Q ≈ 0; permuting it
    // would tie everywhere, so call it homogeneous outright.
    if q <= f64::EPSILON {
        return;
    }
    let p = permutation_p_value(xs, q, cfg, segment_seed(cfg.seed, lo, hi));
    if p > cfg.significance {
        return;
    }
    out.push(Detection {
        index: lo + tau,
        magnitude: mean(&xs[tau..]) - mean(&xs[..tau]),
        confidence: 1.0 - p,
    });
    segment(series, lo, lo + tau, cfg, out);
    segment(series, lo + tau, hi, cfg, out);
}

/// The split `τ ∈ [min_segment, n−min_segment]` maximizing `Q(τ)`,
/// computed in `O(n²)` total via incremental pair-sum updates.
fn best_split(xs: &[f64], min_segment: usize) -> Option<(usize, f64)> {
    let n = xs.len();
    if n < 2 * min_segment {
        return None;
    }
    // Pair sums at the initial split τ = min_segment.
    let tau0 = min_segment;
    let mut within_l = pair_sum(&xs[..tau0]);
    let mut within_r = pair_sum(&xs[tau0..]);
    let mut cross = cross_sum(&xs[..tau0], &xs[tau0..]);

    let mut best = (tau0, q_stat(tau0, n - tau0, within_l, within_r, cross));
    for tau in tau0 + 1..=n - min_segment {
        // Move v = xs[tau-1] from the right segment to the left.
        let v = xs[tau - 1];
        let mut sum_l = 0.0;
        for &x in &xs[..tau - 1] {
            sum_l += (x - v).abs();
        }
        let mut sum_r = 0.0;
        for &x in &xs[tau..] {
            sum_r += (x - v).abs();
        }
        within_l += sum_l;
        within_r -= sum_r;
        cross += sum_r - sum_l;
        let q = q_stat(tau, n - tau, within_l, within_r, cross);
        if q > best.1 {
            best = (tau, q);
        }
    }
    Some(best)
}

/// `Q(τ)` from the three pair sums.
fn q_stat(m: usize, n: usize, within_l: f64, within_r: f64, cross: f64) -> f64 {
    let (mf, nf) = (m as f64, n as f64);
    let e_hat = 2.0 * cross / (mf * nf)
        - within_l / (mf * (mf - 1.0) / 2.0)
        - within_r / (nf * (nf - 1.0) / 2.0);
    (mf * nf) / (mf + nf) * e_hat
}

/// `Σ_{i<j} |x_i − x_j|`.
fn pair_sum(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    for (i, &a) in xs.iter().enumerate() {
        for &b in &xs[i + 1..] {
            sum += (a - b).abs();
        }
    }
    sum
}

/// `Σ_i Σ_j |x_i − y_j|`.
fn cross_sum(left: &[f64], right: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &a in left {
        for &b in right {
            sum += (a - b).abs();
        }
    }
    sum
}

/// Permutation `p`-value: how often a shuffled copy of `xs` achieves a
/// split statistic at least as large as the observed `q_obs`.
fn permutation_p_value(xs: &[f64], q_obs: f64, cfg: &EDivConfig, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut scratch = xs.to_vec();
    let mut at_least = 0usize;
    for _ in 0..cfg.permutations {
        shuffle(&mut scratch, &mut rng);
        if let Some((_, q)) = best_split(&scratch, cfg.min_segment) {
            if q >= q_obs {
                at_least += 1;
            }
        }
    }
    (at_least + 1) as f64 / (cfg.permutations + 1) as f64
}

/// Deterministic per-segment seed so detections do not depend on the
/// order segments happen to be visited in.
fn segment_seed(seed: u64, lo: usize, hi: usize) -> u64 {
    seed ^ (lo as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (hi as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Fixed-sequence splitmix64: the same generator the proptest shim and
/// serve fault harness use, so every permutation test replays exactly.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates shuffle driven by the deterministic PRNG.
fn shuffle(xs: &mut [f64], rng: &mut SplitMix64) {
    for i in (1..xs.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(n: usize, at: usize, low: f64, high: f64) -> Vec<f64> {
        (0..n).map(|i| if i < at { low } else { high }).collect()
    }

    /// Deterministic noise in `[-amp, amp]`.
    fn noise(n: usize, seed: u64, amp: f64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (rng.next_u64() as f64 / u64::MAX as f64 * 2.0 - 1.0) * amp)
            .collect()
    }

    #[test]
    fn clean_step_found_exactly() {
        let xs = step(64, 40, 1.0, 6.0);
        let found = detect(&xs, &EDivConfig::default());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].index, 40);
        assert!((found[0].magnitude - 5.0).abs() < 1e-9);
        assert!(found[0].confidence > 0.9);
    }

    #[test]
    fn noisy_step_found_within_one_window() {
        let mut xs = step(64, 32, 10.0, 14.0);
        for (x, e) in xs.iter_mut().zip(noise(64, 7, 0.8)) {
            *x += e;
        }
        let found = detect(&xs, &EDivConfig::default());
        assert_eq!(found.len(), 1, "{found:?}");
        let err = found[0].index.abs_diff(32);
        assert!(err <= 1, "split off by {err}: {found:?}");
        assert!(found[0].magnitude > 2.0);
    }

    #[test]
    fn ramp_splits_near_the_middle() {
        // A linear ramp has no single change point; E-divisive bisects
        // it near the centre where the means differ most.
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let found = detect(&xs, &EDivConfig::default());
        assert!(!found.is_empty());
        let first = found.iter().min_by_key(|d| d.index.abs_diff(32)).unwrap();
        assert!(first.index.abs_diff(32) <= 4, "{found:?}");
    }

    #[test]
    fn pure_noise_yields_nothing() {
        for seed in 0..8 {
            let xs = noise(64, seed, 1.0);
            let found = detect(&xs, &EDivConfig::default());
            assert!(found.is_empty(), "seed {seed}: {found:?}");
        }
    }

    #[test]
    fn constant_series_yields_nothing() {
        let xs = vec![3.25; 64];
        assert!(detect(&xs, &EDivConfig::default()).is_empty());
    }

    #[test]
    fn short_series_yields_nothing() {
        let xs = step(12, 6, 0.0, 9.0);
        assert!(detect(&xs, &EDivConfig::default()).is_empty());
    }

    #[test]
    fn two_steps_both_found() {
        let xs: Vec<f64> = (0..96)
            .map(|i| match i {
                0..=31 => 1.0,
                32..=63 => 5.0,
                _ => 2.0,
            })
            .collect();
        let found = detect(&xs, &EDivConfig::default());
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].index.abs_diff(32) <= 1, "{found:?}");
        assert!(found[1].index.abs_diff(64) <= 1, "{found:?}");
        assert!(found[0].magnitude > 0.0);
        assert!(found[1].magnitude < 0.0);
    }

    #[test]
    fn confidence_is_quantized_by_permutation_count() {
        // With P permutations the smallest p is 1/(P+1), so the largest
        // confidence is P/(P+1) — never 1.0 exactly.
        let cfg = EDivConfig {
            permutations: 19,
            ..EDivConfig::default()
        };
        let xs = step(64, 32, 0.0, 10.0);
        let found = detect(&xs, &cfg);
        assert_eq!(found.len(), 1);
        let max_conf = 19.0 / 20.0;
        assert!((found[0].confidence - max_conf).abs() < 1e-9, "{found:?}");
    }

    #[test]
    fn weak_step_less_confident_than_strong_step() {
        let mut weak = step(64, 32, 0.0, 0.8);
        let mut strong = step(64, 32, 0.0, 20.0);
        let e = noise(64, 11, 1.0);
        for i in 0..64 {
            weak[i] += e[i];
            strong[i] += e[i];
        }
        let cfg = EDivConfig {
            permutations: 199,
            significance: 1.0, // report even weak splits so we can compare
            max_change_points: 1,
            ..EDivConfig::default()
        };
        let w = detect(&weak, &cfg);
        let s = detect(&strong, &cfg);
        assert_eq!((w.len(), s.len()), (1, 1));
        assert!(
            s[0].confidence >= w[0].confidence,
            "strong {:?} < weak {:?}",
            s[0],
            w[0]
        );
    }

    #[test]
    fn detection_is_deterministic() {
        let mut xs = step(80, 48, 5.0, 9.0);
        for (x, e) in xs.iter_mut().zip(noise(80, 3, 0.5)) {
            *x += e;
        }
        let a = detect(&xs, &EDivConfig::default());
        let b = detect(&xs, &EDivConfig::default());
        assert_eq!(a, b);
    }
}
