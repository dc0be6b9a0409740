//! Tenant identity, specification and lifecycle states.

use regmon::SessionConfig;
use regmon_workload::Workload;

/// Identifies one tenant (one simulated monitored process) in a fleet.
///
/// Tenant ids are dense and assigned at admission; a tenant is served by
/// shard `id % shards` (see [`TenantId::shard`]), which makes placement a
/// pure function of the id — deterministic across runs and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The shard serving this tenant in a fleet of `shards` shards.
    #[must_use]
    pub fn shard(self, shards: usize) -> usize {
        assert!(shards > 0, "fleet needs at least one shard");
        self.0 as usize % shards
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Where a tenant is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantState {
    /// Producing and processing intervals.
    Running,
    /// Admitted but temporarily not producing (resumable).
    Paused,
    /// Ran out of workload (all intervals produced and processed).
    Completed,
    /// Removed from the fleet.
    Evicted(EvictReason),
    /// Its pipeline panicked; the tenant is quarantined, the shard and
    /// every other tenant keep running. The payload is the panic message.
    Failed(String),
}

impl TenantState {
    /// Stable lower-case label (used by reports and JSON output).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Paused => "paused",
            Self::Completed => "completed",
            Self::Evicted(_) => "evicted",
            Self::Failed(_) => "failed",
        }
    }
}

/// Why a tenant was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// An explicit lifecycle command (operator / schedule).
    Requested,
}

/// Deterministic fault injection for chaos/stress testing: makes the
/// tenant's *analysis pipeline* panic inside its shard worker once it has
/// processed exactly `panic_after` intervals. Used to verify that a
/// panicking tenant is quarantined instead of taking its shard down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Number of intervals processed successfully before the panic.
    pub panic_after: usize,
}

/// Everything needed to admit one tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable name (reports; need not be unique).
    pub name: String,
    /// The simulated process to monitor.
    pub workload: Workload,
    /// Per-tenant monitoring-session configuration.
    pub config: SessionConfig,
    /// Upper bound on intervals produced for this tenant.
    pub max_intervals: usize,
    /// Optional deterministic fault injection (testing).
    pub fault: Option<FaultPlan>,
    /// Optional artificial per-interval processing delay in microseconds
    /// (testing/chaos: makes a shard worker measurably slower than its
    /// producer so backpressure paths actually trigger).
    pub throttle_us: u64,
    /// Optional planted regression: from this interval index on, the
    /// driver deterministically perturbs the tenant's sample PCs out of
    /// the monitored address space, so UCR steps up and region
    /// correlations collapse — the ground truth the change-point
    /// detector is expected to find.
    pub degrade_from: Option<usize>,
}

impl TenantSpec {
    /// A plain tenant: no faults, no throttle.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        workload: Workload,
        config: SessionConfig,
        max_intervals: usize,
    ) -> Self {
        Self {
            name: name.into(),
            workload,
            config,
            max_intervals,
            fault: None,
            throttle_us: 0,
            degrade_from: None,
        }
    }

    /// Adds a deterministic panic after `n` processed intervals.
    #[must_use]
    pub fn with_fault(mut self, panic_after: usize) -> Self {
        self.fault = Some(FaultPlan { panic_after });
        self
    }

    /// Adds an artificial per-interval processing delay.
    #[must_use]
    pub fn with_throttle_us(mut self, us: u64) -> Self {
        self.throttle_us = us;
        self
    }

    /// Plants a deterministic regression starting at interval `index`.
    #[must_use]
    pub fn with_degrade_from(mut self, index: usize) -> Self {
        self.degrade_from = Some(index);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_placement_is_modular_and_deterministic() {
        for shards in 1..9 {
            for id in 0..64 {
                let t = TenantId(id);
                assert_eq!(t.shard(shards), id as usize % shards);
                assert_eq!(t.shard(shards), t.shard(shards));
            }
        }
    }

    #[test]
    fn state_labels_are_stable() {
        assert_eq!(TenantState::Running.label(), "running");
        assert_eq!(
            TenantState::Evicted(EvictReason::Requested).label(),
            "evicted"
        );
        assert_eq!(TenantState::Failed("boom".into()).label(), "failed");
    }
}
