//! The virtual clock that keeps telemetry deterministic.
//!
//! Lockstep fleet runs (and single-session CLI runs) must stay
//! byte-identical with telemetry on or off, so journal events cannot
//! carry wall-clock timestamps there. Instead the clock has two modes:
//!
//! - [`ClockMode::Lockstep`] — [`now`] returns the **virtual tick**,
//!   which the lockstep driver advances once per round (and the solo
//!   CLI once per interval). Identical runs produce identical
//!   timestamps.
//! - [`ClockMode::Freerun`] — [`now`] returns wall-clock microseconds
//!   since the first telemetry observation of the process, matching
//!   chrome://tracing's microsecond `ts` convention.
//!
//! The default is `Freerun`, which serve keeps; the fleet driver
//! selects `Lockstep` before producing events.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Timestamp source for journal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Timestamps are the deterministic virtual tick ([`set_tick`]).
    Lockstep,
    /// Timestamps are wall-clock microseconds since process telemetry
    /// start.
    Freerun,
}

impl ClockMode {
    /// Lower-case name used in exposition (`"lockstep"` / `"freerun"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Lockstep => "lockstep",
            ClockMode::Freerun => "freerun",
        }
    }
}

const MODE_LOCKSTEP: u8 = 0;
const MODE_FREERUN: u8 = 1;

static MODE: AtomicU8 = AtomicU8::new(MODE_FREERUN);
static TICK: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Select the timestamp source. Drivers call this once, before any
/// event is recorded.
pub fn set_mode(mode: ClockMode) {
    let v = match mode {
        ClockMode::Lockstep => MODE_LOCKSTEP,
        ClockMode::Freerun => MODE_FREERUN,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The currently selected timestamp source.
#[must_use]
pub fn mode() -> ClockMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_LOCKSTEP => ClockMode::Lockstep,
        _ => ClockMode::Freerun,
    }
}

/// Advance the virtual tick (lockstep drivers: once per round/interval,
/// with the round index).
pub fn set_tick(tick: u64) {
    TICK.store(tick, Ordering::Relaxed);
}

/// The current virtual tick, regardless of mode.
#[must_use]
pub fn tick() -> u64 {
    TICK.load(Ordering::Relaxed)
}

/// The timestamp journal events are stamped with right now: the
/// virtual tick under [`ClockMode::Lockstep`], wall-clock microseconds
/// under [`ClockMode::Freerun`].
#[must_use]
pub fn now() -> u64 {
    match mode() {
        ClockMode::Lockstep => tick(),
        ClockMode::Freerun => {
            let epoch = EPOCH.get_or_init(Instant::now);
            u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_now_is_the_tick() {
        let _guard = crate::test_guard();
        set_mode(ClockMode::Lockstep);
        set_tick(41);
        assert_eq!(now(), 41);
        set_tick(42);
        assert_eq!(now(), 42);
        set_mode(ClockMode::Freerun);
    }

    #[test]
    fn freerun_now_is_monotone() {
        let _guard = crate::test_guard();
        set_mode(ClockMode::Freerun);
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn mode_names_round_trip() {
        assert_eq!(ClockMode::Lockstep.name(), "lockstep");
        assert_eq!(ClockMode::Freerun.name(), "freerun");
    }
}
