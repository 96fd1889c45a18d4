//! Per-tenant circuit breakers (DESIGN.md §13, resilience contract).
//!
//! One bad tenant spec must not burn worker time on every retry while
//! healthy tenants wait. Each tenant key owns a breaker: consecutive
//! handler failures up to a threshold open it, open-state requests are
//! shed fast with a typed `unavailable` response carrying a retry-after
//! hint, and after a cooldown exactly one half-open probe is admitted —
//! its success closes the breaker, its failure re-opens it.
//!
//! The registry is cheap when disabled (threshold `0`): every check is
//! one map lookup under the handler's existing locking discipline, and
//! no breaker state is ever created. The one-shot CLI never meets a
//! breaker: it calls the typed core directly, not the handler.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use wfms_proto::BreakerStatus;

/// Breaker policy: how many consecutive failures open a tenant's
/// breaker, and how long it stays open before admitting the half-open
/// probe. `threshold == 0` disables breakers entirely.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive handler failures that open the breaker; `0` disables.
    pub threshold: u32,
    /// Open-state cooldown before one half-open probe is admitted.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            threshold: 0,
            cooldown: Duration::from_millis(1000),
        }
    }
}

/// One tenant's breaker state machine.
#[derive(Debug)]
enum BreakerState {
    /// Normal service; counts consecutive failures.
    Closed { failures: u32 },
    /// Shedding fast until the cooldown elapses.
    Open { since: Instant },
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve the request normally.
    Serve,
    /// Serve it as the half-open probe (outcome decides the breaker).
    Probe,
    /// Shed it with `unavailable`; retry after the carried hint.
    Shed {
        /// Milliseconds until the half-open probe will be admitted.
        retry_after_ms: u64,
    },
}

/// All tenants' breakers, keyed by tenant id. Deterministic iteration
/// (BTreeMap) keeps the `health` report byte-stable.
#[derive(Debug, Default)]
pub struct BreakerRegistry {
    policy: Mutex<BreakerPolicy>,
    tenants: Mutex<BTreeMap<String, BreakerState>>,
}

/// Locks a registry mutex, riding through poisoning (a panicking worker
/// must not wedge the daemon).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl BreakerRegistry {
    /// Installs the breaker policy; `threshold == 0` keeps breakers
    /// disabled (the default).
    pub fn set_policy(&self, policy: BreakerPolicy) {
        *lock(&self.policy) = policy;
    }

    /// The installed policy.
    pub fn policy(&self) -> BreakerPolicy {
        *lock(&self.policy)
    }

    /// True when the policy enables breakers.
    pub fn enabled(&self) -> bool {
        self.policy().threshold > 0
    }

    /// Decides admission for one request of `tenant`, transitioning an
    /// open breaker to half-open when its cooldown has elapsed.
    pub fn admit(&self, tenant: &str) -> Admission {
        let policy = self.policy();
        if policy.threshold == 0 {
            return Admission::Serve;
        }
        let mut tenants = lock(&self.tenants);
        let Some(state) = tenants.get_mut(tenant) else {
            return Admission::Serve;
        };
        match state {
            BreakerState::Closed { .. } => Admission::Serve,
            BreakerState::HalfOpen => {
                // A probe is already in flight; keep shedding until its
                // outcome lands (the probe itself reports the cooldown
                // as the hint — deterministic, not clock-derived).
                Admission::Shed {
                    retry_after_ms: policy.cooldown.as_millis() as u64,
                }
            }
            BreakerState::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= policy.cooldown {
                    *state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    let remaining = policy.cooldown - elapsed;
                    Admission::Shed {
                        // Round up so a client sleeping exactly the hint
                        // lands after the cooldown, not just short of it.
                        retry_after_ms: remaining.as_millis() as u64 + 1,
                    }
                }
            }
        }
    }

    /// Records a handler failure for `tenant`. Returns `true` when this
    /// failure opened (or re-opened) the breaker — the caller emits the
    /// `serve.breaker-open` counter on that edge.
    pub fn note_failure(&self, tenant: &str) -> bool {
        let policy = self.policy();
        if policy.threshold == 0 {
            return false;
        }
        let mut tenants = lock(&self.tenants);
        let state = tenants
            .entry(tenant.to_string())
            .or_insert(BreakerState::Closed { failures: 0 });
        match state {
            BreakerState::Closed { failures } => {
                *failures += 1;
                if *failures >= policy.threshold {
                    *state = BreakerState::Open {
                        since: Instant::now(),
                    };
                    return true;
                }
                false
            }
            // The half-open probe failed: re-open for a fresh cooldown.
            BreakerState::HalfOpen => {
                *state = BreakerState::Open {
                    since: Instant::now(),
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Records a handler success for `tenant`: closes a half-open
    /// breaker, resets a closed one's failure run.
    pub fn note_success(&self, tenant: &str) {
        if !self.enabled() {
            return;
        }
        let mut tenants = lock(&self.tenants);
        if let Some(state) = tenants.get_mut(tenant) {
            match state {
                BreakerState::Closed { failures } => *failures = 0,
                BreakerState::HalfOpen => *state = BreakerState::Closed { failures: 0 },
                // A success racing an open breaker (admitted before it
                // opened) does not close it; the probe decides.
                BreakerState::Open { .. } => {}
            }
        }
    }

    /// Per-tenant breaker states for the `health` method, in tenant
    /// order.
    pub fn statuses(&self) -> Vec<BreakerStatus> {
        let policy = self.policy();
        lock(&self.tenants)
            .iter()
            .map(|(tenant, state)| {
                let (state_name, failures, retry_after_ms) = match state {
                    BreakerState::Closed { failures } => ("closed", u64::from(*failures), 0),
                    BreakerState::HalfOpen => ("half-open", u64::from(policy.threshold), 0),
                    BreakerState::Open { since } => {
                        let remaining = policy.cooldown.saturating_sub(since.elapsed());
                        (
                            "open",
                            u64::from(policy.threshold),
                            remaining.as_millis() as u64,
                        )
                    }
                };
                BreakerStatus {
                    tenant: tenant.clone(),
                    state: state_name.to_string(),
                    consecutive_failures: failures,
                    retry_after_ms,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(threshold: u32, cooldown_ms: u64) -> BreakerPolicy {
        BreakerPolicy {
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    #[test]
    fn disabled_registry_always_serves() {
        let reg = BreakerRegistry::default();
        assert_eq!(reg.admit("t"), Admission::Serve);
        assert!(!reg.note_failure("t"));
        assert_eq!(reg.admit("t"), Admission::Serve);
        assert!(reg.statuses().is_empty());
    }

    #[test]
    fn consecutive_failures_open_then_probe_closes() {
        let reg = BreakerRegistry::default();
        reg.set_policy(policy(2, 10));
        assert!(!reg.note_failure("t"));
        assert_eq!(reg.admit("t"), Admission::Serve);
        assert!(reg.note_failure("t"), "second failure opens");
        match reg.admit("t") {
            Admission::Shed { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected shed, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(reg.admit("t"), Admission::Probe);
        // While the probe is out, further requests shed.
        assert!(matches!(reg.admit("t"), Admission::Shed { .. }));
        reg.note_success("t");
        assert_eq!(reg.admit("t"), Admission::Serve);
        assert_eq!(reg.statuses()[0].state, "closed");
    }

    #[test]
    fn failed_probe_reopens() {
        let reg = BreakerRegistry::default();
        reg.set_policy(policy(1, 10));
        assert!(reg.note_failure("t"));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(reg.admit("t"), Admission::Probe);
        assert!(reg.note_failure("t"), "failed probe re-opens");
        assert!(matches!(reg.admit("t"), Admission::Shed { .. }));
        assert_eq!(reg.statuses()[0].state, "open");
    }

    #[test]
    fn success_resets_a_failure_run() {
        let reg = BreakerRegistry::default();
        reg.set_policy(policy(2, 10));
        assert!(!reg.note_failure("t"));
        reg.note_success("t");
        assert!(!reg.note_failure("t"), "run restarted, not continued");
        assert_eq!(reg.admit("t"), Admission::Serve);
    }

    #[test]
    fn tenants_are_isolated() {
        let reg = BreakerRegistry::default();
        reg.set_policy(policy(1, 1000));
        assert!(reg.note_failure("bad"));
        assert!(matches!(reg.admit("bad"), Admission::Shed { .. }));
        assert_eq!(reg.admit("good"), Admission::Serve);
    }
}
