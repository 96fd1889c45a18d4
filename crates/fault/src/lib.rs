//! Deterministic failpoints for the WFMS analysis stack.
//!
//! A *failpoint* is a named injection site planted in production code via
//! [`point!`]. When the global registry is disabled (the default) a site
//! costs exactly one relaxed atomic load — the same contract as
//! `wfms-obs` recording. When enabled, a site consults its configured
//! [`FaultMode`] and a deterministic seeded schedule to decide whether to
//! fire on this particular call.
//!
//! Site names are **stable identifiers**, exactly like obs span names and
//! diagnostic codes: tests, `WFMS_FAULTS` specs, and CI chaos jobs refer
//! to them by string, so renaming one is a breaking change. The planted
//! sites are documented in DESIGN.md ("The robustness contract").
//!
//! # Injection modes
//!
//! | mode | spec syntax | effect at the site |
//! |------|-------------|--------------------|
//! | error | `error` | the site returns [`Injection::Error`]; the caller maps it to its native error type (e.g. `NotConverged`) |
//! | NaN | `nan` | the site returns [`Injection::Nan`]; the caller poisons its result with `f64::NAN` |
//! | latency | `delay:<millis>ms` | the site sleeps, then proceeds normally |
//!
//! # Determinism
//!
//! Every site keeps a call counter. Whether call `k` fires is decided by
//! hashing `(seed, site-name, k)` with a splitmix64-style mixer and
//! comparing against the configured rate — no wall-clock, no global RNG,
//! so a given `(WFMS_FAULT_SEED, WFMS_FAULTS)` pair replays identically
//! across runs and thread interleavings that preserve per-site call order.
//! Rate `1.0` fires on every call regardless of seed.
//!
//! # Configuration
//!
//! Programmatic:
//!
//! ```
//! wfms_fault::configure("avail.steady-state", wfms_fault::FaultMode::Error, 1.0);
//! assert!(matches!(
//!     wfms_fault::check("avail.steady-state"),
//!     Some(wfms_fault::Injection::Error)
//! ));
//! wfms_fault::clear();
//! ```
//!
//! Environment (read once, on first registry access):
//!
//! ```text
//! WFMS_FAULTS="avail.steady-state=error@1.0,performability.fold=nan@0.25"
//! WFMS_FAULT_SEED=7
//! ```
//!
//! Entries are separated by `,` or `;`; each is `site=mode[@rate]` with
//! `rate` defaulting to `1.0`. Malformed entries never panic: the parse
//! outcome is kept in [`env_status`] so a CLI can warn about typos.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What a fired failpoint asks the call site to do.
///
/// `Delay` never reaches the caller: the sleep happens inside
/// [`check`] and the call then proceeds as if the site had not fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Return the site's native error type.
    Error,
    /// Poison the site's numeric result with `f64::NAN`.
    Nan,
}

/// Configured behavior of a failpoint site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Fire as [`Injection::Error`].
    Error,
    /// Fire as [`Injection::Nan`].
    Nan,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
}

/// Per-site configuration plus call/fired accounting.
struct Site {
    mode: FaultMode,
    /// Firing probability in `[0, 1]`; `1.0` fires on every call.
    rate: f64,
    calls: AtomicU64,
    fired: AtomicU64,
}

/// Counters for one site, as returned by [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// Stable site name.
    pub site: String,
    /// Times the site was reached while the registry was enabled.
    pub calls: u64,
    /// Times the site actually fired.
    pub fired: u64,
}

struct Registry {
    enabled: AtomicBool,
    seed: AtomicU64,
    sites: Mutex<HashMap<String, Site>>,
    /// `Ok(n)` = `n` entries parsed from `WFMS_FAULTS`; `Err(msg)` on a
    /// malformed spec (valid entries before the bad one still apply).
    env_status: Result<usize, String>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let mut reg = Registry {
            enabled: AtomicBool::new(false),
            seed: AtomicU64::new(0),
            sites: Mutex::new(HashMap::new()),
            env_status: Ok(0),
        };
        if let Ok(seed) = std::env::var("WFMS_FAULT_SEED") {
            if let Ok(parsed) = seed.trim().parse::<u64>() {
                reg.seed = AtomicU64::new(parsed);
            }
        }
        if let Ok(spec) = std::env::var("WFMS_FAULTS") {
            reg.env_status = apply_spec_to(&mut reg, &spec);
        }
        reg
    })
}

/// Parse a `WFMS_FAULTS`-style spec into the given registry, enabling it
/// when at least one entry applies.
fn apply_spec_to(reg: &mut Registry, spec: &str) -> Result<usize, String> {
    let sites = reg.sites.get_mut().unwrap_or_else(|e| e.into_inner());
    let mut applied = 0usize;
    for entry in spec.split([',', ';']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, config) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault entry `{entry}` is missing `=`"))?;
        let (mode_str, rate_str) = match config.split_once('@') {
            Some((m, r)) => (m, Some(r)),
            None => (config, None),
        };
        let mode = parse_mode(mode_str.trim())
            .ok_or_else(|| format!("fault entry `{entry}` has unknown mode `{mode_str}`"))?;
        let rate = match rate_str {
            Some(r) => r
                .trim()
                .parse::<f64>()
                .ok()
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| format!("fault entry `{entry}` has invalid rate `{r}`"))?,
            None => 1.0,
        };
        sites.insert(
            site.trim().to_string(),
            Site {
                mode,
                rate,
                calls: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            },
        );
        applied += 1;
    }
    if applied > 0 {
        *reg.enabled.get_mut() = true;
    }
    Ok(applied)
}

fn parse_mode(s: &str) -> Option<FaultMode> {
    match s {
        "error" => Some(FaultMode::Error),
        "nan" => Some(FaultMode::Nan),
        _ => {
            let millis = s.strip_prefix("delay:")?.strip_suffix("ms")?;
            let millis = millis.trim().parse::<u64>().ok()?;
            Some(FaultMode::Delay(Duration::from_millis(millis)))
        }
    }
}

/// splitmix64 finalizer — a well-mixed 64-bit hash of the schedule key.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn schedule_fires(seed: u64, site: &str, call: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut h = seed ^ 0x5743_464d_5346_4c54; // "WCFMSFLT" tag
    for b in site.bytes() {
        h = mix(h ^ u64::from(b));
    }
    h = mix(h ^ call);
    // Map the top 53 bits to [0, 1).
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    unit < rate
}

/// Whether any fault injection is active. One relaxed atomic load; this is
/// the only cost a planted site pays in normal operation (plus a lazy
/// one-time registry init on the very first call process-wide).
#[inline]
pub fn is_enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Evaluate the failpoint `site`. Returns `None` when the registry is
/// disabled, the site is unconfigured, or the deterministic schedule says
/// this call passes through. [`FaultMode::Delay`] sleeps here and then
/// returns `None`.
pub fn check(site: &str) -> Option<Injection> {
    let reg = registry();
    if !reg.enabled.load(Ordering::Relaxed) {
        return None;
    }
    let (mode, fire) = {
        let sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
        let entry = sites.get(site)?;
        let call = entry.calls.fetch_add(1, Ordering::Relaxed);
        let fire = schedule_fires(reg.seed.load(Ordering::Relaxed), site, call, entry.rate);
        if fire {
            entry.fired.fetch_add(1, Ordering::Relaxed);
        }
        (entry.mode, fire)
    };
    if !fire {
        return None;
    }
    match mode {
        FaultMode::Error => Some(Injection::Error),
        FaultMode::Nan => Some(Injection::Nan),
        FaultMode::Delay(d) => {
            std::thread::sleep(d);
            None
        }
    }
}

/// Configure (or reconfigure) a site and enable the registry.
/// `rate` is clamped to `[0, 1]`.
pub fn configure(site: &str, mode: FaultMode, rate: f64) {
    let reg = registry();
    let mut sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    sites.insert(
        site.to_string(),
        Site {
            mode,
            rate: rate.clamp(0.0, 1.0),
            calls: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        },
    );
    reg.enabled.store(true, Ordering::Relaxed);
}

/// Remove every configured site and disable the registry. Planted sites
/// go back to the single-relaxed-load fast path.
pub fn clear() {
    let reg = registry();
    reg.sites.lock().unwrap_or_else(|e| e.into_inner()).clear();
    reg.enabled.store(false, Ordering::Relaxed);
}

/// Re-enable a registry that still has sites configured (after [`disable`]).
pub fn enable() {
    registry().enabled.store(true, Ordering::Relaxed);
}

/// Disable the registry without forgetting site configurations.
pub fn disable() {
    registry().enabled.store(false, Ordering::Relaxed);
}

/// Override the schedule seed (also settable via `WFMS_FAULT_SEED`).
pub fn set_seed(seed: u64) {
    registry().seed.store(seed, Ordering::Relaxed);
}

/// Times `site` has fired since configuration (or [`reset_counts`]).
pub fn fired(site: &str) -> u64 {
    let reg = registry();
    let sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    sites
        .get(site)
        .map_or(0, |s| s.fired.load(Ordering::Relaxed))
}

/// Times `site` was reached while enabled, fired or not.
pub fn calls(site: &str) -> u64 {
    let reg = registry();
    let sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    sites
        .get(site)
        .map_or(0, |s| s.calls.load(Ordering::Relaxed))
}

/// Zero the call/fired counters of every site (configurations stay).
pub fn reset_counts() {
    let reg = registry();
    let sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    for site in sites.values() {
        site.calls.store(0, Ordering::Relaxed);
        site.fired.store(0, Ordering::Relaxed);
    }
}

/// Per-site counters, sorted by site name for stable output.
pub fn snapshot() -> Vec<SiteStats> {
    let reg = registry();
    let sites = reg.sites.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<SiteStats> = sites
        .iter()
        .map(|(name, s)| SiteStats {
            site: name.clone(),
            calls: s.calls.load(Ordering::Relaxed),
            fired: s.fired.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| a.site.cmp(&b.site));
    out
}

/// Outcome of parsing `WFMS_FAULTS` at registry init: `Ok(entries)` or
/// `Err(message)` describing the first malformed entry. Lets a CLI warn
/// on typos instead of silently running without the intended faults.
pub fn env_status() -> Result<usize, String> {
    registry().env_status.clone()
}

/// Plant a named failpoint. Expands to [`check`]; the expression has type
/// `Option<Injection>` so call sites match on the outcome:
///
/// ```
/// # fn solve() -> Result<f64, String> {
/// if let Some(injection) = wfms_fault::point!("my-stage") {
///     match injection {
///         wfms_fault::Injection::Error => return Err("injected".into()),
///         wfms_fault::Injection::Nan => return Ok(f64::NAN),
///     }
/// }
/// # Ok(1.0) }
/// ```
#[macro_export]
macro_rules! point {
    ($name:expr) => {
        $crate::check($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run on parallel threads:
    // a sibling's `clear()` or `reset_counts()` would wipe another test's
    // sites and counts mid-flight. Every test that touches the global
    // registry therefore holds `REGISTRY` for its whole body.
    static REGISTRY: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_injects_nothing() {
        let _serial = serial();
        clear();
        assert_eq!(check("test.disabled-site"), None);
        assert!(!is_enabled());
    }

    #[test]
    fn unconfigured_site_is_transparent_even_when_enabled() {
        let _serial = serial();
        configure("test.some-other-site", FaultMode::Error, 1.0);
        assert_eq!(check("test.never-configured"), None);
        clear();
    }

    #[test]
    fn full_rate_error_fires_every_call() {
        let _serial = serial();
        configure("test.full-error", FaultMode::Error, 1.0);
        for _ in 0..10 {
            assert_eq!(check("test.full-error"), Some(Injection::Error));
        }
        assert_eq!(fired("test.full-error"), 10);
        assert_eq!(calls("test.full-error"), 10);
        clear();
    }

    #[test]
    fn nan_mode_reports_nan_injection() {
        let _serial = serial();
        configure("test.nan-site", FaultMode::Nan, 1.0);
        assert_eq!(check("test.nan-site"), Some(Injection::Nan));
        clear();
    }

    #[test]
    fn zero_rate_never_fires_but_counts_calls() {
        let _serial = serial();
        configure("test.zero-rate", FaultMode::Error, 0.0);
        for _ in 0..20 {
            assert_eq!(check("test.zero-rate"), None);
        }
        assert_eq!(calls("test.zero-rate"), 20);
        assert_eq!(fired("test.zero-rate"), 0);
        clear();
    }

    #[test]
    fn partial_rate_schedule_is_deterministic_and_seed_sensitive() {
        let pattern = |seed: u64| -> Vec<bool> {
            (0..64)
                .map(|call| schedule_fires(seed, "test.partial", call, 0.5))
                .collect()
        };
        assert_eq!(pattern(1), pattern(1), "same seed must replay identically");
        assert_ne!(pattern(1), pattern(2), "different seeds should differ");
        let fired = pattern(1).iter().filter(|f| **f).count();
        assert!(
            (16..=48).contains(&fired),
            "rate 0.5 should fire roughly half of 64 calls, fired {fired}"
        );
    }

    #[test]
    fn delay_mode_sleeps_then_passes_through() {
        let _serial = serial();
        configure(
            "test.delay",
            FaultMode::Delay(Duration::from_millis(5)),
            1.0,
        );
        let start = std::time::Instant::now();
        assert_eq!(check("test.delay"), None);
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(fired("test.delay"), 1);
        clear();
    }

    #[test]
    fn reset_counts_keeps_configuration() {
        let _serial = serial();
        configure("test.reset", FaultMode::Error, 1.0);
        let _ = check("test.reset");
        reset_counts();
        assert_eq!(calls("test.reset"), 0);
        assert_eq!(check("test.reset"), Some(Injection::Error));
        clear();
    }

    #[test]
    fn snapshot_lists_sites_sorted() {
        let _serial = serial();
        configure("test.snap-b", FaultMode::Error, 1.0);
        configure("test.snap-a", FaultMode::Nan, 0.5);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|s| s.site.as_str())
            .filter(|s| s.starts_with("test.snap-"))
            .collect();
        assert_eq!(names, vec!["test.snap-a", "test.snap-b"]);
        clear();
    }

    #[test]
    fn spec_parsing_covers_modes_rates_and_errors() {
        let fresh = || Registry {
            enabled: AtomicBool::new(false),
            seed: AtomicU64::new(0),
            sites: Mutex::new(HashMap::new()),
            env_status: Ok(0),
        };

        let mut reg = fresh();
        let n = apply_spec_to(
            &mut reg,
            "a.site=error, b.site=nan@0.25; c.site=delay:10ms@0.5",
        )
        .expect("valid spec");
        assert_eq!(n, 3);
        assert!(*reg.enabled.get_mut());
        let sites = reg.sites.get_mut().unwrap();
        assert_eq!(sites["a.site"].mode, FaultMode::Error);
        assert_eq!(sites["a.site"].rate, 1.0);
        assert_eq!(sites["b.site"].rate, 0.25);
        assert_eq!(
            sites["c.site"].mode,
            FaultMode::Delay(Duration::from_millis(10))
        );

        for bad in [
            "no-equals",
            "a.site=frobnicate",
            "a.site=error@1.5",
            "a.site=error@abc",
            "a.site=delay:xyzms",
        ] {
            let mut reg = fresh();
            assert!(
                apply_spec_to(&mut reg, bad).is_err(),
                "spec `{bad}` should fail"
            );
        }

        let mut reg = fresh();
        assert_eq!(apply_spec_to(&mut reg, "  , ; ").expect("empty"), 0);
        assert!(!*reg.enabled.get_mut(), "empty spec must not enable");
    }

    #[test]
    fn point_macro_expands_to_check() {
        let _serial = serial();
        configure("test.macro", FaultMode::Error, 1.0);
        assert_eq!(point!("test.macro"), Some(Injection::Error));
        clear();
    }
}
