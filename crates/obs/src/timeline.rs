//! Timeline journal: per-thread event buffers exportable as Chrome
//! Trace Format JSON (loadable at `ui.perfetto.dev`).
//!
//! The span [`Recorder`](crate::Recorder) aggregates — it answers "how
//! much time went into `avail-steady-state` in total". The timeline
//! answers "*when* did each solve run, and on *which* thread": every
//! span open/close (and every [`instant`] marker) becomes a timestamped
//! event on the emitting thread's own track, so the requests of
//! `wfms serve`'s workers render as interleaved bars across one track
//! per worker.
//!
//! Contract, matching spans and failpoints:
//!
//! * **Off by default**; when disabled, an emission point costs one
//!   relaxed atomic load and touches no other state.
//! * **Per-thread buffers**: each thread appends to its own
//!   fixed-capacity buffer, so recording threads never contend on a
//!   shared lock (the per-track lock is uncontended while recording —
//!   the drain side only takes it in [`take`]/[`snapshot`]).
//! * **Bounded memory**: at most [`EVENT_CAP`] events per track
//!   (override with `WFMS_OBS_EVENT_CAP`); events past the cap are
//!   counted in the disclosed `dropped_events`, never silently lost.
//! * **Monotonic timestamps**: nanoseconds since the first
//!   [`enable`], from a monotonic clock, so per-track event times are
//!   non-decreasing.
//!
//! The timeline is process-global (like the failpoint registry): only
//! the global recorder's spans feed it, so unit tests driving local
//! [`Recorder`](crate::Recorder)s stay isolated.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-track event capacity. Override with the
/// `WFMS_OBS_EVENT_CAP` environment variable (read once per process).
pub const EVENT_CAP: usize = 262_144;

/// What kind of timeline event was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelinePhase {
    /// A span opened (Chrome trace phase `B`).
    Begin,
    /// A span closed (Chrome trace phase `E`).
    End,
    /// A point event with no duration (Chrome trace phase `i`).
    Instant,
}

/// One timeline event on a thread's track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Stable event name (a span stage name or an instant-event name
    /// from the DESIGN.md §7 vocabulary).
    pub name: &'static str,
    /// Begin / End / Instant.
    pub phase: TimelinePhase,
    /// Nanoseconds since the timeline epoch (first [`enable`]).
    pub ts_ns: u64,
}

/// Everything one thread recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackSnapshot {
    /// Track id, assigned in thread-registration order; doubles as the
    /// Chrome trace `tid`.
    pub track: u64,
    /// Thread name when the thread had one, else `thread-<id>`.
    pub label: String,
    /// Events in emission order (per-track timestamps non-decreasing).
    pub events: Vec<TimelineEvent>,
    /// Events dropped on this track because the cap was reached.
    pub dropped_events: u64,
}

/// A point-in-time export of every thread's track, sorted by track id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineSnapshot {
    /// Per-thread tracks, ascending by `track`.
    pub tracks: Vec<TrackSnapshot>,
}

impl TimelineSnapshot {
    /// Total events dropped across all tracks (0 means the export is
    /// complete).
    pub fn dropped_events(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped_events).sum()
    }

    /// Total events kept across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// True when nothing was recorded (and nothing was dropped).
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0 && self.dropped_events() == 0
    }
}

struct Track {
    id: u64,
    label: String,
    data: Mutex<TrackData>,
}

#[derive(Default)]
struct TrackData {
    events: Vec<TimelineEvent>,
    dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACK: AtomicU64 = AtomicU64::new(0);
// Bumped by reset(); threads re-register lazily when their cached track
// belongs to a previous generation, so a stale thread-local can never
// write into (or resurrect) a cleared registry entry.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<Track>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL_TRACK: RefCell<Option<(u64, Arc<Track>)>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn event_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("WFMS_OBS_EVENT_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|cap| *cap > 0)
            .unwrap_or(EVENT_CAP)
    })
}

/// Starts collecting timeline events (process-wide).
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Stops collecting; already-recorded events are kept until [`take`] or
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// True while the timeline is collecting. This is the single relaxed
/// atomic load every emission point pays while disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops every track (enabled state unchanged). Threads re-register on
/// their next emission.
pub fn reset() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

fn register_thread() -> Arc<Track> {
    let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
    let label = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{id}"));
    let track = Arc::new(Track {
        id,
        label,
        data: Mutex::new(TrackData::default()),
    });
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(Arc::clone(&track));
    track
}

/// Records an event on the current thread's track. Callers must have
/// checked [`is_enabled`] (the function re-checks, so a lost race with
/// [`disable`] merely records one trailing event).
pub(crate) fn emit(name: &'static str, phase: TimelinePhase) {
    if !is_enabled() {
        return;
    }
    let ts_ns = epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let generation = GENERATION.load(Ordering::Relaxed);
    LOCAL_TRACK.with(|cell| {
        let mut slot = cell.borrow_mut();
        let track = match slot.as_ref() {
            Some((cached_generation, track)) if *cached_generation == generation => {
                Arc::clone(track)
            }
            _ => {
                let track = register_thread();
                *slot = Some((generation, Arc::clone(&track)));
                track
            }
        };
        let mut data = track
            .data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if data.events.len() < event_cap() {
            data.events.push(TimelineEvent { name, phase, ts_ns });
        } else {
            data.dropped += 1;
        }
    });
}

/// Records a zero-duration marker event on the current thread's track
/// (no-op while the timeline is disabled — one relaxed atomic load).
pub fn instant(name: &'static str) {
    emit(name, TimelinePhase::Instant);
}

/// Takes every track's events, leaving the timeline empty (tracks stay
/// registered, so long-lived worker threads keep their ids).
pub fn take() -> TimelineSnapshot {
    drain(true)
}

/// Copies every track's events without clearing them.
pub fn snapshot() -> TimelineSnapshot {
    drain(false)
}

fn drain(clear: bool) -> TimelineSnapshot {
    let registry = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut tracks: Vec<TrackSnapshot> = registry
        .iter()
        .map(|track| {
            let mut data = track
                .data
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (events, dropped_events) = if clear {
                (
                    std::mem::take(&mut data.events),
                    std::mem::replace(&mut data.dropped, 0),
                )
            } else {
                (data.events.clone(), data.dropped)
            };
            TrackSnapshot {
                track: track.id,
                label: track.label.clone(),
                events,
                dropped_events,
            }
        })
        .collect();
    tracks.sort_by_key(|t| t.track);
    TimelineSnapshot { tracks }
}

fn escape_json(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders a snapshot as Chrome Trace Format JSON (the object form with
/// a `traceEvents` array), directly loadable in Perfetto. Each track
/// becomes a `tid` under `pid` 1 with a `thread_name` metadata event;
/// timestamps are microseconds with nanosecond fraction. The total
/// dropped-event count is disclosed under `otherData`.
pub fn to_chrome_trace(snapshot: &TimelineSnapshot) -> String {
    let mut out = String::with_capacity(64 + snapshot.event_count() * 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\"");
    out.push_str(&snapshot.dropped_events().to_string());
    out.push_str("\"},\"traceEvents\":[");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
    };
    for track in &snapshot.tracks {
        push_sep(&mut out, &mut first);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        out.push_str(&track.track.to_string());
        out.push_str(",\"args\":{\"name\":\"");
        escape_json(&track.label, &mut out);
        out.push_str("\"}}");
        for event in &track.events {
            push_sep(&mut out, &mut first);
            out.push_str("{\"name\":\"");
            escape_json(event.name, &mut out);
            out.push_str("\",\"ph\":\"");
            out.push_str(match event.phase {
                TimelinePhase::Begin => "B",
                TimelinePhase::End => "E",
                TimelinePhase::Instant => "i",
            });
            out.push_str("\",\"ts\":");
            out.push_str(&format!(
                "{}.{:03}",
                event.ts_ns / 1_000,
                event.ts_ns % 1_000
            ));
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&track.track.to_string());
            if event.phase == TimelinePhase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push('}');
        }
    }
    out.push_str("]}");
    out
}
