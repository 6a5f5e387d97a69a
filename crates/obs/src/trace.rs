//! The span/event tracer: a shared, clonable handle over one trace buffer.
//!
//! Subsystems (engine, HDFS, RM, driver, fault injector) each hold a
//! cloned [`Tracer`]; all clones append to the same buffer, so one export
//! sees the whole run. A disabled tracer is `None` behind a single
//! pointer-sized field — every record method checks it first and returns
//! without touching memory, which is what keeps the engine hot path at
//! zero overhead when observability is off.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::audit::{Decision, QueueAudit};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Index of a named track (one per node, plus synthetic tracks such as
/// `engine` or `faults`). Returned by [`Tracer::track`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u32);

impl TrackId {
    /// The id handed out by a disabled tracer; never dereferenced because
    /// record methods no-op first.
    pub const NONE: TrackId = TrackId(u32::MAX);
}

/// One recorded trace event, on virtual time.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A complete span `[t0, t1]` on a track.
    Span {
        track: TrackId,
        name: String,
        cat: &'static str,
        t0: f64,
        t1: f64,
        args: Vec<(String, String)>,
    },
    /// A point-in-time marker.
    Instant {
        track: TrackId,
        name: String,
        cat: &'static str,
        t: f64,
        args: Vec<(String, String)>,
    },
    /// A sampled counter value (renders as a line chart in Perfetto).
    Counter {
        track: TrackId,
        name: String,
        t: f64,
        value: f64,
    },
}

/// Everything one run recorded, detached from the live tracer. The
/// exporters in [`crate::export`] consume this.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// Track names in registration order; `TrackId(i)` indexes this.
    pub tracks: Vec<String>,
    /// Events in insertion (i.e. simulation) order.
    pub events: Vec<TraceEvent>,
    /// Scheduler decision audit log, in decision order.
    pub decisions: Vec<Decision>,
    /// Per-queue admission/allocation/preemption audit log, in event order.
    pub queue_audits: Vec<QueueAudit>,
    /// Final counter/gauge/histogram values.
    pub metrics: MetricsSnapshot,
}

#[derive(Default)]
struct TraceBuf {
    tracks: Vec<String>,
    by_name: HashMap<String, u32>,
    events: Vec<TraceEvent>,
    decisions: Vec<Decision>,
    queue_audits: Vec<QueueAudit>,
    metrics: MetricsRegistry,
}

/// The recording handle. `Clone` is one `Rc` bump; all clones share the
/// buffer. Interior mutability keeps every record method `&self`, so
/// subsystems can hold a tracer without threading `&mut` through the
/// simulation call graph.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    #[inline]
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A live tracer with an empty buffer.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuf::default()))),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Interns a track by name. Calling twice with the same name returns
    /// the same id, so the engine, HDFS, and driver all land their events
    /// on one shared per-node track.
    pub fn track(&self, name: &str) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId::NONE;
        };
        let mut buf = inner.borrow_mut();
        if let Some(&id) = buf.by_name.get(name) {
            return TrackId(id);
        }
        let id = buf.tracks.len() as u32;
        buf.tracks.push(name.to_string());
        buf.by_name.insert(name.to_string(), id);
        TrackId(id)
    }

    /// Records a complete span. `args` become Perfetto slice arguments.
    #[inline]
    pub fn span(
        &self,
        track: TrackId,
        name: &str,
        cat: &'static str,
        t0: f64,
        t1: f64,
        args: &[(&str, String)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().events.push(TraceEvent::Span {
            track,
            name: name.to_string(),
            cat,
            t0,
            t1: t1.max(t0),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Records a point event.
    #[inline]
    pub fn instant(
        &self,
        track: TrackId,
        name: &str,
        cat: &'static str,
        t: f64,
        args: &[(&str, String)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().events.push(TraceEvent::Instant {
            track,
            name: name.to_string(),
            cat,
            t,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Samples a counter track (e.g. live activities over time).
    #[inline]
    pub fn counter(&self, track: TrackId, name: &str, t: f64, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().events.push(TraceEvent::Counter {
            track,
            name: name.to_string(),
            t,
            value,
        });
    }

    /// Bumps a registry counter (no per-call event; exported once at the
    /// end). Use for high-frequency tallies like cache hits.
    #[inline]
    pub fn inc(&self, name: &str, by: u64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().metrics.inc(name, by);
    }

    /// Sets a registry gauge to its latest value.
    #[inline]
    pub fn set_gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().metrics.set_gauge(name, value);
    }

    /// Records one observation into a fixed-bucket histogram.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().metrics.observe(name, value);
    }

    /// Appends one scheduler decision to the audit log.
    #[inline]
    pub fn audit(&self, decision: Decision) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().decisions.push(decision);
    }

    /// Appends one entry to the per-queue audit log.
    #[inline]
    pub fn queue_audit(&self, entry: QueueAudit) {
        let Some(inner) = &self.inner else { return };
        inner.borrow_mut().queue_audits.push(entry);
    }

    /// Number of span/instant/counter events recorded so far. A disabled
    /// tracer reports 0 — by construction it cannot have allocated.
    pub fn event_count(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.borrow().events.len())
            .unwrap_or(0)
    }

    /// Number of audit-log decisions recorded so far.
    pub fn decision_count(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.borrow().decisions.len())
            .unwrap_or(0)
    }

    /// Number of queue audit entries recorded so far.
    pub fn queue_audit_count(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.borrow().queue_audits.len())
            .unwrap_or(0)
    }

    /// Runs `f` over the queue audit log (empty slice when disabled).
    pub fn with_queue_audits<R>(&self, f: impl FnOnce(&[QueueAudit]) -> R) -> R {
        match &self.inner {
            Some(i) => f(&i.borrow().queue_audits),
            None => f(&[]),
        }
    }

    /// Current value of a registry counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.borrow().metrics.counter(name))
            .unwrap_or(0)
    }

    /// Runs `f` over the audit log (empty slice when disabled).
    pub fn with_decisions<R>(&self, f: impl FnOnce(&[Decision]) -> R) -> R {
        match &self.inner {
            Some(i) => f(&i.borrow().decisions),
            None => f(&[]),
        }
    }

    /// Snapshots the buffer for export. `None` when disabled.
    pub fn snapshot(&self) -> Option<TraceData> {
        let inner = self.inner.as_ref()?;
        let buf = inner.borrow();
        Some(TraceData {
            tracks: buf.tracks.clone(),
            events: buf.events.clone(),
            decisions: buf.decisions.clone(),
            queue_audits: buf.queue_audits.clone(),
            metrics: buf.metrics.snapshot(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let tr = t.track("node");
        assert_eq!(tr, TrackId::NONE);
        t.span(tr, "s", "cat", 0.0, 1.0, &[]);
        t.instant(tr, "i", "cat", 0.5, &[]);
        t.counter(tr, "c", 0.5, 1.0);
        t.inc("n", 3);
        t.observe("h", 1.0);
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter_value("n"), 0);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn tracks_intern_by_name() {
        let t = Tracer::enabled();
        let a = t.track("worker-0");
        let b = t.track("worker-1");
        let a2 = t.track("worker-0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let data = t.snapshot().unwrap();
        assert_eq!(data.tracks, vec!["worker-0", "worker-1"]);
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let clone = t.clone();
        let tr = clone.track("n");
        clone.span(tr, "a", "task", 1.0, 2.0, &[("k", "v".into())]);
        t.instant(tr, "b", "fault", 3.0, &[]);
        assert_eq!(t.event_count(), 2);
        let data = t.snapshot().unwrap();
        match &data.events[0] {
            TraceEvent::Span {
                name, t0, t1, args, ..
            } => {
                assert_eq!(name, "a");
                assert_eq!((*t0, *t1), (1.0, 2.0));
                assert_eq!(args, &[("k".to_string(), "v".to_string())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn span_clamps_inverted_intervals() {
        let t = Tracer::enabled();
        let tr = t.track("n");
        t.span(tr, "z", "task", 5.0, 4.0, &[]);
        match &t.snapshot().unwrap().events[0] {
            TraceEvent::Span { t0, t1, .. } => assert_eq!((*t0, *t1), (5.0, 5.0)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn queue_audits_record_and_snapshot() {
        use crate::audit::{QueueAudit, QueueEventKind};
        let entry = QueueAudit {
            t: 2.0,
            queue: "default".into(),
            kind: QueueEventKind::Usage,
            app: None,
            container: None,
            used_vcores: 4,
            used_memory_mb: 4096,
            pending: 1,
            share: 0.25,
            fair_share: 1.0,
            detail: String::new(),
        };
        let disabled = Tracer::disabled();
        disabled.queue_audit(entry.clone());
        assert_eq!(disabled.queue_audit_count(), 0);
        disabled.with_queue_audits(|a| assert!(a.is_empty()));

        let t = Tracer::enabled();
        t.clone().queue_audit(entry.clone());
        assert_eq!(t.queue_audit_count(), 1);
        t.with_queue_audits(|a| assert_eq!(a[0], entry));
        assert_eq!(t.snapshot().unwrap().queue_audits.len(), 1);
    }

    #[test]
    fn registry_counters_accumulate_across_clones() {
        let t = Tracer::enabled();
        let c = t.clone();
        t.inc("hdfs.cache_hit", 2);
        c.inc("hdfs.cache_hit", 3);
        assert_eq!(t.counter_value("hdfs.cache_hit"), 5);
    }
}
