//! Benchmark-side tracing: spans around the calls into each layer.
//!
//! Nothing inside the libraries is instrumented.  The service backend is
//! wrapped in [`Traced`], which times `submit` and `pump` through the public
//! `wsm_svc` backend traits; request futures are wrapped in [`Counted`],
//! which counts polls and tells `Traced` which request a `pump` belongs to.
//! Spans stay in memory and are written out when the pass ends.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

use wsm_core::{Handoff, OpResult, Operation, ResultCell};
use wsm_svc::{BackendDriver, ServiceBackend};

use crate::json::Json;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One request, from just before its deposit to its last result.
    Request,
    /// `ServiceBackend::submit` inside a request's `call_batch`.
    Submit,
    /// `BackendDriver::pump` inside a poll of a request's future.
    Pump,
}

impl Kind {
    const COUNT: usize = 3;

    fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Submit => "submit",
            Kind::Pump => "pump",
        }
    }
}

/// One recorded interval.  `parent` is the id of the request span that
/// caused it (0 for a request span itself).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub request_id: u64,
}

/// Count and summed duration of every span of one kind, kept complete even
/// after a lane stops storing individual spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

#[derive(Default)]
struct Lane {
    spans: Vec<Span>,
    dropped: u64,
    totals: [Total; Kind::COUNT],
    polls: u64,
    next_id: u64,
}

/// Recording lanes, one per recording thread while threads are few.
const LANES: usize = 16;

/// Collects spans from every thread of one traced pass.
pub struct Tracer {
    layer: &'static str,
    epoch: Instant,
    span_cap: usize,
    lanes: Vec<Mutex<Lane>>,
}

thread_local! {
    /// The request whose `call_batch` or poll is running on this thread.
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(0) };
    /// This thread's lane, handed out on first use.
    static LANE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn lane_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    LANE.with(|lane| match lane.get() {
        Some(i) => i,
        None => {
            // Relaxed: the counter only spreads threads over lanes; the lanes
            // themselves are mutex-protected.
            let i = NEXT.fetch_add(1, Ordering::Relaxed) % LANES;
            lane.set(Some(i));
            i
        }
    })
}

/// Marks `request_id` as the request this thread is working for; [`Traced`]
/// attributes `submit` and `pump` spans to it.
pub fn set_current_request(request_id: u64) {
    CURRENT_REQUEST.with(|c| c.set(request_id));
}

/// Span ids stay below 2^53 so that they survive a trip through JSON
/// numbers: bits 40.. hold the caller (requests) or the lane (children).
const ID_SHIFT: u32 = 40;
/// First id prefix of child spans; callers use the prefixes below it.
const CHILD_PREFIX: u64 = 1 << 10;

/// A request id that is unique across callers: also the id of its span.
pub fn request_id(caller: usize, r: u64) -> u64 {
    debug_assert!((caller as u64 + 1) < CHILD_PREFIX && r + 1 < 1 << ID_SHIFT);
    ((caller as u64 + 1) << ID_SHIFT) | (r + 1)
}

impl Tracer {
    /// `layer` names the layer whose boundary the spans sit on.
    pub fn new(layer: &'static str, span_cap: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            layer,
            epoch: Instant::now(),
            span_cap,
            lanes: (0..LANES).map(|_| Mutex::default()).collect(),
        })
    }

    fn record(&self, kind: Kind, start: Instant, end: Instant, request_id: u64) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let lane_no = lane_index();
        let mut lane = self.lanes[lane_no]
            .lock()
            .expect("a recording thread panicked");
        let total = &mut lane.totals[kind as usize];
        total.count += 1;
        total.ns += end_ns - start_ns;
        if lane.spans.len() >= self.span_cap {
            lane.dropped += 1;
            return;
        }
        let (id, parent) = match kind {
            Kind::Request => (request_id, 0),
            _ => {
                lane.next_id += 1;
                (
                    ((CHILD_PREFIX + lane_no as u64) << ID_SHIFT) | lane.next_id,
                    request_id,
                )
            }
        };
        lane.spans.push(Span {
            id,
            kind,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
    }

    /// Records a finished request.
    pub fn request(&self, request_id: u64, start: Instant, end: Instant) {
        self.record(Kind::Request, start, end, request_id);
    }

    fn add_polls(&self, polls: u64) {
        self.lanes[lane_index()]
            .lock()
            .expect("a recording thread panicked")
            .polls += polls;
    }

    /// Totals of one span kind over all lanes.
    pub fn total(&self, kind: Kind) -> Total {
        let mut out = Total::default();
        for lane in &self.lanes {
            let lane = lane.lock().expect("a recording thread panicked");
            out.count += lane.totals[kind as usize].count;
            out.ns += lane.totals[kind as usize].ns;
        }
        out
    }

    /// Polls of request futures over all lanes.
    pub fn polls(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.lock().expect("a recording thread panicked").polls)
            .sum()
    }

    /// The stored spans of this pass, ordered by start, for the trace file.
    pub fn to_json(&self) -> Json {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for lane in &self.lanes {
            let lane = lane.lock().expect("a recording thread panicked");
            spans.extend_from_slice(&lane.spans);
            dropped += lane.dropped;
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Json::obj([
            ("layer", Json::str(self.layer)),
            ("dropped_spans", Json::Num(dropped as f64)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Num(s.id as f64)),
                                ("layer", Json::str(self.layer)),
                                ("name", Json::str(s.kind.name())),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("parent", Json::Num(s.parent as f64)),
                                ("request_id", Json::Num(s.request_id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A service backend that records a span around every `submit` and `pump`.
pub struct Traced<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> Traced<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Traced { inner, tracer }
    }
}

impl<B: BackendDriver> BackendDriver for Traced<B> {
    fn pump(&self) {
        let start = Instant::now();
        self.inner.pump();
        let request = CURRENT_REQUEST.with(Cell::get);
        self.tracer
            .record(Kind::Pump, start, Instant::now(), request);
    }

    fn buffered(&self) -> bool {
        self.inner.buffered()
    }

    fn handoff(&self) -> Handoff {
        self.inner.handoff()
    }
}

impl<B: ServiceBackend<u64, u64>> ServiceBackend<u64, u64> for Traced<B> {
    fn submit(&self, ops: Vec<Operation<u64, u64>>) -> Vec<Arc<ResultCell<OpResult<u64>>>> {
        let start = Instant::now();
        let cells = self.inner.submit(ops);
        let request = CURRENT_REQUEST.with(Cell::get);
        self.tracer
            .record(Kind::Submit, start, Instant::now(), request);
        cells
    }
}

/// A request future that counts its polls and names its request to
/// [`Traced`] while it is being polled.  Without a tracer it only forwards.
pub struct Counted<F> {
    inner: F,
    request_id: u64,
    polls: u64,
    tracer: Option<Arc<Tracer>>,
}

impl<F> Counted<F> {
    pub fn new(inner: F, request_id: u64, tracer: Option<Arc<Tracer>>) -> Self {
        Counted {
            inner,
            request_id,
            polls: 0,
            tracer,
        }
    }
}

impl<F: Future + Unpin> Future for Counted<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.tracer.is_some() {
            set_current_request(this.request_id);
            this.polls += 1;
        }
        let polled = Pin::new(&mut this.inner).poll(cx);
        if polled.is_ready() {
            if let Some(tracer) = &this.tracer {
                tracer.add_polls(this.polls);
            }
        }
        polled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn totals_stay_complete_after_the_span_cap() {
        let tracer = Tracer::new("svc", 2);
        let t0 = Instant::now();
        for r in 0..5 {
            tracer.request(request_id(0, r), t0, t0 + Duration::from_nanos(10));
        }
        let total = tracer.total(Kind::Request);
        assert_eq!((total.count, total.ns), (5, 50));
        let doc = tracer.to_json();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("dropped_spans").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn ids_are_distinct_and_exact_in_json() {
        let tracer = Tracer::new("svc", 8);
        let t0 = Instant::now();
        let backend = Traced::new(NoBackend, Arc::clone(&tracer));
        set_current_request(request_id(1, 6));
        backend.pump();
        tracer.request(request_id(1, 6), t0, Instant::now());
        let doc = tracer.to_json();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        let field = |s: &Json, k: &str| s.get(k).unwrap().as_f64().unwrap() as u64;
        let pump = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("pump"))
            .unwrap();
        assert_eq!(field(pump, "parent"), request_id(1, 6));
        assert_ne!(field(pump, "id"), request_id(1, 6));
        assert!(field(pump, "id") < 1 << 53);
    }

    struct NoBackend;

    impl BackendDriver for NoBackend {
        fn pump(&self) {}
        fn buffered(&self) -> bool {
            false
        }
        fn handoff(&self) -> Handoff {
            Handoff::Doorbell
        }
    }
}
