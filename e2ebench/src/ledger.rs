//! The per-layer ledger: nanosecond spans taken from outside the program.
//!
//! Every timed call opens a span on one stack; closing it charges the
//! span's *self* time (its duration minus the time its child spans
//! covered) to its layer. A pump that calls an xApp handler, which the
//! decorator also times, is therefore charged only for the platform's own
//! work. Spans are taken per call or per batch, never per record, so the
//! ledger stays cheap next to the work it measures. The program's own
//! latency histograms are not used for time: they truncate to whole µs.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use xsec_e2::{E2Transport, Readiness, SendOutcome, Waker};
use xsec_mobiflow::UeMobiFlow;
use xsec_ric::{XApp, XAppContext};
use xsec_types::{Result, Timestamp};

/// The layers a run's wall time is split across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `StreamingScenario::step`.
    RanStep,
    /// `StreamingScenario::apply_control`.
    RanEnforce,
    /// `extract_from_events_at`.
    Extract,
    /// `RicAgent::{push_record, poll}`.
    Agent,
    /// Transport calls made by an agent.
    AgentTransport,
    /// Transport calls made by the platform.
    RicTransport,
    /// `RicPlatform::pump`.
    Pump,
    /// MobiWatch: `on_records`, or `process_batch` when called directly.
    MobiWatch,
    /// The LLM analyzer's `on_message`.
    Analyzer,
    /// The mitigator's `on_records` (its virtual clock).
    MitigatorClock,
    /// The mitigator's `on_message` (findings, acks, A1).
    MitigatorFindings,
}

const LAYERS: usize = 11;

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Self time per layer, in ns.
    pub self_ns: [u64; LAYERS],
    /// Span duration per layer including children, in ns.
    pub total_ns: [u64; LAYERS],
    /// Spans closed per layer.
    pub calls: [u64; LAYERS],
    /// E2 frames sent, both directions.
    pub frames: u64,
    /// E2 frame bytes sent, both directions.
    pub bytes: u64,
    /// Telemetry records handed to MobiWatch.
    pub watch_records: u64,
    /// Messages handed to the analyzer.
    pub analyzer_messages: u64,
}

impl Totals {
    /// Self time of `layer` in ms.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Span time of `layer` in ms, children included.
    pub fn total_ms(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64 / 1e6
    }

    /// Spans closed on `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Adds another pass's totals to these.
    pub fn add(&mut self, other: &Totals) {
        for i in 0..LAYERS {
            self.self_ns[i] += other.self_ns[i];
            self.total_ns[i] += other.total_ns[i];
            self.calls[i] += other.calls[i];
        }
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.watch_records += other.watch_records;
        self.analyzer_messages += other.analyzer_messages;
    }

    /// Σ self time over every layer, in ms.
    pub fn covered_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

#[derive(Default)]
struct Spans {
    totals: Totals,
    /// Open spans: start instant and the time their children covered.
    stack: Vec<(Instant, u64)>,
}

/// A shared handle on one pass's ledger. Only the benchmark's main thread
/// records into it; the mutex makes the decorators `Send` as the traits
/// require.
#[derive(Clone, Default)]
pub struct Ledger(Arc<Mutex<Spans>>);

impl Ledger {
    /// Runs `f` inside a span charged to `layer`.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.lock().stack.push((Instant::now(), 0));
        let out = f();
        let end = Instant::now();
        let mut spans = self.lock();
        let (start, children) = spans.stack.pop().expect("span opened above");
        let total = (end - start).as_nanos() as u64;
        let totals = &mut spans.totals;
        totals.self_ns[layer as usize] += total.saturating_sub(children);
        totals.total_ns[layer as usize] += total;
        totals.calls[layer as usize] += 1;
        if let Some(parent) = spans.stack.last_mut() {
            parent.1 += total;
        }
        out
    }

    fn count(&self, f: impl FnOnce(&mut Totals)) {
        f(&mut self.lock().totals);
    }

    /// Forgets everything recorded so far (set-up traffic).
    pub fn reset(&self) {
        self.lock().totals = Totals::default();
    }

    /// A copy of the totals so far.
    pub fn totals(&self) -> Totals {
        self.lock().totals.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.0.lock().expect("ledger holder panicked")
    }
}

/// Times every call an E2 endpoint makes into its transport, and counts
/// the frames and bytes it sends.
pub struct TimedTransport<T> {
    inner: T,
    ledger: Ledger,
    layer: Layer,
}

impl<T: E2Transport> TimedTransport<T> {
    /// Wraps `inner`, charging its calls to `layer`.
    pub fn new(inner: T, ledger: Ledger, layer: Layer) -> Self {
        TimedTransport {
            inner,
            ledger,
            layer,
        }
    }
}

impl<T: E2Transport> E2Transport for TimedTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<SendOutcome> {
        let outcome = self.ledger.time(self.layer, || self.inner.send(frame));
        self.ledger.count(|t| {
            t.frames += 1;
            t.bytes += frame.len() as u64;
        });
        outcome
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>> {
        self.ledger.time(self.layer, || self.inner.try_recv())
    }

    fn register_waker(&mut self, waker: Waker) -> Readiness {
        self.inner.register_waker(waker)
    }

    fn flush(&mut self) -> Result<bool> {
        self.ledger.time(self.layer, || self.inner.flush())
    }

    fn dropped_frames(&self) -> u64 {
        self.inner.dropped_frames()
    }
}

/// Times an xApp's handlers: telemetry batches are charged to one layer,
/// topic messages to another.
pub struct TimedXApp {
    inner: Box<dyn XApp>,
    ledger: Ledger,
    records: Layer,
    messages: Layer,
}

impl TimedXApp {
    /// Wraps `inner`, charging `on_records` to `records` and `on_message`
    /// to `messages`.
    pub fn new(inner: Box<dyn XApp>, ledger: Ledger, records: Layer, messages: Layer) -> Self {
        TimedXApp {
            inner,
            ledger,
            records,
            messages,
        }
    }
}

impl XApp for TimedXApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut XAppContext<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_records(&mut self, ctx: &mut XAppContext<'_>, records: &[UeMobiFlow], end: Timestamp) {
        self.ledger
            .time(self.records, || self.inner.on_records(ctx, records, end));
        if self.records == Layer::MobiWatch {
            self.ledger
                .count(|t| t.watch_records += records.len() as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut XAppContext<'_>, topic: &str, payload: &[u8]) {
        self.ledger
            .time(self.messages, || self.inner.on_message(ctx, topic, payload));
        if self.messages == Layer::Analyzer {
            self.ledger.count(|t| t.analyzer_messages += 1);
        }
    }
}
