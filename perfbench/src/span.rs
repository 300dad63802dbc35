//! In-memory span recorder for the traced run.
//!
//! Every wrapped call into a layer opens a [`Guard`]: the span (layer,
//! start, duration, parent) is appended to a per-thread vector and the
//! thread's *current layer* is switched for the allocation counter (see
//! [`crate::alloc`]). Nothing is written while the workload runs; spans
//! are folded into per-layer totals and self times at the end.
//!
//! Spans of one thread nest strictly (a child opens and closes inside
//! its parent), so a layer's self time is its span time minus the time
//! of its direct children, with no interval arithmetic needed.

use std::cell::{Cell, RefCell};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers the benchmark attributes time and allocations to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Not inside any wrapped call.
    Outside = 0,
    /// The benchmark's own bookkeeping (span storage growth).
    Bench,
    /// `lbrm-sim`: one `World::step`.
    SimStep,
    /// `lbrm::harness`: one `MachineActor` callback.
    Harness,
    /// `lbrm-core`: the sender machine.
    Sender,
    /// `lbrm-core`: the primary logger machine.
    Primary,
    /// `lbrm-core`: a secondary logger machine.
    Secondary,
    /// `lbrm-core`: a receiver machine.
    Receiver,
    /// `lbrm-trace`: one record into a role `MetricsRegistry`.
    Sink,
    /// `lbrm-net`: one transport send call.
    NetSend,
    /// `lbrm-net`: one transport receive call.
    NetRecv,
    /// `lbrm-trace`: one batch `analyze()` pass.
    Analyze,
    /// `lbrm-trace`: one `OnlineAnalyzer` push.
    Online,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 13;

impl Layer {
    /// Every layer, indexed by its discriminant.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Outside,
        Layer::Bench,
        Layer::SimStep,
        Layer::Harness,
        Layer::Sender,
        Layer::Primary,
        Layer::Secondary,
        Layer::Receiver,
        Layer::Sink,
        Layer::NetSend,
        Layer::NetRecv,
        Layer::Analyze,
        Layer::Online,
    ];

    /// The layer's index into per-layer tables.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// The layer's name in the span table.
    pub fn name(self) -> &'static str {
        [
            "outside",
            "bench",
            "sim.step",
            "harness",
            "core.sender",
            "core.primary",
            "core.secondary",
            "core.receiver",
            "trace.sink",
            "net.send",
            "net.recv",
            "trace.analyze",
            "trace.online",
        ][self.idx()]
    }
}

const NO_PARENT: u32 = u32::MAX;
const LAYER_SHIFT: u32 = 56;

/// One recorded span: 16 bytes, so a paper-scale traced run (a few
/// million spans) stays under 100 MB.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Start in nanoseconds since the process epoch (low 56 bits) and
    /// the layer (high 8 bits).
    start_layer: u64,
    /// Duration in nanoseconds, saturated at `u32::MAX` (~4.3 s).
    dur: u32,
    /// Index of the enclosing span in the same thread's vector.
    parent: u32,
}

impl Span {
    /// The span's layer.
    pub fn layer(&self) -> Layer {
        Layer::ALL[(self.start_layer >> LAYER_SHIFT) as usize]
    }

    /// Start, in nanoseconds since the process epoch.
    pub fn start_ns(&self) -> u64 {
        self.start_layer & ((1 << LAYER_SHIFT) - 1)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        u64::from(self.dur)
    }

    /// Index of the parent span, if any.
    pub fn parent(&self) -> Option<usize> {
        (self.parent != NO_PARENT).then_some(self.parent as usize)
    }
}

struct Recorder {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    const fn new() -> Self {
        Recorder {
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn open(&mut self, layer: Layer, start: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() || self.stack.len() == self.stack.capacity() {
            // Storage growth is the benchmark's cost, not the layer's.
            let saved = CURRENT.replace(Layer::Bench as u8);
            self.spans.reserve(self.spans.len().max(1 << 16));
            self.stack.reserve(64);
            CURRENT.set(saved);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per thread");
        self.spans.push(Span {
            start_layer: start | ((layer as u64) << LAYER_SHIFT),
            dur: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32, end: u64) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must nest");
        let s = &mut self.spans[idx as usize];
        s.dur = u32::try_from(end.saturating_sub(s.start_ns())).unwrap_or(u32::MAX);
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Threads the benchmark does not own (endpoint threads) hand
        // their spans over when they exit.
        if !self.spans.is_empty() {
            let spans = std::mem::take(&mut self.spans);
            if let Ok(mut done) = FINISHED.lock() {
                done.push(spans);
            }
        }
    }
}

thread_local! {
    static CURRENT: Cell<u8> = const { Cell::new(Layer::Outside as u8) };
    static REC: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
}

static FINISHED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The calling thread's current layer (read by the allocator; never
/// allocates).
pub fn current_layer() -> usize {
    CURRENT.try_with(Cell::get).unwrap_or(0) as usize
}

/// An open span; closes on drop.
#[must_use = "the span closes when the guard drops"]
pub struct Guard {
    idx: u32,
    prev: u8,
}

/// Opens a span of `layer` on the calling thread.
pub fn enter(layer: Layer) -> Guard {
    let start = now_ns();
    let idx = REC.with_borrow_mut(|r| r.open(layer, start));
    let prev = CURRENT.replace(layer as u8);
    Guard { idx, prev }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        CURRENT.set(self.prev);
        REC.with_borrow_mut(|r| r.close(self.idx, end));
    }
}

/// Runs `f` with the calling thread's allocations charged to `layer`,
/// recording no span: how an untraced run counts its own allocations
/// apart from other threads'.
pub fn charge<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.replace(layer as u8);
    let r = f();
    CURRENT.set(prev);
    r
}

/// Reserves room for `n` spans on the calling thread, so a traced run
/// does not pay for vector doubling mid-run.
pub fn reserve(n: usize) {
    let saved = CURRENT.replace(Layer::Bench as u8);
    REC.with_borrow_mut(|r| r.spans.reserve(n));
    CURRENT.set(saved);
}

/// Takes the calling thread's spans.
pub fn take_local() -> Vec<Span> {
    REC.with_borrow_mut(|r| {
        assert!(r.stack.is_empty(), "spans still open");
        std::mem::take(&mut r.spans)
    })
}

/// Takes the spans of every thread that has exited since the last call.
pub fn take_finished() -> Vec<Vec<Span>> {
    std::mem::take(&mut *FINISHED.lock().expect("span registry poisoned"))
}

/// Per-layer span totals.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Spans per layer.
    pub count: [u64; LAYERS],
    /// Summed span durations per layer, in nanoseconds.
    pub total_ns: [u64; LAYERS],
    /// Summed self time per layer (span time minus direct children).
    pub self_ns: [u64; LAYERS],
}

impl LayerTimes {
    /// Folds one thread's spans into the totals.
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            let l = s.layer().idx();
            self.count[l] += 1;
            self.total_ns[l] += s.dur_ns();
            self.self_ns[l] += s.dur_ns();
            if let Some(p) = s.parent() {
                let pl = spans[p].layer().idx();
                self.self_ns[pl] = self.self_ns[pl].saturating_sub(s.dur_ns());
            }
        }
    }

    /// Total time covered by root spans (equal to the sum of all self
    /// times, since spans nest).
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// The folded spans, one line per layer that has any: the span
    /// table a traced run writes out at the end.
    pub fn table(&self) -> Vec<String> {
        Layer::ALL
            .iter()
            .filter(|l| self.count[l.idx()] > 0)
            .map(|l| {
                let i = l.idx();
                format!(
                    "span {:<15} spans={:<9} total_ms={:<12.3} self_ms={:.3}",
                    l.name(),
                    self.count[i],
                    self.total_ns[i] as f64 / 1e6,
                    self.self_ns[i] as f64 / 1e6
                )
            })
            .collect()
    }

    /// Self nanoseconds per span of `layer` (0 when it has no spans).
    pub fn self_per(&self, layer: Layer) -> f64 {
        per(self.self_ns[layer.idx()], self.count[layer.idx()])
    }
}

/// `num / den` as a float, 0 when `den` is 0.
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let _ = take_local();
        {
            let _a = enter(Layer::SimStep);
            {
                let _b = enter(Layer::Harness);
                let _c = enter(Layer::Receiver);
                assert_eq!(current_layer(), Layer::Receiver.idx());
            }
            assert_eq!(current_layer(), Layer::SimStep.idx());
        }
        assert_eq!(current_layer(), Layer::Outside.idx());
        let spans = take_local();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent(), Some(0));
        assert_eq!(spans[2].parent(), Some(1));
        let mut t = LayerTimes::default();
        t.add(&spans);
        assert_eq!(t.self_sum_ns(), spans[0].dur_ns());
        assert_eq!(
            t.self_ns[Layer::SimStep.idx()],
            spans[0].dur_ns() - spans[1].dur_ns()
        );
    }
}
