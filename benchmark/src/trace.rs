//! Spans around every call into a layer, recorded from the harness.
//!
//! A traced pass wraps each poll round, each layer call inside it, each ring
//! call the application makes and each request in a [`Span`].  Every span
//! feeds the per-layer accumulators; the first [`SPAN_CAP`] are also kept in
//! memory and written to `benchmark/out/trace-<workload>.json` when the run
//! ends.  With tracing off the probes cost one predictable branch.

use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// Spans kept for the trace file; the accumulators see every span.
pub const SPAN_CAP: usize = 20_000;

/// The layers of one poll round, in round order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Gen,
    Peer,
    Driver,
    Ip,
    Pf,
    Tcp,
    Syscall,
    App,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Gen,
        Layer::Peer,
        Layer::Driver,
        Layer::Ip,
        Layer::Pf,
        Layer::Tcp,
        Layer::Syscall,
        Layer::App,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "gen",
            Layer::Peer => "peer",
            Layer::Driver => "driver",
            Layer::Ip => "ip",
            Layer::Pf => "pf",
            Layer::Tcp => "tcp",
            Layer::Syscall => "syscall",
            Layer::App => "app",
        }
    }
}

/// The application's calls across the app boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingOp {
    Send,
    Recv,
    Arm,
    Drain,
}

impl RingOp {
    pub const ALL: [RingOp; 4] = [RingOp::Send, RingOp::Recv, RingOp::Arm, RingOp::Drain];

    pub fn name(self) -> &'static str {
        match self {
            RingOp::Send => "rings.send",
            RingOp::Recv => "rings.recv",
            RingOp::Arm => "rings.arm",
            RingOp::Drain => "rings.drain",
        }
    }
}

/// One recorded interval.  Times are nanoseconds since the traced pass
/// began; `parent` is the index of the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Work the call returned (layer and ring spans), the request id
    /// (request spans) or the round number (round spans).
    pub value: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// First and last poll round of a request span.
    pub rounds: Option<(u64, u64)>,
}

/// Totals of one layer over a traced pass.  Busy calls returned work, idle
/// calls returned 0; both times are self times (the span minus what its
/// child spans cover), and `child_ns` is what was subtracted.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub child_ns: u64,
    pub busy_calls: u64,
    pub idle_calls: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Totals of one kind of ring call.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingTotals {
    pub ns: u64,
    pub calls: u64,
}

/// Times the application's ring calls as children of the current `app`
/// span.
pub struct RingProbe {
    on: bool,
    origin: Instant,
    totals: [RingTotals; 4],
    /// Ring time inside the `app` call in progress.
    in_call_ns: u64,
    parent: Option<u32>,
    spans: Vec<Span>,
    budget: usize,
}

impl RingProbe {
    #[inline]
    pub fn call<R>(&mut self, op: RingOp, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        let totals = &mut self.totals[op as usize];
        totals.ns += ns;
        totals.calls += 1;
        self.in_call_ns += ns;
        if self.spans.len() < self.budget {
            self.spans.push(Span {
                name: op.name(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                parent: self.parent,
                value: 1,
                allocs: 0,
                alloc_bytes: 0,
                rounds: None,
            });
        }
        out
    }
}

/// Times rounds and the layer calls inside them.
pub struct LayerProbe {
    on: bool,
    origin: Instant,
    totals: [LayerTotals; 8],
    round_span: Option<u32>,
    spans: Vec<Span>,
}

/// The probes of one stepped run.  Off, they pass calls straight through.
pub struct Probe {
    pub layers: LayerProbe,
    pub rings: RingProbe,
}

impl Probe {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        let origin = Instant::now();
        let cap = if on { SPAN_CAP } else { 0 };
        Probe {
            layers: LayerProbe {
                on,
                origin,
                totals: Default::default(),
                round_span: None,
                spans: Vec::with_capacity(cap),
            },
            rings: RingProbe {
                on,
                origin,
                totals: Default::default(),
                in_call_ns: 0,
                parent: None,
                spans: Vec::with_capacity(cap / 4),
                budget: cap / 4,
            },
        }
    }

    pub fn is_on(&self) -> bool {
        self.layers.on
    }

    /// Opens the span of poll round `round`.
    #[inline]
    pub fn begin_round(&mut self, round: u64) {
        if !self.layers.on {
            return;
        }
        let layers = &mut self.layers;
        layers.round_span = None;
        // Keep a round only if all of its layer spans fit beside it.
        if layers.spans.len() + 1 + Layer::ALL.len() <= SPAN_CAP * 3 / 4 {
            layers.round_span = Some(layers.spans.len() as u32);
            layers.spans.push(Span {
                name: "round",
                start_ns: layers.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: None,
                value: round,
                allocs: 0,
                alloc_bytes: 0,
                rounds: None,
            });
        }
    }

    /// Closes the current round's span.
    #[inline]
    pub fn end_round(&mut self) {
        if let Some(index) = self.layers.round_span.take() {
            self.layers.spans[index as usize].end_ns =
                self.layers.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs one layer's call inside a span.  `f` gets the ring probe so the
    /// application's ring calls become children of its span.
    #[inline]
    pub fn layer(&mut self, layer: Layer, f: impl FnOnce(&mut RingProbe) -> usize) -> usize {
        if !self.layers.on {
            return f(&mut self.rings);
        }
        let layers = &mut self.layers;
        let span_index = layers.round_span.map(|_| layers.spans.len() as u32);
        self.rings.in_call_ns = 0;
        self.rings.parent = span_index;
        let (allocs0, bytes0) = alloc::snapshot();
        let start = Instant::now();
        let work = f(&mut self.rings);
        let end = Instant::now();
        let (allocs1, bytes1) = alloc::snapshot();
        let child_ns = self.rings.in_call_ns;
        let self_ns = ((end - start).as_nanos() as u64).saturating_sub(child_ns);
        let totals = &mut layers.totals[layer as usize];
        if work > 0 {
            totals.busy_ns += self_ns;
            totals.busy_calls += 1;
        } else {
            totals.idle_ns += self_ns;
            totals.idle_calls += 1;
        }
        totals.child_ns += child_ns;
        totals.allocs += allocs1 - allocs0;
        totals.alloc_bytes += bytes1 - bytes0;
        if span_index.is_some() {
            layers.spans.push(Span {
                name: layer.name(),
                start_ns: (start - layers.origin).as_nanos() as u64,
                end_ns: (end - layers.origin).as_nanos() as u64,
                parent: layers.round_span,
                value: work as u64,
                allocs: allocs1 - allocs0,
                alloc_bytes: bytes1 - bytes0,
                rounds: None,
            });
        }
        work
    }

    /// Records a finished request: its id, issue and verification times and
    /// the rounds it spanned.
    pub fn request(&mut self, id: u64, issued: Instant, done: Instant, rounds: (u64, u64)) {
        let layers = &mut self.layers;
        if !layers.on || layers.spans.len() >= SPAN_CAP * 3 / 4 || issued < layers.origin {
            return;
        }
        layers.spans.push(Span {
            name: "request",
            start_ns: (issued - layers.origin).as_nanos() as u64,
            end_ns: (done - layers.origin).as_nanos() as u64,
            parent: None,
            value: id,
            allocs: 0,
            alloc_bytes: 0,
            rounds: Some(rounds),
        });
    }

    pub fn layer_totals(&self, layer: Layer) -> LayerTotals {
        self.layers.totals[layer as usize]
    }

    pub fn ring_totals(&self, op: RingOp) -> RingTotals {
        self.rings.totals[op as usize]
    }

    /// All kept spans in one list: the ring spans follow the round, layer
    /// and request spans, their parents still pointing into the first part.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.layers.spans;
        spans.extend(self.rings.spans);
        spans
    }
}

/// Writes `spans` as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    )?;
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let rounds = span.rounds.map_or(String::new(), |(a, b)| {
            format!(",\"first_round\":{a},\"last_round\":{b}")
        });
        let comma = if index + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{index},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"value\":{},\"allocs\":{},\"alloc_bytes\":{}{rounds}}}{comma}",
            span.name, span.start_ns, span.end_ns, span.value, span.allocs, span.alloc_bytes
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span's duration minus the part of it its children cover.
    fn self_time_ns(spans: &[Span], index: usize) -> u64 {
        let span = &spans[index];
        let covered: u64 = spans
            .iter()
            .filter(|child| child.parent == Some(index as u32))
            .map(|child| {
                child
                    .end_ns
                    .min(span.end_ns)
                    .saturating_sub(child.start_ns.max(span.start_ns))
            })
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            value: 0,
            allocs: 0,
            alloc_bytes: 0,
            rounds: None,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("round", 0, 1000, None),
            span("app", 100, 900, Some(0)),
            span("rings.recv", 200, 300, Some(1)),
            span("rings.send", 400, 650, Some(1)),
            // A child that overhangs its parent counts only the overlap.
            span("rings.drain", 850, 950, Some(1)),
            span("tcp", 900, 1000, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 1), 800 - 100 - 250 - 50);
        assert_eq!(self_time_ns(&spans, 0), 1000 - 800 - 100);
        assert_eq!(self_time_ns(&spans, 2), 100);
    }

    #[test]
    fn a_probe_that_is_off_records_nothing_and_passes_work_through() {
        let mut probe = Probe::off();
        probe.begin_round(1);
        assert_eq!(probe.layer(Layer::Tcp, |_| 5), 5);
        probe.end_round();
        assert_eq!(probe.layer_totals(Layer::Tcp).busy_calls, 0);
        assert!(probe.into_spans().is_empty());
    }

    #[test]
    fn a_probe_splits_busy_from_idle_and_parents_ring_calls_to_app() {
        let mut probe = Probe::on();
        probe.begin_round(7);
        probe.layer(Layer::Tcp, |_| 0);
        probe.layer(Layer::Tcp, |_| 3);
        probe.layer(Layer::App, |rings| {
            rings.call(RingOp::Recv, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let boxed = Box::new([0u8; 128]);
            std::hint::black_box(&boxed);
            1
        });
        probe.end_round();
        let tcp = probe.layer_totals(Layer::Tcp);
        assert_eq!((tcp.busy_calls, tcp.idle_calls), (1, 1));
        let app = probe.layer_totals(Layer::App);
        assert!(app.allocs >= 1 && app.alloc_bytes >= 128);
        assert!(app.child_ns >= 2_000_000);
        assert_eq!(probe.ring_totals(RingOp::Recv).calls, 1);

        let spans = probe.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["round", "tcp", "tcp", "app", "rings.recv"]);
        assert_eq!(spans[0].value, 7);
        assert!(spans[1..4].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[4].parent, Some(3));
        // The app's self time is its span minus the ring call inside it,
        // in the totals (to the clock reads' few nanoseconds) and the spans.
        let app_span = spans[3].end_ns - spans[3].start_ns;
        assert!(app.busy_ns + app.child_ns <= app_span + 1_000);
        assert!(app.busy_ns < 2_000_000);
        assert_eq!(
            self_time_ns(&spans, 3),
            app_span - (spans[4].end_ns - spans[4].start_ns)
        );
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }
}
