//! What the HTTP codec costs a server, counted with a test allocator, and
//! what the httpd writes in place of the responses it used to format.
//!
//! * Parsing the heads the benchmark's generator and the load generator
//!   send allocates nothing: method and target are inline strings, and a
//!   target longer than their inline capacity parses to the same string
//!   through the heap.
//! * The httpd writes every response straight into its connection's
//!   output buffer; what reaches the wire is byte for byte what
//!   [`response_bytes`] formats, for every status it answers with, and its
//!   `bytes_out` counts exactly those bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use newt_apps::http::{
    body_for_path, parse_request, pattern, request_bytes, response_bytes, InlineString,
    ParseOutcome, ResponseReader,
};
use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_net::link::LinkConfig;
use newt_net::peer::ClientStatus;
use newt_stack::builder::{NewtStack, StackConfig};

thread_local! {
    /// Allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the addition is a thread-local counter with a
// `const` initialiser, which neither allocates nor fails.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Parses `head`, which must be one complete request, and returns it with
/// the allocations parsing made.
fn parse_counted(head: &[u8]) -> (ParseOutcome, u64) {
    let before = ALLOCS.with(Cell::get);
    let outcome = parse_request(head);
    (outcome, ALLOCS.with(Cell::get) - before)
}

#[test]
fn parsing_the_generators_heads_allocates_nothing() {
    let harness = |path: &str, connection: &str| {
        format!("GET {path} HTTP/1.1\r\nHost: newtos\r\nConnection: {connection}\r\n\r\n")
    };
    let heads = [
        harness("/bytes/256", "keep-alive").into_bytes(),
        harness("/bytes/256", "close").into_bytes(),
        harness("/bytes/1048576", "keep-alive").into_bytes(),
        request_bytes("/bytes/4096"),
        request_bytes("/"),
    ];
    for head in &heads {
        let (outcome, allocations) = parse_counted(head);
        let ParseOutcome::Request(request, consumed) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(consumed, head.len());
        assert_eq!(request.method, "GET");
        assert!(head.starts_with(format!("GET {} ", &*request.path).as_bytes()));
        assert_eq!(
            allocations,
            0,
            "parsing {:?}",
            String::from_utf8_lossy(head)
        );
    }
}

#[test]
fn a_target_longer_than_the_inline_capacity_parses_through_the_heap() {
    let path = format!("/bytes/{}", "0".repeat(2 * InlineString::INLINE));
    let head = request_bytes(&path);
    let (outcome, allocations) = parse_counted(&head);
    let ParseOutcome::Request(request, _) = outcome else {
        panic!("{outcome:?}");
    };
    assert_eq!(request.path, path);
    assert_eq!(&*request.path, path.as_str());
    assert_eq!(allocations, 1, "the long target is one heap string");
    // Right at the capacity the string is still inline.
    let edge = "/".repeat(InlineString::INLINE);
    let (outcome, allocations) = parse_counted(&request_bytes(&edge));
    assert!(matches!(outcome, ParseOutcome::Request(ref r, _) if r.path == edge));
    assert_eq!(allocations, 0);
    assert_eq!(InlineString::new(&path), InlineString::new(&path).clone());
    assert_ne!(InlineString::new(&path), InlineString::new(&edge));
}

/// Sends `request` on a fresh client flow from `src_port` and returns the
/// raw bytes of the one response it draws; the flow stays open.
///
/// Any status past the handshake will do: a shed connection gets its 503
/// and FIN as soon as it is accepted, so it can pass `Established` between
/// two looks and be seen `Closed` first.
fn exchange(stack: &NewtStack, src_port: u16, request: &[u8]) -> Vec<u8> {
    let peer = stack.peer(0);
    peer.client_connect(src_port, StackConfig::local_addr(0), 80);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(
        peer.client_status(src_port),
        Some(ClientStatus::Established | ClientStatus::Closed)
    ) {
        assert!(Instant::now() < deadline, "flow {src_port} never connected");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(peer.client_send(src_port, request));
    let (mut raw, mut reader) = (Vec::new(), ResponseReader::new());
    loop {
        let bytes = peer.client_take(src_port);
        raw.extend_from_slice(&bytes);
        reader.push(&bytes);
        if reader.pop_response().is_some() {
            assert_eq!(reader.buffered(), 0, "one response, nothing after it");
            return raw;
        }
        assert!(Instant::now() < deadline, "no response on flow {src_port}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn stack() -> NewtStack {
    NewtStack::start(
        StackConfig::newtos()
            .link(LinkConfig::unshaped())
            .clock_speedup(50.0),
    )
}

#[test]
fn the_httpd_writes_what_response_bytes_formats() {
    let stack = stack();
    let httpd =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");
    let index = body_for_path("/").expect("an index page");
    let get = |path: &str, connection: &str| {
        format!("GET {path} HTTP/1.1\r\nConnection: {connection}\r\n\r\n").into_bytes()
    };
    let post = |connection: &str| {
        format!("POST / HTTP/1.1\r\nConnection: {connection}\r\n\r\n").into_bytes()
    };
    let mut cases = Vec::new();
    for (keep_alive, connection) in [(true, "keep-alive"), (false, "close")] {
        let ok = |body: &[u8]| response_bytes(200, "OK", body, keep_alive);
        cases.push((get("/bytes/3000", connection), ok(&pattern(3000))));
        cases.push((get("/", connection), ok(&index)));
        cases.push((
            get("/missing", connection),
            response_bytes(404, "Not Found", b"no such object", keep_alive),
        ));
        cases.push((
            post(connection),
            response_bytes(405, "Method Not Allowed", b"GET only", keep_alive),
        ));
    }
    // A head that does not parse is answered and the connection closed.
    cases.push((
        b"FOO\r\n\r\n".to_vec(),
        response_bytes(400, "Bad Request", b"bad request", false),
    ));
    let mut bytes_out = 0;
    for (port, (request, expected)) in (30_000..).zip(&cases) {
        let wire = exchange(&stack, port, request);
        assert_eq!(
            wire,
            *expected,
            "{} answered with {}",
            String::from_utf8_lossy(request),
            String::from_utf8_lossy(&wire[..wire.len().min(120)])
        );
        bytes_out += expected.len() as u64;
        stack.peer(0).client_close(port);
    }
    let stats = httpd.stop();
    assert_eq!(stats.requests, cases.len() as u64);
    assert_eq!(stats.bytes_out, bytes_out);
    stack.shutdown();
}

#[test]
fn a_shed_connection_gets_what_response_bytes_formats() {
    let stack = stack();
    // Past four open connections a new one is shed (and past five the
    // accept loop pauses).
    let config = HttpdConfig {
        max_connections: 4,
        ..HttpdConfig::default()
    };
    let httpd = Httpd::spawn(stack.client(), stack.shards(), config).expect("http server");
    // Four connections are served and stay open, holding every place; the
    // fifth is shed.
    let served = response_bytes(200, "OK", &pattern(10), true);
    for port in 31_000..31_004 {
        assert_eq!(exchange(&stack, port, &request_bytes("/bytes/10")), served);
    }
    let shed = response_bytes(503, "Service Unavailable", b"overloaded", false);
    assert_eq!(exchange(&stack, 31_004, &request_bytes("/bytes/10")), shed);
    let stats = httpd.stop();
    assert_eq!(stats.shed_503, 1);
    assert_eq!(stats.bytes_out, (4 * served.len() + shed.len()) as u64);
    stack.shutdown();
}
