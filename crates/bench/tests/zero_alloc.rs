//! The hot path's zero-allocation contract, enforced at the allocator.
//!
//! Once the caches are warm — the query encoder holds the wire bytes, the
//! payload pool holds recycled slabs, the simulator's queues hold spare
//! capacity — a probe query that crosses the simulated home and dies
//! without an answer must not allocate at all: cached encode, pooled
//! payload, packet forwarding hop by hop, and the borrowed-view receive
//! filter are all allocation-free. An *answered* location query must not
//! allocate either, on either side: each public resolver's site parses the
//! query as a view, writes its reply in place and copies it into the
//! payload pool, and the stub accepts that reply in wire form, sharing the
//! pooled payload instead of copying it into an owned message. The same
//! counter also pins the component pieces individually, so a regression
//! report names the layer that started allocating rather than just "the
//! path".
//!
//! Everything runs inside one `#[test]` because the counter is a process
//! global; parallel test threads would bleed into each other's deltas.

use dns_wire::{Message, MessageView, Name, QueryEncoder, Question, RType, Rcode};
use interception::{HomeScenario, ProbeTimingLog, SimTransport, Vantage};
use locator::{default_resolvers, QueryOptions, QueryTransport};
use netsim::{Delivery, Host, IfaceId, IpPacket, PayloadPool, SimDuration, Simulator};
use resolver_sim::{PublicBrand, PublicResolverSite, ResolveCtx, ZoneDb};
use std::sync::Arc;
use timing::{AtomicHistogram, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, result)
}

#[test]
fn steady_state_probe_path_allocates_nothing() {
    // --- End to end: a warm scanner-vantage query through the clean home.
    // The clean CPE keeps WAN port 53 closed, so the query crosses the
    // core, the ISP, and the access link, is dropped at the device, and
    // times out — the full transport + netsim wire path with no answer to
    // materialize. After warmup, that entire round must be allocation-free.
    let mut transport = SimTransport::new(HomeScenario::clean().build());
    transport.vantage = Vantage::Scanner;
    let server = IpAddr::V4(transport.scenario.addrs.cpe_public_v4);
    let question = Question::new("example.com".parse().unwrap(), RType::A);
    let opts = QueryOptions::default();
    for i in 0..4 {
        let out = transport.query(server, &question, 0x6000 + i, opts);
        assert!(out.is_timeout(), "clean CPE must not answer scanner queries");
    }
    let (allocs, out) = allocations_in(|| transport.query(server, &question, 0x6100, opts));
    assert!(out.is_timeout());
    assert_eq!(
        allocs, 0,
        "steady-state probe wire path allocated {allocs} times; \
         the hot path must be allocation-free once warm"
    );

    // --- Responder side of an answered location query, for each of the
    // four public resolvers: the site's receive (view parse), its reply
    // write (header, question and answers straight into the scratch,
    // ZoneDb handing Google's reflector answer to the writer) and the copy
    // into the payload pool. The client drains into a warm buffer, so the
    // counted round is the responder plus netsim's own dispatch.
    let zonedb = Arc::new(ZoneDb::standard_world());
    for (resolver, brand) in default_resolvers().into_iter().zip(PublicBrand::ALL) {
        let mut sim = Simulator::new(1);
        let client_addr: IpAddr = "73.1.1.1".parse().unwrap();
        let client = sim.add_device(Host::boxed("client", [client_addr]));
        let site = sim.add_device(PublicResolverSite::boxed(
            brand,
            resolver.v4.iter().copied(),
            "IAD",
            84,
            ResolveCtx::v4("172.253.226.35".parse().unwrap()),
            Arc::clone(&zonedb),
        ));
        sim.connect((client, IfaceId(0)), (site, IfaceId(0)), SimDuration::from_millis(1));
        let question = resolver.location_query();
        let mut encoder = QueryEncoder::new();
        let mut inbox: Vec<Delivery> = Vec::new();
        let mut ask = |sim: &mut Simulator, inbox: &mut Vec<Delivery>, txid: u16| {
            let payload = sim.alloc_payload(encoder.encode_query(txid, &question).unwrap());
            let query = IpPacket::udp(client_addr, resolver.v4[0], 40000, 53, payload).unwrap();
            sim.inject(client, IfaceId(0), query);
            sim.run_to_quiescence();
            sim.device_mut::<Host>(client).unwrap().drain_inbox_into(inbox);
        };
        for txid in 0..4 {
            ask(&mut sim, &mut inbox, 0x7000 + txid);
        }
        let (allocs, ()) = allocations_in(|| ask(&mut sim, &mut inbox, 0x7100));
        let reply = Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
        assert_eq!(inbox.len(), 1, "{brand:?}");
        assert_eq!(reply.header.id, 0x7100, "{brand:?}");
        assert_eq!(reply.header.rcode, Rcode::NoError, "{brand:?}");
        assert!(!reply.answers.is_empty(), "{brand:?} location query went unanswered");
        assert_eq!(
            allocs, 0,
            "{brand:?}: warm answered location query allocated {allocs} times on the responder side"
        );
    }

    // --- The whole answered location query, stub included: each of the
    // four public resolvers over both families, through the clean home and
    // `SimTransport::query`, with the reply accepted in wire form. This is
    // the routine `repro --bench-json` reports as
    // `steady_state_wire_path_allocs` (Cloudflare over IPv4).
    for resolver in default_resolvers() {
        for server in [resolver.v4[0], resolver.v6[0]] {
            let (allocs, out) = hijack_bench::warm_answered_query_allocs(&resolver, server, || {
                ALLOCATIONS.load(Ordering::Relaxed)
            });
            let label = format!("{:?} via {server}", resolver.key);
            let reply = out.response().unwrap_or_else(|| panic!("{label} went unanswered"));
            assert!(resolver.is_standard_location_response(reply), "{label}");
            assert_eq!(allocs, 0, "{label}: warm answered location query allocated {allocs} times");
        }
    }

    // --- Component: cached query encoding re-stamps the txid in place.
    let mut encoder = QueryEncoder::new();
    encoder.encode_query(1, &question).unwrap();
    let (allocs, _) = allocations_in(|| {
        for txid in 2..50u16 {
            encoder.encode_query(txid, &question).unwrap();
        }
    });
    assert_eq!(allocs, 0, "warm QueryEncoder hit allocated");

    // --- Component: the payload pool recycles slabs once payloads drop.
    let mut pool = PayloadPool::new();
    drop(pool.alloc(b"warm"));
    let (allocs, _) = allocations_in(|| {
        for _ in 0..50 {
            drop(pool.alloc(b"steady-state payload bytes"));
        }
    });
    assert_eq!(allocs, 0, "warm PayloadPool recycle allocated");

    // --- Component: the borrowed view parses and filters without copying.
    let name: Name = "example.com".parse().unwrap();
    let wire = Message::query(0x77, Question::new(name.clone(), RType::A)).encode().unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..50 {
            let view = MessageView::parse(&wire).expect("valid wire");
            assert_eq!(view.header().id, 0x77);
            assert!(!view.header().qr);
            let q = view.question().expect("one question");
            assert!(q.matches(&Question::new(name.clone(), RType::A)));
        }
    });
    assert_eq!(allocs, 0, "MessageView parse + filter allocated");

    // --- Component: Name comparison and suffix checks walk in place.
    let parent: Name = "com".parse().unwrap();
    let other: Name = "example.org".parse().unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..50 {
            assert!(name.is_subdomain_of(&parent));
            assert!(!other.is_subdomain_of(&parent));
            assert_ne!(name, other);
            assert_eq!(name.label_count(), 2);
        }
    });
    assert_eq!(allocs, 0, "Name comparison/suffix ops allocated");

    // --- Timing disabled (the default): the exact same warm query path
    // with no observer attached must still be allocation-free — the
    // disabled configuration adds exactly zero allocations on top of the
    // baseline pinned above.
    assert!(transport.take_timing().is_none(), "no observer was attached");
    let (allocs, out) = allocations_in(|| transport.query(server, &question, 0x6200, opts));
    assert!(out.is_timeout());
    assert_eq!(allocs, 0, "disabled timing path added {allocs} allocations");

    // --- Timing enabled: attaching the per-probe log is the one-time
    // cost (a boxed pair of pre-sized sample vectors). Once attached and
    // warm, recording RTT and wall samples on every query must not
    // allocate: pushes land in reserved capacity, timestamps are stack
    // values.
    transport.attach_timing(Box::new(ProbeTimingLog::new()));
    for i in 0..4 {
        let out = transport.query(server, &question, 0x6300 + i, opts);
        assert!(out.is_timeout());
    }
    let (allocs, out) = allocations_in(|| transport.query(server, &question, 0x6400, opts));
    assert!(out.is_timeout());
    assert_eq!(
        allocs, 0,
        "enabled timing record path allocated {allocs} times after warmup"
    );
    assert!(transport.take_timing().is_some(), "observer log survives the probe");

    // --- Component: the histogram record path is a pair of atomic adds
    // into a fixed bucket array, and spans — enabled or disabled — live
    // entirely on the stack.
    let hist = AtomicHistogram::new();
    let (allocs, _) = allocations_in(|| {
        for v in 0..200u64 {
            hist.record(v * 37);
        }
        for _ in 0..50 {
            Span::enabled(&hist).finish();
            Span::disabled().finish();
            Span::maybe(None).finish();
        }
    });
    assert_eq!(allocs, 0, "histogram record / span path allocated");
}
