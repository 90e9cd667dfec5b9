//! Measurement routines shared by the `repro` binary and the allocation
//! gates under `tests/`, so the number `repro --bench-json` reports is the
//! one the gates pin.

use interception::{HomeScenario, SimTransport};
use locator::{PublicResolver, QueryOptions, QueryOutcome, QueryTransport};
use std::net::IpAddr;

/// Heap allocations of one warm answered location query to `server`, one
/// of `resolver`'s service addresses, through the clean home: the cached
/// encode, every hop and the site's reply, and the stub's acceptance of
/// the reply in wire form. `allocations` reads the caller's process-wide
/// allocation counter. Four queries warm the caches first; the measured
/// query's outcome is returned next to the count so callers can check it
/// was answered.
pub fn warm_answered_query_allocs(
    resolver: &PublicResolver,
    server: IpAddr,
    allocations: impl Fn() -> u64,
) -> (u64, QueryOutcome) {
    let mut transport = SimTransport::new(HomeScenario::clean().build());
    let question = resolver.location_query();
    let opts = QueryOptions::default();
    for txid in 0..4 {
        transport.query(server, &question, 0x7000 + txid, opts);
    }
    let before = allocations();
    let outcome = transport.query(server, &question, 0x7100, opts);
    (allocations() - before, outcome)
}
