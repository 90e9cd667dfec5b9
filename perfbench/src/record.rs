//! The pieces of the one-line JSON records both binaries print for
//! `run.py`, and the output digest that ties a traced run to its untraced
//! counterpart.

use serde::Serialize;

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// The name `BENCHMARK.json` declares it under.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Per-probe wall latency: median, 99th percentile and sample count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ProbeWall {
    /// Median, µs.
    pub p50_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Probes sampled.
    pub samples: u64,
}

/// FNV-1a of `text`, as 16 hex digits: a compact fingerprint of a
/// serialized aggregate, compared across processes.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}
