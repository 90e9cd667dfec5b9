//! The repository's benchmark: seeded workloads run end to end through the
//! public `atlas-sim` campaign API (untraced), and a separate single-thread
//! traced run that times every call into each layer.
//!
//! Two binaries share this library. `perfbench` runs one untraced
//! end-to-end repetition on the system allocator; `perfbench-trace` installs
//! [`sys::CountingAlloc`] and runs the traced pass. `run.py` builds both,
//! repeats them for the requested time and reports medians.

pub mod e2e;
pub mod record;
pub mod sys;
pub mod traced;
pub mod workload;

pub use workload::Workload;

/// Command-line arguments shared by both binaries. The fleet size is the
/// workload's own ([`Workload::default_size`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Campaign worker threads.
    pub threads: usize,
    /// Attach scheduler telemetry to the campaign.
    pub telemetry: bool,
}

/// Usage shared by both binaries.
pub const USAGE: &str =
    "usage: --workload pilot|localize|taxonomy --seed N [--threads N] [--telemetry]";

impl Args {
    /// Parses `--workload W --seed N [--threads N] [--telemetry]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut threads = 1;
        let mut telemetry = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--telemetry" {
                telemetry = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("bad {flag}: {value}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--threads" => threads = number()? as usize,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if threads == 0 {
            return Err("--threads must be positive".into());
        }
        Ok(Args { workload, seed: seed.ok_or("--seed is required")?, threads, telemetry })
    }
}
