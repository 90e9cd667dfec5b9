//! `perfbench-trace`: the single-thread traced per-layer run, printed as one
//! JSON line. Allocations are counted here only.

use perfbench::sys::CountingAlloc;
use perfbench::{traced, Args, USAGE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = traced::run_traced(args.workload, args.seed, args.workload.default_size());
    println!("{}", serde_json::to_string(&outcome).expect("serialize traced run"));
}
