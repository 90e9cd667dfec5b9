//! `perfbench`: one untraced end-to-end repetition, printed as one JSON line.

use perfbench::{e2e, Args, USAGE};

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        std::process::exit(2);
    });
    let size = args.workload.default_size();
    let rep = e2e::run_rep(args.workload, args.seed, size, args.threads, args.telemetry);
    println!("{}", serde_json::to_string(&rep).expect("serialize repetition"));
}
