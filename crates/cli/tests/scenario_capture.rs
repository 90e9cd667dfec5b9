//! Golden text timeline: `hijack-scan --scenario 11992 --capture` prints
//! every DNS transaction's per-hop timeline, then the report. Its stdout
//! must match the checked-in rendering byte for byte — v4 and v6
//! endpoints, NAT tuples, route decisions and locally minted answers
//! included.

use std::process::Command;

#[test]
fn scenario_11992_capture_text_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_hijack-scan"))
        .args(["--scenario", "11992", "--capture"])
        .output()
        .expect("hijack-scan runs");
    // Exit status 1 is the "interception detected" signal.
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let expected = include_str!("../../../tests/golden/probe_11992.flows.txt");
    let first_diff = stdout.lines().zip(expected.lines()).position(|(got, want)| got != want);
    if let Some(line) = first_diff {
        panic!(
            "capture text diverged from the golden at line {}:\n  got:  {}\n  want: {}",
            line + 1,
            stdout.lines().nth(line).unwrap_or_default(),
            expected.lines().nth(line).unwrap_or_default()
        );
    }
    assert_eq!(stdout.len(), expected.len(), "capture text length differs from the golden");
}
