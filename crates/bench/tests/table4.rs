//! The Table 4 experiment at an op budget too small for any RSM sampling
//! period to close: it prints each row with 0 periods and exits 0.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests run the binaries they test as child processes"
)]

use std::process::Command;

#[test]
fn table4_prints_zero_period_rows_at_a_small_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_profess-run"))
        .args(["table4", "400"])
        .env(
            "PROFESS_RESULTS_DIR",
            std::env::temp_dir().join("profess-table4-test"),
        )
        .output()
        .expect("run profess-run table4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| ["bwaves", "milc", "omnetpp"].iter().any(|p| l.contains(p)))
        .filter(|l| l.contains('K'))
        .collect();
    assert_eq!(rows.len(), 9, "{stdout}");
    assert!(
        rows.iter().all(|r| r.trim_end().ends_with(" 0")),
        "{stdout}"
    );
}
