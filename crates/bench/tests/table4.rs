//! The Table 4 binary at an op budget too small for any RSM sampling
//! period to close: it prints each row with 0 periods and exits 0.

use std::process::Command;

#[test]
fn table4_prints_zero_period_rows_at_a_small_target() {
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .arg("400")
        .env_remove("PROFESS_TRACE")
        .output()
        .expect("run table4");
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
