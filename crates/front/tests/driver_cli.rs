//! Command-line contract of `front-driver`: a zero count is a usage
//! error (exit 2) caught before any traffic is built, not a panic.

use std::process::Command;

#[test]
fn zero_counts_are_usage_errors() {
    for flag in ["--tenants", "--offered", "--window"] {
        let out = Command::new(env!("CARGO_BIN_EXE_front-driver"))
            .args([flag, "0"])
            .output()
            .expect("front-driver spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
        assert!(stderr.contains("must be positive"), "{flag} 0: {stderr}");
    }
}
