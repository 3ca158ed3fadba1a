//! Minimal std-only process introspection.
//!
//! `bench scale` gates GB-scale runs on peak resident set size; this
//! module reads it from `/proc/self/status` so the benchmark needs no
//! external crates and degrades gracefully (returning `None`) on
//! platforms without procfs.

/// Peak resident set size (`VmHWM`) of the current process, in bytes.
///
/// Returns `None` when `/proc/self/status` is unavailable or does not
/// contain a parseable `VmHWM` line (non-Linux platforms).
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses the `VmHWM:   <n> kB` line out of a `/proc/<pid>/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tcargo\nVmPeak:\t  123 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
    }

    #[test]
    fn missing_line_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tcargo\n"), None);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // The test process certainly uses more than 64 KiB and less
            // than 1 TiB.
            assert!(bytes > 64 * 1024);
            assert!(bytes < 1 << 40);
        }
    }
}
