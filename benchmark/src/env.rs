//! The machine a result was produced on, and the process's own peak memory.
//!
//! Everything is read from `/proc` or a subprocess; a value that cannot be
//! read is recorded as unknown rather than failing the run, because the
//! numbers are context, not measurements.

use std::fs;
use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Runnable-load threshold above which timings are suspect on a small box.
pub const LOAD_WARNING: f64 = 0.5;

/// Extracts `VmHWM` (peak resident set) in bytes from the text of
/// `/proc/<pid>/status`. The kernel reports it as `VmHWM:   123456 kB`.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => value.checked_mul(1024),
        _ => None,
    }
}

/// This process's peak resident set in bytes (`None` off Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> Option<String> {
    fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map(|model| model.trim().to_string())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// The machine record stored with every results file. `repo` is where to
/// ask git for the commit; a checkout that is not a repository records
/// `unknown`.
pub fn machine(repo: &Path) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj()
        .set("nproc", nproc())
        .set("cpu_model", cpu_model().unwrap_or_else(unknown))
        .set(
            "rustc",
            command_line("rustc", &["--version"], repo).unwrap_or_else(unknown),
        )
        .set(
            "commit",
            command_line("git", &["rev-parse", "HEAD"], repo).unwrap_or_else(unknown),
        )
        .set("load_1m", load_average())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_fields_and_scaled_to_bytes() {
        let status =
            "Name:\tmp-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t 1075200 kB\nVmRSS:\t    4096 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1_075_200 * 1024));
    }

    #[test]
    fn vm_hwm_rejects_what_it_does_not_understand() {
        assert_eq!(parse_vm_hwm("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 4096 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 4096\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 18446744073709551615 kB\n"), None);
        assert_eq!(parse_vm_hwm(""), None);
    }

    #[test]
    fn this_process_has_a_peak_rss_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }
}
