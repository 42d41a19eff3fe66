//! Process resource readings from `/proc` (Linux).

use std::fs;

fn proc_file(pid: Option<u32>, name: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{name}"),
        None => format!("/proc/self/{name}"),
    }
}

/// Peak resident set size (`VmHWM`) in MB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let text = fs::read_to_string(proc_file(pid, "status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds used so far by all threads of `pid`, or
/// of this process.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let text = fs::read_to_string(proc_file(pid, "stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// First line of `cmd --version`-style output, or `unknown`.
pub fn command_line_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_positive() {
        assert!(peak_rss_mb(None) > 0.0);
        // Spin until the kernel has billed at least one clock tick.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while cpu_seconds(None) == 0.0 && start.elapsed().as_secs() < 5 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(cpu_seconds(None) > 0.0);
    }
}
