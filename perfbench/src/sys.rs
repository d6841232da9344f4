//! Process resource readings from `/proc`, with no dependencies.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, from
/// fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    cpu_seconds_from_stat(&stat).unwrap_or(0.0)
}

/// Parses utime + stime out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces, so fields are counted after its
/// closing parenthesis.
fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Worker count: one per CPU the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_a_command_name_with_spaces() {
        let line = "4242 (odd name) R 1 2 3 4 5 6 7 8 9 10 250 130 0 0 20 0 1 0";
        assert_eq!(cpu_seconds_from_stat(line), Some(3.8));
    }

    #[test]
    fn status_parsing_finds_the_high_water_mark() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(2048));
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
    }
}
