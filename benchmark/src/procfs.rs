//! `/proc/self` readers for the memory and CPU-time metrics. The parsers
//! take the file contents so they can be tested on fixture strings.

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `utime + stime` in clock ticks from `/proc/<pid>/stat` text. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` CPU times in units of `1/USER_HZ` s, and
/// `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_from_status_fixture() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9999 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn cpu_ticks_from_stat_fixture_with_hostile_comm() {
        // comm contains spaces and a ')' — fields must count from the last one.
        let stat = "4242 (my bench) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    37 5 0 0 20 0 4 0 1000 100000 2000 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_readers_return_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_seconds() >= 0.0);
        }
    }
}
