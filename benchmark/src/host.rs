//! Host-side readings from procfs: peak resident memory and CPU time.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds this process has used (all threads), from
/// `/proc/self/stat` at the kernel's usual 100 ticks per second.
pub fn cpu_secs() -> Option<f64> {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces: fields are
    // counted after its closing parenthesis (utime and stime are fields 14
    // and 15 of the whole line, so 12 and 13 after the name).
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_positive() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_secs().unwrap() >= 0.0);
    }
}
