//! Process accounting read from `/proc/self` (Linux).

/// CPU time (user plus system) the live threads of this process have run
/// for, in seconds, from the nanosecond on-CPU counters in
/// `/proc/self/task/*/schedstat`. `/proc/self/stat` carries the same time
/// in 10 ms ticks, too coarse for one-second batches. Threads that already
/// exited are not counted; every stage runs on one thread here.
pub fn cpu_seconds() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    let ns: u64 = tasks
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    ns as f64 / 1e9
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM` (peak resident
/// set) or `VmRSS` (current resident set).
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live() {
        let rss = status_kb("VmRSS");
        assert!(rss > 0 && status_kb("VmHWM") >= rss);
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 20 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds() > before);
    }
}
