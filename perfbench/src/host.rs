//! Host-noise readings taken beside every repetition.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU time from the first line of `/proc/stat`, in clock
/// ticks (all zero where the file is unreadable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Time in user mode (including nice).
    pub user: u64,
    /// Time stolen by the hypervisor for other guests.
    pub steal: u64,
    /// Every field summed.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the host's counters now.
    pub fn read() -> Self {
        std::fs::read_to_string("/proc/stat").map_or_else(|_| Self::default(), |t| Self::parse(&t))
    }

    /// Parses the `cpu ` line: user nice system idle iowait irq softirq
    /// steal ...
    pub fn parse(text: &str) -> Self {
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let f: Vec<u64> = line.split_whitespace().skip(1).map(|x| x.parse().unwrap_or(0)).collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTicks { user: at(0) + at(1), steal: at(7), total: f.iter().sum() }
    }

    /// Ticks elapsed from `earlier` to `self`.
    pub fn since(&self, earlier: &CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let t = CpuTicks::parse("cpu  10 2 3 100 4 0 1 7 0 0\ncpu0 1 1 1 1 1 1 1 1 0 0\n");
        assert_eq!(t, CpuTicks { user: 12, steal: 7, total: 127 });
        let later = CpuTicks { user: 20, steal: 9, total: 200 };
        assert_eq!(later.since(&t), CpuTicks { user: 8, steal: 2, total: 73 });
        assert_eq!(CpuTicks::parse("garbage"), CpuTicks::default());
    }
}
