//! Sample statistics, process counters from `/proc`, and machine facts.

/// Sorts a sample in place and returns it (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(sorted: &[f64]) -> f64 {
    nearest_rank(sorted, 50.0)
}

/// The highest percentile of a sample that still has ten samples beyond
/// it. Below 21 samples that percentile would sit under the median, so
/// the tail is the maximum and `beyond` says so (zero samples past it).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub beyond: usize,
}

pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n >= 21 {
        let rank = n - 10;
        Tail {
            value: sorted[rank - 1],
            pct: 100.0 * rank as f64 / n as f64,
            beyond: 10,
        }
    } else {
        Tail {
            value: sorted.last().copied().unwrap_or(0.0),
            pct: 100.0,
            beyond: 0,
        }
    }
}

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// One reading of the process counters the metrics are built from.
#[derive(Debug, Clone, Copy)]
pub struct ProcSnap {
    pub cpu_ms: f64,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

impl ProcSnap {
    pub fn now() -> ProcSnap {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let field = |i: usize| f.get(i).copied().unwrap_or(0);
        // rest[0] is field 3 (state): minflt is field 10, utime 14, stime 15.
        ProcSnap {
            cpu_ms: (field(11) + field(12)) as f64 * 1000.0 / USER_HZ,
            minor_faults: field(7),
            ctx_switches: ctx_switches(),
        }
    }

    /// Deltas since `earlier`: (cpu ms, minor faults, context switches).
    pub fn since(&self, earlier: &ProcSnap) -> (f64, u64, u64) {
        (
            self.cpu_ms - earlier.cpu_ms,
            self.minor_faults.saturating_sub(earlier.minor_faults),
            self.ctx_switches.saturating_sub(earlier.ctx_switches),
        )
    }
}

/// Voluntary plus involuntary context switches summed over the live
/// threads (`/proc/self/status` alone reports only the main thread).
fn ctx_switches() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .map(|task| {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine facts every result carries: core count, CPU model, caches.
pub fn machine() -> Vec<(String, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let cache = |index: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .map_or("unknown".to_string(), |s| s.trim().to_string())
    };
    vec![
        ("nproc".into(), nproc().to_string()),
        ("cpu_model".into(), model),
        ("l2_per_core".into(), cache(2)),
        ("l3".into(), cache(3)),
    ]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.beyond), (90.0, 10));
        let few = tail(&[1.0, 2.0, 3.0]);
        assert_eq!((few.value, few.beyond), (3.0, 0));
    }
}
