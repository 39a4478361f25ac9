//! Per-phase timing breakdown (paper Figure 6).

use std::fmt;
use std::time::Duration;

/// Wall time of each LOTUS stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Preprocessing (Algorithm 2): relabel + sub-graph construction.
    pub preprocess: Duration,
    /// Phase 1: HHH and HHN counting.
    pub hhh_hhn: Duration,
    /// Phase 2: HNN counting.
    pub hnn: Duration,
    /// Phase 3: NNN counting.
    pub nnn: Duration,
}

impl Breakdown {
    /// Total end-to-end duration.
    pub fn total(&self) -> Duration {
        self.preprocess + self.hhh_hhn + self.hnn + self.nnn
    }

    /// Counting-only duration (everything but preprocessing).
    pub fn counting(&self) -> Duration {
        self.hhh_hhn + self.hnn + self.nnn
    }

    /// Preprocessing share of the end-to-end time (§5.4 reports 19.4%
    /// on average).
    pub fn preprocess_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.preprocess.as_secs_f64() / t
        }
    }

    /// NNN share of the counting time (§5.4 reports 40.4% on average).
    pub fn nnn_fraction_of_counting(&self) -> f64 {
        let t = self.counting().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.nnn.as_secs_f64() / t
        }
    }
}

/// Microsecond resolution, like `lotus count`'s `time:` line: a
/// sub-millisecond count still shows where its time went.
impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pre={:.6}s hhh+hhn={:.6}s hnn={:.6}s nnn={:.6}s (total {:.6}s)",
            self.preprocess.as_secs_f64(),
            self.hhh_hhn.as_secs_f64(),
            self.hnn.as_secs_f64(),
            self.nnn.as_secs_f64(),
            self.total().as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let b = Breakdown {
            preprocess: Duration::from_millis(100),
            hhh_hhn: Duration::from_millis(200),
            hnn: Duration::from_millis(100),
            nnn: Duration::from_millis(100),
        };
        assert_eq!(b.total(), Duration::from_millis(500));
        assert_eq!(b.counting(), Duration::from_millis(400));
        assert!((b.preprocess_fraction() - 0.2).abs() < 1e-9);
        assert!((b.nnn_fraction_of_counting() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_breakdown_has_zero_fractions() {
        let b = Breakdown::default();
        assert_eq!(b.preprocess_fraction(), 0.0);
        assert_eq!(b.nnn_fraction_of_counting(), 0.0);
    }

    #[test]
    fn display_mentions_phases() {
        let b = Breakdown::default();
        let s = b.to_string();
        assert!(s.contains("pre=") && s.contains("nnn="));
    }

    #[test]
    fn display_resolves_sub_millisecond_phases() {
        let b = Breakdown {
            hnn: Duration::from_micros(385),
            nnn: Duration::from_micros(7),
            ..Breakdown::default()
        };
        let s = b.to_string();
        assert!(s.contains("hnn=0.000385s"), "{s}");
        assert!(s.contains("nnn=0.000007s"), "{s}");
        assert!(s.contains("(total 0.000392s)"), "{s}");
    }
}
