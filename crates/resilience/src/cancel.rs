//! Cooperative cancellation and deadlines.
//!
//! Nothing here preempts a running kernel: the counting loops poll a
//! [`RunGuard`] at tile/chunk granularity (cheap — one or two atomic
//! loads plus, when a deadline is set, a monotonic clock read every few
//! hundred items) and wind down cleanly when it reports a [`StopReason`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation flag.
///
/// All clones share one flag: call [`CancelToken::cancel`] from any
/// thread (a signal handler, an admission controller, a client
/// disconnect) and every guarded loop holding a clone stops at its next
/// check point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self {
            at: Instant::now()
                .checked_add(timeout)
                .unwrap_or_else(|| Instant::now() + Duration::from_secs(u32::MAX as u64)),
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// Whether the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Why a guarded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`Deadline`] expired.
    DeadlineExpired,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// Combined cancellation state polled by guarded loops.
///
/// The default guard is unlimited (never stops a run) so callers without
/// resilience requirements pass `&RunGuard::default()` and pay only a
/// couple of branch checks per poll.
#[derive(Debug, Clone, Default)]
pub struct RunGuard {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
}

impl RunGuard {
    /// A guard that never stops the run.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether any stop condition is attached at all. Loops may skip
    /// polling entirely for unlimited guards.
    pub fn is_limited(&self) -> bool {
        self.cancel.is_some() || self.deadline.is_some()
    }

    /// Polls the stop conditions. Cancellation wins over deadline expiry
    /// when both hold.
    #[inline]
    pub fn should_stop(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }
}

/// The stop state of one guarded parallel loop: its [`RunGuard`] plus a
/// flag that the first worker to see a stop condition sets, so the other
/// workers skip their remaining items without polling the guard again.
///
/// Under an unlimited guard [`LoopGuard::skip`] returns `false` before
/// touching the flag, so a plain run pays one predictable branch per item.
#[derive(Debug)]
pub struct LoopGuard<'a> {
    guard: &'a RunGuard,
    limited: bool,
    stopped: AtomicBool,
}

impl<'a> LoopGuard<'a> {
    /// Starts a loop under `guard`.
    pub fn new(guard: &'a RunGuard) -> Self {
        Self {
            guard,
            limited: guard.is_limited(),
            stopped: AtomicBool::new(false),
        }
    }

    /// Whether item `i` must be skipped: the loop has already stopped, or
    /// `i` falls on the polling stride (`i & stride_mask == 0`) and the
    /// guard reports a stop condition now.
    #[inline]
    pub fn skip(&self, i: usize, stride_mask: usize) -> bool {
        if !self.limited {
            return false;
        }
        if self.stopped.load(Ordering::Relaxed) {
            return true;
        }
        if i & stride_mask == 0 && self.guard.should_stop().is_some() {
            self.stopped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Ends the loop, handing back `partial`, the result of the items
    /// that were not skipped.
    ///
    /// # Errors
    /// Returns the stop reason together with `partial` when the loop
    /// skipped items because the guard stopped it.
    pub fn finish<T>(&self, partial: T) -> Result<T, (StopReason, T)> {
        match self.guard.should_stop() {
            Some(reason) if self.stopped.load(Ordering::Relaxed) => Err((reason, partial)),
            _ => Ok(partial),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadline_expiry() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(3500));
    }

    #[test]
    fn unlimited_guard_never_stops() {
        let g = RunGuard::unlimited();
        assert!(!g.is_limited());
        assert_eq!(g.should_stop(), None);
    }

    #[test]
    fn guard_reports_cancellation_before_deadline() {
        let token = CancelToken::new();
        let g = RunGuard::unlimited()
            .with_cancel(token.clone())
            .with_deadline(Deadline::after(Duration::ZERO));
        assert!(g.is_limited());
        assert_eq!(g.should_stop(), Some(StopReason::DeadlineExpired));
        token.cancel();
        assert_eq!(g.should_stop(), Some(StopReason::Cancelled));
    }

    #[test]
    fn loop_guard_polls_on_the_stride_and_then_skips_everything() {
        let unlimited = RunGuard::unlimited();
        let lg = LoopGuard::new(&unlimited);
        assert!(!lg.skip(0, 0xf));
        assert_eq!(lg.finish(7), Ok(7));

        let token = CancelToken::new();
        let guard = RunGuard::unlimited().with_cancel(token.clone());
        let lg = LoopGuard::new(&guard);
        token.cancel();
        // Off the stride the guard is not polled yet.
        assert!(!lg.skip(1, 0xf));
        assert!(lg.skip(16, 0xf));
        // Once stopped, every item is skipped.
        assert!(lg.skip(17, 0xf));
        assert_eq!(lg.finish(3), Err((StopReason::Cancelled, 3)));
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(StopReason::DeadlineExpired.to_string(), "deadline expired");
    }
}
