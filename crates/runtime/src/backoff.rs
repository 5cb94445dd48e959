//! Spin-wait backoff for the contention path.
//!
//! Section 2.3.4: a thread that finds an object thin-locked by another
//! thread spins until the owner releases, then acquires and inflates. The
//! paper notes that "standard back-off techniques [Anderson 90] for
//! reducing the cost of spin-locking can be applied"; this module is that
//! technique: bounded exponential busy-wait that degrades to
//! `yield_now`, which is also what makes the spin loop livelock-free on a
//! uniprocessor, or whenever the spinners outnumber the processors (the
//! reference host has 2 vCPUs): the owner can only make progress if the
//! spinner yields. A contender on an inflated lock spins only through the
//! opening busy-wait ([`Backoff::in_busy_phase`]) before it parks.

use std::fmt;
use std::time::Duration;

use crate::prng::SplitMix64;

/// How the contention path waits for the owner to release (Section 2.3.4
/// leaves this open: "standard back-off techniques… can be applied").
/// Exposed as a knob so the ablation benches can measure the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpinPolicy {
    /// Exponential busy-wait escalating to scheduler yields — the default,
    /// and the only livelock-free choice on a uniprocessor.
    #[default]
    SpinThenYield,
    /// Yield to the scheduler on every round (no busy-wait at all);
    /// cheapest when the owner almost always needs a full quantum.
    YieldOnly,
    /// Keep busy-waiting with a capped pulse count, yielding only every
    /// 64th round as a safety valve. Models aggressive SMP spinning; on a
    /// uniprocessor this is the paper's "pathological case".
    SpinHard,
}

/// Exponential spin/yield backoff.
///
/// # Example
///
/// ```
/// use thinlock_runtime::backoff::Backoff;
///
/// let mut b = Backoff::new();
/// for _ in 0..4 {
///     b.snooze(); // cheap busy-wait first, then yields to the scheduler
/// }
/// assert!(b.rounds() == 4);
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: u32,
    rounds: u64,
    policy: SpinPolicy,
    jitter: Option<SplitMix64>,
}

/// Past this step, each snooze yields the processor instead of busy
/// spinning. Kept small: on the paper's locality-of-contention assumption
/// the spin is rare and short, and on a uniprocessor only a yield lets the
/// lock owner run at all.
const SPIN_LIMIT: u32 = 5;

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// Creates a fresh backoff at the cheapest step with the default
    /// policy.
    pub fn new() -> Self {
        Self::with_policy(SpinPolicy::SpinThenYield)
    }

    /// Creates a backoff with an explicit policy (ablation benches).
    pub fn with_policy(policy: SpinPolicy) -> Self {
        Backoff {
            step: 0,
            rounds: 0,
            policy,
            jitter: None,
        }
    }

    /// Creates a backoff whose busy-wait pulse counts are *jittered* by a
    /// PRNG seeded from `seed`: each round spins its exponential base plus
    /// a uniform draw below it. Jitter decorrelates spinners that entered
    /// the contention loop in lockstep (Anderson's randomized backoff);
    /// the draw sequence is a pure function of the seed, so a seeded
    /// harness replays the identical waits. The protocol crates seed this
    /// with the spinning thread's index, which keeps replays deterministic
    /// per thread while giving every thread a distinct pulse sequence.
    pub fn jittered(policy: SpinPolicy, seed: u64) -> Self {
        Backoff {
            step: 0,
            rounds: 0,
            policy,
            jitter: Some(SplitMix64::new(seed)),
        }
    }

    /// One busy-wait burst of `1 << step` pulses, stretched by up to the
    /// same amount again when jitter is enabled.
    #[inline]
    fn pulse(&mut self, step: u32) {
        let base = 1u32 << step;
        let extra = match &mut self.jitter {
            Some(rng) => (rng.next_u64() % u64::from(base)) as u32,
            None => 0,
        };
        for _ in 0..(base + extra) {
            std::hint::spin_loop();
        }
    }

    /// Waits one backoff round according to the policy.
    pub fn snooze(&mut self) {
        self.rounds += 1;
        match self.policy {
            SpinPolicy::SpinThenYield => {
                if self.step <= SPIN_LIMIT {
                    self.pulse(self.step);
                    self.step += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            SpinPolicy::YieldOnly => std::thread::yield_now(),
            SpinPolicy::SpinHard => {
                if self.rounds.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    self.pulse(SPIN_LIMIT.min(self.step));
                    self.step = (self.step + 1).min(SPIN_LIMIT);
                }
            }
        }
    }

    /// The policy this backoff runs under.
    pub fn policy(&self) -> SpinPolicy {
        self.policy
    }

    /// True once the backoff has escalated to yielding (always true under
    /// [`SpinPolicy::YieldOnly`]).
    pub fn is_yielding(&self) -> bool {
        matches!(self.policy, SpinPolicy::YieldOnly) || self.step > SPIN_LIMIT
    }

    /// True while the next [`snooze`](Self::snooze) is a round of the
    /// opening busy-wait: the first `SPIN_LIMIT + 1` rounds (fewer than
    /// 126 `spin_loop` pulses in all, never a yield) under
    /// [`SpinPolicy::SpinThenYield`] and [`SpinPolicy::SpinHard`], none
    /// under [`SpinPolicy::YieldOnly`]. It bounds a spin that must fall
    /// through to blocking: `SpinHard` never reports
    /// [`is_yielding`](Self::is_yielding), so the round count does.
    pub fn in_busy_phase(&self) -> bool {
        !self.is_yielding() && self.rounds <= u64::from(SPIN_LIMIT)
    }

    /// Total snoozes since creation or [`reset`](Self::reset); protocols use
    /// this as the spin count reported to statistics.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Returns to the cheapest step (after successfully acquiring).
    pub fn reset(&mut self) {
        self.step = 0;
        self.rounds = 0;
    }
}

impl fmt::Display for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backoff(step={}, rounds={})", self.step, self.rounds)
    }
}

/// Seeded, jittered exponential backoff over wall-clock durations — the
/// retry policy shared by everything in the workspace that re-attempts a
/// *failed* operation rather than spinning on a busy one: the crash-chaos
/// supervisor re-launching a dead agent process, and any future
/// remote/IO retry loop.
///
/// Delay for attempt `n` is drawn uniformly from `[cap_n/2, cap_n]` where
/// `cap_n = min(base << n, cap)` — "equal jitter", which keeps the
/// exponential envelope (so retry storms die out) while desynchronizing
/// fleets that failed together. Every draw derives from the seed, so a
/// supervisor replaying a run schedules byte-identical retry timelines.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use thinlock_runtime::backoff::RetryBackoff;
///
/// let base = Duration::from_millis(10);
/// let cap = Duration::from_millis(80);
/// let mut a = RetryBackoff::new(7, base, cap);
/// let mut b = RetryBackoff::new(7, base, cap);
/// let d = a.next_delay();
/// assert_eq!(d, b.next_delay(), "same seed, same schedule");
/// assert!(d >= base / 2 && d <= base);
/// assert_eq!(a.attempts(), 1);
/// ```
#[derive(Debug)]
pub struct RetryBackoff {
    rng: SplitMix64,
    base: Duration,
    cap: Duration,
    attempts: u32,
}

impl RetryBackoff {
    /// Creates a retry policy drawing from `seed`, starting at `base`
    /// (clamped to at least 1µs so the envelope actually grows) and never
    /// exceeding `cap` per delay.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        RetryBackoff {
            rng: SplitMix64::new(seed),
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base),
            attempts: 0,
        }
    }

    /// The delay to sleep before the next retry; each call advances the
    /// exponential envelope by one attempt.
    pub fn next_delay(&mut self) -> Duration {
        let shift = self.attempts.min(31);
        self.attempts += 1;
        let envelope = self
            .base
            .saturating_mul(1u32 << shift)
            .min(self.cap)
            .max(self.base);
        let env_nanos = envelope.as_nanos().min(u128::from(u64::MAX)) as u64;
        let half = env_nanos / 2;
        let jitter = self.rng.next_u64() % (env_nanos - half + 1);
        Duration::from_nanos(half + jitter)
    }

    /// Delays handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

impl fmt::Display for RetryBackoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retry-backoff(attempts={}, base={:?}, cap={:?})",
            self.attempts, self.base, self.cap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_yielding() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..=SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_yielding());
        assert_eq!(b.rounds(), u64::from(SPIN_LIMIT) + 1);
    }

    #[test]
    fn busy_phase_is_the_first_six_rounds_under_every_spinning_policy() {
        for policy in [SpinPolicy::SpinThenYield, SpinPolicy::SpinHard] {
            let mut b = Backoff::jittered(policy, 3);
            let mut rounds = 0;
            while b.in_busy_phase() {
                b.snooze();
                rounds += 1;
            }
            assert_eq!(rounds, SPIN_LIMIT + 1, "{policy:?}");
        }
        assert!(!Backoff::with_policy(SpinPolicy::YieldOnly).in_busy_phase());
    }

    #[test]
    fn reset_returns_to_spinning() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        b.reset();
        assert!(!b.is_yielding());
        assert_eq!(b.rounds(), 0);
    }

    #[test]
    fn display_mentions_state() {
        let b = Backoff::new();
        assert_eq!(b.to_string(), "backoff(step=0, rounds=0)");
    }

    #[test]
    fn yield_only_policy_is_always_yielding() {
        let mut b = Backoff::with_policy(SpinPolicy::YieldOnly);
        assert!(b.is_yielding());
        for _ in 0..3 {
            b.snooze();
        }
        assert_eq!(b.rounds(), 3);
        assert_eq!(b.policy(), SpinPolicy::YieldOnly);
    }

    #[test]
    fn spin_hard_policy_never_escalates_past_limit() {
        let mut b = Backoff::with_policy(SpinPolicy::SpinHard);
        for _ in 0..200 {
            b.snooze();
        }
        // SpinHard caps at the spin limit instead of switching to yields.
        assert!(!b.is_yielding());
        assert_eq!(b.rounds(), 200);
    }

    #[test]
    fn default_policy_is_spin_then_yield() {
        assert_eq!(SpinPolicy::default(), SpinPolicy::SpinThenYield);
        assert_eq!(Backoff::new().policy(), SpinPolicy::SpinThenYield);
    }

    #[test]
    fn jittered_backoff_escalates_like_unjittered() {
        let mut b = Backoff::jittered(SpinPolicy::SpinThenYield, 99);
        assert!(!b.is_yielding());
        for _ in 0..=SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_yielding());
        assert_eq!(b.rounds(), u64::from(SPIN_LIMIT) + 1);
    }

    #[test]
    fn retry_delays_are_seeded_and_bounded() {
        let base = Duration::from_millis(2);
        let cap = Duration::from_millis(40);
        let mut a = RetryBackoff::new(1234, base, cap);
        let mut b = RetryBackoff::new(1234, base, cap);
        let mut envelope = base;
        for attempt in 0..12 {
            let da = a.next_delay();
            let db = b.next_delay();
            assert_eq!(da, db, "attempt {attempt}: same seed, same delay");
            assert!(da >= envelope / 2, "attempt {attempt}: below half envelope");
            assert!(da <= cap, "attempt {attempt}: above the cap");
            envelope = (envelope * 2).min(cap);
        }
        assert_eq!(a.attempts(), 12);
    }

    #[test]
    fn retry_seeds_decorrelate() {
        let base = Duration::from_millis(4);
        let cap = Duration::from_secs(1);
        let mut a = RetryBackoff::new(1, base, cap);
        let mut b = RetryBackoff::new(2, base, cap);
        let distinct = (0..8).any(|_| a.next_delay() != b.next_delay());
        assert!(distinct, "different seeds should produce different jitter");
    }

    #[test]
    fn retry_display_mentions_attempts() {
        let mut r = RetryBackoff::new(0, Duration::from_millis(1), Duration::from_millis(8));
        let _ = r.next_delay();
        assert!(r.to_string().contains("attempts=1"));
    }
}
