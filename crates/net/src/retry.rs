//! The retransmission timing policy shared by every wall-clock runtime.
//!
//! Three layers retry with backoff: the site's stop-and-wait parity
//! retransmitter, the client attempt ladder, and the socket endpoint's
//! redial. Before this module each hard-coded its own
//! base/cap constants; tuning one (say, for real network RTTs instead of
//! in-process channels) silently left the others behind. A [`RetryPolicy`]
//! is the whole schedule as one injectable value — drivers ask it for
//! [`delay`](RetryPolicy::delay)`(step)` and never do timing arithmetic
//! themselves.
//!
//! The schedule is geometric with integer millisecond arithmetic:
//! `delay(step) = min(base · (numer/denom)^step, cap)`, with the ratio
//! applied (and floored to whole milliseconds) once per step. Determinism
//! matters more than the lost fractions: the pinning test below is the
//! contract every runtime can rely on.

use std::time::Duration;

/// A geometric backoff schedule plus an attempt budget.
///
/// The two deployed schedules are provided as associated constants; tests
/// and future runtimes build their own literals (the struct is plain data,
/// `Copy`, and constructible in `const` position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Growth-ratio numerator (applied per step).
    pub numer: u32,
    /// Growth-ratio denominator.
    pub denom: u32,
    /// Delay ceiling, in milliseconds.
    pub cap_ms: u64,
    /// How many times the message is (re)sent before the sender gives up.
    /// `u32::MAX` means never: a site's parity retransmitter must outlast
    /// any partition, because §5's commit rule forbids forgetting an
    /// unacked update.
    pub attempts: u32,
}

impl RetryPolicy {
    /// A site's stop-and-wait parity retransmission: first resend after
    /// 40 ms, doubling to a 640 ms ceiling, never giving up.
    pub const SITE_RETRANSMIT: RetryPolicy = RetryPolicy {
        base_ms: 40,
        numer: 2,
        denom: 1,
        cap_ms: 640,
        attempts: u32::MAX,
    };

    /// A client's request attempt ladder: 150 ms first reply window,
    /// growing 1.5× per attempt to a 900 ms ceiling, 12 attempts total.
    /// Sized so even a 30% loss burst (the fault generator's ceiling) has
    /// a negligible chance of exhausting the budget on a live peer.
    pub const CLIENT_ATTEMPT: RetryPolicy = RetryPolicy {
        base_ms: 150,
        numer: 3,
        denom: 2,
        cap_ms: 900,
        attempts: 12,
    };

    /// The delay for the `step`-th (re)send, 0-based, in milliseconds.
    pub const fn delay_ms(&self, step: u32) -> u64 {
        let mut t = self.base_ms;
        let mut i = 0;
        while i < step {
            if t >= self.cap_ms {
                return self.cap_ms;
            }
            t = t * self.numer as u64 / self.denom as u64;
            i += 1;
        }
        if t > self.cap_ms {
            self.cap_ms
        } else {
            t
        }
    }

    /// [`delay_ms`](RetryPolicy::delay_ms) as a [`Duration`].
    pub fn delay(&self, step: u32) -> Duration {
        Duration::from_millis(self.delay_ms(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deployed schedules, pinned value by value. Changing either
    /// constant must be a conscious act that updates this table — the
    /// threaded and socket runtimes both inherit whatever is here.
    #[test]
    fn deployed_schedules_are_pinned() {
        let site: Vec<u64> = (0..8)
            .map(|s| RetryPolicy::SITE_RETRANSMIT.delay_ms(s))
            .collect();
        assert_eq!(site, vec![40, 80, 160, 320, 640, 640, 640, 640]);
        assert_eq!(RetryPolicy::SITE_RETRANSMIT.attempts, u32::MAX);

        let client: Vec<u64> = (0..12)
            .map(|s| RetryPolicy::CLIENT_ATTEMPT.delay_ms(s))
            .collect();
        assert_eq!(
            client,
            vec![150, 225, 337, 505, 757, 900, 900, 900, 900, 900, 900, 900]
        );
        assert_eq!(RetryPolicy::CLIENT_ATTEMPT.attempts, 12);
    }

    #[test]
    fn delay_saturates_at_the_cap_without_overflowing() {
        // A huge step count must neither overflow nor loop forever past
        // the cap: the loop exits as soon as the ceiling is reached.
        assert_eq!(RetryPolicy::SITE_RETRANSMIT.delay_ms(10_000), 640);
        let aggressive = RetryPolicy {
            base_ms: u64::MAX / 4,
            numer: 2,
            denom: 1,
            cap_ms: u64::MAX / 2,
            attempts: 3,
        };
        assert_eq!(aggressive.delay_ms(100), u64::MAX / 2);
    }

    #[test]
    fn ratio_one_is_a_constant_schedule() {
        let fixed = RetryPolicy {
            base_ms: 20,
            numer: 1,
            denom: 1,
            cap_ms: 20,
            attempts: u32::MAX,
        };
        for s in 0..5 {
            assert_eq!(fixed.delay_ms(s), 20);
        }
    }
}
