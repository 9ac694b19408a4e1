//! Deterministic, seeded fault injection for the streaming stack.
//!
//! Robustness claims are only as good as the failures they were tested
//! against, so the collector's fault tolerance is driven by a *plan*,
//! not by chance: a [`FaultPlan`] is a pure function of `(seed, lane,
//! site, sequence#)`, which makes every fault schedule exactly
//! replayable — CI can re-run the same stalls, disconnects, torn spill
//! writes and bit-flips byte for byte. The whole knob is a
//! `<seed:rate>` string (see [`FaultSpec::parse`]).
//!
//! * A **site** ([`FaultSite`]) is one kind of injected failure.
//! * A **lane** ([`FaultLane`]) is one independent fault stream —
//!   typically one per producer or per board shard — with its own
//!   per-site sequence counters, so decisions inside a lane are
//!   deterministic no matter how OS threads interleave *between* lanes.
//! * [`FaultStats`] counts every injected fault plan-wide, so a report
//!   can prove the faults actually fired (and were survived).
//!
//! The module also hosts the bounded retry-with-backoff wrapper
//! ([`with_retry`]) that the spill I/O paths route through; the sleeper
//! is injected, so tests drive it with a recording clock instead of
//! wall time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Injection points of the streaming stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A producer pauses briefly before a round's records.
    ProducerStall = 0,
    /// A producer dies mid-stream, dropping its channel sender.
    Disconnect = 1,
    /// A spill write fails outright before any byte reaches disk.
    SpillWriteError = 2,
    /// A spill write tears: half the frame lands, then an error.
    SpillShortWrite = 3,
    /// One bit of a spill file flips on the way back in.
    ReadCorruption = 4,
}

/// Number of [`FaultSite`] variants.
const NUM_SITES: usize = 5;

/// Per-site multipliers on the configured base rate. A disconnect is
/// terminal for its stream (every later round is lost), so it fires at
/// an eighth of the rate the transient faults use.
const SITE_SCALE: [f64; NUM_SITES] = [1.0, 0.125, 1.0, 1.0, 1.0];

/// Plan-wide injected-fault counters, shared by every lane.
#[derive(Debug, Default)]
pub struct FaultStats {
    injected: [AtomicU64; NUM_SITES],
}

impl FaultStats {
    fn count(&self, site: FaultSite) {
        self.injected[site as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters out.
    #[must_use]
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        let at = |s: FaultSite| self.injected[s as usize].load(Ordering::Relaxed);
        FaultStatsSnapshot {
            stalls: at(FaultSite::ProducerStall),
            disconnects: at(FaultSite::Disconnect),
            spill_write_errors: at(FaultSite::SpillWriteError),
            spill_short_writes: at(FaultSite::SpillShortWrite),
            read_corruptions: at(FaultSite::ReadCorruption),
        }
    }
}

/// A point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Producer pauses injected.
    pub stalls: u64,
    /// Producers killed mid-stream.
    pub disconnects: u64,
    /// Spill writes failed before writing.
    pub spill_write_errors: u64,
    /// Spill writes torn half-way.
    pub spill_short_writes: u64,
    /// Spill reads handed back a flipped bit.
    pub read_corruptions: u64,
}

impl FaultStatsSnapshot {
    /// Faults injected across all sites.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.stalls
            + self.disconnects
            + self.spill_write_errors
            + self.spill_short_writes
            + self.read_corruptions
    }
}

/// The whole knob: a seed and a base per-decision fault probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Base probability in `[0, 1]` that a decision point fires
    /// (scaled down for terminal sites, see [`FaultSite`]).
    pub rate: f64,
}

impl FaultSpec {
    /// Parses a `<seed:rate>` string (e.g. `7:0.02`); `None` when it is
    /// malformed or the rate lies outside `[0, 1]`.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let (seed, rate) = raw.split_once(':')?;
        let seed = seed.trim().parse().ok()?;
        let rate: f64 = rate.trim().parse().ok()?;
        (rate.is_finite() && (0.0..=1.0).contains(&rate)).then_some(Self { seed, rate })
    }
}

/// A deterministic fault schedule: hands out [`FaultLane`]s and owns
/// the shared [`FaultStats`].
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    thresholds: [u64; NUM_SITES],
    stats: Arc<FaultStats>,
}

impl FaultPlan {
    /// Builds the plan for `spec`.
    #[must_use]
    pub fn new(spec: FaultSpec) -> Self {
        let mut thresholds = [0u64; NUM_SITES];
        for (t, scale) in thresholds.iter_mut().zip(SITE_SCALE) {
            let p = (spec.rate * scale).clamp(0.0, 1.0);
            // Map probability to a u64 comparison threshold; `p == 1`
            // must fire always, so it saturates.
            *t = if p >= 1.0 {
                u64::MAX
            } else {
                (p * (u64::MAX as f64)) as u64
            };
        }
        Self {
            spec,
            thresholds,
            stats: Arc::new(FaultStats::default()),
        }
    }

    /// The spec this plan was built from.
    #[must_use]
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// The plan-wide injected-fault counters.
    #[must_use]
    pub fn stats(&self) -> Arc<FaultStats> {
        self.stats.clone()
    }

    /// An independent fault lane. Two lanes with the same id replay the
    /// same decisions; distinct ids are statistically independent.
    #[must_use]
    pub fn lane(&self, lane: u64) -> FaultLane {
        FaultLane {
            seed: self.spec.seed,
            lane,
            thresholds: self.thresholds,
            stats: self.stats.clone(),
            seq: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// SplitMix64 finalizer — the same mixer `derive_seed` uses for stream
/// seeds, reused here so fault decisions are uniform in every argument.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One independent fault stream: per-site sequence counters over the
/// plan's seed. Shareable (`&self` everywhere) and deterministic as
/// long as each lane's decision points run in a fixed order — which
/// they do, because a lane belongs to exactly one producer or shard.
#[derive(Debug)]
pub struct FaultLane {
    seed: u64,
    lane: u64,
    thresholds: [u64; NUM_SITES],
    stats: Arc<FaultStats>,
    seq: [AtomicU64; NUM_SITES],
}

impl FaultLane {
    /// Draws the next decision for `site`; `Some(payload)` when it
    /// fires, with a mixed payload word for fault parameters (which bit
    /// to flip, etc.).
    fn roll(&self, site: FaultSite) -> Option<u64> {
        let i = site as usize;
        let threshold = self.thresholds[i];
        if threshold == 0 {
            return None;
        }
        let seq = self.seq[i].fetch_add(1, Ordering::Relaxed);
        let h = mix(mix(mix(
            self.seed ^ (self.lane.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ) ^ (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            ^ seq.wrapping_mul(0xA5A5_A5A5_A5A5_A5A5));
        if h < threshold {
            self.stats.count(site);
            Some(mix(h ^ 0x2545_F491_4F6C_DD1D))
        } else {
            None
        }
    }

    /// Whether the next decision at `site` fires (counted when it does).
    pub fn fire(&self, site: FaultSite) -> bool {
        self.roll(site).is_some()
    }

    /// Rolls [`FaultSite::ReadCorruption`]; when it fires, flips one
    /// deterministic bit of `bytes` and returns `true`.
    pub fn corrupt_read(&self, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() {
            return false;
        }
        match self.roll(FaultSite::ReadCorruption) {
            Some(payload) => {
                let bit = (payload as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                true
            }
            None => false,
        }
    }
}

/// Bounded retry-with-backoff knobs.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to at least 1.
    pub attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            base_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(20),
        }
    }
}

/// Runs `op` up to `policy.attempts` times, sleeping with doubling
/// backoff between failures via the injected `sleep` (pass
/// `std::thread::sleep` in production, a recording closure in tests).
/// Returns the final result plus the number of retries performed.
pub fn with_retry<T, E>(
    policy: &RetryPolicy,
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut() -> Result<T, E>,
) -> (Result<T, E>, u32) {
    let attempts = policy.attempts.max(1);
    let mut delay = policy.base_delay;
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(v) => return (Ok(v), retries),
            Err(e) => {
                if retries + 1 >= attempts {
                    return (Err(e), retries);
                }
                sleep(delay);
                delay = (delay * 2).min(policy.max_delay);
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_rate_and_rejects_garbage() {
        assert_eq!(
            FaultSpec::parse("7:0.25"),
            Some(FaultSpec {
                seed: 7,
                rate: 0.25
            })
        );
        assert_eq!(
            FaultSpec::parse(" 42 : 1.0 "),
            Some(FaultSpec {
                seed: 42,
                rate: 1.0
            })
        );
        for bad in ["", "7", "7:", ":0.1", "x:0.1", "7:nan", "7:1.5", "7:-0.1"] {
            assert_eq!(FaultSpec::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires() {
        let never = FaultPlan::new(FaultSpec { seed: 1, rate: 0.0 }).lane(0);
        let always = FaultPlan::new(FaultSpec { seed: 1, rate: 1.0 }).lane(0);
        for _ in 0..200 {
            assert!(!never.fire(FaultSite::SpillWriteError));
            assert!(always.fire(FaultSite::SpillWriteError));
        }
    }

    #[test]
    fn schedules_replay_exactly_per_lane() {
        let draw = |lane_id: u64| {
            let plan = FaultPlan::new(FaultSpec { seed: 9, rate: 0.3 });
            let lane = plan.lane(lane_id);
            (0..400)
                .map(|_| lane.fire(FaultSite::ProducerStall))
                .collect::<Vec<bool>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3), "same lane must replay the same schedule");
        assert_ne!(a, draw(4), "distinct lanes must diverge");
        let fired = a.iter().filter(|f| **f).count();
        assert!(
            (40..=200).contains(&fired),
            "rate 0.3 fired {fired}/400 times"
        );
    }

    #[test]
    fn disconnects_fire_rarer_than_transient_faults() {
        let plan = FaultPlan::new(FaultSpec { seed: 5, rate: 0.4 });
        let lane = plan.lane(0);
        for _ in 0..4000 {
            lane.fire(FaultSite::ProducerStall);
            lane.fire(FaultSite::Disconnect);
        }
        let s = plan.stats().snapshot();
        assert!(
            s.disconnects * 3 < s.stalls,
            "disconnects {} not scaled below stalls {}",
            s.disconnects,
            s.stalls
        );
        assert_eq!(s.total(), s.stalls + s.disconnects);
    }

    #[test]
    fn corrupt_read_flips_exactly_one_bit_when_it_fires() {
        let plan = FaultPlan::new(FaultSpec { seed: 2, rate: 1.0 });
        let lane = plan.lane(7);
        let clean = vec![0xABu8; 64];
        let mut bytes = clean.clone();
        assert!(lane.corrupt_read(&mut bytes));
        let flipped: u32 = clean
            .iter()
            .zip(&bytes)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        let mut empty: Vec<u8> = Vec::new();
        assert!(!lane.corrupt_read(&mut empty));
    }

    #[test]
    fn with_retry_backs_off_and_bounds_attempts() {
        let policy = RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(3),
        };
        // Succeeds on the third try: two recorded sleeps, doubling.
        let mut slept = Vec::new();
        let mut calls = 0;
        let (result, retries) = with_retry(
            &policy,
            |d| slept.push(d),
            || {
                calls += 1;
                if calls < 3 {
                    Err("transient")
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(result, Ok(3));
        assert_eq!(retries, 2);
        assert_eq!(
            slept,
            vec![Duration::from_millis(1), Duration::from_millis(2)]
        );

        // Never succeeds: exactly `attempts` calls, delay capped.
        let mut slept = Vec::new();
        let mut calls = 0;
        let (result, retries): (Result<(), _>, _) = with_retry(
            &policy,
            |d| slept.push(d),
            || {
                calls += 1;
                Err(calls)
            },
        );
        assert_eq!(result, Err(4));
        assert_eq!(retries, 3);
        assert_eq!(calls, 4);
        assert_eq!(slept.last(), Some(&Duration::from_millis(3)));
    }
}
