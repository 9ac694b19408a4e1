//! Per-round batch streams.
//!
//! Fig. 3's infinite collection game draws "the same amount of data" from
//! a data stream in every round (step ③/④). [`RoundStream`] models that:
//! a value pool (the population distribution) sampled with replacement in
//! fixed-size rounds. Sampling with replacement makes every round an i.i.d.
//! draw from the empirical distribution, which is exactly the streaming
//! abstraction the analytical model assumes (`r` as a continuum).

use rand::Rng;

/// An endless stream of fixed-size benign batches drawn i.i.d. (with
/// replacement) from a value pool.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStream {
    pool: Vec<f64>,
    batch: usize,
    rounds_emitted: usize,
}

impl RoundStream {
    /// Creates a stream over `pool` emitting `batch` values per round.
    ///
    /// # Panics
    /// Panics if the pool is empty or `batch == 0`.
    #[must_use]
    pub fn new(pool: Vec<f64>, batch: usize) -> Self {
        assert!(!pool.is_empty(), "stream pool must be non-empty");
        assert!(batch > 0, "batch size must be positive");
        Self {
            pool,
            batch,
            rounds_emitted: 0,
        }
    }

    /// Number of rounds emitted so far.
    #[must_use]
    pub fn rounds_emitted(&self) -> usize {
        self.rounds_emitted
    }

    /// The backing pool.
    #[must_use]
    pub fn pool(&self) -> &[f64] {
        &self.pool
    }

    /// Draws the next round's benign batch.
    pub fn next_round<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        self.rounds_emitted += 1;
        (0..self.batch)
            .map(|_| self.pool[rng.gen_range(0..self.pool.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgame_numerics::rand_ext::seeded_rng;
    use trimgame_numerics::stats::mean;

    #[test]
    fn rounds_have_requested_size() {
        let mut s = RoundStream::new(vec![1.0, 2.0, 3.0], 10);
        let mut rng = seeded_rng(1);
        let r = s.next_round(&mut rng);
        assert_eq!(r.len(), 10);
        assert_eq!(s.rounds_emitted(), 1);
        let _ = s.next_round(&mut rng);
        assert_eq!(s.rounds_emitted(), 2);
    }

    #[test]
    fn values_come_from_pool() {
        let pool = vec![5.0, 7.0, 9.0];
        let mut s = RoundStream::new(pool.clone(), 100);
        let mut rng = seeded_rng(2);
        for v in s.next_round(&mut rng) {
            assert!(pool.contains(&v));
        }
    }

    #[test]
    fn round_mean_tracks_pool_mean() {
        let pool: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
        let mut s = RoundStream::new(pool.clone(), 5_000);
        let mut rng = seeded_rng(3);
        let r = s.next_round(&mut rng);
        assert!((mean(&r) - mean(&pool)).abs() < 2.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let pool: Vec<f64> = (0..100).map(f64::from).collect();
        let mut a = RoundStream::new(pool.clone(), 50);
        let mut b = RoundStream::new(pool, 50);
        assert_eq!(
            a.next_round(&mut seeded_rng(9)),
            b.next_round(&mut seeded_rng(9))
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pool_rejected() {
        let _ = RoundStream::new(vec![], 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        let _ = RoundStream::new(vec![1.0], 0);
    }
}
