//! Deterministic RNG stream splitting for prefetching chains.
//!
//! The paper's samplers are *independence* chains: the proposal at step `t`
//! does not depend on the chain's state, so the whole proposal sequence is
//! an i.i.d. stream that can be reproduced — and therefore evaluated ahead
//! of time — by anyone holding the same generator state. To make that
//! possible without perturbing the accept/reject draws, the chain runner
//! keeps **two** split streams:
//!
//! - the *proposal stream*, which deterministically produces `x'_1, x'_2, …`
//!   and can be cloned to replay upcoming proposals, and
//! - the *acceptance stream*, which is never replayed and feeds only
//!   the `u ~ U[0, 1)` accept/reject draws.
//!
//! Splitting is one-way: the child stream is seeded from one draw of the
//! parent, after which the two sequences are computationally independent
//! (SplitMix64 seeding scrambles the 64-bit draw into a full xoshiro state).
//! Equal parents always split into equal children, so every run remains a
//! pure function of its seed.

use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Generators that can deterministically fork an independent child stream.
///
/// `split_stream` advances `self` by exactly one draw and returns a child
/// whose future output is (computationally) independent of the parent's.
/// Used by [`crate::MetropolisHastings`] to separate the proposal stream
/// from the acceptance stream.
pub trait StreamSplit: Sized {
    /// Forks an independent child generator, advancing `self` by one draw.
    fn split_stream(&mut self) -> Self;
}

impl StreamSplit for SmallRng {
    fn split_stream(&mut self) -> Self {
        SmallRng::seed_from_u64(self.next_u64())
    }
}

/// Generators whose full internal state can be captured and restored —
/// the property the checkpoint/resume machinery needs to make a resumed
/// chain continue the *exact* draw sequence of an uninterrupted run.
///
/// The saved form is four 64-bit words (xoshiro256++-sized; smaller
/// generators may pad with zeros). Restoring must be exact:
/// `R::restore_state(r.save_state())` produces a generator whose future
/// output is bit-identical to `r`'s.
pub trait RngSnapshot: Sized {
    /// Captures the generator's full internal state.
    fn save_state(&self) -> [u64; 4];

    /// Rebuilds a generator that continues the captured stream exactly.
    fn restore_state(state: [u64; 4]) -> Self;
}

impl RngSnapshot for SmallRng {
    fn save_state(&self) -> [u64; 4] {
        self.state()
    }

    fn restore_state(state: [u64; 4]) -> Self {
        SmallRng::from_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn split_is_deterministic_and_advances_parent() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut ca = a.split_stream();
        let mut cb = b.split_stream();
        // Equal parents -> equal children and equal continued parents.
        for _ in 0..8 {
            assert_eq!(ca.random::<u64>(), cb.random::<u64>());
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn snapshot_roundtrip_continues_the_stream() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..5 {
            let _ = rng.random::<u64>();
        }
        let saved = rng.save_state();
        let tail: Vec<u64> = (0..16).map(|_| rng.random()).collect();
        let mut restored = SmallRng::restore_state(saved);
        let replay: Vec<u64> = (0..16).map(|_| restored.random()).collect();
        assert_eq!(tail, replay);
    }

    #[test]
    fn child_differs_from_parent_stream() {
        let mut parent = SmallRng::seed_from_u64(9);
        let mut child = parent.split_stream();
        let p: Vec<u64> = (0..8).map(|_| parent.random()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.random()).collect();
        assert_ne!(p, c);
    }
}
