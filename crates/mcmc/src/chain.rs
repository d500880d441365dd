//! The Metropolis–Hastings chain runner.

use crate::{Proposal, RngSnapshot, StreamSplit};
use rand::{Rng, RngExt};

/// An unnormalised target density `f(x) ∝ P[x]`.
///
/// Implementations may be stateful (e.g. memoise expensive evaluations —
/// the betweenness samplers' density is a full SPD pass).
pub trait TargetDensity {
    /// The state type of the chain.
    type State;

    /// Unnormalised density `f(x) >= 0`.
    fn density(&mut self, x: &Self::State) -> f64;
}

/// Adapter turning a closure into a [`TargetDensity`] (used by tests and
/// ablations where the density is cheap).
pub struct FnTarget<S, F: FnMut(&S) -> f64> {
    f: F,
    _marker: std::marker::PhantomData<fn(&S)>,
}

/// Wraps a closure as a target density.
pub fn fn_target<S, F: FnMut(&S) -> f64>(f: F) -> FnTarget<S, F> {
    FnTarget { f, _marker: std::marker::PhantomData }
}

impl<S, F: FnMut(&S) -> f64> TargetDensity for FnTarget<S, F> {
    type State = S;

    fn density(&mut self, x: &S) -> f64 {
        (self.f)(x)
    }
}

/// Counters describing a chain's history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Proposals considered (equals the number of steps taken).
    pub steps: u64,
    /// Proposals accepted (transitions actually made).
    pub accepted: u64,
}

impl ChainStats {
    /// Fraction of proposals accepted; 0 for an unstepped chain.
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }
}

/// The full resumable state of a [`MetropolisHastings`] chain: current
/// state and its cached density, acceptance counters, and both RNG stream
/// states. Everything *except* the target (whose memoisation caches are
/// checkpointed separately by the caller — they are a performance artifact,
/// not chain state) and the proposal (stateless for the samplers here).
///
/// [`MetropolisHastings::restore`] rebuilds a chain from a snapshot
/// **without re-evaluating the density**, so a resumed chain is
/// bit-identical to an uninterrupted one — including the exact sequence of
/// proposal and acceptance draws.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSnapshot<S> {
    /// The chain's current state.
    pub state: S,
    /// Cached density of `state` (restored verbatim; never re-evaluated).
    pub density: f64,
    /// Acceptance counters.
    pub stats: ChainStats,
    /// Saved proposal-stream generator state.
    pub proposal_rng: [u64; 4],
    /// Saved acceptance-stream generator state.
    pub accept_rng: [u64; 4],
}

/// Outcome of a single MH step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Whether the proposal was accepted.
    pub accepted: bool,
    /// Density of the (possibly unchanged) current state after the step.
    pub density: f64,
    /// Density of the proposed state (whether or not it was accepted).
    /// Under an independence proposal the proposals are i.i.d. draws from
    /// the proposal law, so this stream doubles as a plain Monte Carlo
    /// sample — the waste-recycling the corrected estimators exploit.
    pub proposed_density: f64,
}

/// A Metropolis–Hastings chain (§2.2): from state `x`, draw `x' ~ q(·|x)`
/// and move with probability `min{1, f(x')/f(x) · q(x|x')/q(x'|x)}`.
///
/// The current state's density is cached, so **each step performs exactly
/// one density evaluation** — the property that makes the paper's samplers
/// cost one SPD pass per iteration.
///
/// ## Split RNG streams
///
/// The chain draws proposals and accept/reject uniforms from **two separate
/// streams** (see [`crate::StreamSplit`]): [`MetropolisHastings::new`]
/// splits the supplied generator once, keeping the parent as the proposal
/// stream and the child as the acceptance stream. For independence
/// proposals this makes the proposal sequence a pure function of the seed,
/// reproducible ahead of the chain, while the acceptance draws stay on the
/// chain — the property the batch prefetch in `mhbc-core` relies on for
/// bit-identical parallel/sequential results. Callers that need explicit
/// control over the two streams can use [`MetropolisHastings::with_streams`].
///
/// ## Zero-density states
///
/// The paper's acceptance ratio (Eq 6) is `δ'/δ`, undefined when the current
/// dependency is 0. Following DESIGN.md note 2: a zero-density current state
/// accepts every proposal (ratio treated as +∞, covering both `0 → positive`
/// and `0 → 0`), while `positive → 0` proposals are always rejected. The
/// zero set has stationary mass 0, so this choice only affects how fast the
/// chain escapes a bad initial state, never the stationary distribution.
pub struct MetropolisHastings<T, P, R>
where
    T: TargetDensity,
    P: Proposal<T::State>,
    R: Rng,
{
    target: T,
    proposal: P,
    proposal_rng: R,
    accept_rng: R,
    current: T::State,
    current_density: f64,
    stats: ChainStats,
}

impl<T, P, R> MetropolisHastings<T, P, R>
where
    T: TargetDensity,
    T::State: Clone,
    P: Proposal<T::State>,
    R: Rng,
{
    /// Starts a chain at `initial` (one density evaluation), splitting `rng`
    /// into the proposal stream (the parent) and the acceptance stream (the
    /// child) — see the type-level docs.
    pub fn new(target: T, proposal: P, initial: T::State, mut rng: R) -> Self
    where
        R: StreamSplit,
    {
        let accept_rng = rng.split_stream();
        Self::with_streams(target, proposal, initial, rng, accept_rng)
    }

    /// Starts a chain with explicitly supplied proposal and acceptance
    /// streams (one density evaluation).
    pub fn with_streams(
        mut target: T,
        proposal: P,
        initial: T::State,
        proposal_rng: R,
        accept_rng: R,
    ) -> Self {
        let current_density = target.density(&initial);
        MetropolisHastings {
            target,
            proposal,
            proposal_rng,
            accept_rng,
            current: initial,
            current_density,
            stats: ChainStats::default(),
        }
    }

    /// Captures the chain's full resumable state (see [`ChainSnapshot`]).
    pub fn snapshot(&self) -> ChainSnapshot<T::State>
    where
        R: RngSnapshot,
    {
        ChainSnapshot {
            state: self.current.clone(),
            density: self.current_density,
            stats: self.stats.clone(),
            proposal_rng: self.proposal_rng.save_state(),
            accept_rng: self.accept_rng.save_state(),
        }
    }

    /// Rebuilds a chain from a [`ChainSnapshot`] **without evaluating the
    /// density** (the snapshot's cached value is restored verbatim), so the
    /// resumed chain's draw sequence, acceptance decisions, and target-side
    /// evaluation counts continue exactly where the snapshot left off.
    pub fn restore(target: T, proposal: P, snapshot: ChainSnapshot<T::State>) -> Self
    where
        R: RngSnapshot,
    {
        MetropolisHastings {
            target,
            proposal,
            proposal_rng: R::restore_state(snapshot.proposal_rng),
            accept_rng: R::restore_state(snapshot.accept_rng),
            current: snapshot.state,
            current_density: snapshot.density,
            stats: snapshot.stats,
        }
    }

    /// Performs one MH transition; returns whether it was accepted and the
    /// density of the state the chain now occupies.
    pub fn step(&mut self) -> StepOutcome {
        let proposed = self.proposal.propose(&self.current, &mut self.proposal_rng);
        let proposed_density = self.target.density(&proposed);

        let accept = if self.current_density <= 0.0 {
            // Zero-density current state: escape unconditionally.
            true
        } else {
            let ratio = (proposed_density / self.current_density)
                * self.proposal.ratio(&self.current, &proposed);
            ratio >= 1.0 || self.accept_rng.random::<f64>() < ratio
        };

        self.stats.steps += 1;
        if accept {
            self.stats.accepted += 1;
            self.current = proposed;
            self.current_density = proposed_density;
        }
        StepOutcome { accepted: accept, density: self.current_density, proposed_density }
    }

    /// The chain's current state.
    pub fn state(&self) -> &T::State {
        &self.current
    }

    /// Cached density of the current state.
    pub fn current_density(&self) -> f64 {
        self.current_density
    }

    /// The proposal stream. For an independence proposal, a clone of it
    /// replays the chain's upcoming proposals without touching the chain
    /// (the batch prefetch in `mhbc-core` does exactly this).
    pub fn proposal_rng(&self) -> &R {
        &self.proposal_rng
    }

    /// Acceptance counters.
    pub fn stats(&self) -> &ChainStats {
        &self.stats
    }

    /// Access to the target (e.g. to read memoisation statistics).
    pub fn target(&self) -> &T {
        &self.target
    }

    /// Mutable access to the target.
    pub fn target_mut(&mut self) -> &mut T {
        &mut self.target
    }

    /// Consumes the chain, returning the target (for cache reuse).
    pub fn into_target(self) -> T {
        self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformProposal;
    use rand::{rngs::SmallRng, SeedableRng};

    /// Run a chain against a small discrete target and check the empirical
    /// state frequencies converge to the normalised target.
    #[test]
    fn chain_converges_to_target_distribution() {
        let weights = [1.0f64, 2.0, 3.0, 4.0];
        let target = fn_target(move |x: &u32| weights[*x as usize]);
        let mut chain = MetropolisHastings::new(
            target,
            UniformProposal::new(4),
            0u32,
            SmallRng::seed_from_u64(11),
        );
        let mut counts = [0u64; 4];
        let steps = 200_000;
        for _ in 0..steps {
            chain.step();
            counts[*chain.state() as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for i in 0..4 {
            let freq = counts[i] as f64 / steps as f64;
            let expect = weights[i] / total;
            assert!(
                (freq - expect).abs() < 0.01,
                "state {i}: empirical {freq:.4} vs target {expect:.4}"
            );
        }
    }

    #[test]
    fn zero_density_start_escapes_immediately() {
        // State 0 has zero density; any proposal must be accepted.
        let target = fn_target(|x: &u32| if *x == 0 { 0.0 } else { 1.0 });
        let mut chain = MetropolisHastings::new(
            target,
            UniformProposal::new(5),
            0u32,
            SmallRng::seed_from_u64(12),
        );
        let out = chain.step();
        assert!(out.accepted);
    }

    #[test]
    fn never_moves_to_zero_density_from_positive() {
        let target = fn_target(|x: &u32| if *x == 0 { 0.0 } else { 1.0 });
        let mut chain = MetropolisHastings::new(
            target,
            UniformProposal::new(2),
            1u32,
            SmallRng::seed_from_u64(13),
        );
        for _ in 0..200 {
            chain.step();
            assert_eq!(*chain.state(), 1, "chain must stay off the zero state");
        }
    }

    #[test]
    fn uphill_moves_always_accepted() {
        // Strictly increasing density: proposals above current always accept.
        let target = fn_target(|x: &u32| (*x + 1) as f64);
        let mut chain = MetropolisHastings::new(
            target,
            UniformProposal::new(10),
            0u32,
            SmallRng::seed_from_u64(14),
        );
        let mut prev = *chain.state();
        for _ in 0..100 {
            let out = chain.step();
            let cur = *chain.state();
            if cur > prev {
                assert!(out.accepted);
            }
            prev = cur;
        }
    }

    #[test]
    fn stats_track_steps_and_acceptances() {
        let target = fn_target(|_: &u32| 1.0);
        let mut chain = MetropolisHastings::new(
            target,
            UniformProposal::new(3),
            0u32,
            SmallRng::seed_from_u64(15),
        );
        for _ in 0..50 {
            chain.step();
        }
        let s = chain.stats();
        assert_eq!(s.steps, 50);
        // Flat target + symmetric proposal: every proposal accepted.
        assert_eq!(s.accepted, 50);
        assert_eq!(s.acceptance_rate(), 1.0);
    }

    #[test]
    fn with_streams_reproduces_new_exactly() {
        use crate::StreamSplit;
        let weights = [1.0f64, 3.0, 2.0, 5.0];
        let mut a_chain = MetropolisHastings::new(
            fn_target(|x: &u32| weights[*x as usize]),
            UniformProposal::new(4),
            0u32,
            SmallRng::seed_from_u64(21),
        );
        let a: Vec<(bool, u32)> =
            (0..200).map(|_| (a_chain.step().accepted, *a_chain.state())).collect();
        let mut rng = SmallRng::seed_from_u64(21);
        let acc = rng.split_stream();
        let mut b_chain = MetropolisHastings::with_streams(
            fn_target(|x: &u32| weights[*x as usize]),
            UniformProposal::new(4),
            0u32,
            rng,
            acc,
        );
        let b: Vec<(bool, u32)> =
            (0..200).map(|_| (b_chain.step().accepted, *b_chain.state())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn proposal_stream_is_a_pure_function_of_the_seed() {
        use crate::StreamSplit;
        use rand::RngExt;
        // Two targets with very different acceptance behaviour must see the
        // SAME proposal sequence for the same seed: acceptance draws come
        // from the split child stream, never the proposal stream.
        let record = |bias: f64| -> Vec<u32> {
            let proposals = std::cell::RefCell::new(Vec::new());
            {
                let target = fn_target(|x: &u32| {
                    proposals.borrow_mut().push(*x);
                    1.0 + bias * (*x as f64)
                });
                let mut chain = MetropolisHastings::new(
                    target,
                    UniformProposal::new(6),
                    0u32,
                    SmallRng::seed_from_u64(77),
                );
                for _ in 0..100 {
                    chain.step();
                }
            }
            proposals.into_inner()
        };
        assert_eq!(record(0.0), record(100.0));
        // And a worker holding the same split replica re-derives it.
        let mut rng = SmallRng::seed_from_u64(77);
        let _accept = rng.split_stream();
        let mut proposal = UniformProposal::new(6);
        let expected: Vec<u32> = (0..100).map(|_| rng.random_range(0..6u32)).collect();
        let mut replica = SmallRng::seed_from_u64(77);
        let _ = replica.split_stream();
        let replayed: Vec<u32> = (0..100).map(|_| proposal.propose(&0, &mut replica)).collect();
        assert_eq!(expected, replayed);
        // record() evaluates the initial state first, then one proposal per
        // step — so the recorded tail equals the replayed stream.
        assert_eq!(&record(0.0)[1..], &replayed[..]);
    }

    #[test]
    fn snapshot_resume_is_bit_identical_to_uninterrupted() {
        let weights = [1.0f64, 3.0, 2.0, 5.0, 0.5];
        let mk_target = || fn_target(|x: &u32| weights[*x as usize]);
        let mut full = MetropolisHastings::new(
            mk_target(),
            UniformProposal::new(5),
            0u32,
            SmallRng::seed_from_u64(33),
        );
        let mut half = MetropolisHastings::new(
            mk_target(),
            UniformProposal::new(5),
            0u32,
            SmallRng::seed_from_u64(33),
        );
        for _ in 0..120 {
            half.step();
        }
        let snap = half.snapshot();
        let mut resumed: MetropolisHastings<_, _, SmallRng> =
            MetropolisHastings::restore(mk_target(), UniformProposal::new(5), snap);
        let uninterrupted: Vec<(bool, u32, u64)> = (0..240)
            .map(|_| {
                let o = full.step();
                (o.accepted, *full.state(), o.density.to_bits())
            })
            .collect();
        let resumed_tail: Vec<(bool, u32, u64)> = (0..120)
            .map(|_| {
                let o = resumed.step();
                (o.accepted, *resumed.state(), o.density.to_bits())
            })
            .collect();
        assert_eq!(&uninterrupted[120..], &resumed_tail[..]);
        assert_eq!(full.stats(), resumed.stats());
    }

    #[test]
    fn density_cache_counts_one_eval_per_step() {
        use std::cell::Cell;
        let evals = Cell::new(0u64);
        let target = fn_target(|x: &u32| {
            evals.set(evals.get() + 1);
            (*x + 1) as f64
        });
        let mut chain = MetropolisHastings::new(
            target,
            UniformProposal::new(6),
            0u32,
            SmallRng::seed_from_u64(16),
        );
        assert_eq!(evals.get(), 1); // initial state
        for _ in 0..40 {
            chain.step();
        }
        assert_eq!(evals.get(), 41, "exactly one density evaluation per step");
    }
}
