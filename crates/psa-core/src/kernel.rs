//! Deterministic intra-rank parallel compute kernels.
//!
//! The paper's compute phase is embarrassingly parallel *within* a
//! calculator (§3.2.2: property and position actions touch only local
//! particles), so this module runs an [`ActionList`] over fixed-size chunks
//! of the store's deterministic particle order, on the ordered work pool
//! ([`crate::pool`]). Determinism for any worker count — including 1 —
//! comes from three rules:
//!
//! 1. **chunk layout is worker-independent**: chunks are consecutive
//!    `chunk`-sized windows of each bucket slice, in bucket order, so the
//!    decomposition is a pure function of store contents and chunk size;
//! 2. **RNG streams are chunk-keyed**: chunk `c` of action `a` draws from
//!    `base.split(a).split(c)`, where `base` is the caller's
//!    `(seed, system, rank, frame)` stream — which worker runs the chunk
//!    never matters;
//! 3. **results merge in chunk order**: particle state is mutated in place
//!    (each chunk is a disjoint `&mut` slice, one pool job), and the pool
//!    hands per-chunk [`ActionOutcome`]s back in ascending chunk index.
//!
//! Actions that must see the whole store at once (the `retain`-based
//! killers) opt out via `Action::apply_chunk` returning `None`; the
//! kernel runs them serially on the per-action stream, which is equally
//! worker-independent.
//!
//! `chunk == 0` selects the **legacy serial path**: the whole action list
//! runs on the single caller stream exactly as the executors did before
//! this module existed, keeping every seed-calibrated table bit-identical.
//! It is [`ActionList::run`], whose fused walks visit the store fewer
//! times than the list has actions and leave it bit for bit as
//! action-by-action passes would.

use crate::actions::{apply_chunk_checked, ActionCtx, ActionList, ActionOutcome};
use crate::pool::Pool;
use crate::{Particle, SubDomainStore};
use psa_math::{Rng64, Scalar};

/// Chunk size used when a caller asks for workers but leaves `chunk` at 0.
pub const DEFAULT_CHUNK: usize = 1024;

/// What one kernel invocation did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelRun {
    /// Merged outcome over every action.
    pub outcome: ActionOutcome,
    /// Cost-weighted work (`Σ applied_i × weight_i`), same accounting as
    /// [`ActionList::run`].
    pub weighted: f64,
    /// Chunks executed across all chunkable actions (0 on the legacy path).
    pub chunks: u64,
}

/// Run `actions` over `store` with chunk-keyed RNG streams.
///
/// `base` is the per-(seed, system, rank, frame) stream the executors
/// already derive; `chunk == 0` is the legacy serial path (see module
/// docs); `workers` is the pool's thread count (clamped to at least 1, and
/// to the chunk count — spare workers are never spawned).
pub fn run_actions(
    actions: &ActionList,
    dt: Scalar,
    frame: u64,
    base: Rng64,
    store: &mut SubDomainStore,
    chunk: usize,
    workers: usize,
) -> KernelRun {
    // `walk_actions` yields exactly this over zero particles on every path; an
    // empty (rank, system) pair skips its stream derivations, capability
    // probes and empty buckets.
    if store.is_empty() {
        return KernelRun::default();
    }
    walk_actions(actions, dt, frame, base, store, chunk, workers)
}

/// [`run_actions`] without the empty-store shortcut: every action over
/// every chunk.
fn walk_actions(
    actions: &ActionList,
    dt: Scalar,
    frame: u64,
    base: Rng64,
    store: &mut SubDomainStore,
    chunk: usize,
    workers: usize,
) -> KernelRun {
    let chunk = if workers > 1 && chunk == 0 { DEFAULT_CHUNK } else { chunk };
    if chunk == 0 {
        let mut rng = base;
        let mut ctx = ActionCtx { dt, frame, rng: &mut rng };
        let (outcome, weighted) = actions.run(&mut ctx, store);
        return KernelRun { outcome, weighted, chunks: 0 };
    }

    let mut out = KernelRun::default();
    for (ai, a) in actions.iter().enumerate() {
        let act_rng = base.split(ai as u64);
        // Capability probe: chunkable actions answer `Some` for any slice,
        // including the empty one (no RNG is drawn over zero particles).
        let chunkable = {
            let mut probe = act_rng.clone();
            let mut ctx = ActionCtx { dt, frame, rng: &mut probe };
            a.apply_chunk(&mut ctx, &mut []).is_some()
        };
        let o = if !chunkable {
            // Whole-store actions (retain-based killers) run serially on the
            // per-action stream — still independent of the worker count.
            let mut rng = act_rng;
            let mut ctx = ActionCtx { dt, frame, rng: &mut rng };
            a.apply(&mut ctx, store)
        } else if workers <= 1 {
            // In-place single-worker path: no staging, no spawning.
            let mut acc = ActionOutcome::default();
            let mut ci: u64 = 0;
            for bucket in store.bucket_slices_mut() {
                for piece in bucket.chunks_mut(chunk) {
                    let mut rng = act_rng.split(ci);
                    let mut ctx = ActionCtx { dt, frame, rng: &mut rng };
                    acc = acc.merge(apply_chunk_checked(a, &mut ctx, piece));
                    ci += 1;
                }
            }
            out.chunks += ci;
            acc
        } else {
            let pieces: Vec<&mut [Particle]> =
                store.bucket_slices_mut().flat_map(|bucket| bucket.chunks_mut(chunk)).collect();
            out.chunks += pieces.len() as u64;
            // Which worker runs a chunk never matters (streams are
            // chunk-keyed), and the pool hands outcomes back in chunk order.
            let outcomes = Pool::new(workers.min(pieces.len())).map(
                pieces.into_iter().enumerate(),
                |(ci, piece)| {
                    let mut rng = act_rng.split(ci as u64);
                    let mut ctx = ActionCtx { dt, frame, rng: &mut rng };
                    apply_chunk_checked(a, &mut ctx, piece)
                },
            );
            outcomes.into_iter().fold(ActionOutcome::default(), ActionOutcome::merge)
        };
        out.weighted += o.applied as f64 * a.cost_weight();
        out.outcome = out.outcome.merge(o);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::{
        ActionList, BounceOff, Damping, DieOnContact, Fade, Gravity, KillBelow, KillOld,
        MoveParticles, OrbitPoint, RandomAccel,
    };
    use crate::objects::ExternalObject;
    use psa_math::{Axis, Interval, Vec3};

    fn seeded_store(n: usize, buckets: usize) -> SubDomainStore {
        let mut rng = Rng64::new(0x57A7E);
        let mut s = SubDomainStore::new(Interval::new(-50.0, 50.0), Axis::X, buckets);
        for _ in 0..n {
            let mut p = Particle::at(Vec3::new(rng.range(-49.0, 49.0), rng.range(0.0, 20.0), 0.0));
            p.age = rng.range(0.0, 2.0);
            s.insert(p);
        }
        s
    }

    fn state_sig(s: &SubDomainStore) -> Vec<(u32, u32, u32)> {
        s.iter()
            .map(|p| (p.position.x.to_bits(), p.velocity.x.to_bits(), p.velocity.y.to_bits()))
            .collect()
    }

    fn stochastic_list() -> ActionList {
        ActionList::new()
            .then(Gravity::earth())
            .then(RandomAccel::new(2.0))
            .then(Damping::new(0.1))
            .then(KillOld::new(5.0))
            .then(Fade::new(0.01, false))
            .then(MoveParticles)
    }

    #[test]
    fn worker_count_never_changes_state() {
        for &chunk in &[7usize, 64, 1024] {
            let mut base_run = seeded_store(700, 5);
            let r1 =
                run_actions(&stochastic_list(), 0.05, 3, Rng64::new(99), &mut base_run, chunk, 1);
            let want = state_sig(&base_run);
            for &w in &[2usize, 4, 8] {
                let mut s = seeded_store(700, 5);
                let r = run_actions(&stochastic_list(), 0.05, 3, Rng64::new(99), &mut s, chunk, w);
                assert_eq!(state_sig(&s), want, "chunk {chunk} workers {w}");
                assert_eq!(r.outcome, r1.outcome);
                assert_eq!(r.weighted, r1.weighted);
                assert_eq!(r.chunks, r1.chunks);
            }
        }
    }

    #[test]
    fn legacy_path_matches_action_list_run() {
        let mut a = seeded_store(300, 4);
        let mut b = seeded_store(300, 4);
        let kr = run_actions(&stochastic_list(), 0.05, 7, Rng64::new(5), &mut a, 0, 1);
        let mut rng = Rng64::new(5);
        let mut ctx = ActionCtx { dt: 0.05, frame: 7, rng: &mut rng };
        let (out, weighted) = stochastic_list().run(&mut ctx, &mut b);
        assert_eq!(state_sig(&a), state_sig(&b));
        assert_eq!(kr.outcome, out);
        assert_eq!(kr.weighted, weighted);
        assert_eq!(kr.chunks, 0);
    }

    /// The chunked path re-keys RNG streams per chunk, so it follows a
    /// different (equally deterministic) trajectory than the serial path —
    /// switching chunk size is a re-seed.
    #[test]
    fn chunked_streams_are_keyed_apart_from_the_serial_stream() {
        let run = |chunk: usize| {
            let mut s = seeded_store(700, 5);
            run_actions(&stochastic_list(), 0.05, 3, Rng64::new(99), &mut s, chunk, 1);
            state_sig(&s)
        };
        let serial = run(0);
        assert_eq!(run(0), serial, "the serial path must be reproducible");
        for chunk in [64, DEFAULT_CHUNK] {
            assert_ne!(run(chunk), serial, "chunk {chunk} drew the serial stream");
        }
    }

    #[test]
    fn chunk_count_is_reported_per_chunkable_action() {
        let mut s = seeded_store(100, 1);
        // 5 chunkable actions (KillOld opts out) × ceil(100/32) = 4 chunks.
        let kr = run_actions(&stochastic_list(), 0.05, 0, Rng64::new(1), &mut s, 32, 1);
        assert_eq!(kr.chunks, 5 * 4);
    }

    #[test]
    fn workers_requested_without_chunk_size_get_the_default() {
        let mut a = seeded_store(2000, 3);
        let mut b = seeded_store(2000, 3);
        let ra = run_actions(&stochastic_list(), 0.05, 1, Rng64::new(2), &mut a, 0, 4);
        let rb = run_actions(&stochastic_list(), 0.05, 1, Rng64::new(2), &mut b, DEFAULT_CHUNK, 1);
        assert_eq!(state_sig(&a), state_sig(&b));
        assert_eq!(ra.chunks, rb.chunks);
    }

    /// The snow, fountain and vortex systems' action types, in the order
    /// the workloads list them.
    fn workload_lists() -> [(&'static str, ActionList); 3] {
        let sphere = ExternalObject::Sphere { center: Vec3::new(6.0, 8.0, 0.0), radius: 3.0 };
        [
            (
                "snow",
                ActionList::new()
                    .then(RandomAccel::new(0.9))
                    .then(BounceOff::new(sphere, 0.15, 0.6))
                    .then(KillOld::new(12.0))
                    .then(KillBelow::ground(0.0))
                    .then(MoveParticles),
            ),
            (
                "fountain",
                ActionList::new()
                    .then(Gravity::earth())
                    .then(RandomAccel::new(0.6))
                    .then(DieOnContact::new(ExternalObject::ground(-0.2)))
                    .then(KillOld::new(4.0))
                    .then(MoveParticles),
            ),
            (
                "vortex",
                ActionList::new()
                    .then(OrbitPoint::new(Vec3::new(0.0, 10.0, 0.0), 40.0))
                    .then(RandomAccel::new(0.8))
                    .then(KillOld::new(6.0))
                    .then(MoveParticles),
            ),
        ]
    }

    #[test]
    fn an_empty_store_runs_to_what_the_full_walk_returns() {
        for (name, list) in workload_lists() {
            for chunk in [0, 64] {
                for workers in [1, 2] {
                    let at = format!("{name}, chunk {chunk}, workers {workers}");
                    let mut walked = seeded_store(0, 8);
                    let want =
                        walk_actions(&list, 0.05, 3, Rng64::new(9), &mut walked, chunk, workers);
                    let mut s = seeded_store(0, 8);
                    let got = run_actions(&list, 0.05, 3, Rng64::new(9), &mut s, chunk, workers);
                    assert_eq!(got, want, "{at}");
                    assert_eq!(got, KernelRun::default(), "{at}");
                    assert_eq!(
                        got.weighted.to_bits(),
                        want.weighted.to_bits(),
                        "{at}: the sign of 0.0"
                    );
                    assert!(s.is_empty() && walked.is_empty(), "{at}");
                }
            }
        }
    }
}
