//! The session manager: admission, the cooperative dispatch rotation, and
//! the worker-lane clock arithmetic.
//!
//! The pool multiplexes *sessions* (whole seeded animation runs) over a
//! fixed set of worker lanes. Scheduling is cooperative frame-slicing: a
//! dispatch gives one session at most [`PoolConfig::slice_frames`] frames
//! on the earliest-free lane, then the session goes to the back of the
//! rotation — so a 1,000-frame epic never starves a 30-frame clip, and
//! every session's frame-completion times are a pure function of the
//! admission sequence. Each session steps its own [`Engine`] over its
//! own [`EventFabric`], and that engine is the one the solo run of its
//! derived seed would run ([`SessionSpec::solo`], then
//! [`EventSim::into_engine`](psa_desim::EventSim::into_engine)). The engine
//! state never leaks between sessions, so a session's report is
//! byte-identical to that solo run no matter what ran next to it.
//!
//! Lanes are modelled; cores are real. A dispatch is split in two: the
//! slice's frames (and its checkpoint) *execute* on a thread of the
//! ordered work pool ([`psa_core::pool`]), touching only that session's
//! state, and the coordinator *commits* them in dispatch order — picks
//! the earliest-free lane, advances its clock by the frames' virtual
//! times, re-queues, finishes or fails the session, promotes the queue.
//! A few slices run ahead of their commits, so every core stays busy,
//! and the report is the same for any number of threads.

use std::collections::{BTreeMap, VecDeque};

use psa_core::pool::Pool;
use psa_desim::EventFabric;
use psa_runtime::checkpoint::EngineSnapshot;
use psa_runtime::msg::ProtocolError;
use psa_runtime::protocol::Engine;
use psa_runtime::report::{FrameReport, RunReport};
use psa_trace::SessionCounters;

use crate::admission::{AdmissionConfig, AdmissionError, SlotStats};
use crate::session::{derive_session_seed, SessionId, SessionOutcome, SessionSpec, TenantId};

/// Pool-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Worker lanes. A lane runs one session's frames at a time; the
    /// session's own cluster spec models the parallelism *inside* a run.
    /// Lanes are modelled, in pool-virtual time: the slices really run on
    /// the host's cores, at most one core per lane, and no reported number
    /// depends on how many cores that was.
    pub workers: usize,
    /// Frames a session may run per dispatch before yielding the lane.
    pub slice_frames: u64,
    /// Admission bounds (queue, in-flight places, per-tenant caps).
    pub admission: AdmissionConfig,
    /// Pool base seed; session `k` runs under
    /// [`derive_session_seed`]`(base_seed, k)`.
    pub base_seed: u64,
    /// Checkpoint a running session's engine every this many completed
    /// frames; a worker-loss restart then resumes from the last snapshot
    /// instead of frame 0. `0` disables checkpointing (the pre-recovery
    /// restart-from-scratch behavior).
    pub checkpoint_interval: u64,
    /// Record per-session phase timings (quiet: fingerprints unchanged).
    pub instrument: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 4,
            slice_frames: 2,
            admission: AdmissionConfig::default(),
            base_seed: 0x5E55_0000,
            checkpoint_interval: 0,
            instrument: false,
        }
    }
}

/// A deterministic pool-level fault, injected by the chaos layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolFault {
    /// The lane chosen for dispatch number `at_dispatch` (1-based) dies at
    /// that moment. The in-flight slice is lost with it: the session's
    /// engine is discarded and the session re-queued — resuming from its
    /// last pool checkpoint when [`PoolConfig::checkpoint_interval`] is
    /// set, from frame 0 otherwise. Work completed since the checkpoint
    /// is counted in [`SessionCounters::lost_frames`] /
    /// [`SessionCounters::restart_lost_secs`]. The pool never kills its
    /// last lane; a loss that would is ignored.
    WorkerLoss {
        /// 1-based dispatch count the loss strikes at.
        at_dispatch: u64,
    },
}

/// One worker lane: a virtual clock plus liveness.
#[derive(Clone, Copy, Debug)]
struct Lane {
    busy_until: f64,
    alive: bool,
}

/// Book-keeping for one admitted session: the only owner of its state.
struct SessionEntry {
    tenant: TenantId,
    /// Pool-virtual arrival time (the spec's).
    arrival: f64,
    seed: u64,
    /// The run state of a session in the dispatch rotation; `None` while
    /// it queues, while a slice of it runs on a pool thread, and after it
    /// gave its in-flight place back.
    run: Option<Box<RunState>>,
    first_dispatch: Option<f64>,
    /// Pool time the session's latest frame completed at.
    last_done: f64,
    counters: SessionCounters,
}

/// Everything a finished pool run reports.
#[derive(Clone, Debug, Default)]
pub struct PoolReport {
    /// Completed sessions, in completion order.
    pub outcomes: Vec<SessionOutcome>,
    /// Sessions ended by a protocol error (healthy specs never do).
    pub failed: Vec<(SessionId, ProtocolError)>,
    /// Sessions the admission controller dropped.
    pub rejected: Vec<SessionId>,
    /// Pool-virtual time the last session completed at.
    pub makespan: f64,
    /// Total frame-slice dispatches.
    pub dispatches: u64,
    /// Lanes lost to [`PoolFault::WorkerLoss`].
    pub lanes_lost: usize,
    /// In-flight place statistics (recycle count, high water).
    pub slot_stats: SlotStats,
}

impl PoolReport {
    /// Completed sessions.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Completed sessions per pool-virtual second; `0.0` on a degenerate
    /// pool run (nothing completed or zero makespan).
    pub fn sessions_per_sec(&self) -> f64 {
        if self.outcomes.is_empty() || self.makespan.is_nan() || self.makespan <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.makespan
    }

    /// The `q`-quantile (`0.0 ..= 1.0`, [`psa_math::stats::quantile`]) of
    /// frame latency across every completed session's frames; `0.0` when no
    /// frames were recorded.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let all: Vec<f64> =
            self.outcomes.iter().flat_map(|o| o.frame_latencies.iter().copied()).collect();
        psa_math::stats::quantile(&all, q)
    }

    /// Mean admission-queue wait over completed sessions; `0.0` when none
    /// completed.
    pub fn mean_queue_wait(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.counters.queue_wait).sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// The outcome of one session, if it completed.
    pub fn outcome_for(&self, id: SessionId) -> Option<&SessionOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }
}

/// The multi-tenant session scheduler.
pub struct SessionManager {
    cfg: PoolConfig,
    lanes: Vec<Lane>,
    entries: Vec<SessionEntry>,
    /// Every admitted spec, by session index. Read only while the pool
    /// runs, so every pool thread can share it.
    specs: Vec<SessionSpec>,
    /// Dispatch rotation: sessions holding an in-flight place, in yield
    /// order.
    ready: VecDeque<usize>,
    /// The bounded admission queue: sessions waiting for a place.
    pending: VecDeque<usize>,
    slots: SlotStats,
    tenant_running: BTreeMap<u32, usize>,
    tenant_queued: BTreeMap<u32, usize>,
    faults: VecDeque<PoolFault>,
    dispatches: u64,
    lanes_lost: usize,
    report: PoolReport,
    /// The threads slices execute on; `None` = the host's cores, at most
    /// one per lane. Execution only: no reported number depends on it.
    pool: Option<Pool>,
}

impl SessionManager {
    /// A pool with `cfg.workers` idle lanes and
    /// `cfg.admission.max_in_flight` free in-flight places.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.workers >= 1, "a pool needs at least one worker lane");
        assert!(cfg.slice_frames >= 1, "a dispatch must run at least one frame");
        assert!(
            cfg.admission.max_in_flight >= 1,
            "a pool with no in-flight place would queue every session"
        );
        assert!(
            cfg.admission.per_tenant_in_flight >= 1,
            "a zero in-flight cap would deadlock every tenant"
        );
        SessionManager {
            lanes: vec![Lane { busy_until: 0.0, alive: true }; cfg.workers],
            entries: Vec::new(),
            specs: Vec::new(),
            ready: VecDeque::new(),
            pending: VecDeque::new(),
            slots: SlotStats { capacity: cfg.admission.max_in_flight, ..SlotStats::default() },
            tenant_running: BTreeMap::new(),
            tenant_queued: BTreeMap::new(),
            faults: VecDeque::new(),
            dispatches: 0,
            lanes_lost: 0,
            report: PoolReport::default(),
            pool: None,
            cfg,
        }
    }

    /// Run slices on exactly `threads` threads, whatever the host has.
    #[cfg(test)]
    fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Some(Pool::new(threads));
        self
    }

    /// Inject a deterministic pool fault (chaos scenarios).
    pub fn with_fault(mut self, fault: PoolFault) -> Self {
        self.faults.push_back(fault);
        self
    }

    /// Admit a session.
    ///
    /// Returns `Ok(id)` when the session starts immediately. Both
    /// backpressure outcomes are typed errors: [`AdmissionError::Queued`]
    /// means the session is waiting in the bounded queue (it *will* run —
    /// the error carries its id), [`AdmissionError::Rejected`] means it
    /// was dropped at an admission bound.
    ///
    /// ```
    /// use psa_sessions::{AdmissionConfig, AdmissionError, PoolConfig, SessionManager, SessionSpec, TenantId};
    /// use psa_workloads::Workload;
    ///
    /// let spec = SessionSpec::standard(TenantId(0), Workload::Snow, 600, 4);
    /// // One place: the first session runs, the second queues behind it.
    /// let admission = AdmissionConfig { max_in_flight: 1, ..AdmissionConfig::unbounded(1) };
    /// let mut pool = SessionManager::new(PoolConfig { admission, ..PoolConfig::default() });
    /// let first = pool.admit(spec.clone()).expect("a place is free");
    /// match pool.admit(spec) {
    ///     Err(AdmissionError::Queued { id, position: 0 }) => assert_ne!(id, first),
    ///     other => panic!("expected backpressure, got {other:?}"),
    /// }
    /// let report = pool.run_to_completion();
    /// assert_eq!(report.completed(), 2);
    /// ```
    pub fn admit(&mut self, spec: SessionSpec) -> Result<SessionId, AdmissionError> {
        let id = SessionId(self.entries.len() as u64);
        let seed = derive_session_seed(self.cfg.base_seed, id);
        let tenant = spec.tenant;
        let running = self.tenant_running.get(&tenant.0).copied().unwrap_or(0);
        let queued = self.tenant_queued.get(&tenant.0).copied().unwrap_or(0);
        let decision =
            self.cfg.admission.decide(running, queued, self.pending.len(), self.slots.has_free());
        let arrival = spec.arrival;
        self.specs.push(spec);
        let index = self.entries.len();
        self.entries.push(SessionEntry {
            tenant,
            arrival,
            seed,
            run: None,
            first_dispatch: None,
            last_done: arrival,
            counters: SessionCounters::default(),
        });
        match decision {
            Ok(true) => {
                self.start(index);
                Ok(id)
            }
            Ok(false) => {
                self.pending.push_back(index);
                *self.tenant_queued.entry(tenant.0).or_insert(0) += 1;
                Err(AdmissionError::Queued { id, position: self.pending.len() - 1 })
            }
            Err(reason) => {
                self.report.rejected.push(id);
                Err(AdmissionError::Rejected { id, tenant, reason })
            }
        }
    }

    /// Drive the pool until every admitted session has completed (or
    /// failed), then hand back the report. Deterministic: the outcome is a
    /// pure function of the admission sequence, the pool config, and the
    /// injected faults.
    ///
    /// Slices run on the host's cores (at most one per lane, see
    /// [`PoolConfig::workers`]); pool time is committed in dispatch order,
    /// so the report does not depend on how many threads ran them.
    pub fn run_to_completion(mut self) -> PoolReport {
        let (frames, interval, instrument) =
            (self.cfg.slice_frames, self.cfg.checkpoint_interval, self.cfg.instrument);
        let pool = self.pool.unwrap_or_else(|| Pool::host(self.cfg.workers));
        let lookahead = LOOKAHEAD_PER_THREAD * pool.threads();
        let specs = std::mem::take(&mut self.specs);
        pool.scope(
            |slice: Slice| {
                let spec = &specs[slice.index];
                slice.execute(spec, frames, interval, instrument)
            },
            |q| loop {
                // Commits only append to `ready`, so popping its front ahead
                // of them pops exactly what a one-slice-at-a-time pool would;
                // once it runs dry the oldest slice in flight commits first.
                if q.in_flight() == lookahead || (self.ready.is_empty() && q.in_flight() > 0) {
                    if let Some(ran) = q.next_result() {
                        self.commit(ran);
                    }
                    continue;
                }
                if self.ready.is_empty() {
                    if self.pending.is_empty() || !self.promote_queued() {
                        break;
                    }
                    continue;
                }
                self.dispatches += 1;
                if self.worker_loss_due() {
                    // The loss must strike the lane and slice it would with
                    // nothing run ahead: everything in flight commits first.
                    while let Some(ran) = q.next_result() {
                        self.commit(ran);
                    }
                    if self.take_worker_loss() {
                        self.kill_lane(self.earliest_lane());
                        continue;
                    }
                }
                if let Some(slice) = self.take_slice() {
                    q.submit(slice);
                }
            },
        );
        self.report.dispatches = self.dispatches;
        self.report.lanes_lost = self.lanes_lost;
        self.report.slot_stats = self.slots;
        self.report
    }

    /// The alive lane that frees up first (ties break to the lowest
    /// index, so the loop is deterministic).
    fn earliest_lane(&self) -> usize {
        let mut best = usize::MAX;
        let mut best_t = f64::INFINITY;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.alive && lane.busy_until.total_cmp(&best_t).is_lt() {
                best = i;
                best_t = lane.busy_until;
            }
        }
        debug_assert!(best != usize::MAX, "the pool never loses its last lane");
        best
    }

    /// Is a `WorkerLoss` fault planned for the current dispatch?
    fn worker_loss_due(&self) -> bool {
        matches!(
            self.faults.front(),
            Some(PoolFault::WorkerLoss { at_dispatch }) if *at_dispatch == self.dispatches
        )
    }

    /// Consume the due `WorkerLoss` fault; does it strike? (A loss that
    /// would kill the last lane is dropped.)
    fn take_worker_loss(&mut self) -> bool {
        self.faults.pop_front();
        self.lanes.iter().filter(|l| l.alive).count() > 1
    }

    /// Lane death: the dispatched slice is lost and its session goes to
    /// the back of the rotation. With a checkpoint the session rewinds
    /// only to the last snapshot — frames completed since are discarded
    /// and accounted as lost; without one it restarts from frame 0.
    fn kill_lane(&mut self, lane: usize) {
        if let Some(l) = self.lanes.get_mut(lane) {
            l.alive = false;
        }
        self.lanes_lost += 1;
        let Some(index) = self.ready.pop_front() else {
            return;
        };
        if let Some(entry) = self.entries.get_mut(index) {
            entry.counters.requeues += 1;
            if let Some(run) = entry.run.as_deref_mut() {
                run.engine = None;
                // Rewind the completed-frame spines to the checkpoint (to
                // nothing when checkpoints are off). The dropped latency
                // gaps sum to the virtual time the session pays again on
                // replay, and walking `last_done` back by that sum leaves
                // it at the last *kept* frame's completion time.
                let keep = run.snapshot.as_ref().map_or(0, |s| s.next_frame as usize);
                let keep = keep.min(run.frames.len());
                let dropped_secs: f64 =
                    run.latencies.get(keep..).map_or(0.0, |tail| tail.iter().sum());
                let dropped = (run.frames.len() - keep) as u64;
                run.frames.truncate(keep);
                run.latencies.truncate(keep);
                entry.counters.lost_frames += dropped;
                entry.counters.restart_lost_secs += dropped_secs;
                entry.counters.frames = keep as u64;
                if keep > 0 {
                    entry.last_done -= dropped_secs;
                }
            }
        }
        self.ready.push_back(index);
    }

    /// Pop the rotation head and move its run state off its record, to run
    /// on a pool worker.
    fn take_slice(&mut self) -> Option<Slice> {
        let index = self.ready.pop_front()?;
        let entry = self.entries.get_mut(index)?;
        Some(Slice { index, seed: entry.seed, run: entry.run.take()?, done: entry.counters.frames })
    }

    /// Commit one executed slice, in dispatch order: it ran on the
    /// earliest-free lane, whose clock now advances by its frame times.
    fn commit(&mut self, ran: Executed) {
        let Executed { slice: Slice { index, mut run, .. }, frame_times, outcome } = ran;
        let lane = self.earliest_lane();
        let Some(entry) = self.entries.get_mut(index) else {
            return;
        };
        let t0 = self.lanes.get(lane).map(|l| l.busy_until).unwrap_or(0.0);
        if entry.first_dispatch.is_none() {
            entry.first_dispatch = Some(t0);
            entry.counters.queue_wait = t0 - entry.arrival;
        }
        entry.counters.slices += 1;
        if let SliceOutcome::Refused(e) = outcome {
            self.report.failed.push((SessionId(index as u64), e));
            self.release(index);
            self.promote_queued();
            return;
        }
        let mut t = t0;
        for frame_time in frame_times {
            t += frame_time;
            let latency =
                if run.latencies.is_empty() { t - entry.arrival } else { t - entry.last_done };
            run.latencies.push(latency);
            entry.last_done = t;
            entry.counters.frames += 1;
        }
        if let Some(l) = self.lanes.get_mut(lane) {
            l.busy_until = t;
        }
        self.report.makespan = self.report.makespan.max(t);
        match outcome {
            SliceOutcome::Yielded => {
                entry.run = Some(run);
                self.ready.push_back(index);
            }
            SliceOutcome::Finished(report) => self.finish_session(index, t, *report, run.latencies),
            SliceOutcome::Failed(e) | SliceOutcome::Refused(e) => {
                self.report.failed.push((SessionId(index as u64), e));
                self.release(index);
            }
        }
        self.promote_queued();
    }

    /// Turn a completed session's report and latency spine into its
    /// outcome and release its in-flight place.
    fn finish_session(
        &mut self,
        index: usize,
        finished_at: f64,
        report: RunReport,
        frame_latencies: Vec<f64>,
    ) {
        let Some(entry) = self.entries.get_mut(index) else {
            return;
        };
        if let Some(phases) = &report.phases {
            entry.counters.add_phase_totals(&phases.phase_totals());
        }
        let outcome = SessionOutcome {
            id: SessionId(index as u64),
            tenant: entry.tenant,
            seed: entry.seed,
            fingerprint: report.fingerprint(),
            report,
            finished_at,
            frame_latencies,
            counters: entry.counters.clone(),
        };
        self.report.outcomes.push(outcome);
        self.release(index);
    }

    /// A session takes an in-flight place: its run state is created and it
    /// joins the dispatch rotation.
    fn start(&mut self, index: usize) {
        let Some(entry) = self.entries.get_mut(index) else {
            return;
        };
        entry.run = Some(Box::default());
        self.slots.hold();
        *self.tenant_running.entry(entry.tenant.0).or_insert(0) += 1;
        self.ready.push_back(index);
    }

    /// Give back a session's in-flight place and tenant token. Its run
    /// state is already off its record, with the slice that ended it.
    fn release(&mut self, index: usize) {
        let Some(entry) = self.entries.get(index) else {
            return;
        };
        self.slots.release();
        if let Some(n) = self.tenant_running.get_mut(&entry.tenant.0) {
            *n = n.saturating_sub(1);
        }
    }

    /// Move queued sessions into the rotation while places and tenant
    /// headroom allow — FIFO among tenants with headroom (a capped
    /// tenant's backlog never blocks the others). Returns whether any
    /// session was promoted.
    fn promote_queued(&mut self) -> bool {
        let mut promoted = false;
        let mut i = 0;
        while i < self.pending.len() {
            if !self.slots.has_free() {
                break;
            }
            let Some(&index) = self.pending.get(i) else {
                break;
            };
            let tenant = match self.entries.get(index) {
                Some(e) => e.tenant,
                None => break,
            };
            let running = self.tenant_running.get(&tenant.0).copied().unwrap_or(0);
            if running >= self.cfg.admission.per_tenant_in_flight {
                i += 1;
                continue;
            }
            self.pending.remove(i);
            if let Some(n) = self.tenant_queued.get_mut(&tenant.0) {
                *n = n.saturating_sub(1);
            }
            self.start(index);
            promoted = true;
        }
        promoted
    }
}

/// Slices in flight per pool thread: enough that a worker finishing a
/// slice finds the next one queued while the coordinator commits.
const LOOKAHEAD_PER_THREAD: usize = 4;

/// A running session's state, boxed on its record so that a record that
/// is not running costs one pointer.
#[derive(Default)]
struct RunState {
    /// The session's engine; `None` before its first slice and after a
    /// worker loss dropped it.
    engine: Option<Engine<EventFabric>>,
    /// Last pool-level checkpoint of the engine, taken every
    /// [`PoolConfig::checkpoint_interval`] completed frames. A worker-loss
    /// restart rebuilds the engine and restores this instead of replaying
    /// from frame 0.
    snapshot: Option<EngineSnapshot>,
    /// Per-frame reports in frame order.
    frames: Vec<FrameReport>,
    /// Pool-virtual frame-completion gaps.
    latencies: Vec<f64>,
}

/// One dispatched slice: a session's run state, moved to a pool worker and
/// back. Nothing in it is shared with another session or with the
/// coordinator's books.
struct Slice {
    index: usize,
    seed: u64,
    run: Box<RunState>,
    /// Frames the session has completed (the checkpoint cadence counts
    /// them).
    done: u64,
}

/// An executed slice, waiting to be committed.
struct Executed {
    slice: Slice,
    /// The virtual time of each frame the slice completed, in order.
    frame_times: Vec<f64>,
    outcome: SliceOutcome,
}

/// What one dispatched slice ended as.
enum SliceOutcome {
    Yielded,
    Finished(Box<RunReport>),
    Failed(ProtocolError),
    /// The engine could not be built, or the rebuilt one refused the
    /// session's checkpoint; no frame ran.
    Refused(ProtocolError),
}

impl Slice {
    /// Run up to `frames` frames of the session, snapshotting every
    /// `interval` completed frames; a session that finishes also builds
    /// its report here.
    fn execute(
        mut self,
        spec: &SessionSpec,
        frames: u64,
        interval: u64,
        instrument: bool,
    ) -> Executed {
        let mut frame_times = Vec::new();
        let mut engine = match self.run.engine.take() {
            Some(engine) => engine,
            None => {
                // Spines sized to the run, so they move into the outcome
                // without slack.
                let n = spec.cfg.frames as usize;
                self.run.frames.reserve_exact(n);
                self.run.latencies.reserve_exact(n);
                let solo = spec.solo(self.seed);
                let built = if instrument { solo.with_phases() } else { solo }.into_engine();
                // After a worker loss the rebuilt engine resumes from the
                // last pool checkpoint. A snapshot taken from this very spec
                // always fits; a mismatch, like a cluster no engine can be
                // built on, is surfaced as a typed session failure, not a
                // panic.
                let resumed = built.and_then(|mut engine| {
                    if let Some(snap) = &self.run.snapshot {
                        engine.restore(snap)?;
                    }
                    Ok(engine)
                });
                match resumed {
                    Ok(engine) => engine,
                    Err(e) => {
                        let outcome = SliceOutcome::Refused(e);
                        return Executed { slice: self, frame_times, outcome };
                    }
                }
            }
        };
        let mut failed = None;
        let mut finished = false;
        for _ in 0..frames {
            match engine.step_frame() {
                Ok(Some(fr)) => {
                    frame_times.push(fr.frame_time);
                    self.run.frames.push(fr);
                    self.done += 1;
                    if interval > 0 && self.done.is_multiple_of(interval) {
                        self.run.snapshot = Some(engine.snapshot());
                    }
                }
                Ok(None) => {
                    finished = true;
                    break;
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let outcome = match failed {
            Some(e) => SliceOutcome::Failed(e),
            None if finished || engine.frames_remaining() == 0 => {
                let frames = std::mem::take(&mut self.run.frames);
                let report = engine.finish_report(spec.cluster.describe(), frames);
                SliceOutcome::Finished(Box::new(report))
            }
            None => SliceOutcome::Yielded,
        };
        // A session that ended frees its engine here, on the thread whose
        // allocator will build the next one, not on the coordinator.
        self.run.engine = matches!(outcome, SliceOutcome::Yielded).then_some(engine);
        Executed { slice: self, frame_times, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::RejectReason;
    use psa_runtime::RunConfig;
    use psa_workloads::{paper_run_config, Workload};

    fn spec(tenant: u32) -> SessionSpec {
        SessionSpec::standard(TenantId(tenant), Workload::Snow, 60, 4)
    }

    fn pool(workers: usize, admission: AdmissionConfig) -> SessionManager {
        SessionManager::new(PoolConfig {
            workers,
            slice_frames: 2,
            admission,
            base_seed: 0xABCD,
            checkpoint_interval: 0,
            instrument: false,
        })
    }

    #[test]
    fn all_sessions_complete_and_recycle_slots() {
        let mut p = pool(2, AdmissionConfig::unbounded(3));
        for i in 0..6 {
            let _ = p.admit(spec(i % 2));
        }
        let r = p.run_to_completion();
        assert_eq!(r.completed(), 6);
        assert!(r.failed.is_empty() && r.rejected.is_empty());
        assert_eq!(r.slot_stats.recycled, 6, "every session recycled its slot");
        assert!(r.slot_stats.high_water <= 3);
        assert!(r.makespan > 0.0);
        assert!(r.sessions_per_sec() > 0.0);
        // Frame latencies: every session reported one per frame.
        for o in &r.outcomes {
            assert_eq!(o.frame_latencies.len() as u64, 4);
            assert!(o.frame_latencies.iter().all(|l| *l > 0.0));
        }
    }

    #[test]
    fn admission_queues_then_rejects_at_bounds() {
        let admission = AdmissionConfig {
            max_in_flight: 1,
            per_tenant_in_flight: 1,
            queue_capacity: 1,
            per_tenant_backlog: 1,
        };
        let mut p = pool(1, admission);
        assert!(p.admit(spec(0)).is_ok());
        match p.admit(spec(0)) {
            Err(AdmissionError::Queued { id, position }) => {
                assert_eq!(id, SessionId(1));
                assert_eq!(position, 0);
            }
            other => panic!("expected Queued, got {other:?}"),
        }
        match p.admit(spec(0)) {
            Err(AdmissionError::Rejected { reason, .. }) => {
                assert_eq!(reason, RejectReason::QueueFull { capacity: 1 });
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        let r = p.run_to_completion();
        assert_eq!(r.completed(), 2, "queued session ran after the first recycled");
        assert_eq!(r.rejected.len(), 1);
        // The queued session's queue_wait covers the head session's run.
        let queued = r.outcome_for(SessionId(1)).unwrap();
        assert!(queued.counters.queue_wait > 0.0);
    }

    #[test]
    fn a_failed_session_hands_its_place_on() {
        let mut p = pool(1, AdmissionConfig::unbounded(1));
        let bad =
            SessionSpec { cfg: RunConfig { dt: f32::NAN, ..paper_run_config(4, 0.04) }, ..spec(0) };
        assert!(p.admit(bad).is_ok());
        assert!(matches!(p.admit(spec(1)), Err(AdmissionError::Queued { .. })));
        let r = p.run_to_completion();
        assert!(
            matches!(r.failed[..], [(SessionId(0), ProtocolError::NonFiniteDt { .. })]),
            "{:?}",
            r.failed
        );
        assert_eq!(r.completed(), 1);
        assert!(r.outcome_for(SessionId(1)).is_some(), "the queued session ran");
        assert_eq!((r.slot_stats.recycled, r.slot_stats.high_water), (2, 1));
    }

    #[test]
    fn a_session_without_calculators_fails_alone() {
        let mut p = pool(2, AdmissionConfig::unbounded(4));
        let healthy = spec(0).cluster;
        let empty = cluster_sim::ClusterSpec::new(healthy.net, healthy.compiler);
        assert!(p.admit(SessionSpec { cluster: empty, ..spec(0) }).is_ok());
        for tenant in 1..4 {
            assert!(p.admit(spec(tenant)).is_ok());
        }
        let r = p.run_to_completion();
        let option = "a cluster with no calculators";
        let refusal = ProtocolError::Unsupported { executor: "virtual", option };
        assert_eq!(r.failed, vec![(SessionId(0), refusal)]);
        assert_eq!(r.completed(), 3, "the healthy sessions complete");
        assert!((1..4).all(|id| r.outcome_for(SessionId(id)).is_some()));
    }

    #[test]
    #[should_panic(expected = "no in-flight place")]
    fn a_pool_without_an_in_flight_place_is_refused() {
        pool(1, AdmissionConfig::unbounded(0));
    }

    #[test]
    fn tenant_cap_holds_even_with_free_slots() {
        let admission = AdmissionConfig {
            max_in_flight: 4,
            per_tenant_in_flight: 1,
            queue_capacity: 16,
            per_tenant_backlog: 16,
        };
        let mut p = pool(2, admission);
        assert!(p.admit(spec(7)).is_ok());
        // Same tenant: must queue despite three free slots.
        assert!(matches!(p.admit(spec(7)), Err(AdmissionError::Queued { .. })));
        let r = p.run_to_completion();
        assert_eq!(r.completed(), 2);
        assert!(r.slot_stats.high_water <= 2, "tenant cap kept the arena half-empty");
    }

    #[test]
    fn cooperative_slicing_interleaves_sessions() {
        // One lane, two sessions: with cooperative slicing the second
        // session's first frame completes before the first session's last.
        let mut p = pool(1, AdmissionConfig::unbounded(2));
        let a = p.admit(spec(0)).unwrap();
        let b = p.admit(spec(1)).unwrap();
        let r = p.run_to_completion();
        let a = r.outcome_for(a).unwrap();
        let b = r.outcome_for(b).unwrap();
        let a_last = a.finished_at;
        let b_first = b.finished_at - b.frame_latencies.iter().skip(1).sum::<f64>();
        assert!(
            b_first < a_last,
            "session b's first frame ({b_first}) must land before a's last ({a_last})"
        );
    }

    #[test]
    fn worker_loss_requeues_and_still_completes() {
        let mut p = pool(2, AdmissionConfig::unbounded(4));
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(p.admit(spec(i)).unwrap());
        }
        let p = p.with_fault(PoolFault::WorkerLoss { at_dispatch: 3 });
        let r = p.run_to_completion();
        assert_eq!(r.completed(), 4, "the re-queued session must still finish");
        assert_eq!(r.lanes_lost, 1);
        let requeued: u64 = r.outcomes.iter().map(|o| o.counters.requeues).sum();
        assert_eq!(requeued, 1, "exactly one session restarted");
    }

    #[test]
    fn last_lane_never_dies() {
        let mut p = pool(1, AdmissionConfig::unbounded(2));
        let _ = p.admit(spec(0));
        let p = p.with_fault(PoolFault::WorkerLoss { at_dispatch: 1 });
        let r = p.run_to_completion();
        assert_eq!(r.completed(), 1);
        assert_eq!(r.lanes_lost, 0, "a loss that would kill the last lane is dropped");
    }

    /// Every float of a report by its bits, then the whole report as text.
    fn report_bits(r: &PoolReport) -> (Vec<u64>, String) {
        let mut bits = vec![r.makespan.to_bits()];
        for o in &r.outcomes {
            bits.extend(
                [o.finished_at, o.counters.queue_wait, o.counters.restart_lost_secs]
                    .map(f64::to_bits),
            );
            bits.extend(o.frame_latencies.iter().map(|l| l.to_bits()));
            bits.push(o.report.total_time.to_bits());
            bits.extend(o.report.frames.iter().map(|f| f.frame_time.to_bits()));
        }
        (bits, format!("{r:?}"))
    }

    /// A mixed pool: fountain and snow sessions of different lengths over
    /// five tenants.
    fn mixed(
        sessions: usize,
        workers: usize,
        slice_frames: u64,
        admission: AdmissionConfig,
        checkpoint_interval: u64,
    ) -> SessionManager {
        let mut p = SessionManager::new(PoolConfig {
            workers,
            slice_frames,
            admission,
            base_seed: 0x5E55_1005,
            checkpoint_interval,
            instrument: false,
        });
        for i in 0..sessions {
            let (workload, frames) =
                if i.is_multiple_of(3) { (Workload::Fountain, 6) } else { (Workload::Snow, 9) };
            let _ = p.admit(SessionSpec::standard(TenantId(i as u32 % 5), workload, 40, frames));
        }
        p
    }

    #[test]
    fn the_report_does_not_depend_on_the_thread_count() {
        let squeeze = AdmissionConfig {
            max_in_flight: 2,
            per_tenant_in_flight: 1,
            queue_capacity: 64,
            per_tenant_backlog: 64,
        };
        let loss = |at_dispatch| PoolFault::WorkerLoss { at_dispatch };
        let pools: Vec<(&str, Box<dyn Fn() -> SessionManager>)> = vec![
            ("100 mixed", Box::new(|| mixed(100, 4, 2, AdmissionConfig::unbounded(16), 0))),
            ("2-slot squeeze", Box::new(move || mixed(14, 3, 2, squeeze, 0))),
            ("slice 1", Box::new(|| mixed(20, 4, 1, AdmissionConfig::unbounded(8), 0))),
            ("slice 64", Box::new(|| mixed(20, 4, 64, AdmissionConfig::unbounded(8), 0))),
            (
                "worker loss",
                Box::new(move || {
                    mixed(16, 4, 2, AdmissionConfig::unbounded(6), 0)
                        .with_fault(loss(5))
                        .with_fault(loss(23))
                }),
            ),
            (
                "worker loss, checkpoint 2",
                Box::new(move || {
                    mixed(16, 4, 2, AdmissionConfig::unbounded(6), 2)
                        .with_fault(loss(9))
                        .with_fault(loss(30))
                }),
            ),
        ];
        for (name, pool) in &pools {
            let serial = pool().with_threads(1).run_to_completion();
            assert!(serial.completed() > 0 && serial.failed.is_empty(), "{name}");
            assert_eq!(serial.lanes_lost, if name.starts_with("worker loss") { 2 } else { 0 });
            let want = report_bits(&serial);
            for threads in [2, 3, 8] {
                let got = pool().with_threads(threads).run_to_completion();
                assert!(got.outcomes.len() == serial.outcomes.len(), "{name}, {threads} threads");
                assert!(report_bits(&got) == want, "{name}: {threads} threads moved the report");
            }
        }
    }

    #[test]
    fn percentiles_are_ordered_and_finite() {
        let mut p = pool(2, AdmissionConfig::unbounded(4));
        for i in 0..8 {
            let _ = p.admit(spec(i));
        }
        let r = p.run_to_completion();
        let p50 = r.latency_percentile(0.50);
        let p99 = r.latency_percentile(0.99);
        assert!(p50 > 0.0 && p50.is_finite());
        assert!(p99 >= p50);
    }
}
