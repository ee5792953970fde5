//! The interleaved driver: [`Engine`] walks every rank through the frame
//! protocol in one address space, over a simulated [`Fabric`].
//!
//! `psa-desim`'s `EventSim` instantiates it over its FIFO-link fabric,
//! which charges costs through the `netsim::WireState` arithmetic;
//! `psa-sessions` steps many engines over the same fabric type. The engine
//! owns the choreography — the order of sends, receives, cost charges,
//! trace events and fault handling the virtual clocks depend on — and
//! calls the role cores for every state transition.

use std::sync::Arc;

use cluster_sim::{CostModel, Placement};
use netsim::{FaultPolicy, TrafficStats, TransportError};
use psa_core::invariants;
use psa_core::DomainMap;
use psa_math::stats::imbalance;
use psa_math::Scalar;
use psa_trace::{ClockKind, Counter, Phase, Recorder};

use super::calculator::Calculator;
use super::manager::{Manager, Round};
use super::{check_figure2, space_for, Fabric, AXIS, BUCKETS};
use crate::balance::{self, LoadInfo, Order};
use crate::balancers::strategy_for;
use crate::checkpoint::{EngineSnapshot, RecoveryEvent};
use crate::config::RunConfig;
use crate::msg::{Msg, ProtocolError};
use crate::report::{scale_count, FrameReport, RunReport};
use crate::scene::Scene;
use crate::trace::{ProtocolEvent, Trace};

/// Receive a *required* message (the sender is known to be alive) of the
/// one kind the schedule allows: a wrong kind is an `UnexpectedMessage`,
/// silence is a `Timeout`.
macro_rules! expect_virt {
    ($self:ident, $to:expr, $from:expr, $frame:expr, $pat:pat => $out:expr, $expected:expr) => {
        match $self.recv_required($to, $from, $frame)? {
            $pat => $out,
            other => return Err($self.unexpected("virtual", $to, $frame, $expected, &other)),
        }
    };
}

mod recovery;

/// The running frame machinery: every rank's state plus the fabric.
///
/// Generic over the [`Fabric`] (implemented in `psa-desim`), so the
/// protocol logic never names the simulator that schedules it.
pub struct Engine<F: Fabric> {
    scene: Scene,
    cfg: RunConfig,
    cost: CostModel,
    net: F,
    policy: FaultPolicy,
    calcs: Vec<Calculator>,
    manager: Manager,
    speeds: Vec<f64>,
    fe_speed: f64,
    scale: f64,
    n: usize,
    mgr: usize,
    ig: usize,
    /// Exchange fan-out resolved against the rank count
    /// ([`crate::ExchangeMode::Auto`] picks dense below the threshold,
    /// sparse at or above it).
    sparse: bool,
    /// Rank `c` has fail-stopped (it no longer computes, sends or
    /// receives); peers may not have noticed yet.
    crashed: Vec<bool>,
    /// The manager has declared rank `c` dead: its slice is collapsed and
    /// nobody addresses it any more.
    dead: Vec<bool>,
    /// Consecutive missed load reports per calculator.
    missed: Vec<u32>,
    /// Rank `c` has been recovered from a snapshot (or its crash predates
    /// the snapshot and is unrecoverable): its planned crash — a permanent
    /// plan entry — must not trip again after the rollback. Recovery
    /// metadata, deliberately *not* part of snapshots.
    recovered: Vec<bool>,
    /// The most recent frame-boundary snapshot, refreshed every
    /// `cfg.checkpoint_interval` frames when checkpointing is on.
    last_snapshot: Option<EngineSnapshot>,
    /// Recoveries performed so far (reported, fingerprint-exempt).
    recoveries: Vec<RecoveryEvent>,
    /// `(rank, frame)` death declarations, in order.
    dead_events: Vec<(usize, u64)>,
    /// Real (unscaled) particles lost to crashed/dead ranks.
    lost: u64,
    /// Deadline-expired receives in the current frame.
    frame_timeouts: u64,
    /// Next frame [`Engine::step_frame`] will run (== `cfg.frames` once the
    /// animation is complete).
    next_frame: u64,
    /// Makespan at the end of the previous stepped frame (per-frame time
    /// deltas are computed against this).
    prev_makespan: f64,
    trace: Trace,
    /// Per-phase observability recorder (quiet: reads clocks, never moves
    /// them). Disabled unless the executor asked for phases.
    rec: Recorder,
    /// Aggregate transport counters at the top of the current frame
    /// (recorder bookkeeping only).
    frame_stats_mark: TrafficStats,
}

impl<F: Fabric> Engine<F> {
    pub fn new(
        scene: Scene,
        cfg: RunConfig,
        placement: &Placement,
        cost: CostModel,
        net: F,
        policy: FaultPolicy,
        trace: Trace,
        instrument: bool,
    ) -> Self {
        let n = placement.calculators();
        let n_sys = scene.systems.len();
        assert_eq!(net.ranks(), n + 2, "fabric must cover calculators + manager + image generator");
        let domains: Vec<DomainMap> = (0..n_sys)
            .map(|s| DomainMap::split_even(space_for(&scene, &cfg, s), AXIS, n))
            .collect();
        let shared0: Vec<Arc<DomainMap>> = domains.iter().cloned().map(Arc::new).collect();
        Engine {
            calcs: (0..n).map(|c| Calculator::new(c, shared0.clone(), BUCKETS)).collect(),
            manager: Manager::new(domains, scene.emitters(), n, cost.scale),
            speeds: placement.ranks.iter().map(|r| r.speed).collect(),
            fe_speed: placement.frontend_speed,
            scale: cost.scale,
            n,
            mgr: n,
            ig: n + 1,
            sparse: cfg.exchange.is_sparse(n),
            crashed: vec![false; n],
            dead: vec![false; n],
            missed: vec![0; n],
            recovered: vec![false; n],
            last_snapshot: None,
            recoveries: Vec::new(),
            dead_events: Vec::new(),
            lost: 0,
            frame_timeouts: 0,
            next_frame: 0,
            prev_makespan: 0.0,
            scene,
            cfg,
            cost,
            net,
            policy,
            trace,
            rec: if instrument {
                Recorder::enabled(n + 2, ClockKind::Virtual)
            } else {
                Recorder::disabled()
            },
            frame_stats_mark: TrafficStats::default(),
        }
    }

    /// The fabric, for executor-side diagnostics (e.g. event-loop stats).
    pub fn fabric(&self) -> &F {
        &self.net
    }

    /// Run `f` and charge each rank's virtual-clock delta to `phase`.
    ///
    /// A pure *read* of the fabric: clocks are snapshotted before and after
    /// `f`, never moved. When the recorder is disabled `f` runs with zero
    /// overhead — no snapshots — so bare runs pay nothing.
    fn record_phase<T>(&mut self, frame: u64, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.rec.is_enabled() {
            return f(self);
        }
        let ranks = self.net.ranks();
        let before: Vec<f64> = (0..ranks).map(|r| self.net.now(r)).collect();
        let out = f(self);
        for (r, &t0) in before.iter().enumerate() {
            let dt = self.net.now(r) - t0;
            if dt > 0.0 {
                self.rec.phase(frame, r, phase, dt);
            }
        }
        out
    }

    /// Flush the frame's traffic and report counters into the recorder.
    fn flush_frame_counters(&mut self, frame: u64, fr: &FrameReport) {
        if !self.rec.is_enabled() {
            return;
        }
        let now = self.net.stats();
        self.rec.add(frame, Counter::Messages, now.messages - self.frame_stats_mark.messages);
        self.rec.add(
            frame,
            Counter::PayloadBytes,
            now.payload_bytes - self.frame_stats_mark.payload_bytes,
        );
        self.rec.add(frame, Counter::Migrated, fr.migrated);
        self.rec.add(frame, Counter::MigrationBytes, fr.migration_bytes);
        self.rec.add(frame, Counter::Timeouts, fr.timeouts);
    }

    /// The ranks that still take part in barriers: running calculators plus
    /// the manager (the manager and image generator never crash — they are
    /// the paper's front-end, assumed reliable).
    fn active_set(&self) -> Vec<usize> {
        (0..self.n).filter(|&c| !self.crashed[c]).chain([self.mgr]).collect()
    }

    /// Send with the degraded-mode rules: sends to a declared-dead rank are
    /// dropped (particle payloads counted as lost); sends to a crashed but
    /// undeclared rank are queued as usual (nobody knows yet) with their
    /// particles already counted — the queue is purged uncounted at
    /// declaration. Transient injector failures retry with exponential
    /// backoff charged in virtual ticks.
    fn send_to(&mut self, from: usize, to: usize, msg: Msg) -> Result<(), ProtocolError> {
        if to < self.n && (self.dead[to] || self.crashed[to]) {
            if let Msg::Particles { batch, .. } = &msg {
                self.lost += batch.len() as u64;
            }
            if self.dead[to] {
                return Ok(());
            }
        }
        let mut msg = msg;
        let mut attempt: u32 = 0;
        loop {
            match self.net.send(from, to, msg) {
                Ok(()) => return Ok(()),
                Err(failed) => {
                    attempt += 1;
                    self.rec.add(self.next_frame, Counter::SendRetries, 1);
                    if attempt >= self.policy.send_attempts {
                        return Err(failed.error.into());
                    }
                    msg = failed.msg;
                    // Exponential backoff, charged as virtual time.
                    self.net.advance(from, self.policy.backoff * (1u64 << (attempt - 1)) as f64);
                }
            }
        }
    }

    /// Receive with the degraded-mode rules: a declared-dead sender yields
    /// `None` immediately; a crashed-but-undeclared sender is waited on
    /// with a bounded deadline (the wait is charged, a miss is counted and
    /// yields `None`); a healthy sender must have delivered.
    fn recv_from(&mut self, to: usize, from: usize) -> Result<Option<Msg>, ProtocolError> {
        if from < self.n && self.dead[from] {
            return Ok(None);
        }
        if from < self.n && self.crashed[from] {
            return match self.net.recv_deadline(to, from, self.policy.recv_wait) {
                Ok(m) => Ok(Some(m)),
                Err(TransportError::Timeout { .. }) => {
                    self.frame_timeouts += 1;
                    Ok(None)
                }
                Err(e) => Err(e.into()),
            };
        }
        match self.net.recv(to, from) {
            Ok(m) => Ok(Some(m)),
            Err(e) => Err(e.into()),
        }
    }

    /// [`Self::recv_from`] where the protocol cannot go on without the
    /// message: silence is a typed `Timeout`.
    fn recv_required(&mut self, to: usize, from: usize, frame: u64) -> Result<Msg, ProtocolError> {
        let timeout = ProtocolError::Timeout { role: "virtual", rank: to, frame, peer: from };
        self.recv_from(to, from)?.ok_or(timeout)
    }

    /// Run the configured animation and produce the report; the trace is
    /// handed back alongside so executors can restore it.
    pub fn run(&mut self, cluster_label: String) -> (Result<RunReport, ProtocolError>, Trace) {
        let mut frames = Vec::with_capacity(self.cfg.frames as usize);
        let outcome = self.run_frames(&mut frames);
        let trace = std::mem::take(&mut self.trace);
        let result = outcome.map(|()| self.finish_report(cluster_label, frames));
        (result, trace)
    }

    /// Assemble the [`RunReport`] after every frame has been stepped (the
    /// caller holds the per-frame reports [`Engine::step_frame`] returned).
    /// Warm-up frames are filtered here, exactly as [`Engine::run`] does.
    pub fn finish_report(&mut self, cluster_label: String, frames: Vec<FrameReport>) -> RunReport {
        let phases = std::mem::replace(&mut self.rec, Recorder::disabled()).finish();
        let kept: Vec<FrameReport> =
            frames.into_iter().filter(|f| f.frame >= self.cfg.warmup).collect();
        RunReport {
            label: self.cfg.label(),
            cluster: cluster_label,
            calculators: self.n,
            total_time: self.net.makespan(),
            frames: kept,
            traffic: self.net.stats(),
            dead_ranks: self.dead_events.clone(),
            // Round to the nearest real particle: the truncating cast this
            // replaces dropped up to one particle per run at fractional
            // scale factors, making zero-loss gates flaky.
            lost_particles: scale_count(self.lost, self.scale),
            phases,
            recoveries: self.recoveries.clone(),
        }
    }

    /// Frames still to run before the animation completes.
    pub fn frames_remaining(&self) -> u64 {
        self.cfg.frames - self.next_frame
    }

    /// Recoveries performed so far (also carried on the finished report).
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    fn run_frames(&mut self, frames: &mut Vec<FrameReport>) -> Result<(), ProtocolError> {
        while let Some(fr) = self.step_frame()? {
            frames.push(fr);
        }
        Ok(())
    }

    /// Run the next frame of the animation and return its report, or
    /// `Ok(None)` once every configured frame has run.
    ///
    /// This is the cooperative-scheduling entry point: the session layer
    /// interleaves many engines by stepping each a frame (or a slice of
    /// frames) at a time. A full run is exactly `step_frame` until `None`
    /// ([`Engine::run`] is implemented that way), so a stepped engine's
    /// state — and therefore its report fingerprint — is byte-identical to
    /// a solo run's no matter how steps interleave with other engines.
    ///
    /// Every step first asks [`RunConfig::check`](crate::RunConfig::check)
    /// and [`Scene::check`], so a configuration or scene no executor can
    /// run is refused before frame 0.
    pub fn step_frame(&mut self) -> Result<Option<FrameReport>, ProtocolError> {
        self.cfg.check()?;
        self.scene.check()?;
        if self.next_frame >= self.cfg.frames {
            return Ok(None);
        }
        let interval = self.cfg.checkpoint_interval;
        if interval > 0 && self.next_frame > 0 && self.next_frame.is_multiple_of(interval) {
            self.rec.add(self.next_frame, Counter::Snapshots, 1);
            self.last_snapshot = Some(self.snapshot());
        }
        let frame = self.next_frame;
        let n_sys = self.scene.systems.len();
        if self.rec.is_enabled() {
            self.frame_stats_mark = self.net.stats();
        }
        self.begin_frame(frame);
        if interval > 0
            && self.last_snapshot.is_some()
            && (0..self.n).any(|c| self.crashed[c] && !self.dead[c] && !self.recovered[c])
        {
            self.recover_crashed(frame)?;
        }
        let mut fr = FrameReport { frame, ..Default::default() };

        // Figure 2 verbatim: each system runs its full protocol before the
        // next system starts.
        for sys in 0..n_sys {
            self.record_phase(frame, Phase::Compute, |e| {
                e.phase_creation(frame, sys)?;
                e.phase_addition(frame, sys)?;
                e.phase_calculus(frame, sys);
                Ok::<(), ProtocolError>(())
            })?;
            self.record_phase(frame, Phase::Exchange, |e| e.phase_exchange(frame, sys))?;
            let loads = self
                .record_phase(frame, Phase::LoadReport, |e| e.phase_loads(frame, sys, &mut fr))?;
            self.record_phase(frame, Phase::Balance, |e| {
                e.phase_balance(frame, sys, &loads, &mut fr)
            })?;
            self.record_phase(frame, Phase::Ship, |e| e.phase_ship(frame, sys, &mut fr))?;
        }

        self.record_phase(frame, Phase::Render, |e| {
            // Fixed per-frame image cost (clear, encode, write).
            e.net.advance(e.ig, e.cost.per_frame_render_fixed / e.fe_speed);
            e.trace.record(frame, ProtocolEvent::ImageGeneration);

            // Parallel-phases frame boundary for the surviving compute
            // processes.
            let active = e.active_set();
            e.net.barrier(&active);
        });
        // One pass per system; an empty scene still generates its image.
        check_figure2(&mut self.trace, frame, n_sys.max(1), "virtual", self.mgr)?;

        // Per-frame accounting (survivors only).
        let counts: Vec<f64> = (0..self.n)
            .filter(|&c| !self.crashed[c])
            .map(|c| self.calcs[c].total() as f64)
            .collect();
        fr.imbalance = imbalance(&counts);
        let mk = self.net.makespan();
        fr.frame_time = mk - self.prev_makespan;
        self.prev_makespan = mk;
        fr.timeouts = self.frame_timeouts;
        self.frame_timeouts = 0;
        self.flush_frame_counters(frame, &fr);
        self.next_frame += 1;
        Ok(Some(fr))
    }

    /// Creation at the manager (paper §3.2.1): emit, route by domain, ship
    /// batches with end-of-transmission markers.
    fn phase_creation(&mut self, frame: u64, sys: usize) -> Result<(), ProtocolError> {
        let system = self.scene.systems[sys].spec.id;
        let created = self.manager.create(frame, sys, self.cfg.seed);
        self.net.advance(self.mgr, self.cost.create_time(created, self.fe_speed));
        self.trace.record(frame, ProtocolEvent::ParticleCreation);
        for c in 0..self.n {
            let batch = self.manager.batch_for(c);
            self.send_to(self.mgr, c, Msg::Particles { system, batch, scale: self.scale })?;
            self.send_to(self.mgr, c, Msg::EndOfTransmission { system })?;
        }
        Ok(())
    }

    /// Calculators receive and store the newborn batches.
    fn phase_addition(&mut self, frame: u64, sys: usize) -> Result<(), ProtocolError> {
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            let batch = expect_virt!(self, c, self.mgr, frame,
                Msg::Particles { batch, .. } => batch, "Particles");
            expect_virt!(self, c, self.mgr, frame,
                Msg::EndOfTransmission { .. } => (), "EndOfTransmission");
            self.net.advance(c, self.cost.pack_time(batch.len(), self.speeds[c]));
            self.calcs[c].add(sys, batch);
        }
        self.trace.record(frame, ProtocolEvent::AdditionToLocalSet);
        Ok(())
    }

    /// The action list ("Calculus" in Figure 2). A rank's injected
    /// slowdown inflates both the charged time and the load it will
    /// report, so dynamic balancing shifts work away from slow nodes. The
    /// charge depends only on the weighted work, never on the worker count.
    fn phase_calculus(&mut self, frame: u64, sys: usize) {
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            let kr = self.calcs[c].calculus(frame, sys, &self.scene.systems[sys], &self.cfg);
            if kr.weighted == 0.0 {
                continue; // an empty pair: its charge would be zero
            }
            let factor = self.net.compute_factor(c);
            let t = self.cost.weighted_work_time(kr.weighted, self.speeds[c]) * factor;
            self.net.advance(c, t);
            self.calcs[c].add_compute_time(sys, t);
        }
        self.trace.record(frame, ProtocolEvent::Calculus);
    }

    /// A message of the wrong kind where the schedule allows exactly one.
    fn unexpected(
        &self,
        role: &'static str,
        rank: usize,
        frame: u64,
        expected: &'static str,
        got: &Msg,
    ) -> ProtocolError {
        ProtocolError::UnexpectedMessage { role, rank, frame, expected, got: got.kind() }
    }

    /// The exchange-phase receive, dense and sparse: how many particles
    /// calculator `c` took from `d`.
    fn recv_exchange(
        &mut self,
        c: usize,
        d: usize,
        frame: u64,
        sys: usize,
    ) -> Result<usize, ProtocolError> {
        match self.recv_from(c, d)? {
            Some(Msg::Particles { batch, .. }) => {
                let received = batch.len();
                self.net.advance(c, self.cost.pack_time(received, self.speeds[c]));
                self.calcs[c].add(sys, batch);
                Ok(received)
            }
            Some(other) => Err(self.unexpected("calculator", c, frame, "Particles", &other)),
            None => Ok(0), // crashed peer sent nothing; wait was charged
        }
    }

    /// End-of-frame particle exchange: leavers ship directly to their new
    /// owner (all domains are globally known). Dense mode sends one message
    /// per ordered pair — Figure 2 verbatim, bit-identical to the historical
    /// executor; sparse mode ships only non-empty batches and receives from
    /// exactly the queued senders. The phase checks conservation from the
    /// counts it keeps: each rank's once its receives are in (an empty pair
    /// is a counter read), then the rank-summed population, crediting
    /// particles lost toward crashed/dead destinations. The leaver scan
    /// checks that every position is finite.
    fn phase_exchange(&mut self, frame: u64, sys: usize) -> Result<(), ProtocolError> {
        let n = self.n;
        let system = self.scene.systems[sys].spec.id;
        let sparse = self.sparse;
        let lost_at_start = self.lost;
        let (mut before, mut outgoing) = (vec![0usize; n], vec![0usize; n]);
        let (mut before_sum, mut after_sum) = (0, 0);
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            let len = self.calcs[c].store(sys).len();
            (before[c], before_sum) = (len, before_sum + len);
            // An empty pair scans nothing and packs nothing: no charge.
            if len > 0 {
                self.net.advance(c, self.cost.exchange_check_time(len, self.speeds[c]));
            }
            let total_sent = self.calcs[c].stage_exchange(frame, sys)?;
            outgoing[c] = total_sent;
            if total_sent > 0 {
                self.net.advance(c, self.cost.pack_time(total_sent, self.speeds[c]));
            }
            if sparse {
                while let Some((d, batch)) = self.calcs[c].next_outgoing() {
                    self.send_to(c, d, Msg::Particles { system, batch, scale: self.scale })?;
                }
            } else {
                for d in 0..n {
                    if d != c {
                        let batch = self.calcs[c].outgoing(d);
                        self.send_to(c, d, Msg::Particles { system, batch, scale: self.scale })?;
                    }
                }
            }
        }
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            let mut incoming = 0;
            if sparse {
                // Only the ranks with queued traffic — O(migrants), and
                // ascending rank order keeps the schedule deterministic.
                let senders = self.net.queued_senders(c);
                for d in senders {
                    if d < n && d != c {
                        incoming += self.recv_exchange(c, d, frame, sys)?;
                    }
                }
            } else {
                for d in 0..n {
                    if d == c || self.dead[d] {
                        continue;
                    }
                    incoming += self.recv_exchange(c, d, frame, sys)?;
                }
            }
            let after = self.calcs[c].store(sys).len();
            let (b, out) = (before[c], outgoing[c]);
            invariants::check_exchange_conservation(frame, sys, c, b, out, incoming, after)?;
            after_sum += after;
        }
        let lost = (self.lost - lost_at_start) as usize;
        invariants::check_global_conservation_with_losses(frame, sys, before_sum, after_sum, lost)?;
        self.trace.record(frame, ProtocolEvent::ParticleExchange);
        Ok(())
    }

    /// Load reports (paper §3.2.4), each carrying the migration count the
    /// manager tallies into the frame statistics. The manager gathers them;
    /// under the decentralized modes each calculator also shares its report
    /// with its domain neighbors. A calculator that misses
    /// [`FaultPolicy::dead_after`] consecutive gathers is declared dead.
    /// `None` entries mark ranks the manager has no report from.
    fn phase_loads(
        &mut self,
        frame: u64,
        sys: usize,
        fr: &mut FrameReport,
    ) -> Result<Vec<Option<LoadInfo>>, ProtocolError> {
        let n = self.n;
        let system = self.scene.systems[sys].spec.id;
        let decentralized = strategy_for(&self.cfg.balance).is_some_and(|s| s.decentralized());
        // Gossip partners for the decentralized modes: the nearest
        // non-dead rank on each side (a dead rank's slice is collapsed, so
        // the next surviving rank really is the domain neighbor).
        let left_of = |e: &Self, c: usize| (0..c).rev().find(|&d| !e.dead[d]);
        let right_of = |e: &Self, c: usize| (c + 1..n).find(|&d| !e.dead[d]);
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            let (info, migrated) = self.calcs[c].load(sys);
            self.send_to(c, self.mgr, Msg::Load { system, info, migrated })?;
            if decentralized && !self.dead[c] {
                for d in [left_of(self, c), right_of(self, c)].into_iter().flatten() {
                    self.send_to(c, d, Msg::Load { system, info, migrated })?;
                }
            }
        }
        let mut loads: Vec<Option<LoadInfo>> = vec![None; n];
        for c in 0..n {
            if self.dead[c] {
                continue;
            }
            match self.recv_from(self.mgr, c)? {
                Some(Msg::Load { info, migrated, .. }) => {
                    loads[c] = Some(info);
                    self.manager.note_load(migrated, fr);
                    self.missed[c] = 0;
                }
                Some(other) => {
                    return Err(self.unexpected("manager", self.mgr, frame, "Load", &other))
                }
                None => {
                    self.missed[c] += 1;
                    if self.missed[c] >= self.policy.dead_after {
                        self.declare_dead(c, frame)?;
                    }
                }
            }
        }
        if decentralized {
            // Each calculator consumes its neighbors' reports (the content
            // equals `loads`; the receive charges the communication). The
            // partner walk mirrors the send side exactly, so no report is
            // left queued on a link.
            for c in 0..n {
                if self.crashed[c] || self.dead[c] {
                    continue;
                }
                for d in [left_of(self, c), right_of(self, c)].into_iter().flatten() {
                    match self.recv_from(c, d)? {
                        Some(Msg::Load { .. }) | None => {}
                        Some(other) => {
                            return Err(self.unexpected("calculator", c, frame, "Load", &other))
                        }
                    }
                }
            }
        }
        self.trace.record(frame, ProtocolEvent::LoadInformation);
        Ok(loads)
    }

    /// The balancing phase: one round decided by `Manager::decide_round` —
    /// centralized strategies order via the manager, decentralized ones
    /// decide pair-locally from the reports gossiped in
    /// [`Engine::phase_loads`] — or the plain synchronization step static
    /// balancing and a short-circuited round need (paper §3.2: a fast
    /// calculator must not race a frame ahead). Degraded-mode domain
    /// reassignment rides the centralized modes' every-round `Domains`
    /// broadcast; the static mode has none, so a dead slice stays collapsed
    /// but survivors keep stale replicas (their misdirected sends are lost).
    fn phase_balance(
        &mut self,
        frame: u64,
        sys: usize,
        loads: &[Option<LoadInfo>],
        fr: &mut FrameReport,
    ) -> Result<(), ProtocolError> {
        let round = self.manager.decide_round(sys, frame, loads, &self.speeds, &self.cfg.balance);
        let Round::Decided { present, transfers, decentralized } = round else {
            self.rec.add(frame, Counter::BalanceSkips, u64::from(matches!(round, Round::Skipped)));
            let active = self.active_set();
            self.net.barrier(&active);
            return Ok(());
        };
        self.rec.add(frame, Counter::BalanceOrders, transfers.len() as u64);
        let round_orders = transfers.len() as u32;
        // The calculators with something to do this round and their orders,
        // ascending. Transfers are in boundary order and present-adjacent
        // pairs never cross, so walking this list donates — and receives —
        // in boundary order too.
        let mut acting: Vec<(usize, Vec<Order>)> = Vec::new();
        if !decentralized {
            self.net.advance(
                self.mgr,
                self.cost.balance_eval_time(present.len().saturating_sub(1), self.fe_speed),
            );
            self.trace.record(frame, ProtocolEvent::LoadBalancingEvaluation);
            let system = self.scene.systems[sys].spec.id;
            let mut by_rank = balance::orders_by_rank(&transfers, self.n);
            for &c in &present {
                let orders = std::mem::take(&mut by_rank[c]);
                self.send_to(self.mgr, c, Msg::Orders { system, orders, round_orders })?;
            }
            for &c in &present {
                let (orders, total) = expect_virt!(self, c, self.mgr, frame,
                    Msg::Orders { orders, round_orders, .. } => (orders, round_orders), "Orders");
                self.calcs[c].note_round(sys, total);
                if !orders.is_empty() {
                    acting.push((c, orders));
                }
            }
            self.trace.record(frame, ProtocolEvent::LoadBalancingOrders);
        } else {
            // Every pair decides from the reports exchanged in phase_loads;
            // the computation is replicated and identical on both
            // endpoints, so no orders travel: each calculator derives its
            // own. Pairs with a silent endpoint skip their round.
            for c in 0..self.n {
                if self.crashed[c] {
                    continue;
                }
                self.net.advance(c, self.cost.balance_eval_time(2, self.speeds[c]));
                self.calcs[c].note_round(sys, round_orders);
            }
            self.trace.record(frame, ProtocolEvent::LoadBalancingEvaluation);
            let by_rank = balance::orders_by_rank(&transfers, self.n);
            acting.extend(by_rank.into_iter().enumerate().filter(|(_, orders)| !orders.is_empty()));
        }
        self.execute_orders(frame, sys, &acting, fr, !decentralized)
    }

    /// Execute a decided round: donors select particles and compute new
    /// cuts, the domain update is disseminated (via the manager when
    /// `via_manager`, else donor-broadcast), every calculator redefines its
    /// local domains, then the particles move. With dead ranks between a
    /// donor/receiver pair, the manager moves every boundary in the gap
    /// (the collapsed zero-width slices ride along with the cut).
    fn execute_orders(
        &mut self,
        frame: u64,
        sys: usize,
        acting: &[(usize, Vec<Order>)],
        fr: &mut FrameReport,
        via_manager: bool,
    ) -> Result<(), ProtocolError> {
        let n = self.n;
        let system = self.scene.systems[sys].spec.id;
        let traced = !acting.is_empty();

        // Donors prepare structures and compute new cuts. Decentralized
        // rounds may have one calculator donating on both sides; its orders
        // are in boundary order, which keeps the donations sequential and
        // the kept-extent bookkeeping exact.
        let mut cuts: Vec<(usize, usize, Scalar)> = Vec::new(); // (donor, receiver, cut)
        for (donor, orders) in acting {
            for o in orders {
                if let Order::Send { to, amount } = *o {
                    let d = self.calcs[*donor].donate(sys, to, amount);
                    self.net.advance(
                        *donor,
                        self.cost.sort_time(d.sorted, self.speeds[*donor])
                            + self.cost.pack_time(d.selected, self.speeds[*donor]),
                    );
                    cuts.push((*donor, to, d.cut));
                }
            }
        }
        if traced {
            self.trace.record(frame, ProtocolEvent::PreparationOfStructures);
        }

        if via_manager {
            // Donors report cuts to the manager, which updates the
            // authoritative map and rebroadcasts (paper §3.2.5).
            for &(donor, receiver, cut) in &cuts {
                let boundary = donor.min(receiver);
                self.send_to(donor, self.mgr, Msg::NewCut { system, boundary, cut })?;
            }
            for &(donor, receiver, _) in &cuts {
                let cut = expect_virt!(self, self.mgr, donor, frame,
                    Msg::NewCut { cut, .. } => cut, "NewCut");
                self.apply_cut(frame, sys, donor, receiver, cut)?;
            }
            // One shared map per round, built from the manager's map (which
            // `apply_cut` keeps valid): every calculator installs the very
            // allocation it receives, so the broadcast costs one copy of the
            // cuts however many ranks it reaches.
            let map = Arc::new(self.manager.domains(sys).clone());
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                self.send_to(self.mgr, c, Msg::Domains { system, map: map.clone() })?;
            }
            if traced {
                self.trace.record(frame, ProtocolEvent::NewDimensionsAndDomains);
            }
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                let map = expect_virt!(self, c, self.mgr, frame,
                    Msg::Domains { map, .. } => map, "Domains");
                self.install_domains(frame, c, sys, map)?;
            }
        } else {
            // Decentralized: each donor broadcasts its cut to every
            // running process (manager included — it still routes
            // creation), and every process applies the cuts in order.
            for &(donor, receiver, cut) in &cuts {
                let boundary = donor.min(receiver);
                for c in (0..n).chain([self.mgr]) {
                    if c != donor && !(c < n && self.crashed[c]) {
                        self.send_to(donor, c, Msg::NewCut { system, boundary, cut })?;
                    }
                }
            }
            for &(donor, _, _) in &cuts {
                for c in (0..n).chain([self.mgr]) {
                    if c != donor && !(c < n && self.crashed[c]) {
                        expect_virt!(self, c, donor, frame,
                            Msg::NewCut { .. } => (), "NewCut");
                    }
                }
            }
            for &(donor, receiver, cut) in &cuts {
                self.apply_cut(frame, sys, donor, receiver, cut)?;
            }
            let dm = Arc::new(self.manager.domains(sys).clone());
            if traced {
                self.trace.record(frame, ProtocolEvent::NewDimensionsAndDomains);
            }
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                self.install_domains(frame, c, sys, dm.clone())?;
            }
        }
        if traced {
            self.trace.record(frame, ProtocolEvent::DefinitionOfLocalDomains);
        }

        // The donations themselves.
        for (donor, _) in acting {
            for (to, batch) in self.calcs[*donor].take_donations() {
                fr.balanced += (batch.len() as f64 * self.scale) as u64;
                self.send_to(*donor, to, Msg::Particles { system, batch, scale: self.scale })?;
            }
        }
        for (c, orders) in acting {
            for o in orders {
                if let Order::Receive { from } = *o {
                    let batch = expect_virt!(self, *c, from, frame,
                        Msg::Particles { batch, .. } => batch, "Particles");
                    self.net.advance(*c, self.cost.pack_time(batch.len(), self.speeds[*c]));
                    self.calcs[*c].add(sys, batch);
                }
            }
        }
        if traced {
            self.trace.record(frame, ProtocolEvent::LoadBalanceBetweenCalculators);
        }
        Ok(())
    }

    /// A typed failure of the manager's domain bookkeeping.
    fn manager_error(&self, frame: u64, detail: String) -> ProtocolError {
        ProtocolError::Domain { role: "manager", rank: self.mgr, frame, detail }
    }

    /// The manager applies one donor's reported cut.
    fn apply_cut(
        &mut self,
        frame: u64,
        sys: usize,
        donor: usize,
        receiver: usize,
        cut: Scalar,
    ) -> Result<(), ProtocolError> {
        self.manager
            .apply_cut(sys, donor, receiver, cut)
            .map_err(|e| self.manager_error(frame, format!("applying cut from donor {donor}: {e}")))
    }

    /// Install an updated domain map at calculator `c`, charging the
    /// re-bucketing scan if its own slice changed.
    fn install_domains(
        &mut self,
        frame: u64,
        c: usize,
        sys: usize,
        dm: Arc<DomainMap>,
    ) -> Result<(), ProtocolError> {
        if let Some(scanned) = self.calcs[c].install_domains(frame, sys, dm)? {
            self.net.advance(c, self.cost.exchange_check_time(scanned, self.speeds[c]));
        }
        Ok(())
    }

    /// Ship render payloads to the image generator. The image generator
    /// tolerates silent (crashed) calculators — every post-crash frame is
    /// still rendered from the survivors' batches.
    fn phase_ship(
        &mut self,
        frame: u64,
        sys: usize,
        fr: &mut FrameReport,
    ) -> Result<(), ProtocolError> {
        let system = self.scene.systems[sys].spec.id;
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            let count = self.calcs[c].store(sys).len();
            self.net.advance(c, self.cost.pack_time(count, self.speeds[c]));
            self.send_to(c, self.ig, Msg::RenderBatch { system, count, scale: self.scale })?;
        }
        let mut frame_particles = 0usize;
        for c in 0..self.n {
            match self.recv_from(self.ig, c)? {
                Some(Msg::RenderBatch { count, .. }) => frame_particles += count,
                Some(other) => {
                    return Err(self.unexpected(
                        "image generator",
                        self.ig,
                        frame,
                        "RenderBatch",
                        &other,
                    ))
                }
                None => {} // crashed/dead calculator: render without it
            }
        }
        self.net.advance(
            self.ig,
            self.cost.virt(frame_particles) * self.cost.per_render / self.fe_speed,
        );
        fr.alive += (frame_particles as f64 * self.scale) as u64;
        self.trace.record(frame, ProtocolEvent::ParticlesToImageGenerator);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use cluster_sim::{e800, ClusterSpec, Compiler, NetworkModel};
    use netsim::{FailedSend, WireSize, WireState};
    use psa_core::actions::{ActionList, Gravity, MoveParticles};
    use psa_core::{SystemId, SystemSpec};

    use super::*;
    use crate::balance::BalancerConfig;
    use crate::checkpoint::FabricCheckpoint;
    use crate::config::BalanceMode;
    use crate::protocol::node_layout;
    use crate::scene::SystemSetup;

    /// Per-link FIFOs over the wire arithmetic, keeping a reference to
    /// every `Domains` map it carries: `(receiver, system, map)`.
    struct Recording {
        wire: WireState,
        links: BTreeMap<(usize, usize), VecDeque<Msg>>,
        broadcasts: Vec<(usize, SystemId, Arc<DomainMap>)>,
    }

    impl Fabric for Recording {
        fn send(&mut self, from: usize, to: usize, msg: Msg) -> Result<(), FailedSend<Msg>> {
            if let Msg::Domains { system, map } = &msg {
                self.broadcasts.push((to, *system, map.clone()));
            }
            self.wire.charge_send(from, to, msg.wire_bytes(), 0.0);
            self.links.entry((to, from)).or_default().push_back(msg);
            Ok(())
        }
        fn recv(&mut self, to: usize, from: usize) -> Result<Msg, TransportError> {
            let queued = self.links.get_mut(&(to, from)).and_then(VecDeque::pop_front);
            queued.ok_or(TransportError::NoMessage { rank: to, peer: from })
        }
        fn recv_deadline(&mut self, to: usize, from: usize, _: f64) -> Result<Msg, TransportError> {
            self.recv(to, from)
        }
        fn take_queued(&mut self, to: usize, from: usize) -> Vec<Msg> {
            self.links.remove(&(to, from)).map(Vec::from).unwrap_or_default()
        }
        fn queued_senders(&mut self, to: usize) -> Vec<usize> {
            let links = self.links.range((to, 0)..=(to, usize::MAX));
            links.filter(|(_, q)| !q.is_empty()).map(|(&(_, from), _)| from).collect()
        }
        fn now(&self, rank: usize) -> f64 {
            self.wire.now(rank)
        }
        fn advance(&mut self, rank: usize, seconds: f64) {
            self.wire.advance(rank, seconds);
        }
        fn barrier(&mut self, ranks: &[usize]) {
            self.wire.barrier(ranks);
        }
        fn makespan(&self) -> f64 {
            self.wire.makespan()
        }
        fn ranks(&self) -> usize {
            self.wire.ranks()
        }
        fn stats(&self) -> TrafficStats {
            self.wire.stats()
        }
        fn compute_factor(&self, _: usize) -> f64 {
            1.0
        }
        fn stall_seconds(&self, _: usize, _: u64) -> f64 {
            0.0
        }
        fn crash_frame(&self, _: usize) -> Option<u64> {
            None
        }
        fn save_fabric(&self) -> FabricCheckpoint {
            FabricCheckpoint {
                wire: self.wire.checkpoint(),
                injector_streams: vec![],
                extra: vec![],
            }
        }
        fn load_fabric(&mut self, ck: &FabricCheckpoint) -> Result<(), String> {
            self.links.clear();
            self.wire.restore_checkpoint(&ck.wire)
        }
    }

    #[test]
    fn every_calculator_installs_the_very_map_the_manager_broadcast() {
        let n = 8;
        let mut scene = Scene::new();
        for id in 0..2 {
            let actions = ActionList::new().then(Gravity::earth()).then(MoveParticles);
            scene.add_system(SystemSetup::new(SystemSpec::test_spec(id), actions));
        }
        // The paper's balancer evaluates, and so broadcasts, every round.
        let balance = BalanceMode::Dynamic(BalancerConfig::paper());
        let cfg = RunConfig { frames: 4, dt: 0.1, balance, ..Default::default() };
        let cluster =
            ClusterSpec::homogeneous(NetworkModel::myrinet(), Compiler::Gcc, e800(), n, 1);
        let placement = cluster.placement();
        let (node_of, node_count) = node_layout(&placement);
        let wire = WireState::new(cluster.net.clone(), node_of, node_count);
        let net = Recording { wire, links: BTreeMap::new(), broadcasts: Vec::new() };
        let (cost, policy) = (CostModel::default(), FaultPolicy::default());
        let mut engine =
            Engine::new(scene, cfg, &placement, cost, net, policy, Trace::disabled(), false);
        let mut balanced = 0;
        while let Some(fr) = engine.step_frame().expect("a clean frame") {
            balanced += fr.balanced;
            let sent = std::mem::take(&mut engine.net.broadcasts);
            assert_eq!(
                sent.len(),
                2 * n,
                "frame {}: one Domains per system and calculator",
                fr.frame
            );
            for (sys, round) in sent.chunks(n).enumerate() {
                let map = &round[0].2;
                assert_eq!(**map, *engine.manager.domains(sys), "the manager's own map");
                for (c, (to, system, sent_map)) in round.iter().enumerate() {
                    assert_eq!((*to, *system), (c, SystemId(sys as u16)));
                    assert!(Arc::ptr_eq(sent_map, map), "one allocation per round");
                    assert!(Arc::ptr_eq(engine.calcs[c].replica(sys), map), "calculator {c}");
                }
            }
        }
        assert!(balanced > 0, "the rounds moved cuts, so installs reshaped stores");
    }
}
