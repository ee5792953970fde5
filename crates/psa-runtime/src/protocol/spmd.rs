//! The SPMD drivers: the three role bodies the threaded executor spawns on
//! real threads, one [`ThreadEndpoint`] each.
//!
//! Each body owns its role's choreography — blocking sends and deadline
//! receives in Figure-2 order, wall-clock phase marks, the per-role trace
//! whose Figure-2 order it checks every frame — and drives the same role
//! core as the interleaved engine for every state transition. The image
//! generator has no shared core: this one rasterizes splat records, the
//! engine's counts particles.
//!
//! Three things keep the image generator and the manager off the frame's
//! critical path — and the calculators from outrunning them. A calculator
//! ships a [`Msg::FrameDigest`] — count and checksum, folded where the
//! particles live — for every system of every frame, and the splat records
//! of its particles, projected, culled and clipped in the same walk, only
//! when a [`RenderSink`] will rasterize them; the image generator combines
//! digests, never hashes and never projects. The manager draws the
//! *next* (frame, system) cohort right after sending the current one, while
//! the calculators compute, and routes it by domain only when its turn to
//! be sent comes. And when records are shipped, a calculator ships frame
//! `f` only after the image generator's [`Msg::FrameDone`] for frame
//! `f - 2`: the channels are unbounded, a frame of render batches is 48
//! bytes per splat, and without the token whatever the calculators gain
//! on a slower rasterizer piles up in the queue between them. The image
//! generator waits only for frames already on their way and a calculator
//! only for a frame it shipped two frames ago, so nothing waits in a
//! circle; a run without a sink sends no token and waits for none.
//!
//! Balancing goes through [`Manager::decide_round`] for every strategy, so
//! the start-pair rule is the engine's: the alternating start index is
//! taken modulo the pairs that exist ([`balance::evaluate`]), which at the
//! two calculators this executor usually runs with means every evaluated
//! round looks at the one pair there is.

use std::sync::Arc;
use std::time::Duration;

use netsim::{ThreadEndpoint, TrafficStats, TransportError};
use psa_core::invariants::{self, StateHash};
use psa_core::DomainMap;
use psa_math::stats::imbalance;
use psa_render::image::{frame_filename, write_ppm};
use psa_render::{draw_splats, render_objects, Framebuffer};
use psa_trace::{ClockKind, Counter, Phase, Recorder};

use super::calculator::Calculator;
use super::manager::{Manager, Round};
use super::{check_figure2, space_for, BUCKETS};
use crate::balance::{self, Order};
use crate::config::{LoadMetric, RunConfig};
use crate::msg::{Msg, ProtocolError};
use crate::report::FrameReport;
use crate::scene::Scene;
use crate::threaded::RenderSink;
use crate::trace::{ProtocolEvent, Trace};

/// Bounded protocol receive: a silent peer surfaces as a typed
/// [`ProtocolError::Timeout`] carrying role/rank/frame context instead of
/// blocking the executor forever on a lost thread.
pub(crate) fn recv_within(
    ep: &ThreadEndpoint<Msg>,
    from: usize,
    deadline: Duration,
    role: &'static str,
    rank: usize,
    frame: u64,
) -> Result<Msg, ProtocolError> {
    match ep.recv_deadline(from, deadline) {
        Ok(m) => Ok(m),
        Err(TransportError::Timeout { .. }) => {
            Err(ProtocolError::Timeout { role, rank, frame, peer: from })
        }
        Err(e) => Err(e.into()),
    }
}

/// How long a protocol receive may wait before the peer is reported as
/// [`ProtocolError::Timeout`] (lost-peer hardening; generous so slow CI
/// machines never trip it).
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// How many frames of [`Msg::RenderSplats`] a calculator may have shipped
/// and the image generator not yet finished drawing: a calculator ships
/// frame `f` only once frame `f - RENDER_WINDOW` is [`Msg::FrameDone`].
/// Two is double buffering — one frame being drawn, one queued behind it —
/// and every frame more was measured to hold 7 MB more of `snow_render`'s
/// particles for no throughput, on a quiet host and a loaded one
/// (DESIGN.md §8).
pub(crate) const RENDER_WINDOW: u64 = 2;

/// The token rule of both roles: the image generator sends a `FrameDone` for
/// `frame`, which each calculator awaits before shipping the frame
/// `RENDER_WINDOW` later, only if records ship: a sink draws, a system exists.
fn token_owed(sink: Option<&RenderSink>, n_sys: usize, frame: u64, frames: u64) -> bool {
    sink.is_some() && n_sys > 0 && frame + RENDER_WINDOW < frames
}

/// Expect a specific message kind within [`RECV_TIMEOUT`]; anything else
/// is a protocol violation.
macro_rules! expect_msg {
    ($ep:expr, $from:expr, $role:expr, $rank:expr, $frame:expr, $pat:pat => $out:expr, $want:expr) => {
        match recv_within(&$ep, $from, RECV_TIMEOUT, $role, $rank, $frame)? {
            $pat => $out,
            other => {
                return Err(ProtocolError::UnexpectedMessage {
                    role: $role,
                    rank: $rank,
                    frame: $frame,
                    expected: $want,
                    got: other.kind(),
                })
            }
        }
    };
}

/// Charge the wall-clock interval since `*last` to `phase` and reset the
/// mark. The single timing primitive all three roles share: it only reads
/// the endpoint's epoch clock, so instrumentation cannot perturb protocol
/// state. A disabled recorder skips even the clock read.
fn mark(
    rec: &mut Recorder,
    last: &mut f64,
    ep: &ThreadEndpoint<Msg>,
    frame: u64,
    rank: usize,
    phase: Phase,
) {
    if !rec.is_enabled() {
        return;
    }
    let now = ep.now();
    rec.phase(frame, rank, phase, (now - *last).max(0.0));
    *last = now;
}

/// Flush the endpoint's sent-traffic delta since `mark` into the frame's
/// message/byte counters; returns the new mark.
fn flush_traffic(
    rec: &mut Recorder,
    ep: &ThreadEndpoint<Msg>,
    frame: u64,
    prev: TrafficStats,
) -> TrafficStats {
    if !rec.is_enabled() {
        return prev;
    }
    let now = ep.sent_stats();
    rec.add(frame, Counter::Messages, now.messages - prev.messages);
    rec.add(frame, Counter::PayloadBytes, now.payload_bytes - prev.payload_bytes);
    now
}

/// A role's wall-clock phase recorder, enabled when the run is instrumented.
fn recorder(n: usize, instrument: bool) -> Recorder {
    if instrument {
        Recorder::enabled(n + 2, ClockKind::Wall)
    } else {
        Recorder::disabled()
    }
}

pub(crate) fn calculator_main(
    ep: ThreadEndpoint<Msg>,
    c: usize,
    n: usize,
    scene: &Scene,
    cfg: &RunConfig,
    domains: Vec<Arc<DomainMap>>,
    sink: Option<&RenderSink>,
    instrument: bool,
) -> Result<Recorder, ProtocolError> {
    let mgr = n;
    let ig = n + 1;
    let n_sys = scene.systems.len();
    let mut calc = Calculator::new(c, domains, BUCKETS);
    let (mut trace, mut rec) = (Trace::disabled(), recorder(n, instrument));
    let mut last = ep.now();
    let mut traffic_mark = ep.sent_stats();

    for frame in 0..cfg.frames {
        for sys in 0..n_sys {
            let setup = &scene.systems[sys];
            let system = setup.spec.id;
            // Creation: receive batch + EOT.
            let batch = expect_msg!(ep, mgr, "calculator", c, frame,
                Msg::Particles { batch, .. } => batch, "Particles");
            expect_msg!(ep, mgr, "calculator", c, frame,
                Msg::EndOfTransmission { .. } => (), "EndOfTransmission");
            calc.add(sys, batch);
            trace.record(frame, ProtocolEvent::AdditionToLocalSet);

            // Calculus; its wall time is the load this calculator reports.
            let t0 = ep.now();
            calc.calculus(frame, sys, setup, cfg);
            calc.add_compute_time(sys, ep.now() - t0);
            trace.record(frame, ProtocolEvent::Calculus);

            mark(&mut rec, &mut last, &ep, frame, c, Phase::Compute);

            // Exchange, always the dense pattern: one message per peer.
            let before_exchange = calc.store(sys).len();
            let outgoing = calc.stage_exchange(frame, sys)?;
            for d in 0..n {
                if d != c {
                    let batch = calc.outgoing(d);
                    ep.send_sized(d, Msg::Particles { system, batch, scale: 1.0 })?;
                }
            }
            let mut incoming = 0usize;
            for d in 0..n {
                if d == c {
                    continue;
                }
                let batch = expect_msg!(ep, d, "calculator", c, frame,
                    Msg::Particles { batch, .. } => batch, "Particles");
                incoming += batch.len();
                calc.add(sys, batch);
            }
            trace.record(frame, ProtocolEvent::ParticleExchange);
            let after = calc.store(sys).len();
            invariants::check_exchange_conservation(
                frame,
                sys,
                c,
                before_exchange,
                outgoing,
                incoming,
                after,
            )?;
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Exchange);

            // Load report (time rescaled to post-exchange count, §3.2.4).
            let (mut info, migrated) = calc.load(sys);
            if cfg.load_metric == LoadMetric::CountProportional {
                info.time = info.count as f64;
            }
            ep.send_sized(mgr, Msg::Load { system, info, migrated })?;
            trace.record(frame, ProtocolEvent::LoadInformation);
            mark(&mut rec, &mut last, &ep, frame, c, Phase::LoadReport);

            // Balancing; a short-circuited round has no Orders to wait for.
            if calc.expects_orders(sys, frame, &cfg.balance) {
                let (orders, round_orders) = expect_msg!(ep, mgr, "calculator", c, frame,
                    Msg::Orders { orders, round_orders, .. } => (orders, round_orders), "Orders");
                calc.note_round(sys, round_orders);
                // Multi-pair strategies may have one donor serving both
                // sides; donations stage in order and move only after the
                // new domains are in force.
                for o in &orders {
                    if let Order::Send { to, amount } = *o {
                        let cut = calc.donate(sys, to, amount).cut;
                        ep.send_sized(mgr, Msg::NewCut { system, boundary: c.min(to), cut })?;
                    }
                }
                if !orders.is_empty() {
                    trace.record(frame, ProtocolEvent::PreparationOfStructures);
                }
                // Everyone installs the one rebroadcast map (the manager
                // checked its partition).
                let map = expect_msg!(ep, mgr, "calculator", c, frame,
                    Msg::Domains { map, .. } => map, "Domains");
                calc.install_domains(frame, sys, map)?;
                trace.record(frame, ProtocolEvent::DefinitionOfLocalDomains);
                for (to, batch) in calc.take_donations() {
                    ep.send_sized(to, Msg::Particles { system, batch, scale: 1.0 })?;
                }
                for o in &orders {
                    if let Order::Receive { from } = *o {
                        let batch = expect_msg!(ep, from, "calculator", c, frame,
                            Msg::Particles { batch, .. } => batch, "Particles");
                        calc.add(sys, batch);
                    }
                }
                if !orders.is_empty() {
                    trace.record(frame, ProtocolEvent::LoadBalanceBetweenCalculators);
                }
            }
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Balance);

            // Ship the frame to the image generator: the digest always,
            // the splat records only if it rasterizes them — and then no
            // more than RENDER_WINDOW frames ahead of its drawing.
            let released = frame.checked_sub(RENDER_WINDOW);
            if sys == 0 && released.is_some_and(|f| token_owed(sink, n_sys, f, cfg.frames)) {
                expect_msg!(ep, ig, "calculator", c, frame,
                    Msg::FrameDone { .. } => (), "FrameDone");
            }
            let mut splats = Vec::new();
            let mut culled = 0;
            if let Some(s) = sink {
                splats.reserve_exact(calc.store(sys).len().saturating_mul(s.steps()));
            }
            let (alive, hash) = calc.digest(sys, |bucket| {
                if let Some(s) = sink {
                    culled += s.push_splats(&mut splats, bucket);
                }
            });
            ep.send_sized(ig, Msg::FrameDigest { system, alive, hash })?;
            if sink.is_some() {
                ep.send_sized(ig, Msg::RenderSplats { system, splats, culled })?;
            }
            trace.record(frame, ProtocolEvent::ParticlesToImageGenerator);
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Ship);
        }
        check_figure2(&mut trace, frame, n_sys, "calculator", c)?;
        traffic_mark = flush_traffic(&mut rec, &ep, frame, traffic_mark);
    }
    Ok(rec)
}

pub(crate) fn manager_main(
    ep: ThreadEndpoint<Msg>,
    n: usize,
    scene: &Scene,
    cfg: &RunConfig,
    domains: Vec<DomainMap>,
    instrument: bool,
) -> Result<(Vec<FrameReport>, Recorder), ProtocolError> {
    let n_sys = scene.systems.len();
    let mut manager = Manager::new(domains, scene.emitters(), n, 1.0);
    let speeds = vec![1.0; n]; // host threads are homogeneous
    let mut frames = Vec::with_capacity(cfg.frames as usize);
    let mut last = ep.now();
    let (mut trace, mut rec) = (Trace::disabled(), recorder(n, instrument));
    let mut phase_mark = ep.now();
    let mut traffic_mark = ep.sent_stats();
    // Emission runs one step ahead of the protocol: the cohort of the next
    // (frame, system) is drawn while the calculators compute this one.
    let mut steps = (0..cfg.frames).flat_map(|f| (0..n_sys).map(move |s| (f, s)));
    let mut emit_next = |manager: &mut Manager| {
        if let Some((f, s)) = steps.next() {
            manager.emit(f, s, cfg.seed);
        }
    };
    emit_next(&mut manager);

    for frame in 0..cfg.frames {
        let mut fr = FrameReport { frame, ..Default::default() };
        for sys in 0..n_sys {
            let system = scene.systems[sys].spec.id;
            // Creation: route the cohort emitted a step ago by the domains
            // in force now, send it, and draw the next one before blocking.
            manager.route(sys);
            for c in 0..n {
                let batch = manager.batch_for(c);
                ep.send_sized(c, Msg::Particles { system, batch, scale: 1.0 })?;
                ep.send_sized(c, Msg::EndOfTransmission { system })?;
            }
            trace.record(frame, ProtocolEvent::ParticleCreation);
            emit_next(&mut manager);
            mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::Compute);

            // Load reports.
            let mut loads = Vec::with_capacity(n);
            for c in 0..n {
                let (info, migrated) = expect_msg!(ep, c, "manager", n, frame,
                    Msg::Load { info, migrated, .. } => (info, migrated), "Load");
                manager.note_load(migrated, &mut fr);
                loads.push(Some(info));
            }
            let counts: Vec<f64> = loads.iter().flatten().map(|l| l.count as f64).collect();
            fr.imbalance = fr.imbalance.max(imbalance(&counts));
            trace.record(frame, ProtocolEvent::LoadInformation);
            mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::LoadReport);

            // Balancing. The threaded executor is manager-mediated for
            // every strategy: decentralized strategies reuse the same
            // decision function but their transfers still travel the
            // Orders/NewCut/Domains round-trip (the host threads share a
            // process; the decentralized modes' gossip topology is a
            // virtual-executor concern).
            match manager.decide_round(sys, frame, &loads, &speeds, &cfg.balance) {
                Round::Static => {}
                Round::Skipped => rec.add(frame, Counter::BalanceSkips, 1),
                Round::Decided { transfers, .. } => {
                    rec.add(frame, Counter::BalanceOrders, transfers.len() as u64);
                    trace.record(frame, ProtocolEvent::LoadBalancingEvaluation);
                    let round_orders = transfers.len() as u32;
                    for (c, orders) in
                        balance::orders_by_rank(&transfers, n).into_iter().enumerate()
                    {
                        ep.send_sized(c, Msg::Orders { system, orders, round_orders })?;
                    }
                    trace.record(frame, ProtocolEvent::LoadBalancingOrders);
                    for t in &transfers {
                        let cut = expect_msg!(ep, t.donor, "manager", n, frame,
                            Msg::NewCut { cut, .. } => cut, "NewCut");
                        manager.apply_cut(sys, t.donor, t.receiver, cut).map_err(|e| {
                            ProtocolError::Domain {
                                role: "manager",
                                rank: n,
                                frame,
                                detail: format!("applying cut from donor {}: {e}", t.donor),
                            }
                        })?;
                        fr.balanced += t.amount as u64;
                    }
                    let space = space_for(scene, cfg, sys);
                    invariants::check_partition(frame, sys, space, manager.domains(sys))?;
                    if !transfers.is_empty() {
                        trace.record(frame, ProtocolEvent::NewDimensionsAndDomains);
                    }
                    let map = Arc::new(manager.domains(sys).clone());
                    for c in 0..n {
                        ep.send_sized(c, Msg::Domains { system, map: map.clone() })?;
                    }
                }
            }
            mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::Balance);
        }
        check_figure2(&mut trace, frame, n_sys, "manager", n)?;
        let now = ep.now();
        fr.frame_time = now - last;
        last = now;
        rec.add(frame, Counter::Migrated, fr.migrated);
        rec.add(frame, Counter::MigrationBytes, fr.migration_bytes);
        traffic_mark = flush_traffic(&mut rec, &ep, frame, traffic_mark);
        frames.push(fr);
    }
    Ok((frames, rec))
}

pub(crate) fn image_generator_main(
    ep: ThreadEndpoint<Msg>,
    n: usize,
    scene: &Scene,
    cfg: &RunConfig,
    sink: Option<RenderSink>,
    instrument: bool,
) -> Result<(Vec<(u64, u64)>, Recorder), ProtocolError> {
    let n_sys = scene.systems.len();
    // The background and the external objects are the same every frame (the
    // scene's objects and the camera do not change during a run): drawn
    // once, copied into the framebuffer at the start of each frame.
    let backdrop = sink.as_ref().map(|s| {
        let (w, h) = s.camera.viewport();
        let mut fb = Framebuffer::new(w, h);
        fb.clear(s.background);
        render_objects(&mut fb, &s.camera, &scene.objects);
        fb
    });
    let mut fb = backdrop.clone();
    let mut per_frame = Vec::with_capacity(cfg.frames as usize);
    let mut rec = recorder(n, instrument);
    if let Some(dir) = sink.as_ref().and_then(|s| s.out_dir.as_ref()) {
        std::fs::create_dir_all(dir).map_err(|e| ProtocolError::Render {
            frame: 0,
            detail: format!("create {}: {e}", dir.display()),
        })?;
    }
    let mut phase_mark = ep.now();

    for frame in 0..cfg.frames {
        let mut alive = 0u64;
        let mut hash = StateHash::new();
        if let (Some(fb), Some(backdrop)) = (fb.as_mut(), backdrop.as_ref()) {
            fb.clone_from(backdrop);
        }
        for _sys in 0..n_sys {
            for c in 0..n {
                let (count, partial) = expect_msg!(ep, c, "image generator", n + 1, frame,
                    Msg::FrameDigest { alive, hash, .. } => (alive, hash), "FrameDigest");
                alive += count as u64;
                hash = hash.combine(&partial);
                if let (Some(fb), Some(s)) = (fb.as_mut(), sink.as_ref()) {
                    let (splats, culled) = expect_msg!(ep, c, "image generator", n + 1, frame,
                        Msg::RenderSplats { splats, culled, .. } => (splats, culled),
                        "RenderSplats");
                    let steps = s.steps();
                    let shipped = splats.len().checked_add(culled);
                    if shipped.is_none() || shipped != count.checked_mul(steps) {
                        return Err(ProtocolError::DigestMismatch {
                            rank: c,
                            frame,
                            alive: count,
                            steps,
                            records: splats.len(),
                            culled,
                        });
                    }
                    draw_splats(fb, &splats, s.splat.additive);
                }
            }
        }
        if let (Some(fb), Some(s)) = (fb.as_ref(), sink.as_ref()) {
            if let Some(dir) = &s.out_dir {
                let path = dir.join(frame_filename(&s.prefix, frame));
                write_ppm(fb, &path).map_err(|e| ProtocolError::Render {
                    frame,
                    detail: format!("write {}: {e}", path.display()),
                })?;
            }
        }
        // Release the calculators waiting to ship frame + RENDER_WINDOW.
        if token_owed(sink.as_ref(), n_sys, frame, cfg.frames) {
            for c in 0..n {
                ep.send_sized(c, Msg::FrameDone { frame })?;
            }
        }
        // The whole IG frame — gathering digests and batches, rasterizing,
        // writing — is the Render phase; the image generator takes part in
        // no other.
        mark(&mut rec, &mut phase_mark, &ep, frame, n + 1, Phase::Render);
        per_frame.push((alive, hash.finish()));
    }
    Ok((per_frame, rec))
}
