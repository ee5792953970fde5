//! Protocol event traces.
//!
//! Figure 2 of the paper is a sequence diagram of one frame. The executors
//! record [`ProtocolEvent`]s as they drive the protocol, and an integration
//! test asserts the recorded order matches the figure — the closest thing
//! to "reproducing a figure" a sequence diagram admits.

/// Steps of the Figure-2 frame protocol, in diagram order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// Manager creates the frame's new particles.
    ParticleCreation,
    /// Calculators add received particles to their local sets.
    AdditionToLocalSet,
    /// Calculators run the action list ("Calculus").
    Calculus,
    /// Calculators exchange domain-crossing particles.
    ParticleExchange,
    /// Calculators send load information to the manager.
    LoadInformation,
    /// Manager evaluates the load balancing.
    LoadBalancingEvaluation,
    /// Manager sends balancing orders.
    LoadBalancingOrders,
    /// Calculators prepare structures (sort, select donations).
    PreparationOfStructures,
    /// Donors report new dimensions; manager rebroadcasts domains.
    NewDimensionsAndDomains,
    /// Calculators define their local domains.
    DefinitionOfLocalDomains,
    /// The balancing particle transfers happen.
    LoadBalanceBetweenCalculators,
    /// Calculators ship particles to the image generator.
    ParticlesToImageGenerator,
    /// The image generator produces the frame.
    ImageGeneration,
}

/// The canonical order of one DLB frame, as drawn in Figure 2.
pub const FIGURE2_ORDER: &[ProtocolEvent] = &[
    ProtocolEvent::ParticleCreation,
    ProtocolEvent::AdditionToLocalSet,
    ProtocolEvent::Calculus,
    ProtocolEvent::ParticleExchange,
    ProtocolEvent::LoadInformation,
    ProtocolEvent::LoadBalancingEvaluation,
    ProtocolEvent::LoadBalancingOrders,
    ProtocolEvent::PreparationOfStructures,
    ProtocolEvent::NewDimensionsAndDomains,
    ProtocolEvent::DefinitionOfLocalDomains,
    ProtocolEvent::LoadBalanceBetweenCalculators,
    ProtocolEvent::ParticlesToImageGenerator,
    ProtocolEvent::ImageGeneration,
];

/// A recorder of protocol events. It always keeps a tally of the Figure-2
/// passes recorded since the last [`Trace::take_passes`] — O(1) per event,
/// what every frame's order check reads — and keeps the event log only
/// when a caller asks for it ([`Trace::enabled`]).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<(u64, ProtocolEvent)>,
    enabled: bool,
    tally: PassTally,
}

impl Trace {
    /// A trace that also keeps the event log.
    pub fn enabled() -> Self {
        Trace { enabled: true, ..Trace::default() }
    }

    /// A trace that keeps only the pass tally.
    pub fn disabled() -> Self {
        Trace::default()
    }

    #[inline]
    pub fn record(&mut self, frame: u64, e: ProtocolEvent) {
        self.tally.push(e);
        if self.enabled {
            self.events.push((frame, e));
        }
    }

    /// The Figure-2 passes recorded since the last call; the tally starts
    /// over for the next frame.
    pub fn take_passes(&mut self) -> usize {
        std::mem::take(&mut self.tally).passes
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Logged events of one frame, in recorded order.
    pub fn frame(&self, frame: u64) -> Vec<ProtocolEvent> {
        self.events.iter().filter(|(f, _)| *f == frame).map(|(_, e)| *e).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Check that `events` is exactly the Figure-2 order (each step once,
/// diagram order).
pub fn matches_figure2(events: &[ProtocolEvent]) -> bool {
    events == FIGURE2_ORDER
}

/// Diagram position of an event in the Figure-2 order.
///
/// [`ProtocolEvent`] is declared in diagram order, so the position is the
/// discriminant — no table lookup, nothing to panic on. The
/// `figure2_order_is_complete_and_unique` test locks the correspondence
/// between the declaration order and [`FIGURE2_ORDER`].
fn figure2_pos(e: ProtocolEvent) -> usize {
    e as usize
}

/// The greedy pass decomposition of [`figure2_passes`], one event at a
/// time: an event that does not come after the previous one in diagram
/// order starts a new pass.
#[derive(Clone, Copy, Debug, Default)]
struct PassTally {
    passes: usize,
    last: Option<ProtocolEvent>,
}

impl PassTally {
    #[inline]
    fn push(&mut self, e: ProtocolEvent) {
        if self.last.is_none_or(|l| figure2_pos(e) <= figure2_pos(l)) {
            self.passes += 1;
        }
        self.last = Some(e);
    }
}

/// Decompose a frame's recorded events into greedy protocol passes.
///
/// One frame is `n_sys` consecutive passes of the Figure-2 sequence (each
/// pass a strictly-increasing subsequence of diagram positions). Any step recorded out of order — an exchange before
/// its calculus, a domain broadcast before the load reports — breaks a pass
/// in two and inflates the count, so `figure2_passes(events) == n_sys` is
/// the per-frame order invariant every executor checks — on the tally
/// [`Trace::record`] keeps, which is this fold one event at a time.
pub fn figure2_passes(events: &[ProtocolEvent]) -> usize {
    let mut tally = PassTally::default();
    events.iter().for_each(|&e| tally.push(e));
    tally.passes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_filters_by_frame() {
        let mut t = Trace::enabled();
        t.record(0, ProtocolEvent::ParticleCreation);
        t.record(1, ProtocolEvent::ParticleCreation);
        t.record(1, ProtocolEvent::Calculus);
        assert_eq!(t.frame(0), vec![ProtocolEvent::ParticleCreation]);
        assert_eq!(t.frame(1).len(), 2);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(0, ProtocolEvent::Calculus);
        assert!(t.is_empty());
    }

    #[test]
    fn pass_counting_detects_out_of_order_steps() {
        use ProtocolEvent::*;
        // One clean pass.
        assert_eq!(figure2_passes(&[AdditionToLocalSet, Calculus, ParticleExchange]), 1);
        // Two systems, two clean passes.
        assert_eq!(
            figure2_passes(&[
                AdditionToLocalSet,
                Calculus,
                ParticleExchange,
                AdditionToLocalSet,
                Calculus,
                ParticleExchange,
            ]),
            2
        );
        // Exchange before calculus splits the pass.
        assert_eq!(figure2_passes(&[AdditionToLocalSet, ParticleExchange, Calculus]), 2);
        // Duplicate step splits the pass.
        assert_eq!(figure2_passes(&[Calculus, Calculus]), 2);
        assert_eq!(figure2_passes(&[]), 0);
        assert_eq!(figure2_passes(FIGURE2_ORDER), 1);
    }

    /// The tally [`Trace::record`] keeps is `figure2_passes` of what was
    /// recorded since the last `take_passes`, over seeded random frames:
    /// clean passes of random subsets of the diagram, some with two events
    /// swapped, on a trace with and without the event log.
    #[test]
    fn the_pass_tally_is_figure2_passes_of_the_frame() {
        use psa_math::Rng64;
        for seed in 0..64u64 {
            let mut rng = Rng64::new(0xF162 ^ seed);
            let (mut bare, mut logged) = (Trace::disabled(), Trace::enabled());
            for frame in 0..6 {
                let mut events = Vec::new();
                for _ in 0..rng.below(4) {
                    events.extend(FIGURE2_ORDER.iter().filter(|_| rng.below(2) == 0));
                }
                if !events.is_empty() && rng.below(2) == 0 {
                    let (i, j) = (rng.below(events.len()), rng.below(events.len()));
                    events.swap(i, j);
                }
                for &e in &events {
                    bare.record(frame, e);
                    logged.record(frame, e);
                }
                let want = figure2_passes(&events);
                assert_eq!(bare.take_passes(), want, "seed {seed} frame {frame}: {events:?}");
                assert_eq!(logged.take_passes(), want, "seed {seed} frame {frame}");
                assert_eq!(logged.frame(frame), events);
            }
            assert!(bare.is_empty(), "a bare trace keeps no log");
        }
    }

    #[test]
    fn figure2_order_is_complete_and_unique() {
        // Every protocol step appears exactly once in the canonical order.
        let mut seen = FIGURE2_ORDER.to_vec();
        seen.dedup();
        assert_eq!(seen.len(), FIGURE2_ORDER.len());
        assert!(matches_figure2(FIGURE2_ORDER));
        assert!(!matches_figure2(&FIGURE2_ORDER[1..]));
        // figure2_pos relies on declaration order == diagram order.
        for (i, &e) in FIGURE2_ORDER.iter().enumerate() {
            assert_eq!(figure2_pos(e), i, "{e:?} out of diagram order");
        }
    }
}
