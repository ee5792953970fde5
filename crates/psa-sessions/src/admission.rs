//! Admission control: the bounded queue and the per-tenant caps.
//!
//! Admission is where the pool says *no*. At most `max_in_flight`
//! sessions run at once ([`SlotStats`] counts them), the lanes are fixed
//! at construction, and the queue is bounded, so the only way the pool
//! can melt under load is if admission lets it. Two limits apply, checked
//! in order:
//!
//! 1. **per-tenant in-flight cap** — a tenant may hold at most
//!    `per_tenant_in_flight` places; excess sessions queue even when
//!    places are free, so one tenant cannot drain the pool;
//! 2. **bounded queue** — the admission queue holds at most
//!    `queue_capacity` sessions overall and `per_tenant_backlog` per
//!    tenant; beyond that a session is [`AdmissionError::Rejected`],
//!    never silently buffered.
//!
//! Both outcomes are typed: [`AdmissionError::Queued`] is backpressure
//! made visible (the session *will* run — callers that care about
//! latency can shed load themselves), [`AdmissionError::Rejected`] is a
//! drop the caller must handle.

use crate::session::{SessionId, TenantId};

/// Why admission refused a session outright.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The global admission queue is at `queue_capacity`.
    QueueFull {
        /// The configured global queue bound.
        capacity: usize,
    },
    /// The tenant already has `per_tenant_backlog` sessions queued.
    TenantBacklog {
        /// The configured per-tenant backlog bound.
        capacity: usize,
    },
}

/// The typed admission outcome for a session that did not start running
/// immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// Dropped: no queue capacity left for this session. The id was
    /// consumed (ids are admission-ordered) but will never be dispatched.
    Rejected {
        /// The session id the drop consumed.
        id: SessionId,
        /// The tenant whose session was dropped.
        tenant: TenantId,
        /// Which bound refused it.
        reason: RejectReason,
    },
    /// Accepted under backpressure: the session is in the bounded queue
    /// and will run when a slot and tenant headroom free up.
    Queued {
        /// The queued session's id (valid — the session will run).
        id: SessionId,
        /// Position in the admission queue at admission time (0 = next).
        position: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Rejected { id, tenant, reason } => match reason {
                RejectReason::QueueFull { capacity } => write!(
                    f,
                    "session {} (tenant {}) rejected: admission queue full ({capacity})",
                    id.0, tenant.0
                ),
                RejectReason::TenantBacklog { capacity } => write!(
                    f,
                    "session {} (tenant {}) rejected: tenant backlog full ({capacity})",
                    id.0, tenant.0
                ),
            },
            AdmissionError::Queued { id, position } => {
                write!(f, "session {} queued at position {position}", id.0)
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Admission-control bounds. Defaults suit the bench pools; production
/// callers size them from their latency budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sessions the pool services concurrently (at least 1).
    pub max_in_flight: usize,
    /// In-flight places one tenant may hold at once.
    pub per_tenant_in_flight: usize,
    /// Global bound on the admission queue.
    pub queue_capacity: usize,
    /// Per-tenant bound on queued sessions.
    pub per_tenant_backlog: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 32,
            per_tenant_in_flight: 8,
            queue_capacity: 1024,
            per_tenant_backlog: 256,
        }
    }
}

impl AdmissionConfig {
    /// An effectively unbounded configuration for parity tests and
    /// saturation benches: every admitted session queues or runs, nothing
    /// is rejected.
    pub fn unbounded(max_in_flight: usize) -> Self {
        AdmissionConfig {
            max_in_flight,
            per_tenant_in_flight: usize::MAX,
            queue_capacity: usize::MAX,
            per_tenant_backlog: usize::MAX,
        }
    }

    /// The admission decision for a session of a tenant currently holding
    /// `running` slots with `queued` sessions waiting, given `queue_len`
    /// sessions in the global queue and `slot_free` free slots.
    ///
    /// `Ok(true)` = start immediately, `Ok(false)` = enqueue, `Err` = the
    /// [`RejectReason`] that bound the drop.
    pub fn decide(
        &self,
        running: usize,
        queued: usize,
        queue_len: usize,
        slot_free: bool,
    ) -> Result<bool, RejectReason> {
        if slot_free && queue_len == 0 && running < self.per_tenant_in_flight {
            return Ok(true);
        }
        if queue_len >= self.queue_capacity {
            return Err(RejectReason::QueueFull { capacity: self.queue_capacity });
        }
        if queued >= self.per_tenant_backlog {
            return Err(RejectReason::TenantBacklog { capacity: self.per_tenant_backlog });
        }
        Ok(false)
    }
}

/// The in-flight count admission holds sessions to, with its cumulative
/// statistics (for capacity tuning and bench output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Places for in-flight sessions (admission's `max_in_flight`).
    pub capacity: usize,
    /// Places currently held by sessions.
    pub in_use: usize,
    /// Completed hold→release cycles.
    pub recycled: u64,
    /// Most places ever held at once.
    pub high_water: usize,
}

impl SlotStats {
    /// Is a place free for one more in-flight session?
    pub(crate) fn has_free(&self) -> bool {
        self.in_use < self.capacity
    }

    /// A session takes an in-flight place.
    pub(crate) fn hold(&mut self) {
        self.in_use += 1;
        self.high_water = self.high_water.max(self.in_use);
    }

    /// A session gives its in-flight place back.
    pub(crate) fn release(&mut self) {
        self.in_use = self.in_use.saturating_sub(1);
        self.recycled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_start_needs_slot_and_tenant_headroom() {
        let c = AdmissionConfig { per_tenant_in_flight: 2, ..AdmissionConfig::default() };
        assert_eq!(c.decide(0, 0, 0, true), Ok(true));
        assert_eq!(c.decide(2, 0, 0, true), Ok(false), "tenant at cap queues");
        assert_eq!(c.decide(0, 0, 0, false), Ok(false), "no slot queues");
        assert_eq!(c.decide(0, 0, 3, true), Ok(false), "FIFO: a backlog means no overtaking");
    }

    #[test]
    fn bounds_reject_in_order() {
        let c = AdmissionConfig {
            queue_capacity: 2,
            per_tenant_backlog: 1,
            ..AdmissionConfig::default()
        };
        assert_eq!(c.decide(9, 0, 2, false), Err(RejectReason::QueueFull { capacity: 2 }));
        assert_eq!(c.decide(9, 1, 1, false), Err(RejectReason::TenantBacklog { capacity: 1 }));
    }

    #[test]
    fn unbounded_never_rejects() {
        let c = AdmissionConfig::unbounded(4);
        assert_eq!(c.decide(usize::MAX - 1, usize::MAX - 1, usize::MAX - 1, false), Ok(false));
    }

    #[test]
    fn holds_and_releases_count_places() {
        let mut p = SlotStats { capacity: 2, ..SlotStats::default() };
        p.hold();
        p.hold();
        assert!(!p.has_free(), "two places are full");
        assert_eq!((p.in_use, p.high_water), (2, 2));
        p.release();
        assert!(p.has_free());
        p.hold();
        p.release();
        p.release();
        assert_eq!((p.in_use, p.high_water, p.recycled), (0, 2, 3));
    }

    #[test]
    fn errors_format_with_ids() {
        let e = AdmissionError::Rejected {
            id: SessionId(3),
            tenant: TenantId(1),
            reason: RejectReason::QueueFull { capacity: 8 },
        };
        assert!(e.to_string().contains("session 3"));
        let q = AdmissionError::Queued { id: SessionId(4), position: 2 };
        assert!(q.to_string().contains("position 2"));
    }
}
