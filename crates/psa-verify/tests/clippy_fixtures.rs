//! The determinism rules' bad constructs, compiled. Each sits under an
//! `#[expect]` of the clippy lint that must catch it: `disallowed_types`
//! and `disallowed_methods` from the workspace `clippy.toml`, and the panic
//! lints this file denies as the protocol modules (`psa-runtime`'s
//! `msg.rs`, all of `netsim`) do. An `#[expect]` that suppresses nothing is
//! itself a warning, so `cargo clippy --workspace --all-targets -- -D
//! warnings` fails the moment clippy stops catching one. The renamed
//! imports, the UFCS receives and `Builder::spawn` are the variants a token
//! scan misses. Nothing here runs.
//!
//! Ambient randomness (`rand::thread_rng`, `OsRng`, `getrandom`, ...) has
//! no twin here: it would need a crate from outside the workspace, and CI's
//! `lint` job asserts from `cargo metadata` that there is none.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use netsim::ThreadEndpoint;
use std::sync::mpsc::Receiver;
use std::time::Duration;

// ---- Unordered collections: iteration order follows the hasher seed ----

#[expect(clippy::disallowed_types, reason = "the hash map itself")]
use std::collections::HashMap;
#[expect(clippy::disallowed_types, reason = "a renamed import is still the type")]
use std::collections::HashMap as Map;

/// A per-frame tally drained in hash order: two same-seed runs exchange
/// particles in different orders.
pub fn tally(ranks: &[usize]) -> Vec<(usize, usize)> {
    #[expect(clippy::disallowed_types, reason = "a hash-ordered tally")]
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for &r in ranks {
        *counts.entry(r).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// An event-fabric inbox keyed by link: concurrent arrivals drain in a
/// different order on the next run.
pub struct LossyInbox {
    #[expect(clippy::disallowed_types, reason = "a hash-keyed inbox")]
    pub pending: HashMap<(usize, usize), Vec<u64>>,
}

/// Per-tenant accounting: which queued session gets a freed place would
/// depend on the process's hash seed.
pub struct TenantTable {
    #[expect(clippy::disallowed_types, reason = "a hash-keyed tenant table")]
    pub in_flight: HashMap<u32, usize>,
}

/// A balancer tallying loads by rank in a hash map.
pub fn loads_by_rank(loads: &[usize]) -> usize {
    #[expect(clippy::disallowed_types, reason = "a hash-keyed load table")]
    let by_rank: HashMap<usize, usize> = loads.iter().copied().enumerate().collect();
    by_rank.len()
}

pub fn renamed_map() -> usize {
    #[expect(clippy::disallowed_types, reason = "the map under its renamed import")]
    let m: Map<u8, u8> = Map::new();
    m.len()
}

pub fn hash_set_and_seeded_hasher() -> usize {
    #[expect(clippy::disallowed_types, reason = "the hash set")]
    let s = std::collections::HashSet::<u8>::new();
    #[expect(clippy::disallowed_types, reason = "the per-process hasher seed")]
    let h = std::collections::hash_map::RandomState::new();
    s.len() + usize::from(std::hash::BuildHasher::hash_one(&h, 1u8) == 0)
}

// ---- Wall clock: virtual time must come from the cost model -------------

use std::thread::sleep as nap;
use std::time::Instant as Clock;
use std::time::Instant;

/// A frame cost read from the host clock, slept through.
pub fn frame_cost() -> Duration {
    #[expect(clippy::disallowed_methods, reason = "the host clock")]
    let t0 = Instant::now();
    #[expect(clippy::disallowed_methods, reason = "a host sleep")]
    std::thread::sleep(Duration::from_millis(1));
    t0.elapsed()
}

/// An event queue stamping arrivals with host time, the clock passed as a
/// function.
pub fn stamp(epoch: &mut Option<Instant>) -> f64 {
    #[expect(clippy::disallowed_methods, reason = "`Instant::now` as a function value")]
    let start = *epoch.get_or_insert_with(Instant::now);
    #[expect(clippy::disallowed_methods, reason = "the host clock")]
    Instant::now().duration_since(start).as_secs_f64()
}

/// A session pool measuring queue wait in host time.
pub fn admit(arrivals: &mut Vec<(u64, Instant)>, session: u64) {
    #[expect(clippy::disallowed_methods, reason = "an arrival stamped in host time")]
    arrivals.push((session, Instant::now()));
}

/// A phase recorder charging host time without saying so.
pub struct BadRecorder {
    pub mark: Instant,
}

impl BadRecorder {
    pub fn start() -> Self {
        #[expect(clippy::disallowed_methods, reason = "a phase mark in host time")]
        BadRecorder { mark: Instant::now() }
    }

    pub fn end_compute(&mut self) -> f64 {
        let seconds = self.mark.elapsed().as_secs_f64();
        #[expect(clippy::disallowed_methods, reason = "a phase mark in host time")]
        let mark = Instant::now();
        self.mark = mark;
        seconds
    }
}

/// A phase entry reading the host clock by its full path.
pub fn phase_calculus() -> f64 {
    #[expect(clippy::disallowed_methods, reason = "the host clock by its full path")]
    let t0 = std::time::Instant::now();
    t0.elapsed().as_secs_f64()
}

/// A balancer's coin flip drawn from the system clock.
pub fn flip() -> u32 {
    #[expect(clippy::disallowed_types, reason = "the system clock")]
    let since = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    since.map(|d| d.subsec_nanos() & 1).unwrap_or(0)
}

pub fn renamed_clock_and_sleep() -> Duration {
    #[expect(clippy::disallowed_methods, reason = "the clock under its renamed import")]
    let t0 = Clock::now();
    #[expect(clippy::disallowed_methods, reason = "the sleep under its renamed import")]
    nap(Duration::ZERO);
    t0.elapsed()
}

// ---- Threads: parallel compute goes through psa_core::pool --------------

use std::thread::spawn as go;

/// One OS thread per part: the scheduler decides which part is summed
/// first.
pub fn parallel_sum(parts: Vec<Vec<f64>>) -> f64 {
    let mut handles = Vec::new();
    for part in parts {
        #[expect(clippy::disallowed_methods, reason = "an ad-hoc spawn")]
        handles.push(std::thread::spawn(move || part.iter().sum::<f64>()));
    }
    handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
}

/// An "event-driven" executor with one thread per rank.
pub fn run_ranks(ranks: u64) -> Vec<u64> {
    let mut handles = Vec::new();
    for r in 0..ranks {
        #[expect(clippy::disallowed_methods, reason = "a thread per rank")]
        handles.push(std::thread::spawn(move || r * 3));
    }
    handles.into_iter().map(|h| h.join().unwrap_or(0)).collect()
}

pub fn scoped_update(parts: &mut [Vec<f64>]) {
    #[expect(clippy::disallowed_methods, reason = "a scoped spawn")]
    std::thread::scope(|s| {
        for part in parts.iter_mut() {
            s.spawn(|| part.iter_mut().for_each(|v| *v += 1.0));
        }
    });
}

pub fn renamed_and_built_spawns() -> bool {
    #[expect(clippy::disallowed_methods, reason = "the spawn under its renamed import")]
    let a = go(|| 1);
    #[expect(clippy::disallowed_methods, reason = "a spawn through the builder")]
    let b = std::thread::Builder::new().spawn(|| 2);
    a.join().is_ok() && b.is_ok()
}

// ---- Blocking receive: a silent peer must surface as a typed Timeout ----

/// A load gather that blocks forever on a silent peer.
pub fn gather_loads(peers: &[Receiver<u64>]) -> u64 {
    let mut total = 0;
    for rx in peers {
        #[expect(clippy::disallowed_methods, reason = "an unbounded receive")]
        let load = rx.recv().unwrap_or(0);
        total += load;
    }
    total
}

pub fn ufcs_recv(rx: &Receiver<u64>) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "an unbounded receive in UFCS form")]
    Receiver::recv(rx).unwrap_or(0)
}

/// The same gather over the threaded executor's endpoints, where a bare
/// `recv` waits forever on a crashed rank; `recv_deadline` and `try_recv`
/// are the bounded forms.
pub fn gather_endpoint_loads(ep: &ThreadEndpoint<u64>) -> u64 {
    let mut total = 0;
    for from in 1..ep.ranks() {
        #[expect(clippy::disallowed_methods, reason = "an unbounded endpoint receive")]
        let load = ep.recv(from).unwrap_or(0);
        let bounded = ep.recv_deadline(from, Duration::from_millis(2)).unwrap_or(0);
        let polled = ep.try_recv(from).ok().flatten().unwrap_or(0);
        total += load + bounded + polled;
    }
    total
}

pub fn ufcs_endpoint_recv(ep: &ThreadEndpoint<u64>) -> u64 {
    #[expect(clippy::disallowed_methods, reason = "an unbounded endpoint receive in UFCS form")]
    ThreadEndpoint::recv(ep, 0).unwrap_or(0)
}

// ---- Panic paths: a panicking rank thread deadlocks its peers -----------

/// A message handler that panics on a torn-down peer.
pub fn handle(mailbox: Option<Vec<u8>>) -> Vec<u8> {
    #[expect(clippy::unwrap_used, reason = "a panic on a missing message")]
    let msg = mailbox.unwrap();
    if msg.is_empty() {
        #[expect(clippy::panic, reason = "a panic on an empty message")]
        {
            panic!("empty frame message");
        }
    }
    #[expect(clippy::expect_used, reason = "a panic on garbage")]
    decode(&msg).expect("peer sent garbage")
}

fn decode(bytes: &[u8]) -> Option<Vec<u8>> {
    (bytes.len() > 1).then(|| bytes.to_vec())
}

/// A decoder below a message handler unwrapping a short frame.
pub fn decode_header(bytes: &[u8]) -> u64 {
    #[expect(clippy::unwrap_used, reason = "a panic on a short frame")]
    u64::from(bytes.first().copied().unwrap())
}

/// An event-fabric receive unwrapping an empty inbox.
pub fn pop_front_seq(inbox: &mut Vec<(f64, u64)>) -> u64 {
    #[expect(clippy::unwrap_used, reason = "a panic on an idle link")]
    let (_time, seq) = inbox.pop().unwrap();
    seq
}

/// A slot acquire unwrapping a saturated free list.
pub fn next_free_index(free: &mut Vec<usize>) -> usize {
    #[expect(clippy::unwrap_used, reason = "a panic on a full pool")]
    free.pop().unwrap()
}

pub fn other_panic_macros(kind: u8) -> u8 {
    match kind {
        0 => 0,
        #[expect(clippy::unreachable, reason = "a panic on an unexpected kind")]
        1 => unreachable!("kind 1 is never sent"),
        #[expect(clippy::todo, reason = "an unfinished arm")]
        2 => todo!(),
        #[expect(clippy::unimplemented, reason = "an unimplemented arm")]
        _ => unimplemented!(),
    }
}
