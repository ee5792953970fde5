//! Seeded snapshot fuzzer: a corrupted snapshot either fails to decode with
//! a typed `CodecError`, or decodes and then either restores or is refused
//! with a typed error that leaves the engine exactly as it was. Nothing
//! panics and nothing aborts.
//!
//! The inputs are real: the encoded frame-boundary snapshots of a snow
//! engine on a quiet plan and of a fountain engine whose links jitter and
//! whose rank 1 crashes, so injector streams and the dead sets are
//! non-empty. The mutations are the ways bytes go bad: bit flips,
//! overwritten bytes, truncation, and length fields set to random or huge
//! values. Std only, on `psa_math::Rng64`: a failure reproduces from the
//! seed and the mutation number it prints.

use netsim::{FaultPlan, LinkFault};
use psa_desim::{EventFabric, EventSim};
use psa_math::Rng64;
use psa_runtime::{Engine, EngineSnapshot, ProtocolError, RunConfig, Scene};
use psa_workloads::{fountain_scene, myrinet_gcc, snow_scene, WorkloadSize};

/// Mutations per input snapshot (two inputs).
const MUTATIONS: usize = 1_200;

const SIZE: WorkloadSize = WorkloadSize { systems: 2, particles_per_system: 60, scale: 25.0 };

fn engine(scene: &Scene, plan: &FaultPlan) -> Engine<EventFabric> {
    let cfg = RunConfig { frames: 8, dt: 0.1, seed: plan.seed, warmup: 0, ..Default::default() };
    EventSim::new(scene.clone(), cfg, myrinet_gcc(4, 1), SIZE.cost_model())
        .with_faults(plan.clone())
        .into_engine()
        .expect("four calculators")
}

/// A quiet snow engine, and a fountain engine with jittery links whose
/// rank 1 crashes at frame 2 (declared dead a few frames later).
fn inputs() -> [(Scene, FaultPlan); 2] {
    let mut faulty = FaultPlan::none(0xF0, 4 + 2);
    faulty.set_all_links(LinkFault::jittery(0.5, 1e-3));
    faulty.rank_mut(1).crash_at = Some(2);
    [(snow_scene(SIZE), FaultPlan::none(0x5A, 4 + 2)), (fountain_scene(SIZE), faulty)]
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// Offsets of every 8-byte window that reads as a small non-zero count:
/// the snapshot's length prefixes, plus a few counters that look like one.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len() - 7).filter(|&at| (1..=4096).contains(&read_u64(bytes, at))).collect()
}

/// `bytes` with one to three mutations applied.
fn mutate(bytes: &[u8], lengths: &[usize], rng: &mut Rng64) -> Vec<u8> {
    let mut b = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        if b.len() < 8 {
            break;
        }
        match rng.below(4) {
            0 => {
                let bit = rng.below(b.len() * 8);
                b[bit / 8] ^= 1 << (bit % 8);
            }
            1 => {
                let at = rng.below(b.len());
                b[at] = rng.next_u64() as u8;
            }
            2 => b.truncate(rng.below(b.len())),
            _ => {
                let at = lengths[rng.below(lengths.len())];
                if at + 8 > b.len() {
                    continue;
                }
                let old = read_u64(&b, at);
                let huge = [u64::MAX, 1 << 40, 1 << 62, u64::from(u32::MAX)];
                let v = match rng.below(5) {
                    0 => old.wrapping_add(1),
                    1 => old.wrapping_sub(1),
                    2 => rng.below(64) as u64,
                    3 => huge[rng.below(huge.len())],
                    _ => rng.next_u64(),
                };
                b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    b
}

#[test]
fn fuzzed_snapshots_fail_typed_or_restore_or_leave_the_engine_untouched() {
    let mut rng = Rng64::new(0xF022);
    let (mut undecodable, mut restored, mut refused) = (0, 0, 0);
    for (i, (scene, plan)) in inputs().iter().enumerate() {
        let mut live = engine(scene, plan);
        for _ in 0..5 {
            live.step_frame().expect("the run survives its plan").expect("frames remain");
        }
        let snap = live.snapshot();
        if i == 1 {
            assert!(!snap.fabric.injector_streams.is_empty(), "jittery links draw");
            assert!(snap.dead.contains(&true), "the crashed rank is declared dead");
        }
        let bytes = snap.encode();
        let lengths = length_fields(&bytes);
        // Restores land in an engine built from the same inputs, so a
        // mutation that keeps the snapshot's shape restores for real.
        let mut target = engine(scene, plan);
        let mut fingerprint = target.snapshot().fingerprint();
        for k in 0..MUTATIONS {
            let Ok(decoded) = EngineSnapshot::decode(&mutate(&bytes, &lengths, &mut rng)) else {
                undecodable += 1;
                continue;
            };
            match target.restore(&decoded) {
                Ok(()) => {
                    restored += 1;
                    fingerprint = target.snapshot().fingerprint();
                }
                Err(e) => {
                    refused += 1;
                    let typed = matches!(e, ProtocolError::Domain { role: "checkpoint", .. });
                    assert!(typed, "input {i} mutation {k}: {e}");
                    assert_eq!(
                        target.snapshot().fingerprint(),
                        fingerprint,
                        "input {i} mutation {k}: a refused restore changed the engine"
                    );
                }
            }
        }
    }
    // Every outcome is reached, so the fuzzer cannot pass vacuously.
    let outcomes = (undecodable, restored, refused);
    assert!(undecodable > 0 && restored > 0 && refused > 0, "outcomes {outcomes:?}");
}
