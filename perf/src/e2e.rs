//! The untraced pass: the seven end-to-end metrics of one workload.
//!
//! One warm-up round under `seed + 1` (discarded; it also proves the seed
//! reaches the program), then timed rounds until `seconds` have passed.
//! A round sets up and runs each of the workload's four problems once — a
//! side problem as its fixed batch of back-to-back runs — so every metric,
//! set-up time and peak memory included, gets one sample per round, and a
//! slow stretch of the host lands on every metric alike. Each metric is
//! summarised over the rounds (`stats::Summary`).

use std::hint::black_box;
use std::time::Instant;

use psa_runtime::BalanceMode;

use crate::pass::{pframes, Pass};
use crate::stats::median;
use crate::workloads::{Workload, CALCULATORS};

/// Timed rounds however short the run.
const MIN_ROUNDS: usize = 2;
/// Particles the two last-frame populations may differ by at toy size,
/// where the relative tolerance is a particle or two.
const ALIVE_SLACK: f64 = 12.0;
/// States whose hash covers particle bits or full reports — these must
/// change when the seed does. (The sequential state is per-frame counts,
/// which two seeds may share on a small scene.)
const SEEDED: [&str; 3] = ["threaded", "desim", "pool"];

#[derive(Default)]
struct Samples {
    threaded_rate: Vec<f64>,
    sequential_rate: Vec<f64>,
    frame_ms: Vec<f64>,
    sim_frame_ms: Vec<f64>,
    sessions_rate: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    /// Wall seconds of a round's timed calls, per path: threaded,
    /// sequential, event-driven, pool.
    path_s: [Vec<f64>; 4],
    last_alive: Option<(u64, u64)>,
}

/// One round. Its set-up time is everything that happens before a timed
/// call: scene, config and sink of the threaded and the sequential problem,
/// `EventSim::new`, and `SessionManager::new` with every `admit`.
fn round(w: &Workload, seed: u64, rss_per_round: bool, pass: &mut Pass, s: &mut Samples) {
    if rss_per_round {
        reset_peak_rss();
    }
    let t0 = Instant::now();
    let (scene, cfg, sink) = black_box((w.threaded.scene(), w.threaded.run_cfg(seed), w.sink()));
    let mut setup = t0.elapsed().as_secs_f64();
    let (mut wall, mut done) = (0.0, 0u64);
    let mut frame_ms = Vec::new();
    let mut threaded_alive = None;
    for _ in 0..w.threaded.runs {
        let Some((t, report)) =
            pass.threaded("threaded", &scene, &cfg, CALCULATORS, sink.clone(), false)
        else {
            continue;
        };
        wall += t;
        done += pframes(&report);
        // Frame 0 carries the pre-population burst and the first frames the
        // balancer's convergence; the steady three quarters are pooled.
        let steady = report.frames.iter().filter(|f| f.frame >= cfg.frames / 4);
        frame_ms.extend(steady.map(|f| f.frame_time * 1e3));
        threaded_alive = report.frames.last().map(|f| f.alive);
    }
    s.threaded_rate.push(done as f64 / wall);
    s.frame_ms.push(median(&frame_ms));
    s.path_s[0].push(wall);
    drop((scene, sink));

    let t0 = Instant::now();
    let (scene, cfg) = black_box((w.sequential.scene(), w.sequential.run_cfg(seed)));
    setup += t0.elapsed().as_secs_f64();
    let (mut wall, mut done) = (0.0, 0u64);
    let mut sequential_alive = None;
    for _ in 0..w.sequential.runs {
        let (t, report) = pass.sequential("sequential", &scene, &cfg);
        wall += t;
        done += pframes(&report);
        sequential_alive = report.frames.last().map(|f| f.alive);
    }
    s.sequential_rate.push(done as f64 / wall);
    s.path_s[1].push(wall);
    s.last_alive = threaded_alive.zip(sequential_alive);
    drop(scene);

    let t0 = Instant::now();
    let mut sim = black_box(w.desim.sim(seed, w.sim_ranks, BalanceMode::dynamic()));
    setup += t0.elapsed().as_secs_f64();
    let mut wall = 0.0;
    for _ in 0..w.desim.runs {
        if let Some((t, ..)) = pass.desim("desim", &mut sim, w.desim.sim_reported_frames()) {
            wall += t;
        }
    }
    s.sim_frame_ms.push(wall * 1e3 / (w.desim.runs as u64 * w.desim.frames) as f64);
    s.path_s[2].push(wall);
    drop(sim);

    let (admit, wall, report) = pass.pool("pool", w, seed, 0);
    s.sessions_rate.push(report.completed() as f64 / wall);
    s.path_s[3].push(wall);
    s.setup_s.push(setup + admit);
    if rss_per_round {
        s.peak_rss_mb.extend(peak_rss_mb());
    }
}

/// Make the kernel forget this process's peak resident set, so the next
/// [`peak_rss_mb`] reads the peak since now. `false` where `/proc` refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MB — the peak resident set since the last
/// reset.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Pass {
    let mut pass = Pass { peak_rss_per_round: reset_peak_rss(), ..Pass::default() };
    if !pass.peak_rss_per_round {
        println!(
            "# WARNING: /proc/self/clear_refs refused: peak_rss_mb is one sample, the peak \
             since the process started, and not comparable with a per-round peak"
        );
    }

    // Warm-up: fills caches and the allocator, and runs under another seed
    // so the gates below can tell the seed took effect.
    let mut warm = Pass::default();
    round(w, seed.wrapping_add(1), false, &mut warm, &mut Samples::default());

    let mut samples = Samples::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        round(w, seed, pass.peak_rss_per_round, &mut pass, &mut samples);
        rounds += 1;
    }
    if !pass.peak_rss_per_round {
        samples.peak_rss_mb.extend(peak_rss_mb());
    }
    let [threaded, sequential, desim, pool] = samples.path_s.each_ref().map(|s| median(s) * 1e3);
    println!(
        "# a round's timed calls (median of {rounds}): threaded {threaded:.1} ms, sequential \
         {sequential:.1} ms, event-driven {desim:.1} ms, pool {pool:.1} ms"
    );

    // Where the parallel and the sequential executor animate the same scene
    // their action streams are keyed by rank, so populations agree
    // statistically, not bit for bit (no golden constants: a fix to that
    // keying is allowed to close this gap, not to widen it).
    if let Some((threaded, sequential)) = samples.last_alive.filter(|_| w.threaded == w.sequential)
    {
        let gap = threaded.abs_diff(sequential) as f64;
        pass.check(gap <= (1e-3 * sequential as f64).max(ALIVE_SLACK), || {
            format!("last-frame alive: threaded {threaded}, sequential {sequential}")
        });
    }
    for label in SEEDED {
        let (a, b) = (pass.states.get(label), warm.states.get(label));
        pass.check(a.is_some() && a != b, || {
            format!("{label}: seed {seed} and seed + 1 produced the same state")
        });
    }
    pass.attempted += warm.attempted;
    pass.failed += warm.failed;
    pass.failures.append(&mut warm.failures);

    pass.timing("setup_s", &samples.setup_s, 1.0);
    pass.timing("pframes_per_s", &samples.threaded_rate, 1.0);
    pass.timing("seq_pframes_per_s", &samples.sequential_rate, 1.0);
    pass.timing("frame_ms_p50", &samples.frame_ms, 1.0);
    pass.timing("sim_frame_ms", &samples.sim_frame_ms, 1.0);
    pass.timing("sessions_per_s", &samples.sessions_rate, 1.0);
    pass.timing("peak_rss_mb", &samples.peak_rss_mb, 1.0);
    pass
}
