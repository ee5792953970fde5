// A clean trace-recorder file, mirroring `psa-trace`: dense Vec storage
// (no hash maps), virtual timings passed in as plain numbers, and the one
// legitimate wall-clock epoch for the threaded executor, which no phase
// entry reaches. Must produce zero violations.

use std::time::Instant;

/// Wall epoch for threaded-executor phase marks. The reading never feeds
/// virtual time; it only labels a measurement as wall-clock derived.
pub struct WallEpoch {
    start: Instant,
}

impl WallEpoch {
    pub fn begin() -> Self {
        WallEpoch { start: Instant::now() }
    }

    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Per-rank per-phase accumulator: dense, ordered, deterministic.
pub struct PhaseRows {
    rows: Vec<[f64; 6]>,
}

impl PhaseRows {
    pub fn new(ranks: usize) -> Self {
        PhaseRows { rows: vec![[0.0; 6]; ranks] }
    }

    /// `seconds` comes from the caller's clock (virtual or annotated wall);
    /// the recorder itself never reads any clock.
    pub fn charge(&mut self, rank: usize, phase: usize, seconds: f64) {
        self.rows[rank][phase] += seconds.max(0.0);
    }

    pub fn totals(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        for row in &self.rows {
            for (acc, v) in out.iter_mut().zip(row.iter()) {
                *acc += v;
            }
        }
        out
    }
}
