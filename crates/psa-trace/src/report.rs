//! The finished trace: per-frame, per-rank, per-phase timings plus
//! counters, with table formatting and a hand-rolled JSON export (the
//! workspace is offline; external serializers are intentionally absent).

use crate::clock::ClockKind;
use crate::phase::{PHASES, PHASE_COUNT};
use crate::recorder::{Counter, FaultEvent, COUNTERS, COUNTER_COUNT};

/// Event counters for one frame, summed over all ranks: one cell per
/// [`Counter`], read with [`FrameCounters::get`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCounters([u64; COUNTER_COUNT]);

impl FrameCounters {
    /// The count of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0.get(counter as usize).copied().unwrap_or(0)
    }

    pub(crate) fn add(&mut self, counter: Counter, n: u64) {
        if let Some(cell) = self.0.get_mut(counter as usize) {
            *cell += n;
        }
    }

    fn merge(&mut self, other: &FrameCounters) {
        for c in COUNTERS {
            self.add(c, other.get(c));
        }
    }
}

/// One frame's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameTrace {
    /// Frame number.
    pub frame: u64,
    /// Seconds spent per rank (outer) per phase (inner, [`crate::Phase::index`]).
    pub rank_phase: Vec<[f64; PHASE_COUNT]>,
    /// Event counters for the frame.
    pub counters: FrameCounters,
}

impl FrameTrace {
    /// A zeroed trace for `frame` covering `ranks` ranks.
    pub fn empty(frame: u64, ranks: usize) -> Self {
        FrameTrace {
            frame,
            rank_phase: vec![[0.0; PHASE_COUNT]; ranks],
            counters: FrameCounters::default(),
        }
    }

    /// Seconds per phase summed over ranks.
    pub fn phase_totals(&self) -> [f64; PHASE_COUNT] {
        let mut out = [0.0; PHASE_COUNT];
        for rp in &self.rank_phase {
            for (acc, v) in out.iter_mut().zip(rp.iter()) {
                *acc += v;
            }
        }
        out
    }
}

/// Largest rank count that still gets one table row per rank; above this
/// the per-rank view collapses to min/median/max per phase.
pub const RANK_DETAIL_LIMIT: usize = 16;

/// The complete per-phase trace of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Which clock produced the timings.
    pub clock: ClockKind,
    /// Ranks covered (calculators + manager + image generator).
    pub ranks: usize,
    /// Dense per-frame measurements, `frames[k].frame == k`.
    pub frames: Vec<FrameTrace>,
    /// Injected-fault observations, in recording order.
    pub faults: Vec<FaultEvent>,
}

impl TraceReport {
    /// Seconds per phase summed over every frame and rank.
    pub fn phase_totals(&self) -> [f64; PHASE_COUNT] {
        let mut out = [0.0; PHASE_COUNT];
        for f in &self.frames {
            for (acc, v) in out.iter_mut().zip(f.phase_totals().iter()) {
                *acc += v;
            }
        }
        out
    }

    /// Counters summed over every frame.
    pub fn counter_totals(&self) -> FrameCounters {
        let mut out = FrameCounters::default();
        for f in &self.frames {
            out.merge(&f.counters);
        }
        out
    }

    /// Merge per-role traces from the threaded executor into one report.
    ///
    /// Every input must cover the same rank count and clock; timings and
    /// counters are summed element-wise (each role only wrote its own
    /// rank's rows, so summation is disjoint), fault events concatenated.
    /// Returns `None` on an empty input or mismatched shapes.
    pub fn merge(parts: &[TraceReport]) -> Option<TraceReport> {
        let first = parts.first()?;
        let (clock, ranks) = (first.clock, first.ranks);
        if parts.iter().any(|p| p.clock != clock || p.ranks != ranks) {
            return None;
        }
        let n_frames = parts.iter().map(|p| p.frames.len()).max().unwrap_or(0);
        let mut frames: Vec<FrameTrace> =
            (0..n_frames).map(|f| FrameTrace::empty(f as u64, ranks)).collect();
        let mut faults = Vec::new();
        for p in parts {
            for (dst, f) in frames.iter_mut().zip(p.frames.iter()) {
                for (dr, sr) in dst.rank_phase.iter_mut().zip(f.rank_phase.iter()) {
                    for (d, s) in dr.iter_mut().zip(sr.iter()) {
                        *d += s;
                    }
                }
                dst.counters.merge(&f.counters);
            }
            faults.extend_from_slice(&p.faults);
        }
        faults.sort_by_key(|e| (e.frame, e.rank));
        Some(TraceReport { clock, ranks, frames, faults })
    }

    /// Seconds per phase summed over every frame, kept per rank.
    fn rank_totals(&self) -> Vec<[f64; PHASE_COUNT]> {
        let mut out = vec![[0.0; PHASE_COUNT]; self.ranks];
        for f in &self.frames {
            for (acc, rp) in out.iter_mut().zip(f.rank_phase.iter()) {
                for (a, v) in acc.iter_mut().zip(rp.iter()) {
                    *a += v;
                }
            }
        }
        out
    }

    /// A fixed-width per-phase breakdown table (totals over all frames,
    /// share of the summed phase time, mean per frame), followed by a
    /// per-rank view: one row per rank up to [`RANK_DETAIL_LIMIT`] ranks,
    /// a min/median/max spread per phase beyond that (a 1,024-rank run
    /// must summarize, not print a thousand rows).
    pub fn format_table(&self) -> String {
        let totals = self.phase_totals();
        let grand: f64 = totals.iter().sum();
        let nf = self.frames.len().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "phase breakdown ({} clock, {} frames, {} ranks)\n",
            self.clock.name(),
            self.frames.len(),
            self.ranks
        ));
        out.push_str(&format!(
            "{:<12} {:>12} {:>8} {:>12}\n",
            "phase", "total_s", "share", "per_frame_s"
        ));
        for (p, t) in PHASES.iter().zip(totals.iter().copied()) {
            let share = if grand > 0.0 { t / grand * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "{:<12} {:>12.6} {:>7.1}% {:>12.6}\n",
                p.name(),
                t,
                share,
                t / nf
            ));
        }
        let per_rank = self.rank_totals();
        if self.ranks <= RANK_DETAIL_LIMIT {
            // Small runs: one row per rank, rank column sized to the count.
            let w = self.ranks.saturating_sub(1).max(1).ilog10() as usize + 1;
            let w = w.max(4);
            out.push_str(&format!("{:>w$}", "rank", w = w));
            for p in PHASES {
                out.push_str(&format!(" {:>12}", p.name()));
            }
            out.push('\n');
            for (r, rp) in per_rank.iter().enumerate() {
                out.push_str(&format!("{r:>w$}"));
                for t in rp {
                    out.push_str(&format!(" {t:>12.6}"));
                }
                out.push('\n');
            }
        } else {
            // Large runs: spread per phase instead of a row per rank.
            out.push_str(&format!("per-rank spread over {} ranks\n", self.ranks));
            out.push_str(&format!(
                "{:<12} {:>12} {:>12} {:>12}\n",
                "phase", "min_s", "median_s", "max_s"
            ));
            for (i, p) in PHASES.iter().enumerate() {
                let mut col: Vec<f64> =
                    per_rank.iter().map(|rp| rp.get(i).copied().unwrap_or(0.0)).collect();
                col.sort_by(f64::total_cmp);
                let min = col.first().copied().unwrap_or(0.0);
                let max = col.last().copied().unwrap_or(0.0);
                let mid = col.len() / 2;
                let hi_mid = col.get(mid).copied().unwrap_or(0.0);
                let median = if col.len() % 2 == 1 {
                    hi_mid
                } else {
                    (col.get(mid.wrapping_sub(1)).copied().unwrap_or(hi_mid) + hi_mid) / 2.0
                };
                out.push_str(&format!(
                    "{:<12} {:>12.6} {:>12.6} {:>12.6}\n",
                    p.name(),
                    min,
                    median,
                    max
                ));
            }
        }
        let c = self.counter_totals();
        out.push_str("counters:");
        for k in COUNTERS {
            out.push_str(&format!(" {} {},", c.get(k), k.name()));
        }
        out.push_str(&format!(" {} faults\n", self.faults.len()));
        out
    }

    /// Hand-rolled JSON export. Keys are stable; floats are emitted with
    /// `{:e}` precision-preserving formatting so the file round-trips.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"clock\": \"{}\",\n", self.clock.name()));
        s.push_str(&format!("  \"ranks\": {},\n", self.ranks));
        let totals = self.phase_totals();
        s.push_str("  \"phase_totals\": {");
        for (i, (p, t)) in PHASES.iter().zip(totals.iter().copied()).enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", p.name(), json_f64(t)));
        }
        s.push_str("},\n");
        s.push_str("  \"frames\": [\n");
        for (i, f) in self.frames.iter().enumerate() {
            s.push_str(&format!("    {{\"frame\": {}, \"phases\": {{", f.frame));
            let pt = f.phase_totals();
            for (j, (p, t)) in PHASES.iter().zip(pt.iter().copied()).enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {}", p.name(), json_f64(t)));
            }
            s.push('}');
            for k in COUNTERS {
                s.push_str(&format!(", \"{}\": {}", k.name(), f.counters.get(k)));
            }
            s.push_str(if i + 1 < self.frames.len() { "},\n" } else { "}\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"faults\": [");
        for (i, e) in self.faults.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"frame\": {}, \"rank\": {}, \"kind\": \"{}\"}}",
                e.frame,
                e.rank,
                e.kind.name()
            ));
        }
        s.push_str("]\n");
        s.push('}');
        s
    }
}

/// JSON-safe float formatting: finite values print shortest-round-trip,
/// non-finite values become `null` (JSON has no NaN/Infinity).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::recorder::{FaultKind, Recorder};

    fn sample() -> TraceReport {
        let mut r = Recorder::enabled(3, ClockKind::Virtual);
        r.phase(0, 0, Phase::Compute, 2.0);
        r.phase(0, 1, Phase::Compute, 1.0);
        r.phase(0, 2, Phase::Render, 0.5);
        r.phase(1, 0, Phase::Exchange, 0.25);
        r.add(1, Counter::Messages, 4);
        r.add(1, Counter::BalanceSkips, 6);
        r.finish().expect("enabled")
    }

    #[test]
    fn phase_totals_sum_ranks_and_frames() {
        let rep = sample();
        let t = rep.phase_totals();
        assert_eq!(t[Phase::Compute.index()], 3.0);
        assert_eq!(t[Phase::Exchange.index()], 0.25);
        assert_eq!(t[Phase::Render.index()], 0.5);
        assert_eq!(rep.counter_totals().get(Counter::Messages), 4);
        assert_eq!(rep.counter_totals().get(Counter::BalanceSkips), 6);
    }

    #[test]
    fn merge_sums_disjoint_roles() {
        let mut a = Recorder::enabled(2, ClockKind::Wall);
        a.phase(0, 0, Phase::Compute, 1.0);
        a.fault(0, 0, FaultKind::Crash);
        let mut b = Recorder::enabled(2, ClockKind::Wall);
        b.phase(0, 1, Phase::Ship, 2.0);
        b.phase(1, 1, Phase::Ship, 3.0);
        let merged =
            TraceReport::merge(&[a.finish().unwrap(), b.finish().unwrap()]).expect("same shape");
        assert_eq!(merged.frames.len(), 2);
        assert_eq!(merged.frames[0].rank_phase[0][Phase::Compute.index()], 1.0);
        assert_eq!(merged.frames[0].rank_phase[1][Phase::Ship.index()], 2.0);
        assert_eq!(merged.frames[1].rank_phase[1][Phase::Ship.index()], 3.0);
        assert_eq!(merged.faults.len(), 1);
    }

    #[test]
    fn merge_rejects_mismatched_shapes() {
        let a = Recorder::enabled(2, ClockKind::Wall).finish().unwrap();
        let b = Recorder::enabled(3, ClockKind::Wall).finish().unwrap();
        assert!(TraceReport::merge(&[a, b]).is_none());
        assert!(TraceReport::merge(&[]).is_none());
    }

    #[test]
    fn table_mentions_every_phase() {
        let table = sample().format_table();
        for p in PHASES {
            assert!(table.contains(p.name()), "missing {}", p.name());
        }
    }

    #[test]
    fn small_runs_get_one_row_per_rank() {
        let table = sample().format_table();
        assert!(table.contains("rank"), "per-rank header missing:\n{table}");
        assert!(!table.contains("per-rank spread"), "3 ranks must not summarize");
        // One line per rank plus headers/counters — nothing exploded.
        for r in 0..3 {
            assert!(
                table.lines().any(|l| l.trim_start().starts_with(&r.to_string())),
                "no row for rank {r}:\n{table}"
            );
        }
    }

    #[test]
    fn large_runs_summarize_instead_of_exploding() {
        // A 1,024-rank instrumented run: the table must collapse the
        // per-rank view to min/median/max and stay bounded in size.
        let ranks = 1024;
        let mut rec = Recorder::enabled(ranks, ClockKind::Virtual);
        for r in 0..ranks {
            rec.phase(0, r, Phase::Compute, 1.0 + r as f64);
        }
        let table = rec.finish().unwrap().format_table();
        assert!(table.contains("per-rank spread over 1024 ranks"), "{table}");
        for col in ["min_s", "median_s", "max_s"] {
            assert!(table.contains(col), "missing {col}:\n{table}");
        }
        // min 1.0, median (1+511.5+1)=512.5... with 1024 samples the median
        // of 1..=1024 is (512+513)/2 = 512.5; max 1024.
        assert!(table.contains("1024.000000"), "max wrong:\n{table}");
        assert!(table.contains("512.500000"), "median wrong:\n{table}");
        let lines = table.lines().count();
        assert!(lines < 40, "table exploded to {lines} lines");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"clock\": \"virtual\""));
        assert!(j.contains("\"phase_totals\""));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn json_floats_never_emit_nan() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
