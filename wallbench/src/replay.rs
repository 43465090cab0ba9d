//! Stage-by-stage replay timing for the traced run.
//!
//! The traced run replays a workload's steps from the benchmark's own
//! code and times each public call into a layer. Every replayed unit (a
//! training step, an engine round, a server batch) records its whole
//! wall time and each stage's; the time outside the timed calls is
//! reported as `step.unattributed_ms`, so the stage means plus the
//! unattributed mean equal the mean whole unit. The same replay also runs
//! with its clock off, which gives the tracing overhead.

use crate::report::Metrics;
use crate::stats::mean;
use std::time::Instant;

/// A timed stage: a public call into one layer. The discriminant indexes
/// [`STAGE_METRICS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `NodeWiseSampler::sample`.
    Sample,
    /// `PartitionedFeatureStore::plan`.
    Plan,
    /// The owners' `PartitionedFeatureStore::serve`.
    Serve,
    /// Feature gather into the model input.
    Gather,
    /// Forward pass (with the loss, when training).
    Forward,
    /// `Tape::backward`.
    Backward,
    /// Gradient accumulation and `Adam::step`.
    Optimizer,
}

/// Per-layer metric of each [`Stage`], in declaration order.
const STAGE_METRICS: [&str; 7] = [
    "sampler.sample_ms",
    "store.plan_ms",
    "store.serve_ms",
    "store.gather_ms",
    "gnn.forward_ms",
    "gnn.backward_ms",
    "gnn.optimizer_ms",
];

/// Clock for one replayed unit. With `on == false` every `time` call
/// runs its closure untouched, so the untraced replay does the same work
/// without reading the clock.
pub struct UnitClock {
    on: bool,
    start: Instant,
    stage_s: [f64; STAGE_METRICS.len()],
}

impl UnitClock {
    /// Starts a unit.
    pub fn start(on: bool) -> Self {
        Self {
            on,
            start: Instant::now(),
            stage_s: [0.0; STAGE_METRICS.len()],
        }
    }

    /// Runs `f` as (part of) `stage`.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.stage_s[stage as usize] += t.elapsed().as_secs_f64();
        out
    }
}

/// Per-unit records of a traced replay.
#[derive(Default)]
pub struct Replay {
    stage_ms: [Vec<f64>; STAGE_METRICS.len()],
    used: [bool; STAGE_METRICS.len()],
    whole_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    mfg_nodes: Vec<f64>,
}

impl Replay {
    /// Closes a unit whose MFG had `mfg_nodes` nodes.
    pub fn finish(&mut self, clock: UnitClock, mfg_nodes: usize) {
        if !clock.on {
            return;
        }
        let whole = clock.start.elapsed().as_secs_f64() * 1e3;
        let mut attributed = 0.0;
        for (i, &s) in clock.stage_s.iter().enumerate() {
            let ms = s * 1e3;
            if ms > 0.0 {
                self.used[i] = true;
            }
            self.stage_ms[i].push(ms);
            attributed += ms;
        }
        self.whole_ms.push(whole);
        self.unattributed_ms.push(whole - attributed);
        self.mfg_nodes.push(mfg_nodes as f64);
    }

    /// Units recorded.
    pub fn units(&self) -> usize {
        self.whole_ms.len()
    }

    /// Mean whole unit, ms.
    pub fn whole_mean_ms(&self) -> f64 {
        mean(&self.whole_ms)
    }

    /// Writes the stage means (only stages the workload calls), the
    /// unattributed and whole means and the mean MFG size.
    pub fn emit(&self, m: &mut Metrics) {
        for (i, &name) in STAGE_METRICS.iter().enumerate() {
            if self.used[i] {
                m.set(name, mean(&self.stage_ms[i]));
            }
        }
        m.set("step.unattributed_ms", mean(&self.unattributed_ms));
        m.set("step.whole_ms", self.whole_mean_ms());
        m.set("sampler.mfg_nodes", mean(&self.mfg_nodes));
    }

    /// Whether the stage means plus the unattributed mean give the whole
    /// mean (to rounding).
    pub fn sums_to_whole(&self) -> bool {
        let parts: f64 =
            self.stage_ms.iter().map(|v| mean(v)).sum::<f64>() + mean(&self.unattributed_ms);
        let whole = self.whole_mean_ms();
        (parts - whole).abs() <= 1e-9 * whole.max(1.0)
    }
}

/// Alternates untraced and traced passes over the same work until
/// `budget_s` is spent (at least `min_pairs` pairs), and returns the
/// tracing overhead in percent: median traced pass over median untraced
/// pass, minus one. `pass(on)` runs one full pass with the clock on or
/// off.
pub fn overhead_pct(budget_s: f64, min_pairs: usize, mut pass: impl FnMut(bool)) -> f64 {
    let start = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while off.len() < min_pairs || start.elapsed().as_secs_f64() < budget_s {
        for (traced, times) in [(false, &mut off), (true, &mut on)] {
            let t = Instant::now();
            pass(traced);
            times.push(t.elapsed().as_secs_f64());
        }
    }
    let base = crate::stats::median(&off);
    100.0 * (crate::stats::median(&on) / base - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_and_unattributed_sum_to_whole() {
        let mut r = Replay::default();
        for _ in 0..3 {
            let mut c = UnitClock::start(true);
            c.time(Stage::Sample, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
            c.time(Stage::Forward, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.finish(c, 10);
        }
        assert_eq!(r.units(), 3);
        assert!(r.sums_to_whole());
        let mut m = Metrics::default();
        r.emit(&mut m);
        assert!(m.get("sampler.sample_ms").unwrap() >= 2.0);
        assert!(m.get("step.unattributed_ms").unwrap() >= 1.0);
        assert!(m.get("store.plan_ms").is_none(), "unused stage stays unset");
        assert_eq!(m.get("sampler.mfg_nodes"), Some(10.0));
    }

    #[test]
    fn clock_off_records_nothing() {
        let mut r = Replay::default();
        let mut c = UnitClock::start(false);
        assert_eq!(c.time(Stage::Gather, || 7), 7);
        r.finish(c, 1);
        assert_eq!(r.units(), 0);
    }
}
