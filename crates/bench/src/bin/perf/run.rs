//! The measured (untraced) run: warm-up, then rounds of saturate →
//! lone caller → cold cycles against one long-lived net, every phase
//! bracketed by host-speed probes.
//!
//! This host serves a vCPU at speeds that differ by a factor of up to
//! 1.8 and change every second or so (README, "Host speed"): for the
//! same work `serve-sudoku` completes 9 500 or 16 500 operations a
//! second, and whole runs land on one side or the other. What does not
//! move is a phase's cost *relative to the workload's own sequential
//! reference run at the same moment*: ten runs whose raw medians
//! spread by 42 % agree within 1 % once each round is divided by the
//! probes around it. So a run is many short rounds, every phase sits
//! between two probes, each round's values are brought to the
//! workload's nominal host speed, and a metric is the median over the
//! rounds.

use crate::cold;
use crate::host;
use crate::load::{self, Conn, Counts, SatRound};
use crate::stats;
use crate::workloads::{plain, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a run's time is laid out.
#[derive(Clone, Debug)]
pub struct Plan {
    pub rounds: usize,
    /// Timed part of a round's saturate phase.
    pub sat: Duration,
    /// Length of a round's lone-caller phase.
    pub alone: Duration,
    /// Shortest a host-speed probe may be; it always makes whole passes
    /// over the workload's cases.
    pub probe: Duration,
    /// Cold cycles per round; `None` takes the workload's own count.
    pub cold_cycles: Option<usize>,
    pub warm_ops: u64,
    pub warm_limit: Duration,
}

impl Plan {
    /// The layout for `--seconds s`: 40 rounds, each saturating for
    /// s/80 and calling alone for s/200 — 0.25 s and 0.1 s at the 20 s
    /// the benchmark runs at: half the time saturating, a fifth calling
    /// alone, the rest probes, cold cycles, ramps and warm-up.
    ///
    /// Short phases because the host's speed holds for about a second:
    /// a phase much longer than that straddles a change the probes on
    /// either side of it cannot see.
    pub fn for_seconds(s: f64) -> Plan {
        Plan {
            rounds: 40,
            sat: Duration::from_secs_f64(s / 80.0),
            alone: Duration::from_secs_f64(s / 200.0),
            probe: Duration::from_millis(10),
            cold_cycles: None,
            warm_ops: 2000,
            warm_limit: Duration::from_secs_f64(s * 0.04),
        }
    }

    /// A sub-second pass with every phase and oracle on.
    pub fn smoke() -> Plan {
        Plan {
            rounds: 1,
            sat: Duration::from_millis(20),
            alone: Duration::from_millis(20),
            probe: Duration::from_millis(1),
            cold_cycles: Some(2),
            warm_ops: 16,
            warm_limit: Duration::from_millis(50),
        }
    }
}

/// One host-speed probe: whole passes over the workload's cases
/// through its sequential reference, on the loader thread, while the
/// net is idle. Microseconds per case.
///
/// The workload's own reference, not a fixed kernel: what the host
/// takes away depends on the instruction mix (an ALU chain does not
/// see it at all, a pointer chase and a float loop see different
/// amounts), and only code shaped like the workload's tracks the
/// workload.
pub fn probe_us(w: &Workload, at_least: Duration) -> f64 {
    let t = Instant::now();
    let mut cases = 0u64;
    loop {
        for case in &w.cases {
            std::hint::black_box((w.reference)(&case.request));
        }
        cases += w.cases.len() as u64;
        if t.elapsed() >= at_least {
            return t.elapsed().as_secs_f64() * 1e6 / cases as f64;
        }
    }
}

/// Runs `f` between two probes: its result and how much slower than
/// the workload's nominal speed the host ran meanwhile.
pub fn with_slowdown<R>(w: &Workload, probe: Duration, f: impl FnOnce() -> R) -> (R, f64) {
    let before = probe_us(w, probe);
    let r = f();
    (r, (before + probe_us(w, probe)) / 2.0 / w.ref_us)
}

/// One round: the three phases and the four probes around them.
pub struct Round {
    /// The saturate phase, without its latency samples (they are
    /// harness memory, and `peak_rss_mb` is about the program's).
    pub sat: SatRound,
    /// Median submit → completion stamp of the saturate phase, µs.
    pub sat_p50_us: f64,
    /// Median round trip of the lone-caller phase, µs.
    pub alone_p50_us: f64,
    pub cold_s: Vec<f64>,
    /// µs per reference case before the saturate phase, between it and
    /// the lone-caller phase, after that, after the cold cycles.
    pub probes_us: [f64; 4],
}

impl Round {
    /// How much slower than the workload's nominal speed the host ran
    /// during phase `k` (0 saturate, 1 lone caller, 2 cold cycles): the mean
    /// of the two probes around it over `Workload::ref_us`.
    fn slowdown(&self, k: usize, w: &Workload) -> f64 {
        (self.probes_us[k] + self.probes_us[k + 1]) / 2.0 / w.ref_us
    }
}

/// Everything one measured run observed.
pub struct Measured {
    pub counts: Counts,
    pub rounds: Vec<Round>,
    /// `Metrics::snapshot` of the long-lived net at the end.
    pub snapshot: BTreeMap<String, u64>,
    /// What taking that snapshot cost, µs.
    pub snapshot_us: f64,
    pub peak_rss_mb: f64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
}

/// One end-to-end value per round, as measured (`raw`) and brought to
/// the workload's nominal host speed (`at_nominal`).
pub struct PerRound {
    pub raw: Vec<f64>,
    pub at_nominal: Vec<f64>,
}

impl PerRound {
    /// `value(round)` with the slowdown of phase `k`; a rate is
    /// multiplied by it, a time divided.
    fn of(m: &Measured, w: &Workload, k: usize, rate: bool, value: impl Fn(&Round) -> f64) -> Self {
        let raw: Vec<f64> = m.rounds.iter().map(&value).collect();
        let at_nominal = m
            .rounds
            .iter()
            .zip(&raw)
            .map(|(r, v)| {
                let s = r.slowdown(k, w);
                if rate {
                    v * s
                } else {
                    v / s
                }
            })
            .collect();
        PerRound { raw, at_nominal }
    }

    /// The metric: the median round at nominal host speed.
    pub fn value(&self) -> f64 {
        stats::median(&mut self.at_nominal.clone())
    }

    pub fn raw_median(&self) -> f64 {
        stats::median(&mut self.raw.clone())
    }
}

impl Measured {
    /// Operations completed per second of the saturate phase.
    pub fn throughput_ops_s(&self, w: &Workload) -> PerRound {
        PerRound::of(self, w, 0, true, |r| r.sat.seg_rates[0])
    }

    /// Process CPU per operation completed in the saturate phase, µs.
    pub fn cpu_us_per_op(&self, w: &Workload) -> PerRound {
        PerRound::of(self, w, 0, false, |r| {
            r.sat.usage.cpu_us() / r.sat.ops.max(1) as f64
        })
    }

    /// Median round trip of a lone caller, µs.
    pub fn latency_p50_us(&self, w: &Workload) -> PerRound {
        PerRound::of(self, w, 1, false, |r| r.alone_p50_us)
    }

    /// Median submit → completion stamp with a window in flight, µs.
    pub fn sat_p50_us(&self, w: &Workload) -> PerRound {
        PerRound::of(self, w, 0, false, |r| r.sat_p50_us)
    }

    /// Median cold cycle, seconds.
    pub fn setup_s(&self, w: &Workload) -> PerRound {
        PerRound::of(self, w, 2, false, |r| stats::median(&mut r.cold_s.clone()))
    }

    /// Every probe of the run over the nominal: 1.0 is the speed the
    /// metrics are stated at, 0.6 a host running 1.7 times faster.
    pub fn slowdowns(&self, w: &Workload) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.probes_us.iter().map(|p| p / w.ref_us))
            .collect()
    }

    pub fn sat_ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.sat.ops).sum()
    }

    pub fn sat_usage(&self) -> host::Usage {
        let mut u = host::Usage::default();
        for r in &self.rounds {
            u.add(&r.sat.usage);
        }
        u
    }
}

/// One measured run of `w` under `plan`, in the default
/// configuration, box functions unwrapped.
pub fn measure(w: &Workload, plan: &Plan) -> Measured {
    let calib_before_ms = host::calib_ms();
    let mut counts = Counts::default();
    let mut rounds = Vec::new();
    let ((snapshot, snapshot_us, cold_failed), extra) = load::with_door(
        w,
        &plain,
        |b| b,
        |c: &mut dyn Conn, metrics| {
            let mut next = 0u64;
            // Cold cycles number their requests apart from the long-lived
            // net's, whose responses must stay consecutive.
            let mut cold_next = 1 << 40;
            let mut cold_failed = 0;
            load::warm_up(c, w, &mut next, plan.warm_ops, plan.warm_limit, &mut counts);
            let mut before = probe_us(w, plan.probe);
            for _ in 0..plan.rounds {
                let mut sat = load::saturate(c, w, &mut next, 1, plan.sat, &mut counts);
                let after_sat = probe_us(w, plan.probe);
                let sat_p50_us = stats::median(&mut std::mem::take(&mut sat.lat_us));
                let mut alone = load::unloaded(
                    c,
                    w,
                    &mut next,
                    plan.alone,
                    load::SAMPLES as u64,
                    &mut counts,
                );
                let after_alone = probe_us(w, plan.probe);
                let (cold_s, failed) =
                    cold::batch(w, &mut cold_next, plan.cold_cycles.unwrap_or(w.cold_cycles));
                counts.attempted += cold_s.len() as u64;
                cold_failed += failed;
                let after_cold = probe_us(w, plan.probe);
                rounds.push(Round {
                    sat,
                    sat_p50_us,
                    alone_p50_us: stats::median(&mut alone),
                    cold_s,
                    probes_us: [before, after_sat, after_alone, after_cold],
                });
                before = after_cold;
            }
            let t = Instant::now();
            let snapshot = metrics.snapshot();
            (snapshot, t.elapsed().as_secs_f64() * 1e6, cold_failed)
        },
    );
    // A record nobody asked for is a failed operation too.
    counts.failed += cold_failed + extra;
    Measured {
        counts,
        rounds,
        snapshot,
        snapshot_us,
        peak_rss_mb: host::peak_rss_mb(),
        calib_before_ms,
        calib_after_ms: host::calib_ms(),
    }
}
