//! Trace analyzers: per-kind event accounting, the §3.4.2
//! prediction-accuracy report, and wake-up latency percentiles.

use crate::event::{TraceEvent, TraceEventKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use tb_sim::{OnlineStats, QuantileSketch};

/// How many events of each kind a trace contains.
///
/// These counts are the trace-side mirror of the machine's
/// `BarrierEventCounts`: for a loss-free trace of the same run, each field
/// here equals the corresponding aggregate counter (e.g. `sleep_starts` ==
/// total sleeps, `releases` == episodes), which is exactly what the
/// acceptance tests assert.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceKindCounts {
    /// Early (non-releasing) arrivals.
    pub arrivals: u64,
    /// Releasing (last) arrivals.
    pub last_arrivals: u64,
    /// Usable BIT predictions produced.
    pub predictions: u64,
    /// Sleep entries.
    pub sleep_starts: u64,
    /// Conventional spin entries.
    pub spin_starts: u64,
    /// Dirty-line write-backs before non-snoopable sleeps.
    pub flushes: u64,
    /// Internal-timer wake-ups.
    pub internal_wakes: u64,
    /// Release-invalidation wake-ups.
    pub external_wakes: u64,
    /// Spurious wake-ups.
    pub false_wakes: u64,
    /// Wake-ups early enough to fall into the residual spin.
    pub residual_spins: u64,
    /// Barrier releases (episodes).
    pub releases: u64,
    /// Releases whose predictor update the §3.4.2 filter skipped.
    pub releases_update_skipped: u64,
    /// Departures from the barrier.
    pub departs: u64,
    /// §3.3.3 cut-off trips.
    pub cutoff_disables: u64,
    /// Faults injected by the `tb-faults` layer.
    pub faults_injected: u64,
    /// Guard-timer rescues of threads whose wake-up path failed.
    pub guard_recoveries: u64,
    /// Barrier sites entering predictor quarantine.
    pub quarantine_enters: u64,
    /// Barrier sites leaving predictor quarantine.
    pub quarantine_leaves: u64,
}

impl TraceKindCounts {
    /// Tallies a slice of events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut c = TraceKindCounts::default();
        for ev in events {
            match ev.kind {
                TraceEventKind::Arrival { last: false, .. } => c.arrivals += 1,
                TraceEventKind::Arrival { last: true, .. } => c.last_arrivals += 1,
                TraceEventKind::Prediction { .. } => c.predictions += 1,
                TraceEventKind::SleepStart { .. } => c.sleep_starts += 1,
                TraceEventKind::SpinStart { .. } => c.spin_starts += 1,
                TraceEventKind::Flush { .. } => c.flushes += 1,
                TraceEventKind::InternalWake { .. } => c.internal_wakes += 1,
                TraceEventKind::ExternalWake { .. } => c.external_wakes += 1,
                TraceEventKind::FalseWake { .. } => c.false_wakes += 1,
                TraceEventKind::ResidualSpin { .. } => c.residual_spins += 1,
                TraceEventKind::Release { update_skipped, .. } => {
                    c.releases += 1;
                    if update_skipped {
                        c.releases_update_skipped += 1;
                    }
                }
                TraceEventKind::Depart { .. } => c.departs += 1,
                TraceEventKind::CutoffDisable { .. } => c.cutoff_disables += 1,
                TraceEventKind::FaultInjected { .. } => c.faults_injected += 1,
                TraceEventKind::GuardRecovery { .. } => c.guard_recoveries += 1,
                TraceEventKind::Quarantine { entered: true, .. } => c.quarantine_enters += 1,
                TraceEventKind::Quarantine { entered: false, .. } => c.quarantine_leaves += 1,
            }
        }
        c
    }

    /// Total events tallied.
    pub fn total(&self) -> u64 {
        self.arrivals
            + self.last_arrivals
            + self.predictions
            + self.sleep_starts
            + self.spin_starts
            + self.flushes
            + self.internal_wakes
            + self.external_wakes
            + self.false_wakes
            + self.residual_spins
            + self.releases
            + self.departs
            + self.cutoff_disables
            + self.faults_injected
            + self.guard_recoveries
            + self.quarantine_enters
            + self.quarantine_leaves
    }
}

/// Wake-up latency percentiles (cycles from barrier release to departure).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WakeLatencySummary {
    /// Departures of threads that actually slept this episode.
    pub samples: u64,
    /// Median latency.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Exact worst-case latency.
    pub max: u64,
}

/// Streaming wake-up latency accumulator over `Depart` events.
///
/// Two populations are kept: departures of threads that entered a sleep
/// state during the episode (the population the paper's wake-up-cost
/// argument is about), and all departures.
#[derive(Debug, Clone, Default)]
pub struct WakeLatencyReport {
    /// Latencies of departures preceded by a sleep.
    pub sleepers: QuantileSketch,
    /// Latencies of every departure.
    pub all: QuantileSketch,
}

impl WakeLatencyReport {
    /// Builds the report from a time-ordered event slice.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = WakeLatencyReport::default();
        let mut slept: BTreeMap<u32, bool> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                TraceEventKind::SleepStart { .. } => {
                    slept.insert(ev.thread, true);
                }
                TraceEventKind::Depart { wake_latency, .. } => {
                    report.all.push(wake_latency.as_u64());
                    if slept.insert(ev.thread, false) == Some(true) {
                        report.sleepers.push(wake_latency.as_u64());
                    }
                }
                _ => {}
            }
        }
        report
    }

    /// The sleeper-population percentiles, for embedding in run reports.
    pub fn summary(&self) -> WakeLatencySummary {
        WakeLatencySummary {
            samples: self.sleepers.count(),
            p50: self.sleepers.quantile(0.50).unwrap_or(0.0),
            p95: self.sleepers.quantile(0.95).unwrap_or(0.0),
            p99: self.sleepers.quantile(0.99).unwrap_or(0.0),
            max: self.sleepers.max().unwrap_or(0),
        }
    }
}

/// Compact per-run trace digest embedded in `RunReport` when tracing is on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Events retained by the sink.
    pub events: u64,
    /// Events the sink dropped (ring overflow).
    pub dropped: u64,
    /// Per-kind tallies of the retained events.
    pub counts: TraceKindCounts,
    /// Wake-up latency percentiles over sleeping threads.
    pub wake_latency: WakeLatencySummary,
}

impl TraceSummary {
    /// Digests a drained trace. `dropped` comes from the sink.
    pub fn from_events(events: &[TraceEvent], dropped: u64) -> Self {
        TraceSummary {
            events: events.len() as u64,
            dropped,
            counts: TraceKindCounts::from_events(events),
            wake_latency: WakeLatencyReport::from_events(events).summary(),
        }
    }
}

/// Prediction accuracy at one barrier site (PC).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PcAccuracy {
    /// The barrier site PC.
    pub pc: u64,
    /// Predictions paired with a measured release at this site.
    pub predictions: u64,
    /// Predictions below the measured BIT (the dangerous direction:
    /// §3.4.2's inordinately-long-episode concern).
    pub underpredictions: u64,
    /// Predictions above the measured BIT.
    pub overpredictions: u64,
    /// Relative error distribution `|predicted − measured| / measured`.
    pub rel_error: OnlineStats,
}

/// The §3.4.2 prediction-accuracy report: per-PC error distribution and
/// the underprediction rate, reconstructed from `prediction` and `release`
/// events (paired on `(pc, episode)` — both kinds are emitted by the
/// algorithm with per-site instance numbering).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PredictionAccuracyReport {
    /// Per-site accuracy, ordered by PC.
    pub per_pc: Vec<PcAccuracy>,
    /// Releases whose predictor update the underprediction filter skipped.
    pub skipped_updates: u64,
    /// Predictions with no matching release in the trace (ring overflow
    /// or a truncated run); excluded from the error statistics.
    pub unmatched_predictions: u64,
}

impl PredictionAccuracyReport {
    /// Builds the report from a drained trace.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        // (pc, episode) → measured BIT, from the single release per episode.
        let mut measured: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut skipped_updates = 0u64;
        for ev in events {
            if let TraceEventKind::Release {
                episode,
                pc,
                measured_bit,
                update_skipped,
            } = ev.kind
            {
                measured.insert((pc, episode), measured_bit.as_u64());
                if update_skipped {
                    skipped_updates += 1;
                }
            }
        }

        let mut per_pc: BTreeMap<u64, PcAccuracy> = BTreeMap::new();
        let mut unmatched = 0u64;
        for ev in events {
            let TraceEventKind::Prediction {
                episode,
                pc,
                predicted_bit,
                ..
            } = ev.kind
            else {
                continue;
            };
            let Some(&actual) = measured.get(&(pc, episode)) else {
                unmatched += 1;
                continue;
            };
            let acc = per_pc.entry(pc).or_insert_with(|| PcAccuracy {
                pc,
                predictions: 0,
                underpredictions: 0,
                overpredictions: 0,
                rel_error: OnlineStats::new(),
            });
            acc.predictions += 1;
            let predicted = predicted_bit.as_u64();
            if predicted < actual {
                acc.underpredictions += 1;
            } else if predicted > actual {
                acc.overpredictions += 1;
            }
            if actual > 0 {
                acc.rel_error
                    .push((predicted as f64 - actual as f64).abs() / actual as f64);
            }
        }

        PredictionAccuracyReport {
            per_pc: per_pc.into_values().collect(),
            skipped_updates,
            unmatched_predictions: unmatched,
        }
    }

    /// Total paired predictions across all sites.
    pub fn total_predictions(&self) -> u64 {
        self.per_pc.iter().map(|p| p.predictions).sum()
    }

    /// Total underpredictions across all sites.
    pub fn underpredictions(&self) -> u64 {
        self.per_pc.iter().map(|p| p.underpredictions).sum()
    }

    /// Fraction of paired predictions that undershot the measured BIT,
    /// or 0.0 with no predictions.
    pub fn underprediction_rate(&self) -> f64 {
        let n = self.total_predictions();
        if n == 0 {
            0.0
        } else {
            self.underpredictions() as f64 / n as f64
        }
    }
}

impl fmt::Display for PredictionAccuracyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "predictions={} underprediction_rate={:.3} skipped_updates={} unmatched={}",
            self.total_predictions(),
            self.underprediction_rate(),
            self.skipped_updates,
            self.unmatched_predictions
        )?;
        for p in &self.per_pc {
            writeln!(
                f,
                "  pc={:#06x} n={} under={} over={} rel_error: {}",
                p.pc, p.predictions, p.underpredictions, p.overpredictions, p.rel_error
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_sim::Cycles;

    fn ev(at: u64, thread: usize, kind: TraceEventKind) -> TraceEvent {
        TraceEvent::new(Cycles::new(at), thread, kind)
    }

    #[test]
    fn kind_counts_split_arrivals_and_skips() {
        let events = vec![
            ev(
                1,
                0,
                TraceEventKind::Arrival {
                    episode: 0,
                    pc: 1,
                    last: false,
                },
            ),
            ev(
                2,
                1,
                TraceEventKind::Arrival {
                    episode: 0,
                    pc: 1,
                    last: true,
                },
            ),
            ev(
                2,
                1,
                TraceEventKind::Release {
                    episode: 0,
                    pc: 1,
                    measured_bit: Cycles::new(10),
                    update_skipped: true,
                },
            ),
        ];
        let c = TraceKindCounts::from_events(&events);
        assert_eq!(c.arrivals, 1);
        assert_eq!(c.last_arrivals, 1);
        assert_eq!(c.releases, 1);
        assert_eq!(c.releases_update_skipped, 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.total(), events.len() as u64);
    }

    #[test]
    fn kind_counts_tally_fault_events() {
        use crate::event::FaultKind;
        let events = vec![
            ev(
                1,
                0,
                TraceEventKind::FaultInjected {
                    episode: 0,
                    pc: 1,
                    fault: FaultKind::LostWakeup,
                },
            ),
            ev(
                2,
                0,
                TraceEventKind::GuardRecovery {
                    episode: 0,
                    pc: 1,
                    slept: true,
                },
            ),
            ev(
                3,
                0,
                TraceEventKind::Quarantine {
                    episode: 1,
                    pc: 1,
                    entered: true,
                },
            ),
            ev(
                4,
                0,
                TraceEventKind::Quarantine {
                    episode: 5,
                    pc: 1,
                    entered: false,
                },
            ),
        ];
        let c = TraceKindCounts::from_events(&events);
        assert_eq!(c.faults_injected, 1);
        assert_eq!(c.guard_recoveries, 1);
        assert_eq!(c.quarantine_enters, 1);
        assert_eq!(c.quarantine_leaves, 1);
        assert_eq!(c.total(), events.len() as u64);
    }

    #[test]
    fn wake_latency_counts_only_sleepers() {
        let events = vec![
            ev(
                10,
                0,
                TraceEventKind::SleepStart {
                    episode: 0,
                    pc: 1,
                    state: 1,
                    needs_flush: false,
                },
            ),
            ev(15, 1, TraceEventKind::SpinStart { episode: 0, pc: 1 }),
            ev(
                50,
                0,
                TraceEventKind::Depart {
                    episode: 0,
                    pc: 1,
                    wake_latency: Cycles::new(30),
                },
            ),
            ev(
                51,
                1,
                TraceEventKind::Depart {
                    episode: 0,
                    pc: 1,
                    wake_latency: Cycles::new(1),
                },
            ),
            // Thread 0 departs again without sleeping: not a sleeper sample.
            ev(
                90,
                0,
                TraceEventKind::Depart {
                    episode: 1,
                    pc: 1,
                    wake_latency: Cycles::new(99),
                },
            ),
        ];
        let r = WakeLatencyReport::from_events(&events);
        assert_eq!(r.sleepers.count(), 1);
        assert_eq!(r.all.count(), 3);
        let s = r.summary();
        assert_eq!(s.samples, 1);
        assert_eq!(s.max, 30);
        assert_eq!(s.p50, 30.0);
    }

    #[test]
    fn accuracy_pairs_predictions_with_releases() {
        let mut events = Vec::new();
        // Site 0x10, episode 0: predicted 80, measured 100 (under).
        // Site 0x10, episode 1: predicted 120 by two threads, measured 100
        // (over, twice). Site 0x20, episode 0: prediction unmatched.
        events.push(ev(
            1,
            0,
            TraceEventKind::Prediction {
                episode: 0,
                pc: 0x10,
                predicted_bit: Cycles::new(80),
                predicted_stall: Cycles::new(40),
            },
        ));
        events.push(ev(
            2,
            1,
            TraceEventKind::Release {
                episode: 0,
                pc: 0x10,
                measured_bit: Cycles::new(100),
                update_skipped: false,
            },
        ));
        for t in 0..2 {
            events.push(ev(
                10 + t,
                t as usize,
                TraceEventKind::Prediction {
                    episode: 1,
                    pc: 0x10,
                    predicted_bit: Cycles::new(120),
                    predicted_stall: Cycles::new(60),
                },
            ));
        }
        events.push(ev(
            20,
            2,
            TraceEventKind::Release {
                episode: 1,
                pc: 0x10,
                measured_bit: Cycles::new(100),
                update_skipped: true,
            },
        ));
        events.push(ev(
            30,
            0,
            TraceEventKind::Prediction {
                episode: 0,
                pc: 0x20,
                predicted_bit: Cycles::new(5),
                predicted_stall: Cycles::new(2),
            },
        ));

        let r = PredictionAccuracyReport::from_events(&events);
        assert_eq!(r.per_pc.len(), 1);
        assert_eq!(r.total_predictions(), 3);
        assert_eq!(r.underpredictions(), 1);
        assert_eq!(r.per_pc[0].overpredictions, 2);
        assert!((r.underprediction_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.skipped_updates, 1);
        assert_eq!(r.unmatched_predictions, 1);
        // Errors: 0.2, 0.2, 0.2 → mean 0.2.
        assert!((r.per_pc[0].rel_error.mean() - 0.2).abs() < 1e-12);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn trace_summary_round_trips_through_json() {
        let events = vec![ev(1, 0, TraceEventKind::SpinStart { episode: 0, pc: 1 })];
        let s = TraceSummary::from_events(&events, 7);
        assert_eq!(s.events, 1);
        assert_eq!(s.dropped, 7);
        let back: TraceSummary = serde::json::from_str(&serde::json::to_string(&s)).unwrap();
        assert_eq!(back.counts, s.counts);
        assert_eq!(back.dropped, 7);
    }
}
