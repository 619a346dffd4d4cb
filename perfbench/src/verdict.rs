//! Output checks and the program's work counts.

use anafault::{CampaignResult, FaultOutcome};
use spice::Wave;
use std::collections::BTreeMap;

/// The reference verdict table a run is checked against: one direct,
/// in-process, scalar fault-dropping campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    observed: Vec<String>,
    nominals: Vec<Wave>,
    outcomes: BTreeMap<usize, FaultOutcome>,
    coverage: f64,
}

impl Reference {
    /// The verdict table of `result`.
    pub fn new(result: &CampaignResult) -> Reference {
        Reference {
            observed: result.observed.clone(),
            nominals: result.nominals.clone(),
            outcomes: result
                .records
                .iter()
                .map(|r| (r.fault.id, r.outcome.clone()))
                .collect(),
            coverage: result.final_coverage(),
        }
    }

    /// Compares `result` with the table by the `anafault-cli diff`
    /// rule: observed nodes, nominal waveforms, every fault's outcome
    /// (matched by fault id, so the run's fault order is free) and the
    /// final coverage must agree; timings and work counts are ignored.
    /// Returns one line per disagreement.
    pub fn diff(&self, result: &CampaignResult) -> Vec<String> {
        let mut problems = Vec::new();
        if result.observed != self.observed {
            problems.push(format!(
                "observed nodes differ: {:?} vs {:?}",
                result.observed, self.observed
            ));
        }
        if result.nominals != self.nominals {
            problems.push("nominal waveforms differ".to_string());
        }
        if result.records.len() != self.outcomes.len() {
            problems.push(format!(
                "record counts differ: {} vs {}",
                result.records.len(),
                self.outcomes.len()
            ));
        }
        for r in &result.records {
            match self.outcomes.get(&r.fault.id) {
                None => problems.push(format!("fault {} is not in the reference", r.fault.id)),
                Some(expected) if *expected != r.outcome => problems.push(format!(
                    "fault {} ({}): outcome {:?} vs {:?}",
                    r.fault.id, r.fault.label, r.outcome, expected
                )),
                Some(_) => {}
            }
        }
        if result.final_coverage() != self.coverage {
            problems.push(format!(
                "coverage differs: {} vs {}",
                result.final_coverage(),
                self.coverage
            ));
        }
        problems
    }
}

/// Records whose fault could not be injected or simulated.
pub fn failed_faults(result: &CampaignResult) -> usize {
    result
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                FaultOutcome::InjectionFailed(_) | FaultOutcome::SimulationFailed(_)
            )
        })
        .count()
}

/// The work counts the program returns on a campaign result, summed
/// over its fault records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub steps: u64,
    pub halvings: u64,
    pub newton_iterations: u64,
    pub refactorisations: u64,
    pub pattern_builds: u64,
    pub batches: u64,
    pub batched_faults: u64,
    pub ejections: u64,
}

impl Counts {
    /// The counts of `result`.
    pub fn of(result: &CampaignResult) -> Counts {
        let mut c = Counts {
            pattern_builds: result.telemetry.pattern_cache_misses,
            batches: result.telemetry.batches,
            batched_faults: result.telemetry.batched_faults,
            ejections: result.telemetry.ejections,
            ..Counts::default()
        };
        for r in &result.records {
            c.steps += r.telemetry.steps;
            c.halvings += r.telemetry.halvings;
            c.newton_iterations += r.telemetry.newton_iterations;
            c.refactorisations += r.telemetry.solver.refactorisations;
        }
        c
    }

    /// Accepted Newton iterations per LU refactorisation. Failed Newton
    /// attempts refactorise but are not counted as iterations, so this
    /// is the share of linear-algebra work that advanced the solution.
    pub fn newton_yield(&self) -> f64 {
        ratio(self.newton_iterations, self.refactorisations)
    }

    /// Lanes the lockstep kernel started: faults it gave a verdict
    /// plus faults it ejected to a scalar re-run.
    pub fn lanes(&self) -> u64 {
        self.batched_faults + self.ejections
    }

    /// Share of started lanes that ended in a lockstep verdict.
    pub fn lane_yield(&self) -> f64 {
        ratio(self.batched_faults, self.lanes())
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall-clock billed to records whose batch lane was ejected (s).
pub fn ejected_seconds(result: &CampaignResult) -> f64 {
    result
        .records
        .iter()
        .filter(|r| r.telemetry.ejected)
        .map(|r| r.telemetry.wall.as_secs_f64())
        .fold(0.0, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anafault::{protocol, CampaignTelemetry, Fault, FaultEffect, FaultRecord, FaultTelemetry};

    fn record(id: usize, outcome: FaultOutcome, steps: u64) -> FaultRecord {
        FaultRecord {
            fault: Fault {
                id,
                label: format!("f{id}"),
                probability: None,
                effect: FaultEffect::Short {
                    a: "1".into(),
                    b: "2".into(),
                },
            },
            outcome,
            sim_seconds: 0.01 * id as f64,
            newton_iterations: 3,
            telemetry: FaultTelemetry {
                steps,
                ..FaultTelemetry::default()
            },
            signature: None,
        }
    }

    fn result(records: Vec<FaultRecord>) -> CampaignResult {
        CampaignResult {
            observed: vec!["11".into()],
            nominals: vec![Wave::new(vec![0.0, 1e-6], vec![0.0, 5.0])],
            records,
            nominal_seconds: 0.1,
            total_seconds: 1.0,
            telemetry: CampaignTelemetry::default(),
        }
    }

    fn detected(at: f64) -> FaultOutcome {
        FaultOutcome::Detected {
            at,
            node: "11".into(),
        }
    }

    #[test]
    fn order_and_timings_do_not_matter() {
        let reference = Reference::new(&result(vec![
            record(1, detected(1e-7), 10),
            record(2, FaultOutcome::NotDetected, 20),
        ]));
        let mut reordered = result(vec![
            record(2, FaultOutcome::NotDetected, 99),
            record(1, detected(1e-7), 10),
        ]);
        reordered.records[0].sim_seconds = 5.0;
        reordered.total_seconds = 9.0;
        assert!(reference.diff(&reordered).is_empty());
        // The check survives the protocol round trip a served run uses.
        let served = protocol::from_json(&protocol::to_json(&reordered)).expect("round trip");
        assert!(reference.diff(&served).is_empty());
    }

    #[test]
    fn a_forged_mismatch_is_flagged() {
        let good = result(vec![
            record(1, detected(1e-7), 10),
            record(2, FaultOutcome::NotDetected, 20),
        ]);
        let reference = Reference::new(&good);
        let mut forged = good.clone();
        forged.records[0].outcome = detected(2e-7);
        let problems = reference.diff(&forged);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("fault 1 "));
        let mut flipped = good.clone();
        flipped.records[1].outcome = detected(3e-7);
        // A changed verdict class also moves the coverage.
        assert_eq!(reference.diff(&flipped).len(), 2);
        let mut failed = good;
        failed.records[1].outcome = FaultOutcome::SimulationFailed("forged".into());
        assert_eq!(failed_faults(&failed), 1);
        assert!(!reference.diff(&failed).is_empty());
    }

    #[test]
    fn unknown_and_missing_faults_are_flagged() {
        let reference = Reference::new(&result(vec![record(1, detected(1e-7), 10)]));
        let other = result(vec![record(7, detected(1e-7), 10)]);
        assert_eq!(reference.diff(&other).len(), 1);
        let extra = result(vec![
            record(1, detected(1e-7), 10),
            record(7, detected(1e-7), 10),
        ]);
        assert_eq!(reference.diff(&extra).len(), 2);
    }

    #[test]
    fn counts_sum_records_and_ratios_guard_zero() {
        let r = result(vec![
            record(1, detected(1e-7), 10),
            record(2, FaultOutcome::NotDetected, 20),
        ]);
        let c = Counts::of(&r);
        assert_eq!(c.steps, 30);
        assert_eq!(c.newton_iterations, 0);
        assert_eq!(c.newton_yield(), 0.0);
        assert_eq!(c.lane_yield(), 0.0);
        let c = Counts {
            newton_iterations: 34,
            refactorisations: 1000,
            batched_faults: 31,
            ejections: 40,
            ..Counts::default()
        };
        assert_eq!(c.newton_yield(), 0.034);
        assert_eq!(c.lane_yield(), 31.0 / 71.0);
    }
}
