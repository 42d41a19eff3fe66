//! Golden verdicts: fault id → verdict class, detecting node and
//! detection time, one table per hard-fault model, recorded from the
//! full-length scalar path (`perfbench golden`). Every campaign a
//! workload runs is checked against them fault by fault.

use crate::inputs::{self, TSTEP};
use anafault::{CampaignResult, FaultOutcome, HardFaultModel};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One fault's reference outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Detected { node: String, at: f64 },
    NotDetected,
    InjectionFailed,
    SimulationFailed,
}

impl Verdict {
    fn of(outcome: &FaultOutcome) -> Verdict {
        match outcome {
            FaultOutcome::Detected { at, node } => Verdict::Detected {
                node: node.clone(),
                at: *at,
            },
            FaultOutcome::NotDetected => Verdict::NotDetected,
            FaultOutcome::InjectionFailed(_) => Verdict::InjectionFailed,
            FaultOutcome::SimulationFailed(_) => Verdict::SimulationFailed,
        }
    }

    fn class(&self) -> &'static str {
        match self {
            Verdict::Detected { .. } => "detected",
            Verdict::NotDetected => "not_detected",
            Verdict::InjectionFailed => "injection_failed",
            Verdict::SimulationFailed => "simulation_failed",
        }
    }
}

/// A golden table: verdict per fault id.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden(pub BTreeMap<usize, Verdict>);

const SOURCE: &str = include_str!("../golden/source.tsv");
const RESISTOR: &str = include_str!("../golden/resistor.tsv");

/// File stem of a model's table.
fn stem(model: HardFaultModel) -> &'static str {
    match model {
        HardFaultModel::Source => "source",
        HardFaultModel::Resistor { .. } => "resistor",
    }
}

impl Golden {
    /// The committed table for `model`.
    pub fn for_model(model: HardFaultModel) -> Golden {
        let text = match model {
            HardFaultModel::Source => SOURCE,
            HardFaultModel::Resistor { .. } => RESISTOR,
        };
        Golden::parse(text).expect("the committed golden table parses")
    }

    pub fn from_result(result: &CampaignResult) -> Golden {
        Golden(
            result
                .records
                .iter()
                .map(|r| (r.fault.id, Verdict::of(&r.outcome)))
                .collect(),
        )
    }

    /// Tab-separated `id verdict node at_s`, `-` for absent fields.
    pub fn to_tsv(&self, model: HardFaultModel) -> String {
        let mut s = format!(
            "# Golden verdicts, {} model: full-length scalar Fig. 5 campaign, tstep {TSTEP:e} s.\n\
             # Written by `perfbench golden`.\n# id\tverdict\tnode\tat_s\n",
            stem(model)
        );
        for (id, v) in &self.0 {
            let (node, at) = match v {
                Verdict::Detected { node, at } => (node.as_str(), format!("{at}")),
                _ => ("-", "-".to_string()),
            };
            let _ = writeln!(s, "{id}\t{}\t{node}\t{at}", v.class());
        }
        s
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut table = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("golden line {}: `{line}`", n + 1);
            let fields: Vec<&str> = line.split('\t').collect();
            let [id, class, node, at] = fields[..] else {
                return Err(bad());
            };
            let id: usize = id.parse().map_err(|_| bad())?;
            let verdict = match class {
                "detected" => Verdict::Detected {
                    node: node.to_string(),
                    at: at.parse().map_err(|_| bad())?,
                },
                "not_detected" => Verdict::NotDetected,
                "injection_failed" => Verdict::InjectionFailed,
                "simulation_failed" => Verdict::SimulationFailed,
                _ => return Err(bad()),
            };
            if table.insert(id, verdict).is_some() {
                return Err(format!("golden fault id {id} listed twice"));
            }
        }
        Ok(Golden(table))
    }

    /// Checks `result` fault by fault: every golden fault must appear
    /// exactly once with the same verdict class and detecting node, and
    /// a detection time within one `tstep` of the reference. Returns
    /// the differences, empty when the result agrees.
    pub fn check(&self, result: &CampaignResult) -> Vec<String> {
        let mut diffs = Vec::new();
        let mut seen = BTreeMap::new();
        for record in &result.records {
            let id = record.fault.id;
            if seen.insert(id, ()).is_some() {
                diffs.push(format!("fault {id} reported twice"));
                continue;
            }
            let got = Verdict::of(&record.outcome);
            let Some(want) = self.0.get(&id) else {
                diffs.push(format!("fault {id} is not in the golden table"));
                continue;
            };
            match (want, &got) {
                (
                    Verdict::Detected { node: wn, at: wa },
                    Verdict::Detected { node: gn, at: ga },
                ) => {
                    if wn != gn {
                        diffs.push(format!("fault {id}: detected on `{gn}`, golden `{wn}`"));
                    } else if (wa - ga).abs() > TSTEP * (1.0 + 1e-9) {
                        diffs.push(format!("fault {id}: detected at {ga} s, golden {wa} s"));
                    }
                }
                _ if want.class() != got.class() => {
                    diffs.push(format!(
                        "fault {id}: {}, golden {}",
                        got.class(),
                        want.class()
                    ));
                }
                _ => {}
            }
        }
        for id in self.0.keys().filter(|id| !seen.contains_key(id)) {
            diffs.push(format!("fault {id} missing from the result"));
        }
        diffs
    }
}

/// [`Golden::check`] as one operation's outcome.
pub fn verify(golden: &Golden, result: &CampaignResult, what: &str) -> Result<(), String> {
    let diffs = golden.check(result);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} golden difference(s): {}",
            diffs.len(),
            diffs.join("; ")
        ))
    }
}

/// `perfbench golden`: rewrites both tables from the full-length scalar
/// path in LIFT's order.
pub fn regenerate() -> Result<(), String> {
    let (inputs, _) = inputs::build();
    for model in [HardFaultModel::Source, HardFaultModel::paper_resistor()] {
        let campaign = anafault::Campaign::builder()
            .testbench(inputs.testbench.clone())
            .tran(inputs::tran())
            .observe(vco::OBSERVED_NODE)
            .detection(anafault::DetectionSpec::paper_fig5())
            .model(model)
            .build()
            .map_err(|e| e.to_string())?;
        let result = campaign.run(&inputs.faults).map_err(|e| e.to_string())?;
        let path = format!("{}/golden/{}.tsv", env!("CARGO_MANIFEST_DIR"), stem(model));
        std::fs::write(&path, Golden::from_result(&result).to_tsv(model))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("perfbench: wrote {path} ({} faults)", result.records.len());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anafault::{Fault, FaultEffect, FaultRecord, FaultTelemetry};

    fn record(id: usize, outcome: FaultOutcome) -> FaultRecord {
        FaultRecord {
            fault: Fault::new(
                id,
                format!("f{id}"),
                FaultEffect::Short {
                    a: "1".into(),
                    b: "2".into(),
                },
            ),
            outcome,
            sim_seconds: 0.0,
            newton_iterations: 0,
            telemetry: FaultTelemetry::default(),
            signature: None,
        }
    }

    fn result(records: Vec<FaultRecord>) -> CampaignResult {
        CampaignResult {
            observed: vec!["11".into()],
            nominals: Vec::new(),
            records,
            nominal_seconds: 0.0,
            total_seconds: 0.0,
            telemetry: Default::default(),
        }
    }

    fn detected(at: f64) -> FaultOutcome {
        FaultOutcome::Detected {
            at,
            node: "11".into(),
        }
    }

    fn reference() -> CampaignResult {
        result(vec![
            record(3, detected(1.2e-7)),
            record(5, FaultOutcome::NotDetected),
            record(9, detected(2.5e-6)),
        ])
    }

    #[test]
    fn tsv_round_trips() {
        let golden = Golden::from_result(&reference());
        let text = golden.to_tsv(HardFaultModel::Source);
        assert_eq!(Golden::parse(&text).unwrap(), golden);
        assert!(Golden::parse("1\tdetected\t11\n").is_err());
        assert!(Golden::parse("1\tnot_detected\t-\t-\n1\tnot_detected\t-\t-\n").is_err());
    }

    #[test]
    fn agreeing_result_in_any_order_passes() {
        let golden = Golden::from_result(&reference());
        // Permuted order, and a time one step late is still in tolerance.
        let run = result(vec![
            record(9, detected(2.5e-6 + TSTEP)),
            record(3, detected(1.2e-7)),
            record(5, FaultOutcome::NotDetected),
        ]);
        assert!(golden.check(&run).is_empty());
    }

    #[test]
    fn flipped_verdict_and_shifted_time_are_caught() {
        let golden = Golden::from_result(&reference());
        let flipped = result(vec![
            record(3, FaultOutcome::NotDetected),
            record(5, FaultOutcome::NotDetected),
            record(9, detected(2.5e-6)),
        ]);
        let diffs = golden.check(&flipped);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("fault 3"));

        let shifted = result(vec![
            record(3, detected(1.2e-7 + 2.0 * TSTEP)),
            record(5, FaultOutcome::NotDetected),
            record(9, detected(2.5e-6)),
        ]);
        let diffs = golden.check(&shifted);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("detected at"));
        assert!(verify(&golden, &shifted, "campaign").is_err());
    }

    #[test]
    fn missing_duplicate_and_foreign_faults_are_caught() {
        let golden = Golden::from_result(&reference());
        let run = result(vec![
            record(3, detected(1.2e-7)),
            record(3, detected(1.2e-7)),
            record(42, FaultOutcome::NotDetected),
        ]);
        let diffs = golden.check(&run);
        assert_eq!(diffs.len(), 4, "{diffs:?}");
    }

    #[test]
    fn committed_tables_cover_the_same_faults() {
        let source = Golden::for_model(HardFaultModel::Source);
        let resistor = Golden::for_model(HardFaultModel::paper_resistor());
        assert!(!source.0.is_empty());
        assert_eq!(
            source.0.keys().collect::<Vec<_>>(),
            resistor.0.keys().collect::<Vec<_>>()
        );
    }
}
