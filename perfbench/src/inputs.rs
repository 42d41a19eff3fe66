//! The benchmark's inputs, built from the library crates alone: the
//! VCO layout, its extraction, LIFT's fault list with the paper's
//! options, the testbench, and seeded fault orders.
//!
//! Nothing here calls the `bench` crate, so edits to the figure harness
//! cannot change what this benchmark measures.

use anafault::{BatchMode, Campaign, CampaignSpec, DetectionSpec, Fault, HardFaultModel};
use defect::SizeDistribution;
use extract::ExtractOptions;
use lift::LiftOptions;
use spice::tran::TranSpec;
use spice::Circuit;
use std::time::{Duration, Instant};
use vco::{attach_sources, TestbenchParams, OBSERVED_NODE};

/// The paper's transient: 400 steps of 10 ns over 4 µs, from supply
/// activation (UIC).
pub const TSTEP: f64 = 10e-9;
pub const TSTOP: f64 = 4e-6;

pub fn tran() -> TranSpec {
    TranSpec::new(TSTEP, TSTOP).with_uic()
}

/// LIFT with the paper's values: Tab. 1 densities, defect sizes from
/// x₀ = 1 µm to x_max = 10 µm, p_min = 3·10⁻⁸, the VCO's ports.
pub fn lift_options() -> LiftOptions {
    LiftOptions {
        ports: vec!["vdd".into(), "0".into(), "1".into(), "11".into()],
        size_dist: SizeDistribution::new(1_000, 10_000),
        p_min: 3e-8,
        ..LiftOptions::default()
    }
}

/// The testbench circuit and LIFT's fault list for the VCO.
pub struct Inputs {
    pub testbench: Circuit,
    pub faults: Vec<Fault>,
}

/// Wall time of each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub layout: Duration,
    pub extract: Duration,
    pub lift: Duration,
    pub total: Duration,
}

/// Layout → extraction → LIFT → testbench, each layer timed.
pub fn build() -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let (flat, tech) = vco::vco_layout();
    let t1 = Instant::now();
    let options = ExtractOptions::default();
    let netlist = extract::extract(&flat, &tech, &options).expect("the VCO layout extracts");
    let circuit = netlist.to_circuit("extracted", &options);
    let t2 = Instant::now();
    let lift = lift::extract_faults(&netlist, &tech, &lift_options());
    let t3 = Instant::now();
    let mut testbench = circuit;
    attach_sources(&mut testbench, &TestbenchParams::default());
    let faults = lift.fault_list();
    let t4 = Instant::now();
    let times = SetupTimes {
        layout: t1 - t0,
        extract: t2 - t1,
        lift: t3 - t2,
        total: t4 - t0,
    };
    (Inputs { testbench, faults }, times)
}

/// Builds the inputs `reps` times and returns the last build with the
/// per-layer medians, so one slow build does not set the metric.
pub fn build_repeatedly(reps: usize) -> (Inputs, SetupTimes) {
    let mut all = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (inputs, times) = build();
        all.push(times);
        last = Some(inputs);
    }
    let med = |f: fn(&SetupTimes) -> Duration| {
        let xs: Vec<f64> = all.iter().map(|t| f(t).as_secs_f64()).collect();
        Duration::from_secs_f64(crate::stats::median(&xs))
    };
    let times = SetupTimes {
        layout: med(|t| t.layout),
        extract: med(|t| t.extract),
        lift: med(|t| t.lift),
        total: med(|t| t.total),
    };
    (last.expect("at least one build"), times)
}

/// How a workload configures its campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Source model, scalar, fault dropping.
    Drop,
    /// Source model, lockstep batches (dropping implied).
    Batched,
    /// The paper protocol: resistor model, scalar, full length.
    Full,
    /// Source model with diagnosis signatures (scalar, full length).
    Signed,
}

impl Mode {
    pub fn model(self) -> HardFaultModel {
        match self {
            Mode::Full => HardFaultModel::paper_resistor(),
            Mode::Drop | Mode::Batched | Mode::Signed => HardFaultModel::Source,
        }
    }

    pub fn early_stop(self) -> bool {
        matches!(self, Mode::Drop | Mode::Batched)
    }

    /// Worker threads. Signature campaigns run on one: with two, the
    /// fault order decides how long the last worker runs alone, which
    /// made the dictionary cycle the noisiest timing of the benchmark
    /// (6-7 % run-to-run spread against about 1 % on one worker).
    pub fn threads(self) -> usize {
        match self {
            Mode::Signed => 1,
            Mode::Drop | Mode::Batched | Mode::Full => nproc(),
        }
    }
}

/// Worker threads for in-process campaigns and the daemon.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The Fig. 5 campaign over `testbench` in the given mode.
pub fn campaign(testbench: &Circuit, mode: Mode) -> Campaign {
    Campaign::builder()
        .testbench(testbench.clone())
        .tran(tran())
        .observe(OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(mode.model())
        .threads(mode.threads())
        .early_stop(mode.early_stop())
        .batch(if mode == Mode::Batched {
            BatchMode::Auto
        } else {
            BatchMode::Off
        })
        .record_signatures(mode == Mode::Signed)
        .build()
        .expect("the Fig. 5 campaign settings are complete")
}

/// The Fig. 5 campaign as a daemon submission: source model, fault
/// dropping, tagged with `client`.
pub fn served_spec(testbench: &Circuit, faults: Vec<Fault>, client: &str) -> CampaignSpec {
    CampaignSpec {
        netlist: testbench.to_netlist(),
        tstep: TSTEP,
        tstop: TSTOP,
        uic: true,
        observe: vec![OBSERVED_NODE.to_string()],
        detection: DetectionSpec::paper_fig5(),
        model: HardFaultModel::Source,
        early_stop: true,
        record_signatures: false,
        max_faults: None,
        client: Some(client.to_string()),
        faults,
    }
}

/// SplitMix64: a small, seedable generator, so inputs depend on the
/// seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Standard normal deviate (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// `faults` in the order repetition `rep` of seed `seed` runs them
/// (Fisher–Yates).
pub fn permuted(faults: &[Fault], seed: u64, rep: u64) -> Vec<Fault> {
    let mut rng = Rng::new(seed, rep);
    let mut out = faults.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_depends_on_seed_and_rep_only() {
        let faults: Vec<Fault> = (0..20)
            .map(|i| {
                Fault::new(
                    i,
                    format!("f{i}"),
                    anafault::FaultEffect::Short {
                        a: "a".into(),
                        b: "b".into(),
                    },
                )
            })
            .collect();
        let ids = |v: Vec<Fault>| v.iter().map(|f| f.id).collect::<Vec<_>>();
        assert_eq!(ids(permuted(&faults, 7, 1)), ids(permuted(&faults, 7, 1)));
        assert_ne!(ids(permuted(&faults, 7, 1)), ids(permuted(&faults, 7, 2)));
        assert_ne!(ids(permuted(&faults, 7, 1)), ids(permuted(&faults, 8, 1)));
        let mut sorted = ids(permuted(&faults, 7, 1));
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
