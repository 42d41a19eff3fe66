//! Pins the transient kernel's exact behaviour on the paper's VCO: the
//! nominal 4 µs UIC transient and four resistor-model faults, full
//! length. Each run must reproduce the recorded step, halving and
//! Newton counts and the bit pattern of every waveform sample, so any
//! change to the Newton loop, the stamping or the linear solver that
//! moves a single floating-point result fails here.
//!
//! The faults were picked for the paths they exercise: #41 needs one
//! halving, #53 needs 63, and #115 and #165 each re-pivot the sparse
//! factorisation once mid-run (the cycle exit must restart its
//! detector there). The refactorisation counts are the work the kernel
//! spent before the exact cycle exit; the kernel may do less, never
//! more.

use anafault::HardFaultModel;
use spice::{TranResult, TranStats};

/// FNV-1a over the sample times and every node's samples, as bits.
fn waveform_hash(res: &TranResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &t in res.times() {
        mix(t.to_bits());
    }
    for name in res.node_names() {
        for &v in res.wave(name).expect("recorded node").values() {
            mix(v.to_bits());
        }
    }
    h
}

/// The recorded behaviour of one run.
struct Pinned {
    steps: u64,
    halvings: u64,
    newton_iterations: u64,
    max_refactorisations: u64,
    hash: u64,
}

fn check(what: &str, res: &TranResult, want: &Pinned) {
    let TranStats {
        steps,
        halvings,
        newton_iterations,
        solver,
    } = res.stats;
    assert_eq!(
        (steps, halvings, newton_iterations),
        (want.steps, want.halvings, want.newton_iterations),
        "{what}: (steps, halvings, newton iterations)"
    );
    assert_eq!(waveform_hash(res), want.hash, "{what}: waveform bits moved");
    assert!(
        solver.refactorisations <= want.max_refactorisations,
        "{what}: {} refactorisations, recorded {}",
        solver.refactorisations,
        want.max_refactorisations
    );
}

#[test]
fn vco_transients_are_bit_identical_to_the_recorded_runs() {
    let (sys, tb) = bench::vco_system();
    let spec = bench::paper_tran();

    let nominal = spice::tran(&tb, &spec).expect("nominal VCO transient");
    check(
        "nominal",
        &nominal,
        &Pinned {
            steps: 452,
            halvings: 52,
            newton_iterations: 1596,
            max_refactorisations: 43_996,
            hash: 0x8597_e700_d9cf_2137,
        },
    );

    let pinned = [
        (
            41,
            "metal2_short 6->psm",
            Pinned {
                steps: 401,
                halvings: 1,
                newton_iterations: 673,
                max_refactorisations: 1_473,
                hash: 0xb31d_303a_9b46_fe90,
            },
        ),
        (
            53,
            "metal2_short 10->11",
            Pinned {
                steps: 463,
                halvings: 63,
                newton_iterations: 2033,
                max_refactorisations: 53_633,
                hash: 0xff90_f7a4_537a_2882,
            },
        ),
        (
            115,
            "poly_open M10.g",
            Pinned {
                steps: 435,
                halvings: 35,
                newton_iterations: 1125,
                max_refactorisations: 29_126,
                hash: 0xe0b3_db28_68c7_6ee0,
            },
        ),
        (
            165,
            "poly_open M24.g",
            Pinned {
                steps: 426,
                halvings: 26,
                newton_iterations: 1301,
                max_refactorisations: 22_702,
                hash: 0x796d_a28e_8c6e_2e85,
            },
        ),
    ];
    let faults = sys.fault_list();
    for (id, label, want) in &pinned {
        let fault = faults
            .iter()
            .find(|f| f.id == *id)
            .unwrap_or_else(|| panic!("LIFT no longer lists fault {id}"));
        assert!(
            fault.label.ends_with(label),
            "fault {id} is now {:?}",
            fault.label
        );
        let ckt = anafault::inject(&tb, fault, HardFaultModel::paper_resistor())
            .expect("paper faults inject cleanly");
        let res = spice::tran(&ckt, &spec).expect("fault transient");
        check(&format!("fault {id} {label}"), &res, want);
    }
}
