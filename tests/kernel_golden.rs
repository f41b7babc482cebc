//! Golden digests pinning the simulated kernel's observable results.
//!
//! `tests/determinism.rs` compares two runs of the same build, so an
//! optimisation that changes a result would still pass it. These tests
//! compare against SHA-256 digests recorded from a known-good build
//! instead: every `ScenarioOutcome` over the attack × scheduler × scale
//! matrix, and every JSON document the `repro` binary writes at scale
//! 0.002. A change to where the kernel splits time, what it measures or
//! what it witnesses moves one of them.
//!
//! A third digest covers the same 128 outcomes with `witness_digest`
//! zeroed, so it is blind to how the witness is encoded and sees
//! everything else the kernel decides. A change to the witness encoding
//! alone (for example the hash it runs over the steps) must leave this
//! pin where it was and move only the outcomes pin; the test checks the
//! witness-blind pin first, so such a change fails with the new outcomes
//! digest in its message. A kernel optimisation must leave all three
//! pins unchanged.
//!
//! If a digest changes on purpose (a deliberate model change), re-derive
//! it from the failure message and say why in the commit. Re-derive only
//! the pins the change is meant to move: the witness-blind pin moves
//! only when the kernel's accounting, measurements or statistics change,
//! and then the outcomes pin moves with it.

use trustmeter::prelude::*;

/// The kernel seed of every scenario in the matrix.
const SEED: u64 = 0x0060_1de4;

/// SHA-256 over the JSON of all 128 outcomes, in matrix order.
const OUTCOMES_DIGEST: &str = "2adfac7f00b702a79eb6ffd9e2c69262b97021aefc1db21dc78a4ab12a7aaf2a";

/// The same 128 outcomes with `witness_digest` zeroed: everything the
/// kernel decides apart from the witness encoding.
const WITNESS_BLIND_DIGEST: &str =
    "1e2388ac25ec5dcdfe3cea7a180b3ea77ee6c6db7a3ef556f4d87f26219cf658";

/// SHA-256 over the figure, comparison, defenses and ablation JSON that
/// `repro --scale 0.002` writes, in the order it writes them.
const REPRO_DIGEST: &str = "173454f1c715f91a704206f4ee796418d71a63e36c9d1b973cc9123f7df1bace";

/// Feeds one named document into the running digest, length-prefixed so
/// adjacent documents cannot alias.
fn absorb(hasher: &mut Sha256, name: &str, body: &str) {
    for part in [name.as_bytes(), body.as_bytes()] {
        hasher.update(&(part.len() as u64).to_be_bytes());
        hasher.update(part);
    }
}

/// Feeds one outcome into both running digests: as it is, and with its
/// witness digest zeroed.
fn absorb_outcome(full: &mut Sha256, blind: &mut Sha256, name: &str, outcome: &ScenarioOutcome) {
    absorb(
        full,
        name,
        &serde_json::to_string(outcome).expect("outcome serializes"),
    );
    let masked = ScenarioOutcome {
        witness_digest: Digest::ZERO,
        ..outcome.clone()
    };
    absorb(
        blind,
        name,
        &serde_json::to_string(&masked).expect("outcome serializes"),
    );
}

#[test]
fn scenario_outcomes_match_the_pinned_digest() {
    let mut hasher = Sha256::new();
    let mut blind = Sha256::new();
    let mut runs = 0;
    for scheduler in [SchedulerKind::FairShare, SchedulerKind::Cfs] {
        let machine = KernelConfig::paper_machine()
            .with_seed(SEED)
            .with_scheduler(scheduler);
        for scale in [0.001, 0.002] {
            for workload in Workload::ALL {
                let scenario = Scenario::new(workload, scale).with_config(machine.clone());
                absorb_outcome(
                    &mut hasher,
                    &mut blind,
                    &format!("{scheduler}/{scale}/{workload}/clean"),
                    &scenario.run_clean(),
                );
                runs += 1;
                for attack in AttackSpec::ALL {
                    absorb_outcome(
                        &mut hasher,
                        &mut blind,
                        &format!("{scheduler}/{scale}/{workload}/{}", attack.label()),
                        &scenario.run_attacked(attack.build(workload, scale).as_ref()),
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 128);
    // The witness-blind pin first: a change to the witness encoding alone
    // passes it and then fails only the full pin.
    assert_eq!(
        Sha256::to_hex(&blind.finalize()),
        WITNESS_BLIND_DIGEST,
        "a ScenarioOutcome changed outside its witness digest"
    );
    let digest = Sha256::to_hex(&hasher.finalize());
    assert_eq!(
        digest, OUTCOMES_DIGEST,
        "a ScenarioOutcome changed: the kernel no longer reproduces the pinned results"
    );
}

#[test]
fn repro_outputs_match_the_pinned_digest() {
    let cfg = ExperimentConfig {
        scale: 0.002,
        ..Default::default()
    };
    let mut hasher = Sha256::new();
    for fig in all_figures(&cfg) {
        let json = serde_json::to_string_pretty(&fig).expect("figure serializes");
        absorb(&mut hasher, &fig.id, &json);
    }
    let table = serde_json::to_string_pretty(&comparison_table(&cfg)).expect("table serializes");
    absorb(&mut hasher, "comparison", &table);
    let report = serde_json::to_string_pretty(&defenses(&cfg)).expect("report serializes");
    absorb(&mut hasher, "defenses", &report);
    for fig in trustmeter::experiments::all_ablations(&cfg) {
        let json = serde_json::to_string_pretty(&fig).expect("ablation serializes");
        absorb(&mut hasher, &fig.id, &json);
    }
    let digest = Sha256::to_hex(&hasher.finalize());
    assert_eq!(
        digest, REPRO_DIGEST,
        "repro output changed: a figure, table, defense or ablation moved"
    );
}
