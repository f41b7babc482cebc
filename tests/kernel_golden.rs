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
//! If a digest changes on purpose (a deliberate model change), re-derive
//! it from the failure message and say why in the commit.

use trustmeter::prelude::*;

/// The kernel seed of every scenario in the matrix.
const SEED: u64 = 0x0060_1de4;

/// SHA-256 over the JSON of all 128 outcomes, in matrix order.
const OUTCOMES_DIGEST: &str = "f3a27f09bc99c72a04ca8a8f4f6e217bc70dcfdab2b515805a8541de797bc635";

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

#[test]
fn scenario_outcomes_match_the_pinned_digest() {
    let mut hasher = Sha256::new();
    let mut runs = 0;
    for scheduler in [SchedulerKind::FairShare, SchedulerKind::Cfs] {
        let machine = KernelConfig::paper_machine()
            .with_seed(SEED)
            .with_scheduler(scheduler);
        for scale in [0.001, 0.002] {
            for workload in Workload::ALL {
                let scenario = Scenario::new(workload, scale).with_config(machine.clone());
                let clean = scenario.run_clean();
                absorb(
                    &mut hasher,
                    &format!("{scheduler}/{scale}/{workload}/clean"),
                    &serde_json::to_string(&clean).expect("outcome serializes"),
                );
                runs += 1;
                for attack in AttackSpec::ALL {
                    let outcome = scenario.run_attacked(attack.build(workload, scale).as_ref());
                    absorb(
                        &mut hasher,
                        &format!("{scheduler}/{scale}/{workload}/{}", attack.label()),
                        &serde_json::to_string(&outcome).expect("outcome serializes"),
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 128);
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
