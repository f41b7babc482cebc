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
//! pin where it was.
//!
//! A fourth digest covers the outcomes' `Debug` text, so it depends on
//! no serialization format. A change to how outcomes are written as JSON
//! (for example how a digest is spelled) moves the outcomes and
//! witness-blind pins and must leave this one where it was. The test
//! checks the `Debug` pin first, then the witness-blind pin, then the
//! outcomes pin. A kernel optimisation must leave all four pins
//! unchanged.
//!
//! If a digest changes on purpose (a deliberate model change), re-derive
//! it from the failure message and say why in the commit. Re-derive only
//! the pins the change is meant to move: the `Debug` and witness-blind
//! pins move only when the kernel's accounting, measurements or
//! statistics change, and then the outcomes pin moves with them; a
//! witness change moves the `Debug` and outcomes pins; a JSON format
//! change moves the two JSON pins and never the `Debug` pin.

use trustmeter::prelude::*;

/// The kernel seed of every scenario in the matrix.
const SEED: u64 = 0x0060_1de4;

/// SHA-256 over the JSON of all 128 outcomes, in matrix order.
const OUTCOMES_DIGEST: &str = "3bf2839318c3924d4f7b9f0fb93dc45ae9fb32ef58eb7ba4065af7ab062068be";

/// The same 128 outcomes with `witness_digest` zeroed: everything the
/// kernel decides apart from the witness encoding.
const WITNESS_BLIND_DIGEST: &str =
    "36c43d79a20f9397709c3a5013d3202d11b92a952041243e8c73f63fcac38cd0";

/// The same 128 outcomes as their `Debug` text: blind to every
/// serialization format, so a change to how outcomes are written to JSON
/// moves the outcomes pins and never this one.
const DEBUG_DIGEST: &str = "5dd4de431c8e7bee0c37bcb34bd00a107cd5a04d4d0b2a9e72e045a0d1ed4647";

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

/// The three running digests over the outcome matrix.
struct OutcomeDigests {
    full: Sha256,
    blind: Sha256,
    debug: Sha256,
}

/// Feeds one outcome into the three running digests: its JSON as it is,
/// its JSON with the witness digest zeroed, and its `Debug` text.
fn absorb_outcome(digests: &mut OutcomeDigests, name: &str, outcome: &ScenarioOutcome) {
    let OutcomeDigests { full, blind, debug } = digests;
    absorb(debug, name, &format!("{outcome:?}"));
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
    let mut digests = OutcomeDigests {
        full: Sha256::new(),
        blind: Sha256::new(),
        debug: Sha256::new(),
    };
    let mut runs = 0;
    for scheduler in [SchedulerKind::FairShare, SchedulerKind::Cfs] {
        let machine = KernelConfig::paper_machine()
            .with_seed(SEED)
            .with_scheduler(scheduler);
        for scale in [0.001, 0.002] {
            for workload in Workload::ALL {
                let scenario = Scenario::new(workload, scale).with_config(machine.clone());
                absorb_outcome(
                    &mut digests,
                    &format!("{scheduler}/{scale}/{workload}/clean"),
                    &scenario.run_clean(),
                );
                runs += 1;
                for attack in AttackSpec::ALL {
                    absorb_outcome(
                        &mut digests,
                        &format!("{scheduler}/{scale}/{workload}/{}", attack.label()),
                        &scenario.run_attacked(attack.build(workload, scale).as_ref()),
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 128);
    // The `Debug` pin first: a change to the JSON format alone passes it.
    assert_eq!(
        Sha256::to_hex(&digests.debug.finalize()),
        DEBUG_DIGEST,
        "a ScenarioOutcome changed: its Debug text moved"
    );
    // The witness-blind pin next: a change to the witness encoding alone
    // passes it.
    assert_eq!(
        Sha256::to_hex(&digests.blind.finalize()),
        WITNESS_BLIND_DIGEST,
        "a ScenarioOutcome changed outside its witness digest"
    );
    let digest = Sha256::to_hex(&digests.full.finalize());
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
