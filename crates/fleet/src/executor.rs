//! The fleet executor: many metered scenarios, many worker threads,
//! bit-identical results.
//!
//! A [`JobSpec`] names one metered run — tenant, workload, optional
//! [`AttackSpec`], scale, nice value. [`Fleet::run_one`] executes one job
//! in the calling thread; batches and streams run on the worker pool of
//! [`crate::ingest::FleetIngest`] (`shards` workers under
//! [`crate::FleetService::process`]). Determinism across worker counts
//! comes from two rules:
//!
//! 1. every job's kernel seed is derived from the fleet seed and the job id
//!    alone (never from which worker runs it), and
//! 2. results are released in job-submission order.

use serde::{Deserialize, Serialize};
use std::fmt;
use trustmeter_attacks::{
    Attack, ExceptionFloodAttack, InterpositionAttack, InterruptFloodAttack,
    PreloadConstructorAttack, SchedulingAttack, ShellAttack, ThrashingAttack,
};
use trustmeter_core::{AttestationKey, CpuTime, Digest, Quote};
use trustmeter_experiments::{Scenario, ScenarioOutcome};
use trustmeter_kernel::KernelConfig;
use trustmeter_sim::SimRng;
use trustmeter_workloads::Workload;

use crate::auditor::SamplingPolicy;
use crate::tenant::TenantId;
use crate::trace::{PipelineTracer, Stage};

/// Identifies one submitted job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A serializable recipe for one of the paper's seven attacks, so fleet
/// jobs can name an attack without carrying a trait object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackSpec {
    /// §IV-A1: the shell injects a CPU-bound loop before `execve`.
    Shell,
    /// §IV-A2: an `LD_PRELOAD` constructor burns CPU at load time.
    PreloadConstructor,
    /// §IV-A2: symbol interposition wraps hot library calls.
    Interposition,
    /// §IV-B1: a fork/wait attacker schedules itself between ticks at the
    /// given nice value.
    Scheduling {
        /// The attacker's nice value.
        nice: i8,
    },
    /// §IV-B2: a memory hog forces the victim to thrash.
    Thrashing,
    /// §IV-B3: NIC interrupt flooding charged to the interrupted victim.
    InterruptFlood,
    /// §IV-B4: exception (page-fault) flooding via watched pages.
    ExceptionFlood,
}

impl AttackSpec {
    /// Every attack at its paper-default configuration.
    pub const ALL: [AttackSpec; 7] = [
        AttackSpec::Shell,
        AttackSpec::PreloadConstructor,
        AttackSpec::Interposition,
        AttackSpec::Scheduling { nice: -10 },
        AttackSpec::Thrashing,
        AttackSpec::InterruptFlood,
        AttackSpec::ExceptionFlood,
    ];

    /// Short stable name (matches `Attack::name`).
    pub fn label(&self) -> &'static str {
        match self {
            AttackSpec::Shell => "shell",
            AttackSpec::PreloadConstructor => "preload-constructor",
            AttackSpec::Interposition => "interposition",
            AttackSpec::Scheduling { .. } => "scheduling",
            AttackSpec::Thrashing => "thrashing",
            AttackSpec::InterruptFlood => "interrupt-flood",
            AttackSpec::ExceptionFlood => "exception-flood",
        }
    }

    /// Builds the attack at its paper-default configuration for a victim of
    /// the given workload and scale.
    pub fn build(&self, workload: Workload, scale: f64) -> Box<dyn Attack> {
        match self {
            AttackSpec::Shell => Box::new(ShellAttack::paper_default(scale)),
            AttackSpec::PreloadConstructor => {
                Box::new(PreloadConstructorAttack::paper_default(scale))
            }
            AttackSpec::Interposition => Box::new(InterpositionAttack::paper_default(scale)),
            AttackSpec::Scheduling { nice } => {
                Box::new(SchedulingAttack::paper_default(scale, *nice))
            }
            AttackSpec::Thrashing => Box::new(ThrashingAttack::paper_default()),
            AttackSpec::InterruptFlood => Box::new(InterruptFloodAttack::paper_default()),
            AttackSpec::ExceptionFlood => Box::new(ExceptionFloodAttack::paper_default(
                workload.spec(scale).user_secs,
            )),
        }
    }
}

/// One metered run to execute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id; also the merge key, so ids should be unique per batch.
    pub id: JobId,
    /// Which tenant submitted (and pays for) the run.
    pub tenant: TenantId,
    /// The victim workload.
    pub workload: Workload,
    /// Workload scale factor (1.0 = the paper's full-size runs).
    pub scale: f64,
    /// The attack the (dishonest) provider mounts, if any.
    pub attack: Option<AttackSpec>,
    /// The victim's nice value.
    pub nice: i8,
}

impl JobSpec {
    /// A clean (honest-platform) job.
    pub fn clean(id: u64, tenant: TenantId, workload: Workload, scale: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            tenant,
            workload,
            scale,
            attack: None,
            nice: 0,
        }
    }

    /// A job run on a platform mounting `attack`.
    pub fn attacked(
        id: u64,
        tenant: TenantId,
        workload: Workload,
        scale: f64,
        attack: AttackSpec,
    ) -> JobSpec {
        JobSpec {
            id: JobId(id),
            tenant,
            workload,
            scale,
            attack: Some(attack),
            nice: 0,
        }
    }
}

/// The clean-reference facts the auditor compares a run against: what the
/// job *should* have cost and loaded on an honest platform with the same
/// seed.
///
/// Workers precompute this alongside the (possibly attacked) run — they
/// already hold the spec and the seed — so the auditor's §VI verification
/// does not have to replay the job serially on the consumer thread. A
/// precomputed reference is bit-identical to the inline replay the auditor
/// would otherwise perform: both are the same deterministic simulation of
/// the same seed on the same machine model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceOutcome {
    /// Fine-grained TSC ground truth of the clean run.
    pub victim_truth: CpuTime,
    /// Every image the clean run measured into the victim's context.
    pub measured_images: Vec<String>,
    /// PCR over the clean run's measurement log.
    pub measurement_pcr: Digest,
    /// Digest of the clean run's execution witness.
    pub witness_digest: Digest,
}

impl ReferenceOutcome {
    /// Extracts the audit-relevant facts of a clean scenario outcome.
    pub fn from_outcome(outcome: &ScenarioOutcome) -> ReferenceOutcome {
        ReferenceOutcome {
            victim_truth: outcome.victim_truth,
            measured_images: outcome.measured_images.clone(),
            measurement_pcr: outcome.measurement_pcr,
            witness_digest: outcome.witness_digest,
        }
    }

    /// A 64-bit commitment to this reference: the first eight bytes of
    /// the SHA-256 of its canonical JSON. Folded into the quote nonce
    /// ([`quote_nonce`]) so the attestation binds the worker-precomputed
    /// reference as well as the outcome — editing either after the fact
    /// breaks verification.
    pub fn commitment(&self) -> u64 {
        let json = serde_json::to_string(self).expect("reference serializes");
        let digest = trustmeter_core::Sha256::digest(json.as_bytes());
        u64::from_be_bytes(digest[..8].try_into().expect("digest is 32 bytes"))
    }
}

/// The freshness nonce a sampled run's quote is issued under: the job id
/// XOR a [`ReferenceOutcome::commitment`] to the precomputed reference.
/// The verifier recomputes it from the record it holds, so a record whose
/// reference was tampered with fails quote verification with a nonce
/// mismatch.
pub fn quote_nonce(job: JobId, reference: &ReferenceOutcome) -> u64 {
    job.0 ^ reference.commitment()
}

/// Everything one executed job produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The job as submitted.
    pub job: JobSpec,
    /// The kernel seed the run used (derived, shard-independent).
    pub seed: u64,
    /// The full scenario outcome: billed/truth/process-aware usage,
    /// measured images, witness digest, kernel stats.
    pub outcome: ScenarioOutcome,
    /// The worker-precomputed clean reference, present exactly when the
    /// fleet's [`SamplingPolicy`] selects the job for auditing.
    pub reference: Option<ReferenceOutcome>,
    /// A signed attestation over the run's reported platform state and
    /// usage (§III-B: "the measurement result is signed by the TPM"),
    /// produced alongside the reference for sampled jobs. The quote binds
    /// the measurement PCR, the witness digest and the billed usage under
    /// the platform attestation key (derived from the fleet seed), with a
    /// nonce committing to the job id *and* the precomputed reference
    /// ([`quote_nonce`]) — so a record whose outcome **or** reference is
    /// tampered with after execution (e.g. in a persisted journal) no
    /// longer verifies.
    pub quote: Option<Quote>,
}

/// Fleet configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of worker shards (threads). Results are independent of this.
    pub shards: usize,
    /// Fleet-level seed mixed into every job's kernel seed.
    pub seed: u64,
    /// The machine every shard simulates.
    pub machine: KernelConfig,
    /// Which jobs the workers precompute audit references for (and the
    /// auditor verifies). Results are independent of worker count because
    /// every decision derives from the fleet seed and the job id alone.
    pub sampling: SamplingPolicy,
}

impl FleetConfig {
    /// `shards` workers on the paper's machine with the given fleet seed,
    /// auditing every run.
    pub fn new(shards: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            shards,
            seed,
            machine: KernelConfig::paper_machine(),
            sampling: SamplingPolicy::Always,
        }
    }

    /// Replaces the simulated machine.
    pub fn with_machine(mut self, machine: KernelConfig) -> FleetConfig {
        self.machine = machine;
        self
    }

    /// Replaces the audit sampling policy.
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> FleetConfig {
        self.sampling = sampling;
        self
    }
}

/// The sharded executor.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
    /// The platform attestation identity key (a simulated TPM AIK,
    /// derived from the fleet seed) that signs per-run usage quotes.
    attestation: AttestationKey,
    /// When attached, every [`Fleet::run_one`] records an execution span
    /// (and an ingest pool over this fleet records queue-wait and
    /// journal-commit spans). Pure observation: results are bit-identical
    /// with or without it.
    tracer: Option<PipelineTracer>,
}

impl Fleet {
    /// Creates a fleet.
    ///
    /// # Panics
    /// Panics if `config.shards` is zero.
    pub fn new(config: FleetConfig) -> Fleet {
        assert!(config.shards > 0, "a fleet needs at least one shard");
        let attestation = Fleet::attestation_key(config.seed);
        Fleet {
            config,
            attestation,
            tracer: None,
        }
    }

    /// Attaches a [`PipelineTracer`]: every executed job records an
    /// [`Stage::Execute`] span, and ingest pools trace queue waits too.
    pub fn with_tracer(mut self, tracer: PipelineTracer) -> Fleet {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches or detaches the tracer in place.
    pub fn set_tracer(&mut self, tracer: Option<PipelineTracer>) {
        self.tracer = tracer;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&PipelineTracer> {
        self.tracer.as_ref()
    }

    /// The attestation key a fleet with the given seed signs quotes with —
    /// the verifier-side [`crate::auditor::Auditor`] derives the same key
    /// from the same seed (the HMAC stand-in for a TPM quote shares its
    /// key with the verifier by construction).
    pub fn attestation_key(fleet_seed: u64) -> AttestationKey {
        AttestationKey::from_seed(&fleet_seed.to_be_bytes())
    }

    /// The configuration the fleet runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Derives the kernel seed for a job: a function of the fleet seed and
    /// the job id only, so results do not depend on shard assignment.
    pub fn job_seed(&self, job: JobId) -> u64 {
        SimRng::seed_from(self.config.seed ^ job.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }

    /// Verifies a completed record's attestation quote against the
    /// outcome it claims to attest — the worker pool's completion-side
    /// defense against an executor returning a corrupted record (see
    /// [`crate::faults::WorkerFaultKind::WrongResult`]).
    ///
    /// The same machinery the auditor applies at post time, pulled
    /// forward to the completion boundary: the quote must verify under
    /// the fleet's attestation key with the nonce recomputed from the
    /// record in hand ([`quote_nonce`]), and its attested PCR, witness
    /// digest and usage must equal the outcome's. A record without a
    /// quote (unsampled under the fleet's [`SamplingPolicy`]) passes
    /// trivially — the sampling policy, not this check, decides which
    /// runs carry attestations.
    ///
    /// # Errors
    /// A human-readable description of the first mismatch.
    pub fn verify_record(&self, record: &RunRecord) -> Result<(), String> {
        let Some(quote) = &record.quote else {
            return Ok(());
        };
        let Some(reference) = &record.reference else {
            return Err("record carries a quote but no reference to recompute its nonce".into());
        };
        self.attestation
            .verify(quote, quote_nonce(record.job.id, reference))
            .map_err(|e| format!("quote verification failed: {e}"))?;
        if quote.measurement_pcr != record.outcome.measurement_pcr {
            return Err("quoted measurement PCR disagrees with the outcome".into());
        }
        if quote.witness_digest != record.outcome.witness_digest {
            return Err("quoted witness digest disagrees with the outcome".into());
        }
        if quote.usage != record.outcome.victim_billed {
            return Err("quoted usage disagrees with the billed outcome".into());
        }
        Ok(())
    }

    /// Executes one job in the calling thread, precomputing the clean
    /// audit reference when the sampling policy selects the job.
    ///
    /// For a clean job the run *is* the clean reference (same seed, same
    /// machine, no attack), so the reference costs nothing extra; for an
    /// attacked job the worker pays one additional clean replay — work the
    /// auditor would otherwise perform serially on the consumer thread.
    pub fn run_one(&self, job: &JobSpec) -> RunRecord {
        let started = self.tracer.as_ref().map(|_| std::time::Instant::now());
        let seed = self.job_seed(job.id);
        let mut scenario = Scenario::new(job.workload, job.scale)
            .with_config(self.config.machine.clone().with_seed(seed));
        scenario.victim_nice = job.nice;
        let outcome = match &job.attack {
            None => scenario.run_clean(),
            Some(spec) => scenario.run_attacked(spec.build(job.workload, job.scale).as_ref()),
        };
        let reference = self
            .config
            .sampling
            .should_audit(self.config.seed, job.id)
            .then(|| match &job.attack {
                None => ReferenceOutcome::from_outcome(&outcome),
                Some(_) => ReferenceOutcome::from_outcome(&scenario.run_clean()),
            });
        // Sampled runs carry a signed quote over the reported platform
        // state; the nonce commits to both the job id and the precomputed
        // reference (see [`quote_nonce`]).
        let quote = reference.as_ref().map(|reference| {
            self.attestation.quote(
                quote_nonce(job.id, reference),
                outcome.measurement_pcr,
                outcome.witness_digest,
                outcome.victim_billed,
            )
        });
        if let (Some(tracer), Some(started)) = (&self.tracer, started) {
            tracer.record(Stage::Execute, job.id, job.tenant, started.elapsed());
        }
        RunRecord {
            job: job.clone(),
            seed,
            outcome,
            reference,
            quote,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seed_ignores_shard_count() {
        let a = Fleet::new(FleetConfig::new(1, 99));
        let b = Fleet::new(FleetConfig::new(8, 99));
        assert_eq!(a.job_seed(JobId(5)), b.job_seed(JobId(5)));
        assert_ne!(a.job_seed(JobId(5)), a.job_seed(JobId(6)));
    }

    #[test]
    fn attack_spec_builds_every_attack() {
        for spec in AttackSpec::ALL {
            let attack = spec.build(Workload::LoopO, 0.001);
            assert_eq!(attack.name(), spec.label());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Fleet::new(FleetConfig::new(0, 1));
    }

    #[test]
    fn verify_record_accepts_honest_and_catches_corrupted_records() {
        use trustmeter_sim::Cycles;
        let fleet = Fleet::new(FleetConfig::new(1, 42));
        let job = JobSpec::clean(1, TenantId(1), Workload::LoopO, 0.001);
        let honest = fleet.run_one(&job);
        assert_eq!(fleet.verify_record(&honest), Ok(()));

        // A worker inflating the billed usage after the quote was issued
        // is caught by the usage cross-check.
        let mut corrupted = honest.clone();
        corrupted.outcome.victim_billed.utime = Cycles(999_999_999);
        let err = fleet.verify_record(&corrupted).unwrap_err();
        assert!(err.contains("usage"), "{err}");

        // Re-quoting the corrupted usage under the wrong nonce story is
        // caught too: tampering with the reference breaks the nonce.
        let mut respun = honest.clone();
        respun.reference.as_mut().unwrap().measured_images.clear();
        let err = fleet.verify_record(&respun).unwrap_err();
        assert!(err.contains("quote verification failed"), "{err}");

        // Unsampled records (no quote) pass trivially.
        let mut unsampled = honest;
        unsampled.quote = None;
        unsampled.reference = None;
        assert_eq!(fleet.verify_record(&unsampled), Ok(()));
    }
}
