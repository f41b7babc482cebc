//! The fleet executor: many metered scenarios, many worker threads,
//! bit-identical results.
//!
//! A [`JobSpec`] names one metered run — tenant, workload, optional
//! [`AttackSpec`], scale, nice value. [`Fleet::run_one`] executes one job
//! in the calling thread; batches and streams run on the worker pool of a
//! [`crate::FleetStream`] (`shards` workers under
//! [`crate::FleetService::process`]). Determinism across worker counts
//! comes from two rules:
//!
//! 1. every job's kernel seed is derived from the fleet seed and the job id
//!    alone (never from which worker runs it), and
//! 2. results are released in job-submission order.

use serde::{Deserialize, JsonReader, Serialize, Value};
use std::fmt;
use trustmeter_attacks::{
    Attack, ExceptionFloodAttack, InterpositionAttack, InterruptFloodAttack,
    PreloadConstructorAttack, SchedulingAttack, ShellAttack, ThrashingAttack,
};
use trustmeter_core::{AttestationKey, CpuTime, Digest, Quote, QuoteError, Sha256};
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

    /// Whether this reference is [`ReferenceOutcome::from_outcome`] of
    /// `outcome`: the outcome's own facts, as a clean job's reference is.
    fn is_of(&self, outcome: &ScenarioOutcome) -> bool {
        let ReferenceOutcome {
            victim_truth,
            measured_images,
            measurement_pcr,
            witness_digest,
        } = self;
        *victim_truth == outcome.victim_truth
            && *measured_images == outcome.measured_images
            && *measurement_pcr == outcome.measurement_pcr
            && *witness_digest == outcome.witness_digest
    }

    /// A 64-bit commitment to this reference: the first eight bytes of
    /// the SHA-256 of its canonical bytes — the truth's user and system
    /// cycles, the image count, each image name's length and bytes, the
    /// PCR and the witness digest, integers big-endian — in the way a
    /// [`Quote`]'s signature covers its fields, so no commitment depends
    /// on a text format. Folded into the quote nonce ([`quote_nonce`]) so
    /// the attestation binds the worker-precomputed reference as well as
    /// the outcome — editing either after the fact breaks verification.
    pub fn commitment(&self) -> u64 {
        let mut h = Sha256::new();
        h.update(&self.victim_truth.utime.as_u64().to_be_bytes());
        h.update(&self.victim_truth.stime.as_u64().to_be_bytes());
        h.update(&(self.measured_images.len() as u64).to_be_bytes());
        for name in &self.measured_images {
            h.update(&(name.len() as u64).to_be_bytes());
            h.update(name.as_bytes());
        }
        h.update(&self.measurement_pcr.0);
        h.update(&self.witness_digest.0);
        let digest = h.finalize();
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

/// Why a record's quote does not vouch for the outcome it reports.
pub(crate) enum QuoteFault {
    /// No quote, or no reference to recompute its nonce from.
    Missing,
    /// The quote does not verify under the key and the recomputed nonce.
    Rejected(QuoteError),
    /// The quote verifies but signs other facts than the outcome's.
    Disagrees(&'static str),
}

/// The one quote check, behind [`Fleet::verify_record`] and a
/// quote-demanding [`crate::Auditor`]: the quote must verify under `key`
/// with the nonce recomputed from the record in hand ([`quote_nonce`]),
/// and its PCR, witness digest and usage must equal the outcome's.
pub(crate) fn check_quote(key: &AttestationKey, record: &RunRecord) -> Result<(), QuoteFault> {
    let (Some(quote), Some(reference)) = (&record.quote, &record.reference) else {
        return Err(QuoteFault::Missing);
    };
    key.verify(quote, quote_nonce(record.job.id, reference))
        .map_err(QuoteFault::Rejected)?;
    let outcome = &record.outcome;
    let disagreement = if quote.measurement_pcr != outcome.measurement_pcr {
        "quoted measurement PCR disagrees with the outcome"
    } else if quote.witness_digest != outcome.witness_digest {
        "quoted witness digest disagrees with the outcome"
    } else if quote.usage != outcome.victim_billed {
        "quoted usage disagrees with the billed outcome"
    } else {
        return Ok(());
    };
    Err(QuoteFault::Disagrees(disagreement))
}

/// Everything one executed job produced.
///
/// A record serializes (as a journal `Run` line) saying each fact once:
/// `{"job":…,"seed":…,"outcome":…,"reference":R,"quote":Q}`.
///
/// * `R` is `null` for an unsampled job; the marker `"Outcome"` when the
///   reference is [`ReferenceOutcome::from_outcome`] of the record's own
///   outcome, as a clean job's is; otherwise `{"Replayed":{…}}`, the
///   reference in full (an attacked job's clean replay).
/// * `Q` is `null` or `{"nonce":…,"mac":"<hex>"}`. The PCR, witness
///   digest and usage a quote signs are the outcome's, so decoding takes
///   them from the outcome and the MAC still covers them: a record whose
///   quote signed anything else decodes to one whose quote does not
///   verify ([`Fleet::verify_record`]).
///
/// Decoding is lossless for every record [`Fleet::run_one`] produces.
#[derive(Debug, Clone, PartialEq)]
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

/// A [`RunRecord`] as its `Run` line writes it. Decoding goes through
/// this derived shape, so the reader and the value tree decode a line
/// alike; [`RunRecord`]'s `write_json` streams the same bytes without
/// building it.
#[derive(Serialize, Deserialize)]
struct RunLine {
    job: JobSpec,
    seed: u64,
    outcome: ScenarioOutcome,
    reference: Option<ReferenceLine>,
    quote: Option<QuoteLine>,
}

/// How a `Run` line writes a record's reference.
#[derive(Serialize, Deserialize)]
enum ReferenceLine {
    /// [`ReferenceOutcome::from_outcome`] of the record's own outcome.
    Outcome,
    /// Any other reference, in full.
    Replayed(ReferenceOutcome),
}

/// A quote's unsigned nonce and its MAC; the signed facts are the
/// outcome's.
#[derive(Serialize, Deserialize)]
struct QuoteLine {
    nonce: u64,
    mac: Digest,
}

impl RunRecord {
    fn to_line(&self) -> RunLine {
        RunLine {
            job: self.job.clone(),
            seed: self.seed,
            outcome: self.outcome.clone(),
            reference: self.reference.as_ref().map(|reference| {
                if reference.is_of(&self.outcome) {
                    ReferenceLine::Outcome
                } else {
                    ReferenceLine::Replayed(reference.clone())
                }
            }),
            quote: self.quote.as_ref().map(|quote| QuoteLine {
                nonce: quote.nonce,
                mac: Digest(quote.mac),
            }),
        }
    }

    fn from_line(line: RunLine) -> RunRecord {
        let RunLine {
            job,
            seed,
            outcome,
            reference,
            quote,
        } = line;
        let reference = reference.map(|reference| match reference {
            ReferenceLine::Outcome => ReferenceOutcome::from_outcome(&outcome),
            ReferenceLine::Replayed(reference) => reference,
        });
        let quote = quote.map(|QuoteLine { nonce, mac }| Quote {
            nonce,
            measurement_pcr: outcome.measurement_pcr,
            witness_digest: outcome.witness_digest,
            usage: outcome.victim_billed,
            mac: mac.0,
        });
        RunRecord {
            job,
            seed,
            outcome,
            reference,
            quote,
        }
    }
}

impl Serialize for RunRecord {
    fn to_value(&self) -> Value {
        self.to_line().to_value()
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"job\":");
        self.job.write_json(out);
        out.push_str(",\"seed\":");
        self.seed.write_json(out);
        out.push_str(",\"outcome\":");
        self.outcome.write_json(out);
        out.push_str(",\"reference\":");
        match &self.reference {
            None => out.push_str("null"),
            Some(reference) if reference.is_of(&self.outcome) => out.push_str("\"Outcome\""),
            Some(reference) => {
                out.push_str("{\"Replayed\":");
                reference.write_json(out);
                out.push('}');
            }
        }
        out.push_str(",\"quote\":");
        match &self.quote {
            None => out.push_str("null"),
            Some(quote) => {
                out.push_str("{\"nonce\":");
                quote.nonce.write_json(out);
                out.push_str(",\"mac\":");
                Digest(quote.mac).write_json(out);
                out.push('}');
            }
        }
        out.push('}');
    }
}

impl Deserialize for RunRecord {
    fn from_value(v: &Value) -> Result<RunRecord, serde::Error> {
        RunLine::from_value(v).map(RunRecord::from_line)
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<RunRecord, serde::Error> {
        RunLine::read_json(r).map(RunRecord::from_line)
    }
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

    /// Attaches or detaches a [`PipelineTracer`]: every executed job
    /// records an [`Stage::Execute`] span, and stream sessions over this
    /// fleet trace queue waits too.
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
    /// The same check the auditor applies at post time, pulled forward to
    /// the completion boundary: the quote must verify under the fleet's
    /// attestation key with the nonce recomputed from the record in hand
    /// ([`quote_nonce`]), and its attested PCR, witness digest and usage
    /// must equal the outcome's. Every job the fleet's [`SamplingPolicy`]
    /// selects must carry a quote, as [`Fleet::run_one`] attaches one to
    /// each; a record of an unselected job passes unless it carries a
    /// quote that fails.
    ///
    /// # Errors
    /// A human-readable description of the first mismatch.
    pub fn verify_record(&self, record: &RunRecord) -> Result<(), String> {
        let config = &self.config;
        if record.quote.is_none() && !config.sampling.should_audit(config.seed, record.job.id) {
            return Ok(());
        }
        check_quote(&self.attestation, record).map_err(|fault| match fault {
            QuoteFault::Missing => "record lacks its quote or its reference".into(),
            QuoteFault::Rejected(e) => format!("quote verification failed: {e}"),
            QuoteFault::Disagrees(what) => what.into(),
        })
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

        // A sampled record stripped of its quote is caught, with or
        // without its reference…
        let mut stripped = honest;
        stripped.quote = None;
        assert!(fleet.verify_record(&stripped).is_err());
        stripped.reference = None;
        assert!(fleet.verify_record(&stripped).is_err());

        // …while a record of a job the sampling policy skips, which
        // `run_one` leaves unquoted, passes.
        let unsampled = Fleet::new(FleetConfig::new(1, 42).with_sampling(SamplingPolicy::Never));
        let record = unsampled.run_one(&job);
        assert!(record.quote.is_none());
        assert_eq!(unsampled.verify_record(&record), Ok(()));
    }

    /// A record's `Run` line and what it decodes to, by the reader and by
    /// the value tree.
    fn round_trip(record: &RunRecord) -> (String, RunRecord) {
        let line = serde_json::to_string(record).unwrap();
        let mut printed = String::new();
        serde::write_compact_value(&mut printed, &record.to_value());
        assert_eq!(printed, line, "streamed and tree-printed lines agree");
        let read: RunRecord = serde_json::from_str(&line).unwrap();
        let tree = RunRecord::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(read, tree);
        (line, read)
    }

    #[test]
    fn run_lines_decode_to_the_record_written_and_mark_only_clean_references() {
        let fleet = Fleet::new(FleetConfig::new(1, 7));
        let clean = JobSpec::clean(0, TenantId(1), Workload::Pi, 0.01);
        let attacked = AttackSpec::ALL.into_iter().enumerate().map(|(i, attack)| {
            JobSpec::attacked(i as u64 + 1, TenantId(2), Workload::Pi, 0.01, attack)
        });
        for job in std::iter::once(clean).chain(attacked) {
            let record = fleet.run_one(&job);
            let (line, decoded) = round_trip(&record);
            assert_eq!(decoded, record, "{job:?}");
            assert_eq!(
                line.contains("\"reference\":\"Outcome\""),
                job.attack.is_none(),
                "the marker stands for a clean job's reference only: {line}"
            );
            assert_eq!(fleet.verify_record(&decoded), Ok(()));
        }
        let mut unsampled = fleet.run_one(&JobSpec::clean(9, TenantId(1), Workload::Pi, 0.01));
        unsampled.reference = None;
        unsampled.quote = None;
        let (line, decoded) = round_trip(&unsampled);
        assert_eq!(decoded, unsampled);
        assert!(
            line.ends_with(",\"reference\":null,\"quote\":null}"),
            "{line}"
        );
    }

    #[test]
    fn a_quote_that_disagrees_with_its_outcome_does_not_decode_into_one_that_verifies() {
        use trustmeter_sim::Cycles;
        let fleet = Fleet::new(FleetConfig::new(1, 42));
        let honest = fleet.run_one(&JobSpec::clean(1, TenantId(1), Workload::LoopO, 0.001));
        let key = Fleet::attestation_key(42);

        // A quote signed over a usage the outcome does not report: the
        // line carries only its nonce and MAC, and the decoder rebuilds
        // the signed usage from the outcome, which the MAC does not cover.
        let mut resigned = honest.clone();
        let mut inflated = honest.outcome.victim_billed;
        inflated.utime = Cycles(999_999_999);
        let quote = honest.quote.as_ref().unwrap();
        resigned.quote = Some(key.quote(
            quote.nonce,
            quote.measurement_pcr,
            quote.witness_digest,
            inflated,
        ));
        let err = fleet.verify_record(&resigned).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        let (_, decoded) = round_trip(&resigned);
        assert_ne!(
            decoded, resigned,
            "the decoder does not keep what the line omits"
        );
        let err = fleet.verify_record(&decoded).unwrap_err();
        assert!(err.contains("signature did not verify"), "{err}");

        // An outcome edited after its quote was signed: the same.
        let mut edited = honest;
        edited.outcome.victim_billed = inflated;
        let (_, decoded) = round_trip(&edited);
        let err = fleet.verify_record(&decoded).unwrap_err();
        assert!(err.contains("signature did not verify"), "{err}");
    }

    #[test]
    fn the_reference_commitment_covers_every_field_and_image_boundary() {
        let fleet = Fleet::new(FleetConfig::new(1, 42));
        let record = fleet.run_one(&JobSpec::clean(1, TenantId(1), Workload::LoopO, 0.001));
        let reference = record.reference.unwrap();
        let commitment = reference.commitment();
        let mut edits: Vec<ReferenceOutcome> = Vec::new();
        let mut edit = |f: &dyn Fn(&mut ReferenceOutcome)| {
            let mut edited = reference.clone();
            f(&mut edited);
            edits.push(edited);
        };
        edit(&|r| r.victim_truth.utime.0 += 1);
        edit(&|r| r.victim_truth.stime.0 += 1);
        edit(&|r| r.measured_images.push(String::new()));
        edit(&|r| {
            // Moving a byte across a name boundary keeps the concatenation.
            let last = r.measured_images.pop().unwrap();
            let prev = r.measured_images.last_mut().unwrap();
            prev.push_str(&last[..1]);
            r.measured_images.push(last[1..].to_string());
        });
        edit(&|r| r.measurement_pcr = Digest::of(b"pcr"));
        edit(&|r| r.witness_digest = Digest::of(b"witness"));
        for edited in edits {
            assert_ne!(edited.commitment(), commitment, "{edited:?}");
        }
    }
}
