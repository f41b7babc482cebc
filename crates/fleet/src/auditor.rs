//! The streaming auditor: per-run trust verdicts, per-tenant anomaly
//! rollups.
//!
//! The paper's §VI trust workflow — replay the job on a reference platform,
//! compare the provider's bill against the replay's fine-grained ground
//! truth, check the measured code closure and the execution witness — is
//! applied here to a *stream* of fleet [`RunRecord`]s. References come
//! from three sources, in order of preference:
//!
//! 1. **Precomputed** — the fleet worker that ran the job also computed the
//!    clean reference (it already held the spec and seed), attached to the
//!    record as a [`crate::executor::ReferenceOutcome`]. This moves the
//!    replay cost onto the parallel worker pool. Only sound while the
//!    worker pool is the auditor's own infrastructure — for records from
//!    an untrusted executor, see [`Auditor::distrust_references`].
//! 2. **Memoized** — an inline replay already performed for the same
//!    `(workload, scale, seed, nice)` template.
//! 3. **Inline replay** — a clean run of the job on the auditor's own
//!    machine model, the §VI fallback. Precomputed references are
//!    bit-identical to inline replays because both are the same
//!    deterministic simulation of the same seed on the same machine.
//!
//! A [`SamplingPolicy`] decides *which* runs are verified at all — the
//! paper's §VI observes that verification cost is the limiting factor at
//! scale, and spot-checking trades detection latency for throughput.
//! Every observed run yields an [`AuditVerdict`]; tenants accumulate an
//! [`TenantAuditSummary`] of how often and how badly they were overcharged.
//!
//! Verdicts are receipts, not just telemetry: the service journals each
//! one next to its run and invoice, where the evidence ledger chains and
//! seals it. A later [`crate::FleetService::dispute`] pins the verdict to
//! an inclusion proof, so "the audit flagged this run" is a claim a
//! tenant can verify from sealed evidence rather than take on trust.

use crate::executor::{check_quote, JobId, QuoteFault, ReferenceOutcome, RunRecord};
use crate::tenant::TenantId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use trustmeter_core::{
    AttestationKey, Digest, ImageKind, MeasuredImage, OverchargeReport, QuoteError,
    SourceIntegrityReport, TrustAssessment, Verdict,
};
use trustmeter_experiments::Scenario;
use trustmeter_kernel::KernelConfig;
use trustmeter_sim::SimRng;

/// Which runs the auditor verifies (the paper's §VI cost/latency knob).
///
/// Every decision is a pure function of the fleet seed and the job id, so
/// the streamed and batch paths — and any worker count — agree on exactly
/// which runs are audited.
///
/// # Examples
///
/// ```
/// use trustmeter_fleet::{JobId, SamplingPolicy};
///
/// assert!(SamplingPolicy::Always.should_audit(7, JobId(3)));
/// assert!(!SamplingPolicy::Never.should_audit(7, JobId(3)));
/// assert!(SamplingPolicy::EveryNth(4).should_audit(7, JobId(8)));
/// assert!(!SamplingPolicy::EveryNth(4).should_audit(7, JobId(9)));
/// // Probabilistic decisions are deterministic for a fixed fleet seed.
/// let p = SamplingPolicy::Probability(0.5);
/// assert_eq!(p.should_audit(7, JobId(3)), p.should_audit(7, JobId(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SamplingPolicy {
    /// Audit every run (maximal detection, maximal cost).
    #[default]
    Always,
    /// Audit nothing (metering without verification).
    Never,
    /// Audit jobs whose id is a multiple of `n` (`n <= 1` audits all).
    EveryNth(u64),
    /// Audit each run with probability `p`, decided by the deterministic
    /// fleet RNG keyed on the fleet seed and the job id.
    Probability(f64),
}

impl SamplingPolicy {
    /// Whether the job is audited under `fleet_seed`. Deterministic:
    /// depends only on the fleet seed and the job id, never on arrival
    /// order or worker assignment.
    pub fn should_audit(&self, fleet_seed: u64, job: JobId) -> bool {
        match *self {
            SamplingPolicy::Always => true,
            SamplingPolicy::Never => false,
            SamplingPolicy::EveryNth(n) => n <= 1 || job.0.is_multiple_of(n),
            // A different mixing constant than `Fleet::job_seed` so audit
            // decisions do not correlate with kernel seeds.
            SamplingPolicy::Probability(p) => {
                SimRng::seed_from(fleet_seed ^ job.0.wrapping_mul(0xA076_1D64_78BD_642F))
                    .gen_bool(p)
            }
        }
    }
}

/// One detected irregularity in a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Anomaly {
    /// The bill exceeds the reference ground truth beyond tolerance.
    Overbilled(OverchargeReport),
    /// Images ran in the victim's context that the reference never loaded.
    UnexpectedImages(Vec<String>),
    /// The measurement log is inconsistent with the reference replay even
    /// though no injected image explains it: expected images are missing,
    /// or the reported PCR diverges despite an identical closure.
    MeasurementMismatch {
        /// Reference images absent from the run's measurement log.
        missing: Vec<String>,
        /// Whether the reported PCR matched the reference replay's.
        pcr_consistent: bool,
    },
    /// The execution witness diverged from the reference replay.
    WitnessMismatch {
        /// Witness digest of the reference replay.
        expected: Digest,
        /// Witness digest the provider reported.
        observed: Digest,
    },
    /// The run hit the simulation safety horizon instead of finishing.
    HorizonHit,
    /// The record's attestation quote is missing, does not verify under
    /// the platform key, or does not match the reported outcome. The
    /// precomputed reference was not trusted for this run: the auditor
    /// fell back to its own inline replay (§III-B — a report is only
    /// authentic if the TPM-signed quote over it verifies).
    QuoteMismatch {
        /// Why the quote was rejected: `missing`, `bad-signature`,
        /// `nonce-mismatch` or `outcome-mismatch`.
        reason: String,
    },
}

impl Anomaly {
    /// Short stable label (used as a metrics `kind` label).
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::Overbilled(_) => "overbilled",
            Anomaly::UnexpectedImages(_) => "unexpected-images",
            Anomaly::MeasurementMismatch { .. } => "measurement-mismatch",
            Anomaly::WitnessMismatch { .. } => "witness-mismatch",
            Anomaly::HorizonHit => "horizon-hit",
            Anomaly::QuoteMismatch { .. } => "quote-mismatch",
        }
    }

    /// Every anomaly kind label; `FleetService::metering` renders a
    /// `fleet_anomalies` series per kind for every audited tenant, zeros
    /// included, so the exposition distinguishes "zero anomalies" from
    /// "kind never exported".
    pub const KINDS: [&'static str; 6] = [
        "overbilled",
        "unexpected-images",
        "measurement-mismatch",
        "witness-mismatch",
        "horizon-hit",
        "quote-mismatch",
    ];
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::Overbilled(report) => write!(f, "overbilled: {report}"),
            Anomaly::UnexpectedImages(images) => {
                write!(f, "unexpected images: {}", images.join(", "))
            }
            Anomaly::MeasurementMismatch {
                missing,
                pcr_consistent,
            } => write!(
                f,
                "measurement mismatch: {} missing image(s), pcr {}",
                missing.len(),
                if *pcr_consistent {
                    "consistent"
                } else {
                    "MISMATCH"
                }
            ),
            Anomaly::WitnessMismatch { .. } => f.write_str("witness mismatch"),
            Anomaly::HorizonHit => f.write_str("hit simulation horizon"),
            Anomaly::QuoteMismatch { reason } => write!(f, "quote mismatch: {reason}"),
        }
    }
}

/// The auditor's finding for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditVerdict {
    /// The audited job.
    pub job: crate::executor::JobId,
    /// Whose run it was.
    pub tenant: TenantId,
    /// The three-property assessment of §VI-B.
    pub assessment: TrustAssessment,
    /// Everything irregular about the run (empty = trustworthy).
    pub anomalies: Vec<Anomaly>,
    /// Whether the run was actually verified. `false` when the
    /// [`SamplingPolicy`] skipped it — the verdict then asserts nothing
    /// (the assessment is vacuously clean).
    pub audited: bool,
}

impl AuditVerdict {
    /// Whether the run passed the audit cleanly.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }
}

/// A tenant's accumulated audit history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantAuditSummary {
    /// Whose summary this is.
    pub tenant: TenantId,
    /// Runs observed.
    pub runs: u64,
    /// Runs the sampling policy skipped (observed but not verified).
    pub skipped_runs: u64,
    /// Runs with at least one anomaly.
    pub flagged_runs: u64,
    /// Count per anomaly kind label.
    pub anomaly_counts: BTreeMap<String, u64>,
    /// Total seconds overbilled beyond the reference ground truth.
    pub overcharge_secs: f64,
}

/// The auditor's replayable state: everything [`Auditor`] accumulates that
/// must survive a restart (the reference memo cache is deliberately
/// excluded — it is a performance memo that rebuilds on demand).
///
/// Snapshot with [`Auditor::state`], restore with [`Auditor::restore`];
/// journal checkpoints embed one so recovery can resume from a
/// checkpointed prefix.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AuditorState {
    /// Per-tenant audit rollups.
    pub summaries: BTreeMap<TenantId, TenantAuditSummary>,
    /// Inline reference replays performed.
    pub replays: u64,
    /// Records audited with a worker-precomputed reference.
    pub reference_hits: u64,
}

impl TenantAuditSummary {
    fn new(tenant: TenantId) -> TenantAuditSummary {
        TenantAuditSummary {
            tenant,
            runs: 0,
            skipped_runs: 0,
            flagged_runs: 0,
            anomaly_counts: BTreeMap::new(),
            overcharge_secs: 0.0,
        }
    }
}

/// Streaming auditor over fleet run records.
///
/// # Examples
///
/// ```
/// use trustmeter_fleet::{AttackSpec, Auditor, Fleet, FleetConfig, JobSpec, TenantId};
/// use trustmeter_workloads::Workload;
///
/// let fleet = Fleet::new(FleetConfig::new(1, 42));
/// let mut auditor = Auditor::new(fleet.config().machine.clone());
///
/// // A clean run audits clean; a shell-injected run is flagged.
/// let clean = fleet.run_one(&JobSpec::clean(0, TenantId(1), Workload::LoopO, 0.001));
/// assert!(auditor.observe(&clean).is_clean());
/// let attacked = fleet.run_one(&JobSpec::attacked(
///     1, TenantId(1), Workload::LoopO, 0.001, AttackSpec::Shell,
/// ));
/// assert!(!auditor.observe(&attacked).is_clean());
/// assert_eq!(auditor.summary(TenantId(1)).unwrap().flagged_runs, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Auditor {
    machine: KernelConfig,
    sampling: SamplingPolicy,
    fleet_seed: u64,
    /// Whether record-embedded references are accepted. `true` on the
    /// fleet path, where the worker pool is the auditor's own trusted
    /// infrastructure; set to `false` for records from an untrusted
    /// executor, whose producer could forge the reference.
    trust_references: bool,
    /// When set, a record must carry a valid quote under this key before
    /// its precomputed reference is trusted (see
    /// [`Auditor::demand_quotes`]).
    attestation: Option<AttestationKey>,
    reference_cache: BTreeMap<ReferenceKey, ReferenceOutcome>,
    summaries: BTreeMap<TenantId, TenantAuditSummary>,
    /// Inline reference replays performed (cache misses without a
    /// precomputed reference) — the previously invisible audit cost.
    replays: u64,
    /// Records audited with a worker-precomputed reference.
    reference_hits: u64,
}

type ReferenceKey = (&'static str, u64, u64, i8);

impl Auditor {
    /// Relative billed-vs-truth tolerance below which a run is considered
    /// consistent. Wider than [`OverchargeReport::DEFAULT_TOLERANCE`]
    /// because at fleet scales a run is a few hundred milliseconds, where
    /// honest tick accounting already wobbles by a few jiffies (up to ~2%
    /// across the paper's four workloads); 5% keeps a 3x margin over that
    /// while still catching the weakest runtime attack (the scheduling
    /// attacker nets only ~7% against the multi-threaded Brute victim).
    pub const DEFAULT_TOLERANCE: f64 = 0.05;

    /// An auditor replaying references on `machine`, auditing every run.
    pub fn new(machine: KernelConfig) -> Auditor {
        Auditor {
            machine,
            sampling: SamplingPolicy::Always,
            fleet_seed: 0,
            trust_references: true,
            attestation: None,
            reference_cache: BTreeMap::new(),
            summaries: BTreeMap::new(),
            replays: 0,
            reference_hits: 0,
        }
    }

    /// Ignores record-embedded references and performs every audit against
    /// the auditor's own (memoized) inline replay.
    ///
    /// The default (trusting) mode is correct on the fleet path, where the
    /// worker pool computing the references *is* the auditor's own
    /// infrastructure. Records deserialized from an untrusted executor are
    /// a different matter: their producer — the metered platform, exactly
    /// the party this audit distrusts — controls the `reference` field and
    /// could forge a reference that agrees with its own bill. Distrusting
    /// references restores the paper's §VI posture of independent
    /// verification at the cost of one replay per job template.
    pub fn distrust_references(mut self) -> Auditor {
        self.trust_references = false;
        self
    }

    /// Replaces the sampling policy. `fleet_seed` keys the deterministic
    /// probabilistic decisions and must match the fleet's seed so the
    /// workers precompute references for exactly the runs audited here.
    pub fn with_sampling(mut self, policy: SamplingPolicy, fleet_seed: u64) -> Auditor {
        self.sampling = policy;
        self.fleet_seed = fleet_seed;
        self
    }

    /// Demands a valid attestation quote before trusting a record's
    /// precomputed reference (the §III-B posture: a usage report is only
    /// authentic if the TPM-signed quote over it verifies). The verifying
    /// key is derived from `fleet_seed`, matching the key the fleet's
    /// workers sign with ([`crate::Fleet::attestation_key`]).
    ///
    /// A record whose quote is missing, fails verification, or disagrees
    /// with the reported outcome is audited against the auditor's own
    /// inline replay instead, and its verdict carries an
    /// [`Anomaly::QuoteMismatch`].
    pub fn demand_quotes(mut self, fleet_seed: u64) -> Auditor {
        self.attestation = Some(crate::Fleet::attestation_key(fleet_seed));
        self
    }

    /// A snapshot of the auditor's accumulated state (summaries and cost
    /// counters) for checkpointing; see [`AuditorState`].
    pub fn state(&self) -> AuditorState {
        AuditorState {
            summaries: self.summaries.clone(),
            replays: self.replays,
            reference_hits: self.reference_hits,
        }
    }

    /// Replaces the auditor's accumulated state with a snapshot taken via
    /// [`Auditor::state`] (journal recovery from a checkpoint). The
    /// reference memo cache is left untouched: it is a performance memo,
    /// not accounting state.
    pub fn restore(&mut self, state: AuditorState) {
        self.summaries = state.summaries;
        self.replays = state.replays;
        self.reference_hits = state.reference_hits;
    }

    /// The active sampling policy.
    pub fn sampling(&self) -> SamplingPolicy {
        self.sampling
    }

    /// Inline reference replays performed so far (the §VI verification
    /// cost that precomputed references avoid).
    pub fn replay_count(&self) -> u64 {
        self.replays
    }

    /// Records audited with a worker-precomputed reference so far.
    pub fn reference_hit_count(&self) -> u64 {
        self.reference_hits
    }

    /// The reference outcome for a record: the worker-precomputed
    /// reference when the record carries one, otherwise a clean replay of
    /// the same workload, scale, seed and nice value, memoized. Both paths
    /// are the same deterministic simulation, so the returned reference is
    /// bit-identical either way.
    pub fn reference<'a>(&'a mut self, record: &'a RunRecord) -> &'a ReferenceOutcome {
        // Apply the same attestation gate as `observe`: with quotes
        // demanded, a record whose quote is missing or does not verify
        // gets the inline replay, never the (possibly forged) embedded
        // reference.
        let allow = self.trust_references
            && self
                .attestation
                .as_ref()
                .is_none_or(|key| check_quote(key, record).is_ok());
        self.reference_allowing(record, allow)
    }

    /// [`Auditor::reference`] with an explicit decision on whether the
    /// record-embedded reference may be used ([`Auditor::observe`] passes
    /// `false` when a demanded quote failed to verify).
    fn reference_allowing<'a>(
        &'a mut self,
        record: &'a RunRecord,
        allow_precomputed: bool,
    ) -> &'a ReferenceOutcome {
        if allow_precomputed {
            if let Some(reference) = &record.reference {
                self.reference_hits += 1;
                return reference;
            }
        }
        let key: ReferenceKey = (
            record.job.workload.label(),
            record.job.scale.to_bits(),
            record.seed,
            record.job.nice,
        );
        let machine = &self.machine;
        let replays = &mut self.replays;
        self.reference_cache.entry(key).or_insert_with(|| {
            *replays += 1;
            let mut scenario = Scenario::new(record.job.workload, record.job.scale)
                .with_config(machine.clone().with_seed(record.seed));
            scenario.victim_nice = record.job.nice;
            ReferenceOutcome::from_outcome(&scenario.run_clean())
        })
    }

    /// Audits one run, updating the per-tenant summaries. Runs the
    /// sampling policy skips are counted but not verified: their verdict
    /// carries `audited: false`, no anomalies, and a vacuously clean
    /// assessment.
    pub fn observe(&mut self, record: &RunRecord) -> AuditVerdict {
        let freq = self.machine.frequency;
        let tolerance = Self::DEFAULT_TOLERANCE;
        let outcome = &record.outcome;

        if !self.sampling.should_audit(self.fleet_seed, record.job.id) {
            let summary = self
                .summaries
                .entry(record.job.tenant)
                .or_insert_with(|| TenantAuditSummary::new(record.job.tenant));
            summary.runs += 1;
            summary.skipped_runs += 1;
            // A skipped run asserts nothing: compare the bill against
            // itself so the assessment is well-formed and clean.
            let report = OverchargeReport::compare_with_tolerance(
                outcome.victim_billed,
                outcome.victim_billed,
                freq,
                tolerance,
            );
            let source = SourceIntegrityReport {
                unexpected: Vec::new(),
                missing: Vec::new(),
                pcr_consistent: true,
            };
            return AuditVerdict {
                job: record.job.id,
                tenant: record.job.tenant,
                assessment: TrustAssessment::new(&source, true, report),
                anomalies: Vec::new(),
                audited: false,
            };
        }

        // Attestation gate: when quotes are demanded, every sampled
        // record's quote must verify and match the reported outcome — the
        // rule `Fleet::verify_record` applies — before the embedded
        // reference is trusted; otherwise fall back to an inline replay. A
        // record stripped of its reference as well as its quote is flagged
        // too.
        let quote_issue: Option<String> = match &self.attestation {
            Some(key) if self.trust_references => Auditor::quote_issue(key, record),
            _ => None,
        };
        let allow_precomputed = self.trust_references && quote_issue.is_none();

        // Derive everything needed from the memoized reference inside one
        // borrow, so the (large) outcome is never cloned per record.
        let (report, unexpected, missing, witness_expected, pcr_consistent) = {
            let reference = self.reference_allowing(record, allow_precomputed);
            let report = OverchargeReport::compare_with_tolerance(
                outcome.victim_billed,
                reference.victim_truth,
                freq,
                tolerance,
            );
            let unexpected: Vec<String> = outcome
                .unexpected_images(&reference.measured_images)
                .into_iter()
                .map(str::to_string)
                .collect();
            let missing: Vec<String> = reference
                .measured_images
                .iter()
                .filter(|name| !outcome.measured_images.contains(name))
                .cloned()
                .collect();
            // When the closures match exactly, the measurement PCR must
            // match the reference replay's; a diverging closure diverges in
            // PCR by construction, which the unexpected/missing lists
            // already capture.
            let images_match = reference.measured_images == outcome.measured_images;
            let pcr_consistent =
                !images_match || outcome.measurement_pcr == reference.measurement_pcr;
            (
                report,
                unexpected,
                missing,
                reference.witness_digest,
                pcr_consistent,
            )
        };
        let witness_matches = outcome.witness_digest == witness_expected;

        let source = SourceIntegrityReport {
            unexpected: unexpected
                .iter()
                .map(|name| MeasuredImage::new(name.clone(), ImageKind::ShellInjected))
                .collect(),
            missing: missing.clone(),
            pcr_consistent,
        };
        let assessment = TrustAssessment::new(&source, witness_matches, report);

        let mut anomalies = Vec::new();
        if report.verdict == Verdict::Overcharged {
            anomalies.push(Anomaly::Overbilled(report));
        }
        if !unexpected.is_empty() {
            anomalies.push(Anomaly::UnexpectedImages(unexpected));
        }
        if !missing.is_empty() || !pcr_consistent {
            anomalies.push(Anomaly::MeasurementMismatch {
                missing,
                pcr_consistent,
            });
        }
        if !witness_matches {
            anomalies.push(Anomaly::WitnessMismatch {
                expected: witness_expected,
                observed: outcome.witness_digest,
            });
        }
        if outcome.hit_horizon {
            anomalies.push(Anomaly::HorizonHit);
        }
        if let Some(reason) = quote_issue {
            anomalies.push(Anomaly::QuoteMismatch { reason });
        }

        let summary = self
            .summaries
            .entry(record.job.tenant)
            .or_insert_with(|| TenantAuditSummary::new(record.job.tenant));
        summary.runs += 1;
        if !anomalies.is_empty() {
            summary.flagged_runs += 1;
        }
        for anomaly in &anomalies {
            *summary
                .anomaly_counts
                .entry(anomaly.kind().to_string())
                .or_insert(0) += 1;
            if let Anomaly::Overbilled(report) = anomaly {
                summary.overcharge_secs += report.overcharge_secs;
            }
        }

        AuditVerdict {
            job: record.job.id,
            tenant: record.job.tenant,
            assessment,
            anomalies,
            audited: true,
        }
    }

    /// Why `record`'s quote does not vouch for its outcome under `key`
    /// ([`check_quote`]), as the reason label a `Verdict` line journals.
    /// The nonce commits to the precomputed reference, so editing the
    /// embedded reference after the fact surfaces as a nonce mismatch.
    fn quote_issue(key: &AttestationKey, record: &RunRecord) -> Option<String> {
        let label = match check_quote(key, record).err()? {
            QuoteFault::Missing => "missing",
            QuoteFault::Rejected(QuoteError::BadSignature) => "bad-signature",
            QuoteFault::Rejected(QuoteError::NonceMismatch) => "nonce-mismatch",
            QuoteFault::Disagrees(_) => "outcome-mismatch",
        };
        Some(label.to_string())
    }

    /// The accumulated summary for one tenant.
    pub fn summary(&self, tenant: TenantId) -> Option<&TenantAuditSummary> {
        self.summaries.get(&tenant)
    }

    /// Iterates summaries in tenant-id order.
    pub fn summaries(&self) -> impl Iterator<Item = &TenantAuditSummary> {
        self.summaries.values()
    }

    /// Number of memoized reference replays (for cache diagnostics).
    pub fn reference_cache_len(&self) -> usize {
        self.reference_cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{AttackSpec, Fleet, FleetConfig, JobSpec};
    use trustmeter_workloads::Workload;

    const SCALE: f64 = 0.002;

    fn fleet() -> Fleet {
        Fleet::new(FleetConfig::new(1, 1234))
    }

    #[test]
    fn clean_run_audits_clean() {
        let fleet = fleet();
        let job = JobSpec::clean(0, TenantId(1), Workload::LoopO, SCALE);
        let record = fleet.run_one(&job);
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let verdict = auditor.observe(&record);
        assert!(verdict.is_clean(), "anomalies: {:?}", verdict.anomalies);
        assert!(verdict.assessment.is_trustworthy());
        let summary = auditor.summary(TenantId(1)).unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.flagged_runs, 0);
    }

    #[test]
    fn shell_attack_is_flagged_with_injected_image() {
        let fleet = fleet();
        let job = JobSpec::attacked(0, TenantId(2), Workload::LoopO, SCALE, AttackSpec::Shell);
        let record = fleet.run_one(&job);
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let verdict = auditor.observe(&record);
        assert!(!verdict.is_clean());
        assert!(!verdict.assessment.source_integrity);
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        assert!(kinds.contains(&"overbilled"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"unexpected-images"), "kinds: {kinds:?}");
        let summary = auditor.summary(TenantId(2)).unwrap();
        assert_eq!(summary.flagged_runs, 1);
        assert!(summary.overcharge_secs > 0.0);
    }

    #[test]
    fn scheduling_attack_overbills_without_touching_integrity() {
        let fleet = fleet();
        let job = JobSpec::attacked(
            0,
            TenantId(3),
            Workload::Whetstone,
            SCALE,
            AttackSpec::Scheduling { nice: -10 },
        );
        let record = fleet.run_one(&job);
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let verdict = auditor.observe(&record);
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        assert!(kinds.contains(&"overbilled"), "kinds: {kinds:?}");
        assert!(!kinds.contains(&"unexpected-images"), "kinds: {kinds:?}");
    }

    #[test]
    fn tampered_measurement_log_is_flagged() {
        let fleet = fleet();
        let job = JobSpec::clean(0, TenantId(4), Workload::LoopO, SCALE);
        let mut record = fleet.run_one(&job);
        // A forged report that drops an image the reference loaded.
        let dropped = record.outcome.measured_images.pop().expect("image present");
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let verdict = auditor.observe(&record);
        match verdict.anomalies.as_slice() {
            [Anomaly::MeasurementMismatch {
                missing,
                pcr_consistent,
            }] => {
                assert_eq!(missing, &vec![dropped]);
                assert!(
                    pcr_consistent,
                    "closure differs, so PCR divergence is expected"
                );
            }
            other => panic!("expected a single measurement mismatch, got {other:?}"),
        }
        assert!(!verdict.assessment.source_integrity);
    }

    #[test]
    fn forged_pcr_with_matching_closure_is_flagged() {
        let fleet = fleet();
        let job = JobSpec::clean(0, TenantId(5), Workload::LoopO, SCALE);
        let mut record = fleet.run_one(&job);
        // Same image list, different PCR: a tampered measurement log.
        record.outcome.measurement_pcr = trustmeter_core::Digest::of(b"forged");
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let verdict = auditor.observe(&record);
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        assert!(kinds.contains(&"measurement-mismatch"), "kinds: {kinds:?}");
        assert!(!verdict.assessment.source_integrity);
    }

    #[test]
    fn reference_cache_is_shared_across_same_template_jobs() {
        let fleet = fleet();
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        // Strip the precomputed references to exercise the inline-replay
        // fallback: same template and id → same derived seed → one replay.
        for tenant in [TenantId(1), TenantId(2)] {
            let job = JobSpec::clean(9, tenant, Workload::Pi, SCALE);
            let mut record = fleet.run_one(&job);
            record.reference = None;
            auditor.observe(&record);
        }
        assert_eq!(auditor.reference_cache_len(), 1);
        assert_eq!(auditor.replay_count(), 1);
        assert_eq!(auditor.reference_hit_count(), 0);
    }

    #[test]
    fn precomputed_reference_skips_the_inline_replay() {
        let fleet = fleet();
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let job = JobSpec::attacked(3, TenantId(1), Workload::LoopO, SCALE, AttackSpec::Shell);
        let record = fleet.run_one(&job);
        assert!(record.reference.is_some(), "Always policy precomputes");
        let verdict = auditor.observe(&record);
        assert!(!verdict.is_clean());
        assert!(verdict.audited);
        assert_eq!(auditor.replay_count(), 0);
        assert_eq!(auditor.reference_hit_count(), 1);
        assert_eq!(auditor.reference_cache_len(), 0);
    }

    #[test]
    fn precomputed_and_inline_references_agree_bit_for_bit() {
        let fleet = fleet();
        let job = JobSpec::attacked(5, TenantId(1), Workload::LoopO, SCALE, AttackSpec::Shell);
        let record = fleet.run_one(&job);
        let precomputed = record.reference.clone().expect("reference precomputed");
        let mut stripped = record.clone();
        stripped.reference = None;
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        let inline = auditor.reference(&stripped).clone();
        assert_eq!(precomputed, inline);
        assert_eq!(auditor.replay_count(), 1);
    }

    #[test]
    fn distrusting_references_catches_a_forged_reference() {
        let fleet = fleet();
        let job = JobSpec::attacked(4, TenantId(6), Workload::LoopO, SCALE, AttackSpec::Shell);
        let mut record = fleet.run_one(&job);
        // The dishonest platform forges a reference that agrees with its
        // own inflated bill and tampered closure.
        record.reference = Some(ReferenceOutcome {
            victim_truth: record.outcome.victim_billed,
            measured_images: record.outcome.measured_images.clone(),
            measurement_pcr: record.outcome.measurement_pcr,
            witness_digest: record.outcome.witness_digest,
        });
        // A trusting auditor is deceived...
        let mut trusting = Auditor::new(fleet.config().machine.clone());
        assert!(trusting.observe(&record).is_clean());
        // ...a distrusting one replays independently and flags the attack.
        let mut distrusting = Auditor::new(fleet.config().machine.clone()).distrust_references();
        let verdict = distrusting.observe(&record);
        assert!(!verdict.is_clean());
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        assert!(kinds.contains(&"overbilled"), "kinds: {kinds:?}");
        assert_eq!(distrusting.replay_count(), 1);
        assert_eq!(distrusting.reference_hit_count(), 0);
    }

    #[test]
    fn quote_demanding_auditor_accepts_fleet_signed_records() {
        let fleet = fleet();
        let job = JobSpec::clean(0, TenantId(1), Workload::LoopO, SCALE);
        let record = fleet.run_one(&job);
        assert!(record.quote.is_some(), "sampled runs carry a quote");
        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let verdict = auditor.observe(&record);
        assert!(verdict.is_clean(), "anomalies: {:?}", verdict.anomalies);
        assert_eq!(auditor.reference_hit_count(), 1, "reference was trusted");
        assert_eq!(auditor.replay_count(), 0);
    }

    #[test]
    fn missing_quote_is_flagged_and_falls_back_to_inline_replay() {
        let fleet = fleet();
        let job = JobSpec::clean(0, TenantId(1), Workload::LoopO, SCALE);
        let mut record = fleet.run_one(&job);
        record.quote = None;
        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let verdict = auditor.observe(&record);
        match verdict.anomalies.as_slice() {
            [Anomaly::QuoteMismatch { reason }] => assert_eq!(reason, "missing"),
            other => panic!("expected a quote mismatch, got {other:?}"),
        }
        // The reference was not trusted: the auditor replayed inline.
        assert_eq!(auditor.reference_hit_count(), 0);
        assert_eq!(auditor.replay_count(), 1);
    }

    #[test]
    fn a_record_stripped_of_its_quote_and_reference_is_flagged() {
        let fleet = fleet();
        let job = JobSpec::clean(0, TenantId(1), Workload::LoopO, SCALE);
        let mut record = fleet.run_one(&job);
        record.quote = None;
        record.reference = None;
        assert!(fleet.verify_record(&record).is_err());
        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let verdict = auditor.observe(&record);
        match verdict.anomalies.as_slice() {
            [Anomaly::QuoteMismatch { reason }] => assert_eq!(reason, "missing"),
            other => panic!("expected a quote mismatch, got {other:?}"),
        }
        assert_eq!(auditor.replay_count(), 1, "replayed inline");
    }

    #[test]
    fn tampered_outcome_breaks_the_quote_and_the_replay_catches_it() {
        // The record's bill is inflated after execution (e.g. a tampered
        // journal). The quote no longer matches the reported usage, so the
        // embedded reference is distrusted and the inline replay flags the
        // overbilling that the forged record would otherwise hide.
        let fleet = fleet();
        let job = JobSpec::clean(7, TenantId(2), Workload::LoopO, SCALE);
        let mut record = fleet.run_one(&job);
        record.outcome.victim_billed.utime =
            trustmeter_sim::Cycles(record.outcome.victim_billed.utime.as_u64() * 2);
        // A naive forger also fixes up the embedded reference to agree.
        record.reference = Some(ReferenceOutcome {
            victim_truth: record.outcome.victim_billed,
            ..record.reference.clone().unwrap()
        });
        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let verdict = auditor.observe(&record);
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        assert!(kinds.contains(&"quote-mismatch"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"overbilled"), "kinds: {kinds:?}");
        // Without quote demands the forged reference deceives the auditor
        // into seeing a consistent bill.
        let mut naive = Auditor::new(fleet.config().machine.clone());
        let kinds: Vec<&str> = naive
            .observe(&record)
            .anomalies
            .iter()
            .map(Anomaly::kind)
            .collect();
        assert!(!kinds.contains(&"overbilled"), "kinds: {kinds:?}");
    }

    #[test]
    fn tampered_reference_breaks_the_quote_nonce() {
        // The attacker leaves the outcome alone but forges the embedded
        // clean reference up to the attacked bill, hiding the overcharge.
        // The quote nonce commits to the reference, so verification fails
        // with a nonce mismatch, and the auditor's own inline replay still
        // flags the overbilling.
        let fleet = fleet();
        let job = JobSpec::attacked(11, TenantId(3), Workload::LoopO, SCALE, AttackSpec::Shell);
        let mut record = fleet.run_one(&job);
        record.reference.as_mut().unwrap().victim_truth = record.outcome.victim_billed;
        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let verdict = auditor.observe(&record);
        let reasons: Vec<&str> = verdict
            .anomalies
            .iter()
            .filter_map(|a| match a {
                Anomaly::QuoteMismatch { reason } => Some(reason.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, ["nonce-mismatch"]);
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        assert!(kinds.contains(&"overbilled"), "kinds: {kinds:?}");
        assert_eq!(auditor.replay_count(), 1, "fell back to the inline replay");
        assert_eq!(auditor.reference_hit_count(), 0);

        // The public reference() accessor applies the same gate: it never
        // hands back the forged embedded reference.
        let mut fresh = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let reference = fresh.reference(&record).clone();
        assert_ne!(
            reference.victim_truth, record.outcome.victim_billed,
            "the forged truth must not be returned"
        );
        assert_eq!(fresh.replay_count(), 1);
        assert_eq!(fresh.reference_hit_count(), 0);
    }

    #[test]
    fn an_attacked_run_line_rewritten_to_the_clean_marker_is_caught() {
        // On disk, an attacked job's replayed reference is written in
        // full. Rewriting it to the clean marker makes the reference the
        // attacked outcome's own facts — no overcharge, no foreign image,
        // the observed witness — but the quote nonce commits to the real
        // reference.
        let fleet = fleet();
        let job = JobSpec::attacked(11, TenantId(3), Workload::LoopO, SCALE, AttackSpec::Shell);
        let record = fleet.run_one(&job);
        let line = serde_json::to_string(&record).unwrap();
        let start = line.find("\"reference\":{\"Replayed\":").unwrap() + "\"reference\":".len();
        let end = line.find(",\"quote\":").unwrap();
        let forged = format!("{}\"Outcome\"{}", &line[..start], &line[end..]);
        let forged: RunRecord = serde_json::from_str(&forged).unwrap();
        assert_eq!(
            forged.reference,
            Some(ReferenceOutcome::from_outcome(&record.outcome))
        );
        assert_eq!(
            fleet.verify_record(&forged).unwrap_err(),
            "quote verification failed: quote nonce did not match the challenge"
        );

        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(1234);
        let verdict = auditor.observe(&forged);
        let kinds: Vec<&str> = verdict.anomalies.iter().map(Anomaly::kind).collect();
        for kind in [
            "quote-mismatch",
            "overbilled",
            "unexpected-images",
            "witness-mismatch",
        ] {
            assert!(kinds.contains(&kind), "{kind} in {kinds:?}");
        }
        assert!(verdict.anomalies.contains(&Anomaly::QuoteMismatch {
            reason: "nonce-mismatch".to_string()
        }));
        assert_eq!(auditor.replay_count(), 1, "fell back to the inline replay");
    }

    #[test]
    fn wrong_key_quote_is_a_bad_signature() {
        let fleet = fleet();
        let record = fleet.run_one(&JobSpec::clean(3, TenantId(1), Workload::LoopO, SCALE));
        // Verifier derives its key from a different fleet seed.
        let mut auditor = Auditor::new(fleet.config().machine.clone()).demand_quotes(9999);
        let verdict = auditor.observe(&record);
        match verdict.anomalies.as_slice() {
            [Anomaly::QuoteMismatch { reason }] => assert_eq!(reason, "bad-signature"),
            other => panic!("expected a quote mismatch, got {other:?}"),
        }
    }

    #[test]
    fn auditor_state_snapshot_round_trips() {
        let fleet = fleet();
        let mut auditor = Auditor::new(fleet.config().machine.clone());
        auditor.observe(&fleet.run_one(&JobSpec::attacked(
            0,
            TenantId(1),
            Workload::LoopO,
            SCALE,
            AttackSpec::Shell,
        )));
        let state = auditor.state();
        assert_eq!(state.summaries[&TenantId(1)].flagged_runs, 1);
        let mut restored = Auditor::new(fleet.config().machine.clone());
        restored.restore(state.clone());
        assert_eq!(restored.state(), state);
        assert_eq!(restored.summary(TenantId(1)).unwrap().flagged_runs, 1);
    }

    #[test]
    fn sampling_policy_skips_are_counted_and_vacuously_clean() {
        // EveryNth(2): even job ids audited, odd skipped.
        let config = FleetConfig::new(1, 1234).with_sampling(SamplingPolicy::EveryNth(2));
        let fleet = Fleet::new(config);
        let mut auditor = Auditor::new(fleet.config().machine.clone())
            .with_sampling(SamplingPolicy::EveryNth(2), 1234);
        // An attacked run with an odd id is skipped: no anomaly raised.
        let skipped_job =
            JobSpec::attacked(1, TenantId(1), Workload::LoopO, SCALE, AttackSpec::Shell);
        let skipped_record = fleet.run_one(&skipped_job);
        assert!(skipped_record.reference.is_none(), "no reference for skips");
        let verdict = auditor.observe(&skipped_record);
        assert!(!verdict.audited);
        assert!(verdict.is_clean());
        assert!(verdict.assessment.is_trustworthy());
        // The same attack with an even id is caught.
        let audited_job =
            JobSpec::attacked(2, TenantId(1), Workload::LoopO, SCALE, AttackSpec::Shell);
        let verdict = auditor.observe(&fleet.run_one(&audited_job));
        assert!(verdict.audited);
        assert!(!verdict.is_clean());
        let summary = auditor.summary(TenantId(1)).unwrap();
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.skipped_runs, 1);
        assert_eq!(summary.flagged_runs, 1);
        assert_eq!(auditor.replay_count(), 0, "audited run had a reference");
    }
}
