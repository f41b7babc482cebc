//! # trustmeter
//!
//! A library-scale reproduction of **"On Trustworthiness of CPU Usage
//! Metering and Accounting"** (Mei Liu and Xuhua Ding, ICDCS Workshops
//! 2010): the commodity tick-based CPU accounting scheme, the seven attacks
//! that let a dishonest utility-computing provider inflate a customer's CPU
//! bill without touching the kernel or the customer's binary, and the three
//! defensive properties the paper argues a trustworthy metering platform
//! needs — source integrity, execution integrity and fine-grained metering.
//!
//! The crate is a facade over the workspace:
//!
//! | Component | Crate | What it provides |
//! |-----------|-------|------------------|
//! | [`core`]  | `trustmeter-core` | metering schemes (tick, TSC, process-aware), measured launch, execution witnesses, attestation, billing, overcharge analysis |
//! | [`kernel`] | `trustmeter-kernel` | the simulated single-core Linux machine (scheduler, timer ticks, ptrace, paging, loader, devices) |
//! | [`workloads`] | `trustmeter-workloads` | the paper's four victim programs (O, Pi, Whetstone, Brute) plus native reference kernels |
//! | [`attacks`] | `trustmeter-attacks` | the seven attacks of §IV |
//! | [`experiments`] | `trustmeter-experiments` | figure-by-figure reproduction of the evaluation (§V) and the defense/ablation studies |
//! | [`fleet`] | `trustmeter-fleet` | the streaming multi-tenant metering service: worker-pool ingestion with backpressure and per-tenant fairness, per-tenant ledgers, overcharge auditing, a tamper-evident write-ahead evidence ledger (hash-chained journal, sealed blocks, inclusion proofs, dispute settlement) with crash recovery and compaction, metrics exporter |
//! | [`sim`] | `trustmeter-sim` | the discrete-event simulation substrate |
//!
//! ## Quick start
//!
//! ```
//! use trustmeter::prelude::*;
//!
//! // A customer submits the Whetstone benchmark to a (dishonest) provider.
//! let scenario = Scenario::new(Workload::Whetstone, 0.002);
//! let clean = scenario.run_clean();
//!
//! // Launch-time attack: the shell injects a CPU-bound loop before execve.
//! // The bill grows, and the measured launch (source integrity) flags the
//! // injected code — fine-grained metering alone would not help, because
//! // the injected loop really does run in the victim's context.
//! let shelled = scenario.run_attacked(&ShellAttack::paper_default(0.002));
//! assert!(shelled.billed_total_secs() > clean.billed_total_secs() * 1.1);
//! let injected = shelled.unexpected_images(&clean.measured_images);
//! assert_eq!(injected, vec!["shell-injected-loop"]);
//!
//! // Runtime attack: the fork/wait scheduling attacker inflates the bill
//! // without adding any code; fine-grained (TSC) metering is immune.
//! let sched = scenario.run_attacked(&SchedulingAttack::paper_default(0.002, -10));
//! assert!(sched.billed_total_secs() > clean.billed_total_secs() * 1.1);
//! assert!(sched.truth_total_secs() < clean.truth_total_secs() * 1.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use trustmeter_attacks as attacks;
pub use trustmeter_core as core;
pub use trustmeter_experiments as experiments;
pub use trustmeter_fleet as fleet;
pub use trustmeter_kernel as kernel;
pub use trustmeter_sim as sim;
pub use trustmeter_workloads as workloads;

/// The most commonly used types, re-exported for `use trustmeter::prelude::*`.
pub mod prelude {
    pub use trustmeter_attacks::{
        Attack, ExceptionFloodAttack, ForkAttacker, InterpositionAttack, InterruptFloodAttack,
        MemoryHog, PreloadConstructorAttack, Privilege, SchedulingAttack, ShellAttack, Thrasher,
        ThrashingAttack,
    };
    pub use trustmeter_core::{
        AttackClass, AttestationKey, CpuTime, Digest, ExecutionWitness, ImageKind, Invoice,
        MeasuredImage, MeasurementLog, MeterBank, MeterEvent, MeteringScheme, Mode,
        OverchargeReport, PcrBank, ProcessAwareAccounting, Quote, RateCard, SchemeKind, Sha256,
        SourceIntegrityReport, TaskId, TickAccounting, TrustAssessment, TrustProperty,
        TscAccounting, Verdict,
    };
    pub use trustmeter_experiments::{
        all_figures, comparison_table, defenses, ExperimentConfig, FigureData, Scenario,
        ScenarioOutcome,
    };
    pub use trustmeter_fleet::{
        compact, excluded_metric_families, metering_exposition, parse_journal, quote_nonce,
        recovery_window, span_id, strip_families, Anomaly, AttackSpec, AuditVerdict, Auditor,
        AuditorState, BackpressurePolicy, BatchSubmitError, BlockHeader, BufferPool, Checkpoint,
        CheckpointCadence, CounterCell, DisputeError, DisputeResolution, FairQueue,
        FaultInjectingSink, FaultKind, FaultProbe, FaultSchedule, FaultStats, Fleet, FleetConfig,
        FleetHealth, FleetIngest, FleetReport, FleetService, FleetStream, FsyncPolicy,
        InclusionProof, IngestConfig, IngestHandle, IngestOutcome, IngestStats, InvoicePosting,
        JobId, JobSpec, JobVerdict, Journal, JournalEntry, JournalError, JournalSink, JournalStats,
        Ledger, LedgerVerification, MemorySink, MetricsRegistry, PipelineTracer, PlannedFault,
        PlannedWorkerFault, PoisonNotice, PoolStats, ProofError, ProofStep, RecoveryError,
        RecoveryReport, ReferenceOutcome, RetryPolicy, RunRecord, SamplingPolicy, SealKey,
        SegmentConfig, SegmentedFileSink, SinkStats, Span, SpanWall, Stage, StageObservation,
        SubmitError, SupervisorPolicy, TailStatus, Tenant, TenantAuditSummary, TenantDirectory,
        TenantId, TenantLedger, TracerStats, WorkerFaultKind, WorkerFaultSchedule,
    };
    pub use trustmeter_kernel::{
        Kernel, KernelConfig, NicFlood, Op, OpOutcome, OpsProgram, Program, RunResult,
        SchedulerKind, SharedLibrary, SyscallOp,
    };
    pub use trustmeter_sim::{CpuFrequency, Cycles, Nanos, Series};
    pub use trustmeter_workloads::{native, VictimProgram, VictimSpec, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = CpuFrequency::E7200;
        let _ = Workload::ALL;
        let card = RateCard::per_cpu_hour(0.10);
        assert!(card.price_per_unit > 0.0);
    }
}
