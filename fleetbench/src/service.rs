//! Building the service under test the way every workload needs it, and
//! the fingerprint its correctness checks compare.

use std::path::Path;

use trustmeter_core::Sha256;
use trustmeter_fleet::{
    metering_exposition, CheckpointCadence, FleetConfig, FleetService, FsyncPolicy, Journal,
    PipelineTracer, RateCard, SegmentConfig, Tenant,
};

use crate::mix::{RATE_CARDS, TENANTS};

/// Rotate journal segments at this size, so a run seals many blocks.
const SEGMENT_BYTES: u64 = 128 * 1024;

/// The production journal: segmented, flushed per commit without fsync,
/// every rotated segment sealed under the fleet seed.
pub fn segment_config(fleet_seed: u64) -> SegmentConfig {
    SegmentConfig::default()
        .with_segment_bytes(SEGMENT_BYTES)
        .with_fsync(FsyncPolicy::Never)
        .with_seal(fleet_seed)
}

/// A fresh service with the four tenants registered, auditing every run
/// (`SamplingPolicy::Always`, the `FleetConfig` default).
pub fn fresh(workers: usize, fleet_seed: u64) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(workers, fleet_seed));
    for (tenant, card) in TENANTS.iter().zip(RATE_CARDS) {
        service.register(Tenant::new(
            *tenant,
            format!("t{}", tenant.0),
            RateCard::per_cpu_hour(card),
        ));
    }
    service
}

/// A fresh service journaling into a new sealed segment directory at
/// `dir`, with an inline checkpoint every `checkpoint_every` runs (none
/// when `None`) and `tracer` attached.
pub fn journaled(
    dir: &Path,
    workers: usize,
    fleet_seed: u64,
    checkpoint_every: Option<u64>,
    tracer: Option<PipelineTracer>,
) -> Result<FleetService, String> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = Journal::segmented(dir, segment_config(fleet_seed))
        .map_err(|e| format!("open journal {}: {e}", dir.display()))?;
    let mut service = fresh(workers, fleet_seed).with_journal(journal);
    if let Some(n) = checkpoint_every {
        service = service.with_checkpoint_cadence(CheckpointCadence::every_n_runs(n));
    }
    if let Some(tracer) = tracer {
        service = service.with_tracer(tracer);
    }
    Ok(service)
}

/// What a correct service must reproduce: its ledger and its metering
/// exposition (the billing-grade metric families).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub ledger: String,
    pub metering: String,
}

impl Fingerprint {
    pub fn of(service: &FleetService) -> Fingerprint {
        Fingerprint {
            ledger: serde_json::to_string(service.ledger()).expect("a ledger serializes"),
            metering: metering_exposition(&service.metrics_text()),
        }
    }

    /// Hex SHA-256 over both parts, for pinning.
    pub fn digest(&self) -> String {
        let mut bytes = self.ledger.clone().into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(self.metering.as_bytes());
        Sha256::digest(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}
