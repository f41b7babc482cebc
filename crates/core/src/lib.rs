//! # trustmeter-core
//!
//! The primary contribution of the reproduced paper, *"On Trustworthiness of
//! CPU Usage Metering and Accounting"* (Liu & Ding, ICDCSW 2010), as a
//! reusable library: CPU-time **metering schemes**, the **trust properties**
//! the paper argues a utility-computing platform must provide (source
//! integrity, execution integrity, fine-grained metering), and the
//! **billing / overcharge analysis** used to quantify how much a dishonest
//! provider inflates a customer's bill.
//!
//! The crate is deliberately independent of the simulated kernel: it consumes
//! a stream of [`MeterEvent`]s (context switches, mode changes, timer ticks,
//! interrupts, exceptions) that any execution substrate — the bundled
//! simulator, a trace replayer, or a real instrumented kernel — can produce.
//!
//! ## Metering schemes
//!
//! * [`TickAccounting`] — the commodity scheme the paper attacks: one jiffy
//!   is charged to whichever task is current when the timer interrupt fires,
//!   to `utime` or `stime` depending on the interrupted mode.
//! * [`TscAccounting`] — fine-grained metering built on the time-stamp
//!   counter: exact cycles are attributed at every state transition.
//! * [`ProcessAwareAccounting`] — fine-grained metering that additionally
//!   attributes interrupt-handler time to the interrupt's owner instead of
//!   the interrupted victim (the fix for the interrupt-flooding attack).
//!
//! ## Trust properties
//!
//! * [`integrity::MeasurementLog`] / [`integrity::PcrBank`] — TPM-style
//!   measured launch of every image that enters a process's context
//!   (source integrity).
//! * [`integrity::ExecutionWitness`] — one SHA-256 over the digests of the
//!   executed control-flow steps (execution integrity).
//! * [`attest::Quote`] — a signed attestation binding a usage report to the
//!   measurement log.
//!
//! ## Example
//!
//! ```
//! use trustmeter_core::{
//!     CpuTime, MeterEvent, MeteringScheme, Mode, TaskId, TickAccounting, TscAccounting,
//! };
//! use trustmeter_sim::{CpuFrequency, Cycles, Nanos};
//!
//! let freq = CpuFrequency::E7200;
//! let jiffy = freq.cycles_for(Nanos::from_millis(4)); // HZ=250
//! let mut tick = TickAccounting::new(jiffy);
//! let mut tsc = TscAccounting::new();
//! let t = TaskId(7);
//!
//! // Task 7 runs in user mode for half a jiffy, then another task runs the
//! // remaining half and is current when the tick arrives.
//! let half = Cycles(jiffy.as_u64() / 2);
//! for scheme in [&mut tick as &mut dyn MeteringScheme, &mut tsc] {
//!     scheme.on_event(&MeterEvent::SwitchIn { at: Cycles(0), task: t, mode: Mode::User });
//!     scheme.on_event(&MeterEvent::SwitchOut { at: half, task: t });
//!     scheme.on_event(&MeterEvent::SwitchIn { at: half, task: TaskId(8), mode: Mode::User });
//!     scheme.on_event(&MeterEvent::TimerTick { at: jiffy, task: Some(TaskId(8)), mode: Mode::User });
//! }
//!
//! // The commodity scheme charges the whole jiffy to task 8 and nothing to
//! // task 7 — exactly the imprecision the scheduling attack exploits.
//! assert_eq!(tick.usage(t), CpuTime::ZERO);
//! assert_eq!(tsc.usage(t).utime, half);
//! ```

// Unsafe is denied everywhere except the one hardware-intrinsics module
// (`integrity::sha256::shani`), which carries its own `allow` and safety
// comments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attest;
pub mod billing;
pub mod cputime;
pub mod events;
pub mod integrity;
pub mod scheme;

pub use analysis::{AttackClass, OverchargeReport, TrustAssessment, TrustProperty, Verdict};
pub use attest::{AttestationKey, Quote, QuoteError};
pub use billing::{Invoice, LineItem, RateCard, RoundingPolicy};
pub use cputime::{CpuTime, Mode, TaskId};
pub use events::{ExceptionKind, IrqLine, MeterEvent};
pub use integrity::{
    Digest, ExecutionWitness, ImageKind, MeasuredImage, MeasurementLog, PcrBank, Sha256,
    SourceIntegrityReport,
};
pub use scheme::{
    MeterBank, MeteringScheme, ProcessAwareAccounting, SchemeKind, TickAccounting, TscAccounting,
};
