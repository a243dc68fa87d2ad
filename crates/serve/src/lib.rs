//! `aro-serve` — a simulated fleet-authentication verifier backend,
//! hardened the way a production service would be.
//!
//! The repo's device-side stack keeps one chip's key alive for ten
//! years; this crate asks what happens when a *fleet* of aging, faulted
//! devices hits a verifier that itself can fail. Four pieces:
//!
//! * [`store`] — a sharded, N-way replicated enrollment/helper-data
//!   store with per-record checksums. Helper data is public but
//!   integrity-checked; corruption (injected with `aro-faults`' own
//!   helper-erasure machinery, replica wipes, and whole-shard losses)
//!   is detected on read, served from any intact sibling replica, and
//!   healed by the maintenance cycle's anti-entropy scrub — the store
//!   fails closed only when *every* replica of a record is gone.
//! * [`pipeline`] — bounded retries, per-attempt timeouts, and
//!   deterministic seed-derived backoff per request. Latency is
//!   simulated integer µs, which is what keeps serve-bench reports
//!   byte-identical at any thread count.
//! * [`service`] — the verification pipeline plus a health state
//!   machine (healthy → degraded → read-only) driven by a windowed
//!   operational-error rate; deterministic load shedding
//!   (reject-with-retry-after, never wrong answers); and the
//!   quarantine → `ecc::refresh` continuity-gated re-enrollment →
//!   re-admission path for devices whose distance margin degrades past
//!   the watermark.
//! * [`bench`] — the round-based fleet driver behind EXP-18 and
//!   `repro serve-bench`: plan a round deterministically, fan probes
//!   out through `aro-par`, fold outcomes in device-index order.
//! * [`audit`] — the request-scoped audit trail: a seed-derived request
//!   id per verification, its full causal chain (store read → attempts
//!   with fault linkage → verdict → quarantine/health/re-enrollment)
//!   emitted as structured JSONL on the simulated service clock.
//!   Consumed by `repro report incidents` / `report slo`.
//!
//! Everything is observable through `aro-obs` `serve.*` counters and
//! sketches. See `docs/ROBUSTNESS.md` ("Fleet authentication service")
//! and `docs/OBSERVABILITY.md` ("Serve audit trail & incident
//! forensics").

pub mod audit;
pub mod bench;
pub mod pipeline;
pub mod service;
pub mod store;

pub use audit::{AttemptAudit, AttemptFaults, RequestAudit, StoreAudit};
pub use bench::{run_bench, BenchPlan, BenchStats, FleetContext};
pub use pipeline::{LatencyModel, RetryPolicy};
pub use service::{
    AuthService, HealthState, ReenrollOutcome, ReenrollVerdict, RequestOutcome, ServicePolicy,
    StoreHealth, Tallies, Verdict,
};
pub use store::{
    ReadOutcome, ReplicaSummary, ScrubRepair, ScrubReport, ShardedStore, StoredRecord,
    REPLICA_WINDOW_STRIDE, STORE_WINDOW_BASE,
};
