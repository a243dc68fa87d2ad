//! Fleet-authentication-service robustness tests: thread-count
//! byte-identity of the `serve-bench` report and of the maintenance
//! audit trail, deterministic store-corruption recovery, the
//! quarantine → helper-refresh → re-admission round trip, and the
//! re-enrollment paths that must never read a chip.
//!
//! See `docs/ROBUSTNESS.md` ("Fleet authentication service") for the
//! contract these tests enforce.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aro_puf_repro::circuit::ring::RoStyle;
use aro_puf_repro::device::environment::Environment;
use aro_puf_repro::ecc::area::PufAreaParams;
use aro_puf_repro::ecc::keygen::KeyGenerator;
use aro_puf_repro::faults::{FaultInjector, FaultPlan};
use aro_puf_repro::puf::{Challenge, Chip, PairingStrategy, PufDesign};
use aro_puf_repro::serve::{
    audit, run_bench, AuthService, BenchPlan, FleetContext, HealthState, ReadOutcome,
    ReenrollVerdict, RequestOutcome, ServicePolicy, ShardedStore, StoredRecord, Verdict,
};
use aro_puf_repro::sim::experiments::run_by_id;
use aro_puf_repro::sim::parallel::set_thread_override;
use aro_puf_repro::sim::servefleet::FleetWorkspace;
use aro_puf_repro::sim::{faultctx, popcache, SimConfig};
use proptest::prelude::*;

/// The audit switch, `aro-obs` enablement, the telemetry sink and the
/// thread override are process-global, and every test here drives serve
/// traffic through them: run the tests one at a time.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the global state a capture changed, even when an assertion
/// fails mid-test.
struct Cleanup;
impl Drop for Cleanup {
    fn drop(&mut self) {
        set_thread_override(0);
        audit::set_enabled(false);
        aro_obs::set_enabled(false);
        aro_obs::sink::close();
        aro_obs::reset();
    }
}

/// Runs `f` with the audit trail captured to memory; returns its result
/// and the audit JSONL lines it emitted, in order.
fn capture_audit<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    aro_obs::reset();
    aro_obs::set_enabled(true);
    audit::set_enabled(true);
    let buf = aro_obs::sink::install_memory();
    let out = f();
    aro_obs::sink::close();
    audit::set_enabled(false);
    aro_obs::set_enabled(false);
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf-8 telemetry");
    let lines = text
        .lines()
        .filter(|line| line.contains(r#""event":"audit""#))
        .map(str::to_string)
        .collect();
    (out, lines)
}

/// The `(device, outcome)` of every `reenroll` line, grouped into
/// maintenance passes: a pass is a maximal run of consecutive
/// re-enrollment lines (traffic and scrub lines separate passes).
fn maintenance_passes(trail: &[String]) -> Vec<Vec<(u64, String)>> {
    let mut passes = vec![Vec::new()];
    for line in trail {
        let event = aro_obs::json::parse(line).expect("audit line is JSON");
        let field = |key| event.get(key).expect("audit field present");
        if field("stage").as_str() == Some("reenroll") {
            let device = field("device").as_u64().expect("device id");
            let outcome = field("outcome").as_str().expect("outcome label");
            passes.last_mut().unwrap().push((device, outcome.to_string()));
        } else if !passes.last().unwrap().is_empty() {
            passes.push(Vec::new());
        }
    }
    passes.retain(|pass| !pass.is_empty());
    passes
}

/// The small key generator the direct-drive tests enroll with.
fn tiny_generator() -> KeyGenerator {
    let params = PufAreaParams {
        ro_cell_ge: 3.0,
        readout_fixed_ge: 120.0,
        readout_per_ro_ge: 3.0,
        ros_per_bit: 2.0,
    };
    KeyGenerator::for_bit_error_rate(0.05, 32, 1e-6, &params).expect("feasible")
}

/// An ARO design sized for `generator`, its nominal environment, and
/// the key pair set.
fn tiny_design(generator: &KeyGenerator) -> (PufDesign, Environment, Vec<(usize, usize)>) {
    let n_ros = 2 * generator.response_bits();
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(n_ros)
        .seed(0x5e7e)
        .build();
    let env = Environment::nominal(design.tech());
    (design, env, PairingStrategy::Neighbor.pairs(n_ros))
}

/// A small configuration that keeps each serve-bench run around a
/// second while still exercising the full enrollment/traffic path.
fn tiny_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick();
    cfg.n_chips = 4;
    cfg.key_bits = 32;
    cfg.seed = seed;
    cfg
}

/// Renders the `serve-bench` report at a forced worker-thread count
/// under `plan`, exactly as `repro --faults PLAN serve-bench` would.
fn serve_bench_at(plan: &str, seed: u64, threads: usize) -> String {
    let cfg = tiny_cfg(seed);
    let plan = FaultPlan::parse(plan).expect("valid plan");
    // `repro` installs no ambient injector when faults are off.
    let injector = (!plan.is_off()).then(|| Arc::new(FaultInjector::new(plan, cfg.seed)));
    set_thread_override(threads);
    let out = faultctx::scoped(injector, || {
        popcache::scoped(|| {
            run_by_id("serve-bench", &cfg)
                .expect("serve-bench is a known id")
                .to_string()
        })
    });
    set_thread_override(0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3 })]

    /// The tentpole contract: the whole serve-bench report — auths/sec,
    /// p50/p99, FAR/FRR, shed/quarantine tallies, health states — is
    /// byte-identical at any `--threads N`, with faults off and under a
    /// half-intensity storm alike.
    #[test]
    fn serve_bench_report_is_byte_identical_across_thread_counts(
        plan in prop::sample::select(vec!["off", "storm@0.5"]),
        seed in 0u64..100,
    ) {
        let _guard = lock();
        let t1 = serve_bench_at(plan, seed, 1);
        let t2 = serve_bench_at(plan, seed, 2);
        let t8 = serve_bench_at(plan, seed, 8);
        prop_assert_eq!(&t1, &t2, "1 vs 2 threads under {}", plan);
        prop_assert_eq!(&t1, &t8, "1 vs 8 threads under {}", plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2 })]

    /// The audit trail is observability, not behaviour: with capture
    /// enabled the serve-bench report — every tally, latency percentile,
    /// and health state — stays byte-identical to an uninstrumented run,
    /// at 1, 2, and 8 worker threads, with faults off and under a storm.
    #[test]
    fn audit_capture_never_changes_the_serve_report(
        plan in prop::sample::select(vec!["off", "storm@0.5"]),
        seed in 0u64..100,
    ) {
        let _guard = lock();
        for threads in [1usize, 2, 8] {
            audit::set_enabled(false);
            let off = serve_bench_at(plan, seed, threads);
            audit::set_enabled(true);
            let on = serve_bench_at(plan, seed, threads);
            audit::set_enabled(false);
            prop_assert_eq!(
                &off, &on,
                "audit on/off at {} threads under {}", threads, plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Anti-entropy convergence (satellite of the replicated store):
    /// after one scrub pass, every record group that kept at least one
    /// intact replica is fully healed — reads serve `Intact`, and all
    /// sibling replicas are byte-identical (a second scrub finds nothing
    /// left to repair). Groups that lost every replica are reported
    /// unrecoverable, never silently served. Holds at 1, 2, and 8
    /// forced worker threads, with faults off and under a full storm.
    #[test]
    fn scrub_converges_every_group_with_an_intact_replica(
        plan in prop::sample::select(vec!["off", "storm"]),
        seed in 0u64..50,
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let _guard = lock();
        set_thread_override(threads);
        let params = PufAreaParams {
            ro_cell_ge: 3.0,
            readout_fixed_ge: 120.0,
            readout_per_ro_ge: 3.0,
            ros_per_bit: 2.0,
        };
        let generator = KeyGenerator::for_bit_error_rate(0.05, 32, 1e-6, &params)
            .expect("feasible");
        let n = 8usize;
        let mut store = ShardedStore::for_fleet_replicated(n, 4, 3);
        let design = PufDesign::builder(RoStyle::AgingResistant)
            .n_ros(2 * generator.response_bits())
            .seed(seed ^ 0x5c7b)
            .build();
        let env = aro_puf_repro::device::environment::Environment::nominal(design.tech());
        let key_pairs = PairingStrategy::Neighbor.pairs(design.n_ros());
        for id in 0..n as u64 {
            let chip = Chip::fabricate(&design, id);
            let golden = chip.golden_response(&design, &env, &key_pairs);
            let mut rng = design.seed_domain().child("scrub-test").rng(id);
            let (key, helper) = generator.enroll(&golden, &mut rng);
            store.insert(StoredRecord::new(id, key_pairs.clone(), golden, helper, key));
        }

        // Field damage: several full-fraction maintenance windows of the
        // selected plan (helper erosion + replica wipes + shard losses).
        let plan = FaultPlan::parse(plan).expect("valid plan");
        if !plan.is_off() {
            let inj = FaultInjector::new(plan, seed);
            for window in 0..4 {
                store.erode(&inj, window, 1.0);
            }
        }

        let recoverable: Vec<u64> = (0..n as u64)
            .filter(|&id| store.replica_summary(id).intact > 0)
            .collect();
        let report = store.scrub();

        for &id in &recoverable {
            let summary = store.replica_summary(id);
            prop_assert_eq!(summary.intact, 3, "device {} fully healed", id);
            prop_assert_eq!(summary.corrupt + summary.wiped, 0);
            prop_assert!(
                matches!(store.read(id), ReadOutcome::Intact(_)),
                "device {} must read Intact after scrub", id
            );
            prop_assert!(!report.unrecoverable.contains(&id));
        }
        for id in 0..n as u64 {
            if !recoverable.contains(&id) {
                prop_assert!(
                    report.unrecoverable.contains(&id),
                    "group {} with no intact replica must be reported, not served", id
                );
            }
        }
        // Convergence: one pass suffices — the siblings are now
        // byte-identical, so a second pass repairs nothing.
        let again = store.scrub();
        prop_assert!(again.repairs.is_empty(), "second scrub must be a no-op");
        set_thread_override(0);
    }
}

/// A synthetic probe outcome for driving `admit()` directly.
fn synthetic(verdict: Verdict, attempt_timeouts: u32) -> RequestOutcome {
    RequestOutcome {
        target_id: 0,
        verdict,
        attempts: 1 + attempt_timeouts,
        attempt_timeouts,
        latency_us: 100,
        served_replica: Some(0),
        replicas_lost: 0,
        audit: None,
    }
}

/// Exhaustive transition table of the health-machine hysteresis,
/// exercised through `admit()` with an 8-event window (evaluation
/// starts at 4 events). With `degraded_watermark` 0.25 and
/// `read_only_watermark` 0.50, the reachable single-step transitions
/// per (state, windowed error rate) band are:
///
/// | state     | rate < 1/8 | 1/8 ≤ rate < 1/4 | 1/4 ≤ rate < 1/2 | rate ≥ 1/2 |
/// |-----------|------------|------------------|------------------|------------|
/// | Healthy   | Healthy    | Healthy          | Degraded         | ReadOnly   |
/// | Degraded  | Healthy    | Degraded (hyst.) | Degraded         | ReadOnly   |
/// | ReadOnly  | —          | Degraded         | ReadOnly (hyst.) | ReadOnly   |
///
/// (`ReadOnly` at rate < 1/8 is unreachable in one step: a sliding
/// window moves the error count by at most one per event, so recovery
/// always passes through `Degraded` at 1/8.)
#[test]
fn health_machine_hysteresis_transition_table() {
    let _guard = lock();
    let policy = ServicePolicy {
        health_window: 8,
        ..ServicePolicy::default()
    };
    let ok = || synthetic(Verdict::Accepted { distance: 0.0 }, 0);
    let err = || synthetic(Verdict::TimedOut, 0);

    // One trajectory walking every reachable row. Each step is
    // (error?, expected state after admitting it); the comment gives
    // the window contents' error rate at that point.
    use HealthState::{Degraded, Healthy, ReadOnly};
    let trajectory = [
        (false, Healthy),  //  1: warmup (3 events < window/2: no verdicts yet)
        (false, Healthy),  //  2
        (false, Healthy),  //  3
        (false, Healthy),  //  4: 0/4 — evaluation starts
        (false, Healthy),  //  5: 0/5
        (false, Healthy),  //  6: 0/6
        (true, Healthy),   //  7: 1/7 ≈ 0.14 — Healthy ignores sub-watermark noise
        (true, Degraded),  //  8: 2/8 = 0.25 — enters Degraded exactly at the watermark
        (true, Degraded),  //  9: 3/8
        (true, ReadOnly),  // 10: 4/8 = 0.50 — enters ReadOnly exactly at the watermark
        (false, ReadOnly), // 11: 4/8 (window slid over leading oks)
        (false, ReadOnly), // 12: 4/8
        (false, ReadOnly), // 13: 4/8
        (false, ReadOnly), // 14: 4/8
        (false, ReadOnly), // 15: 3/8 — hysteresis: ≥ 1/4 holds ReadOnly
        (false, ReadOnly), // 16: 2/8 = 0.25 — boundary: still holds
        (false, Degraded), // 17: 1/8 — falls back one level, not two
        (false, Healthy),  // 18: 0/8 — full recovery
        (true, Healthy),   // 19: 1/8 — Healthy is unmoved by the recovery floor
        (true, Degraded),  // 20: 2/8 = 0.25
        (false, Degraded), // 21: 2/8
        (false, Degraded), // 22: 2/8
        (false, Degraded), // 23: 2/8
        (false, Degraded), // 24: 2/8
        (false, Degraded), // 25: 2/8
        (false, Degraded), // 26: 2/8
        (false, Degraded), // 27: 1/8 — hysteresis: holds at the recovery floor
        (false, Healthy),  // 28: 0/8 — recovers only below it
    ];
    let mut service = AuthService::new(policy, 1, 1, 42);
    for (i, (error, expect)) in trajectory.into_iter().enumerate() {
        service.admit(&if error { err() } else { ok() }, false);
        assert_eq!(
            service.state(),
            expect,
            "after event {} (error = {error})",
            i + 1
        );
    }

    // Healthy jumps straight to ReadOnly when the window activates at
    // half errors — no mandatory stop in Degraded.
    let mut service = AuthService::new(policy, 1, 1, 42);
    for outcome in [ok(), ok(), err(), err()] {
        service.admit(&outcome, false);
    }
    assert_eq!(service.state(), HealthState::ReadOnly, "2/4 at activation");

    // Every timed-out attempt counts against health, not just the final
    // verdict: one request with two attempt timeouts plus a timeout
    // verdict pushes three errors.
    let mut service = AuthService::new(policy, 1, 1, 42);
    service.admit(&synthetic(Verdict::TimedOut, 2), false);
    service.admit(&ok(), false);
    assert_eq!(service.state(), HealthState::ReadOnly, "3/4 from one request");
}

/// Store corruption is recovered deterministically: an aged fleet under
/// a half storm — eroded verifier NVM included — produces the exact
/// same accepted/rejected/corrupt/quarantine tallies on every rerun.
#[test]
fn store_corruption_recovery_tallies_are_deterministic() {
    let _guard = lock();
    let cfg = tiny_cfg(7);
    let params = PufAreaParams {
        ro_cell_ge: 3.0,
        readout_fixed_ge: 120.0,
        readout_per_ro_ge: 3.0,
        ros_per_bit: 2.0,
    };
    let generator = KeyGenerator::for_bit_error_rate(0.05, cfg.key_bits, cfg.key_fail_target, &params)
        .expect("feasible");
    let inj = FaultInjector::new(FaultPlan::storm().scaled(0.5), cfg.seed);
    let plan = BenchPlan {
        genuine_rounds: 4,
        impostor_rounds: 2,
    };
    let run = || {
        let mut ws = FleetWorkspace::new(&cfg, &generator, RoStyle::AgingResistant, 4);
        ws.run_trial(&cfg, &generator, Some(&inj), 10.0, &plan, "test recovery")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "recovery must not depend on run order or timing");
    assert!(
        first.tallies.corrupt_reads + first.tallies.quarantines > 0,
        "a ten-year half-storm fleet must exercise the recovery path: {:?}",
        first.tallies
    );
    assert_eq!(first.impostor_accepted, 0, "recovery never opens a false accept");
}

/// The full quarantine → refresh → re-admit round trip: a device whose
/// stored record is corrupted under storm@0.5 fails verification, lands
/// in quarantine, is re-enrolled through the continuity-gated helper
/// refresh, and then authenticates again.
#[test]
fn quarantined_device_is_reenrolled_and_readmitted() {
    let _guard = lock();
    let params = PufAreaParams {
        ro_cell_ge: 3.0,
        readout_fixed_ge: 120.0,
        readout_per_ro_ge: 3.0,
        ros_per_bit: 2.0,
    };
    let generator =
        KeyGenerator::for_bit_error_rate(0.05, 32, 1e-6, &params).expect("feasible");
    let n_ros = 2 * generator.response_bits();
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(n_ros)
        .seed(0x5e7e)
        .build();
    let env = aro_puf_repro::device::environment::Environment::nominal(design.tech());
    let key_pairs = PairingStrategy::Neighbor.pairs(n_ros);
    let crp_pairs = Challenge(0xfee1).pairs(n_ros, 64.min(n_ros / 2));
    let mut chip = Chip::fabricate(&design, 0);

    let mut service = AuthService::new(ServicePolicy::default(), 1, 1, 42);
    let mut rng = design.seed_domain().child("test-enroll").rng(0);
    let (key, helper) = generator.enroll(&chip.golden_response(&design, &env, &key_pairs), &mut rng);
    let reference = chip.golden_response(&design, &env, &crp_pairs);
    service.enroll(StoredRecord::new(0, crp_pairs, reference, helper, key));

    // Erode the verifier's store under a half storm until this record's
    // checksum fails (bounded: a full-fraction storm window flips bits
    // at a healthy rate).
    let inj = FaultInjector::new(FaultPlan::storm().scaled(0.5), 42);
    let mut window = 0;
    while matches!(service.store().read(0), ReadOutcome::Intact(_)) {
        assert!(window < 1_000, "storm@0.5 must corrupt the record eventually");
        service.store_mut().erode(&inj, window, 1.0);
        window += 1;
    }

    // Verification now fails closed and routes the device to quarantine.
    let outcome = service.probe(&mut chip, 0, 0, 0, &design, &env, Some(&inj));
    assert_eq!(outcome.verdict, Verdict::CorruptRecord);
    service.admit(&outcome, true);
    assert!(service.is_quarantined(0), "corrupt record must quarantine");

    // Maintenance: the continuity-gated helper refresh re-anchors the
    // enrollment and reseals the record.
    let outcome = service.reenroll_probe(
        &mut chip,
        0,
        0,
        &key_pairs,
        &generator,
        &design,
        &env,
        Some(&inj),
        1 << 20,
    );
    let readmitted = service.reenroll_admit(outcome);
    assert!(readmitted, "refresh must recover an undamaged device");
    assert!(!service.is_quarantined(0));
    assert!(matches!(service.store().read(0), ReadOutcome::Intact(_)));

    // And the device authenticates again.
    let outcome = service.probe(&mut chip, 0, 0, 1 << 21, &design, &env, None);
    assert!(
        matches!(outcome.verdict, Verdict::Accepted { .. }),
        "re-admitted device must verify: {:?}",
        outcome.verdict
    );
    assert!(service.tallies().reenrolled >= 1);
}

/// Maintenance fans its reads and decodes out across workers and folds
/// its writes in ascending device id, so the whole audit trail of a
/// storm trial — request chains, re-enrollment verdicts, repair
/// generations, scrub findings — is byte-identical at 1, 2 and 8 worker
/// threads. The trial is pinned to one whose maintenance re-enrolls
/// several devices in one pass with both verdicts, so the parallel path
/// is really exercised.
#[test]
fn maintenance_audit_trail_is_byte_identical_across_thread_counts() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let mut cfg = SimConfig::quick();
    cfg.key_bits = 32;
    cfg.seed = 7;
    let generator = tiny_generator();
    let inj = FaultInjector::new(FaultPlan::storm(), cfg.seed);
    let plan = BenchPlan {
        genuine_rounds: 4,
        impostor_rounds: 1,
    };
    let trial_at = |threads| {
        set_thread_override(threads);
        let mut ws = FleetWorkspace::new(&cfg, &generator, RoStyle::AgingResistant, 8);
        capture_audit(|| ws.run_trial(&cfg, &generator, Some(&inj), 10.0, &plan, "maintenance"))
    };

    let (stats, trail) = trial_at(1);
    let passes = maintenance_passes(&trail);
    let mixed = passes.iter().any(|pass| {
        let has = |verdict| pass.iter().any(|(_, outcome)| outcome == verdict);
        pass.len() >= 2 && has("readmitted") && has("gate_failed")
    });
    assert!(
        mixed,
        "the pinned trial must hold a pass with >= 2 due devices, readmitted and gate_failed: {passes:?}"
    );
    for pass in &passes {
        assert!(
            pass.windows(2).all(|w| w[0].0 < w[1].0),
            "re-enrollments are admitted in ascending device id: {pass:?}"
        );
    }
    for threads in [2, 8] {
        let (other_stats, other_trail) = trial_at(threads);
        assert_eq!(other_stats, stats, "bench stats at {threads} threads");
        assert_eq!(other_trail, trail, "audit trail at {threads} threads");
    }
}

/// A read-only service refuses re-enrollment writes without spending a
/// read on them: in a maintenance pass every due device ends
/// `refused_read_only`, no chip is measured (every chip, its
/// measurement nonce included, is exactly as it was), and the
/// continuity gate never runs.
#[test]
fn read_only_maintenance_refuses_every_due_device_without_reading() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let generator = tiny_generator();
    let (design, env, key_pairs) = tiny_design(&generator);
    let policy = ServicePolicy {
        health_window: 8,
        ..ServicePolicy::default()
    };
    let n = 4u64;
    let mut service = AuthService::new(policy, n as usize, 2, 42);
    let mut fleet: Vec<Chip> = (0..n).map(|id| Chip::fabricate(&design, id)).collect();
    for (id, chip) in (0..n).zip(&fleet) {
        let golden = chip.golden_response(&design, &env, &key_pairs);
        let mut rng = design.seed_domain().child("test-enroll").rng(id);
        let (key, helper) = generator.enroll(&golden, &mut rng);
        service.enroll(StoredRecord::new(id, key_pairs.clone(), golden, helper, key));
    }
    // Four corrupt reads in four events: every device is quarantined and
    // the service is read-only, so the traffic round skips the whole
    // fleet and the maintenance pass finds all of it due.
    for id in 0..n {
        let corrupt = RequestOutcome {
            target_id: id,
            ..synthetic(Verdict::CorruptRecord, 0)
        };
        service.admit(&corrupt, true);
    }
    assert_eq!(service.state(), HealthState::ReadOnly);
    assert_eq!(service.quarantined_ids(), (0..n).collect::<Vec<_>>());

    let untouched = fleet.clone();
    let ctx = FleetContext {
        design: &design,
        env: &env,
        generator: &generator,
        key_pairs: &key_pairs,
    };
    let plan = BenchPlan {
        genuine_rounds: 1,
        impostor_rounds: 0,
    };
    set_thread_override(2);
    let ((stats, counters), trail) = capture_audit(|| {
        let stats = run_bench(&mut service, &mut fleet, &ctx, &plan, None);
        (stats, aro_obs::snapshot())
    });

    let expected: Vec<(u64, String)> =
        (0..n).map(|id| (id, "refused_read_only".to_string())).collect();
    assert_eq!(maintenance_passes(&trail), vec![expected]);
    assert_eq!(stats.tallies.reenroll_refusals, n);
    assert_eq!(stats.tallies.reenrolled + stats.tallies.reenroll_failures, 0);
    for name in [
        "ecc.refresh_failures",
        "ecc.helper_refreshes",
        "ecc.key_reconstructions_soft",
    ] {
        assert_eq!(counters.counter(name), 0, "{name} moved without a read");
    }
    assert!(fleet == untouched, "a refused re-enrollment must not measure any chip");
}

/// A replica group with every copy wiped has nothing to re-enroll
/// against: the maintenance visit ends `missing` without reading the
/// chip or running the continuity gate, and writes nothing.
#[test]
fn wiped_replica_group_is_missing_without_a_read() {
    let _guard = lock();
    let _cleanup = Cleanup;
    let generator = tiny_generator();
    let (design, env, key_pairs) = tiny_design(&generator);
    let policy = ServicePolicy {
        replicas: 2,
        ..ServicePolicy::default()
    };
    let mut service = AuthService::new(policy, 1, 2, 42);
    let mut chip = Chip::fabricate(&design, 0);
    let golden = chip.golden_response(&design, &env, &key_pairs);
    let mut rng = design.seed_domain().child("test-enroll").rng(0);
    let (key, helper) = generator.enroll(&golden, &mut rng);
    service.enroll(StoredRecord::new(0, key_pairs.clone(), golden, helper, key));
    let wipe_all = FaultInjector::new(
        FaultPlan {
            replica_wipe_rate: 1.0,
            ..FaultPlan::off()
        },
        42,
    );
    service.store_mut().erode(&wipe_all, 0, 1.0);
    assert_eq!(service.store().replica_summary(0).wiped, 2);
    assert!(matches!(service.store().read(0), ReadOutcome::Missing));

    let untouched = chip.clone();
    let ((admitted, counters), trail) = capture_audit(|| {
        let outcome =
            service.reenroll_probe(&mut chip, 0, 0, &key_pairs, &generator, &design, &env, None, 0);
        assert_eq!(outcome.verdict, ReenrollVerdict::Missing);
        assert_eq!(outcome.attempts, 0);
        (service.reenroll_admit(outcome), aro_obs::snapshot())
    });

    assert!(!admitted);
    assert_eq!(maintenance_passes(&trail), vec![vec![(0, "missing".to_string())]]);
    assert_eq!(counters.counter("ecc.key_reconstructions_soft"), 0);
    assert_eq!(counters.counter("serve.store_repairs"), 0);
    assert!(chip == untouched, "a missing record must not cost a chip read");
    assert!(matches!(service.store().read(0), ReadOutcome::Missing));
}
