//! Shared fleet-authentication trial runner behind EXP-18 and the
//! `repro serve-bench` mode.
//!
//! A trial stands up one [`aro_serve::AuthService`] for a small fleet:
//! factory enrollment on fresh silicon (CRP reference + key/helper
//! record per device), then field damage — hard ring faults, verifier
//! NVM erosion via [`aro_serve::ShardedStore::erode`], and aging
//! through the aged-state snapshot store — and finally
//! [`aro_serve::run_bench`] traffic. Everything is deterministic in
//! `(config seed, style, age, fault plan)`: the same
//! plan-parallel-fold discipline as every other sweep, so reports are
//! byte-identical at any `--threads N`.

use std::sync::atomic::{AtomicUsize, Ordering};

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_ecc::keygen::KeyGenerator;
use aro_faults::FaultInjector;
use aro_metrics::bits::BitString;
use aro_puf::{Challenge, Chip, MissionProfile, PairingStrategy, PufDesign};
use aro_serve::{
    run_bench, AuthService, BenchPlan, BenchStats, FleetContext, ServicePolicy, StoredRecord,
};

use crate::config::SimConfig;
use crate::popcache::{age_fleet_snapshotted, AgeCursor};
use crate::runner::pct;

/// CRP response width served per authentication request. 64 bits keeps
/// the impostor acceptance tail negligible: at a 0.25 fractional-HD
/// threshold an impostor needs ≤ 16 of 64 coin-flip bits wrong
/// (p ≈ 3e-5 per attempt), where 32 bits (≤ 8 of 32, p ≈ 7e-3) lets
/// bounded-retry impostors through at observable rates. Clamped to the
/// design's pair budget for tiny test configurations.
pub const CRP_BITS: usize = 64;

/// Store shards (`aro-par`'s fixed-index chunk discipline).
pub const N_SHARDS: usize = 4;

/// Default store replication factor: two replicas per record survive
/// any single replica wipe or whole-shard loss per group, and the
/// maintenance scrub heals the survivor back to full strength.
pub const DEFAULT_REPLICAS: usize = 2;

/// Mission length the store-erosion fraction is normalized against.
const MISSION_YEARS: f64 = 10.0;

static REPLICA_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the store replication factor for subsequent trials
/// (`repro --replicas N`). 0 restores [`DEFAULT_REPLICAS`].
pub fn set_replica_override(replicas: usize) {
    REPLICA_OVERRIDE.store(replicas, Ordering::Relaxed);
}

/// The replication factor trials run with: the override if set, else
/// [`DEFAULT_REPLICAS`].
#[must_use]
pub fn replicas() -> usize {
    let forced = REPLICA_OVERRIDE.load(Ordering::Relaxed);
    if forced == 0 {
        DEFAULT_REPLICAS
    } else {
        forced
    }
}

/// The reusable bench for one cell style: fabricated fleet, per-device
/// challenge pair sets, and cached golden responses. Each trial rewinds
/// the silicon with [`Chip::reset_to_fabricated`] instead of
/// re-fabricating, exactly like EXP-16's sweep workspace.
pub struct FleetWorkspace {
    style: RoStyle,
    design: PufDesign,
    env: Environment,
    profile: MissionProfile,
    key_pairs: Vec<(usize, usize)>,
    challenge_pairs: Vec<Vec<(usize, usize)>>,
    chips: Vec<Chip>,
    key_goldens: Vec<BitString>,
    crp_goldens: Vec<BitString>,
}

impl FleetWorkspace {
    /// Fabricates a fleet of `fleet` chips of `style` sized for
    /// `generator`'s response width.
    #[must_use]
    pub fn new(cfg: &SimConfig, generator: &KeyGenerator, style: RoStyle, fleet: usize) -> Self {
        let _span = aro_obs::span("serve.workspace");
        let n_ros = 2 * generator.response_bits();
        let design = PufDesign::builder(style)
            .n_ros(n_ros)
            .seed(cfg.seed ^ 0xe18)
            .build();
        let env = Environment::nominal(design.tech());
        let profile = MissionProfile::typical(design.tech());
        let key_pairs = PairingStrategy::Neighbor.pairs(n_ros);
        // A chip's silicon comes from its own id-keyed seed stream and a
        // golden read is noiseless, so both per-chip passes fan out over
        // the workers and stay bit-identical to a sequential build.
        let mut chips: Vec<Chip> = {
            let _span = aro_obs::span("serve.workspace.fabricate");
            aro_par::par_build(fleet, |id| Chip::fabricate(&design, id as u64))
        };
        let crp_bits = CRP_BITS.min(n_ros / 2);
        let challenge_pairs: Vec<Vec<(usize, usize)>> = (0..fleet as u64)
            .map(|id| Challenge(cfg.seed ^ (0x5e7e << 16) ^ id).pairs(n_ros, crp_bits))
            .collect();
        let (key_goldens, crp_goldens): (Vec<BitString>, Vec<BitString>) = {
            let _span = aro_obs::span("serve.workspace.golden");
            aro_par::par_map_mut(&mut chips, |slot, chip| {
                (
                    chip.golden_response(&design, &env, &key_pairs),
                    chip.golden_response(&design, &env, &challenge_pairs[slot]),
                )
            })
            .into_iter()
            .unzip()
        };
        Self {
            style,
            design,
            env,
            profile,
            key_pairs,
            challenge_pairs,
            chips,
            key_goldens,
            crp_goldens,
        }
    }

    /// The fleet's cell style.
    #[must_use]
    pub fn style(&self) -> RoStyle {
        self.style
    }

    /// Fleet size.
    #[must_use]
    pub fn fleet(&self) -> usize {
        self.chips.len()
    }

    /// Runs one (fleet age, fault plan) trial: rewind the silicon,
    /// enroll the service at the factory, apply field damage (hard ring
    /// faults, store erosion scaled to the age fraction of the mission,
    /// snapshot-store aging), then drive `plan`'s traffic through
    /// [`run_bench`]. Deterministic in its arguments. `scope` labels the
    /// trial's audit scope (one sweep cell, e.g.
    /// `"ARO age=10y faults=storm@0.5"`) when the audit trail is on.
    #[must_use]
    pub fn run_trial(
        &mut self,
        cfg: &SimConfig,
        generator: &KeyGenerator,
        inj: Option<&FaultInjector>,
        age_years: f64,
        plan: &BenchPlan,
        scope: &str,
    ) -> BenchStats {
        let _span = aro_obs::span("serve.trial");
        let _trial = aro_serve::audit::scope_begin(scope);
        let policy = ServicePolicy {
            replicas: replicas(),
            ..ServicePolicy::default()
        };
        let mut service = AuthService::new(policy, self.chips.len(), N_SHARDS, cfg.seed);
        // Factory enrollment on fresh silicon: golden CRP reference plus
        // the key/helper record, sealed into its fixed store shard.
        let enroll_span = aro_obs::span("serve.enroll_fleet");
        for (slot, chip) in self.chips.iter_mut().enumerate() {
            let id = slot as u64;
            chip.reset_to_fabricated();
            let mut rng = self.design.seed_domain().child("serve-enroll").rng(id);
            let (key, helper) = generator.enroll(&self.key_goldens[slot], &mut rng);
            service.enroll(StoredRecord::new(
                id,
                self.challenge_pairs[slot].clone(),
                self.crp_goldens[slot].clone(),
                helper,
                key,
            ));
        }
        drop(enroll_span);
        // Field damage. Hard faults land up front (worst case: the whole
        // service life runs with them); the verifier's store erodes with
        // storage time, so the eroded fraction tracks the fleet age.
        if let Some(inj) = inj {
            for (slot, chip) in self.chips.iter_mut().enumerate() {
                for (ro, health) in inj.hard_faults(slot as u64, self.design.n_ros()) {
                    chip.set_ro_health(ro, health);
                }
            }
            let fraction = (age_years / MISSION_YEARS).clamp(0.0, 1.0);
            if fraction > 0.0 {
                let window = (age_years * 100.0) as u64;
                service.store_mut().erode(inj, window, fraction);
            }
        }
        // Aging walks the snapshot store: trials at the same age replay
        // one cached wear prefix instead of re-running the physics, and
        // the per-chip replays and recordings run on the workers.
        let mut cursors: Vec<AgeCursor> = (0..self.chips.len()).map(|_| AgeCursor::new()).collect();
        if age_years > 0.0 {
            let _age_span = aro_obs::span("serve.age_fleet");
            age_fleet_snapshotted(
                &mut self.chips,
                &self.design,
                &self.profile,
                age_years * YEAR,
                &mut cursors,
            );
        }
        let ctx = FleetContext {
            design: &self.design,
            env: &self.env,
            generator,
            key_pairs: &self.key_pairs,
        };
        let bench_span = aro_obs::span("serve.bench");
        let stats = run_bench(&mut service, &mut self.chips, &ctx, plan, inj);
        drop(bench_span);
        if age_years > 0.0 {
            for (chip, cursor) in self.chips.iter().zip(&cursors) {
                crate::popcache::harvest_kernel_hints(chip, &self.design, cursor);
            }
        }
        stats
    }
}

/// The shared serve-table column set (EXP-18 and `serve-bench`).
#[must_use]
pub fn table_columns() -> [&'static str; 12] {
    [
        "cell",
        "fleet age",
        "faults",
        "auths/s",
        "p50 µs",
        "p99 µs",
        "FAR",
        "FRR",
        "shed",
        "quarantined (healed)",
        "health",
        "store (scrubbed)",
    ]
}

/// Renders one trial as a table row under [`table_columns`].
#[must_use]
pub fn stats_row(style: RoStyle, age_years: f64, faults: &str, stats: &BenchStats) -> Vec<String> {
    vec![
        style.label().to_string(),
        format!("{age_years:.0} y"),
        faults.to_string(),
        format!("{:.0}", stats.auths_per_sec()),
        stats.p50_us.to_string(),
        stats.p99_us.to_string(),
        pct(stats.far()),
        pct(stats.frr()),
        stats.tallies.shed.to_string(),
        format!("{} ({})", stats.tallies.quarantines, stats.tallies.reenrolled),
        stats.final_state.label().to_string(),
        format!("{} ({})", stats.final_store_health.label(), stats.scrub_repairs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::exp2;
    use crate::runner::puf_area_params;
    use aro_serve::HealthState;

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.key_bits = 32;
        cfg
    }

    fn tiny_generator(cfg: &SimConfig) -> KeyGenerator {
        let timeline = exp2::flip_timeline(cfg, RoStyle::AgingResistant);
        let ber = timeline.final_quantile(0.99);
        let params = puf_area_params(RoStyle::AgingResistant, 5);
        KeyGenerator::for_bit_error_rate(ber, cfg.key_bits, cfg.key_fail_target, &params)
            .expect("feasible")
    }

    #[test]
    fn fault_free_fresh_fleet_serves_cleanly() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let mut ws = FleetWorkspace::new(&cfg, &generator, RoStyle::AgingResistant, 4);
        let plan = BenchPlan {
            genuine_rounds: 3,
            impostor_rounds: 2,
        };
        let stats = ws.run_trial(&cfg, &generator, None, 0.0, &plan, "test fresh");
        assert_eq!(stats.final_state, HealthState::Healthy);
        assert_eq!(stats.impostor_accepted, 0, "FAR must be zero");
        assert_eq!(stats.genuine_denied, 0, "fresh fault-free fleet: no denials");
        assert!(stats.genuine_served > 0);
        assert!(stats.wall_us > 0 && stats.p99_us >= stats.p50_us);
    }

    #[test]
    fn trials_are_replayable_and_independent() {
        let cfg = tiny_cfg();
        let generator = tiny_generator(&cfg);
        let mut ws = FleetWorkspace::new(&cfg, &generator, RoStyle::Conventional, 4);
        let plan = BenchPlan {
            genuine_rounds: 2,
            impostor_rounds: 1,
        };
        let inj = FaultInjector::new(aro_faults::FaultPlan::storm().scaled(0.5), cfg.seed);
        let first = ws.run_trial(&cfg, &generator, Some(&inj), 5.0, &plan, "test replay");
        let again = ws.run_trial(&cfg, &generator, Some(&inj), 5.0, &plan, "test replay");
        assert_eq!(first, again, "a trial must fully rewind the workspace");
    }
}
