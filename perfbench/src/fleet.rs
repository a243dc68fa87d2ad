//! The verify-loop fleet and its closed-loop verifier client.
//!
//! The fleet is the fault-free twin of the serve fleet `repro
//! serve-bench` builds (same design seeds, challenges and enrollment
//! streams as `aro_sim::servefleet::FleetWorkspace`), assembled here from
//! public calls so each layer's set-up cost can be timed: fabricate,
//! golden responses, key enrollment, then ten years of aging.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_ecc::keygen::KeyGenerator;
use aro_obs::span;
use aro_puf::{Challenge, Chip, MissionProfile, PairingStrategy, PufDesign};
use aro_serve::{AuthService, ServicePolicy, StoredRecord, Verdict};
use aro_sim::experiments::exp2;
use aro_sim::popcache::{self, AgeCursor};
use aro_sim::runner::puf_area_params;
use aro_sim::servefleet::{self, CRP_BITS, N_SHARDS};
use aro_sim::SimConfig;

use crate::stats::splitmix64;

/// Devices per cell (the serve fleet size at quick scale).
pub const FLEET: u64 = 8;

/// Fleet age the verifier serves, in years.
pub const AGE_YEARS: f64 = 10.0;

/// Verifications per pass, alternating between the two cells.
pub const PASS_REQUESTS: u64 = 2000;

/// One request in ten is an impostor (device `d` answers another
/// device's record): a fixed 9:1 genuine:impostor mix.
const IMPOSTOR_ONE_IN: u64 = 10;

/// The cells in reporting order: conventional RO-PUF, then ARO-PUF.
pub const STYLES: [RoStyle; 2] = [RoStyle::Conventional, RoStyle::AgingResistant];

/// Short cell tag used in metric names.
pub fn cell_tag(style: RoStyle) -> &'static str {
    match style {
        RoStyle::Conventional => "ro",
        RoStyle::AgingResistant => "aro",
    }
}

/// Quick-scale ECC provisioning for one cell, exactly as serve-bench
/// does it: the measured 99th-percentile ten-year bit-error rate sizes
/// the key generator.
pub fn provision(cfg: &SimConfig, style: RoStyle) -> KeyGenerator {
    let _span = span("sim.provision");
    let ber = exp2::flip_timeline(cfg, style).final_quantile(0.99);
    let params = puf_area_params(style, 5);
    popcache::provisioned_generator(ber, cfg.key_bits, cfg.key_fail_target, &params)
        .expect("the quick configuration provisions both cells")
}

/// One cell's enrolled, aged fleet and its verifier.
#[derive(Clone)]
struct Cell {
    style: RoStyle,
    design: PufDesign,
    env: Environment,
    challenges: Vec<Vec<(usize, usize)>>,
    chips: Vec<Chip>,
    service: AuthService,
}

/// Both cells, ready to serve.
#[derive(Clone)]
pub struct Fleet {
    cells: [Cell; 2],
}

impl Fleet {
    /// Provisions, fabricates, enrolls and ages both cells.
    pub fn build(cfg: &SimConfig) -> Self {
        popcache::scoped(|| Self {
            cells: STYLES.map(|style| {
                let generator = provision(cfg, style);
                Cell::build(cfg, style, &generator)
            }),
        })
    }
}

impl Cell {
    fn build(cfg: &SimConfig, style: RoStyle, generator: &KeyGenerator) -> Self {
        let n_ros = 2 * generator.response_bits();
        let design = PufDesign::builder(style)
            .n_ros(n_ros)
            .seed(cfg.seed ^ 0xe18)
            .build();
        let env = Environment::nominal(design.tech());
        let profile = MissionProfile::typical(design.tech());
        let key_pairs = PairingStrategy::Neighbor.pairs(n_ros);
        let crp_bits = CRP_BITS.min(n_ros / 2);
        let policy = ServicePolicy {
            replicas: servefleet::replicas(),
            ..ServicePolicy::default()
        };
        let mut service = AuthService::new(policy, FLEET as usize, N_SHARDS, cfg.seed);
        let mut chips = Vec::new();
        let mut challenges = Vec::new();
        for id in 0..FLEET {
            let chip = {
                let _span = span("puf.fabricate");
                Chip::fabricate(&design, id)
            };
            let pairs = Challenge(cfg.seed ^ (0x5e7e << 16) ^ id).pairs(n_ros, crp_bits);
            let (key_golden, crp_golden) = {
                let _span = span("puf.golden");
                (
                    chip.golden_response(&design, &env, &key_pairs),
                    chip.golden_response(&design, &env, &pairs),
                )
            };
            let mut rng = design.seed_domain().child("serve-enroll").rng(id);
            let (key, helper) = {
                let _span = span("ecc.enroll");
                generator.enroll(&key_golden, &mut rng)
            };
            service.enroll(StoredRecord::new(
                id,
                pairs.clone(),
                crp_golden,
                helper,
                key,
            ));
            chips.push(chip);
            challenges.push(pairs);
        }
        for chip in &mut chips {
            let _span = span("device.age");
            let mut cursor = AgeCursor::new();
            popcache::age_chip_snapshotted(chip, &design, &profile, AGE_YEARS * YEAR, &mut cursor);
        }
        Self {
            style,
            design,
            env,
            challenges,
            chips,
            service,
        }
    }
}

/// One request of the stream: which cell, which device answers, which
/// record it claims. A pure function of the benchmark seed and the
/// request index.
fn request(seed: u64, index: u64) -> (usize, u64, u64, bool) {
    let x = splitmix64(seed ^ splitmix64(index));
    let cell = (index % 2) as usize;
    let device = x % FLEET;
    let genuine = !(x >> 16).is_multiple_of(IMPOSTOR_ONE_IN);
    let target = if genuine {
        device
    } else {
        (device + 1 + (x >> 32) % (FLEET - 1)) % FLEET
    };
    (cell, device, target, genuine)
}

/// Host-time split of the traced verifications of one cell, ns.
#[derive(Clone, Copy, Default)]
pub struct Split {
    pub requests: u64,
    pub store_read: u128,
    pub response: u128,
    pub probe: u128,
    pub admit: u128,
}

/// What one pass of the closed loop measured and answered.
pub struct VerifyPass {
    pub wall: Duration,
    /// Host ns per verification (probe + admit), per cell.
    pub latency_ns: [Vec<u64>; 2],
    /// Verdict tally per `cell/traffic/verdict`, plus the simulated
    /// latency total: the pass's deterministic output.
    pub tally: BTreeMap<String, u64>,
    pub impostor_accepts: u64,
    /// Per-cell host-time split (splitting passes only).
    pub split: [Split; 2],
}

impl VerifyPass {
    pub fn requests(&self) -> u64 {
        PASS_REQUESTS
    }

    /// Digest of the pass's verdicts and simulated latencies.
    pub fn digest(&self) -> String {
        crate::stats::digest(format!("{:?}", self.tally).as_bytes())
    }
}

/// Runs one pass of the closed loop: one client, the next request sent
/// when the previous one returns. Every pass starts from a copy of the
/// set-up fleet, so passes repeat the same work and answers. Read-only:
/// quarantine routing stays on, but no maintenance pass runs.
///
/// With `split_layers`, each request also times a store read and a response
/// on a shadow chip copy, so the verification splits by layer without
/// perturbing the measured request stream.
pub fn run_pass(fleet: &Fleet, seed: u64, split_layers: bool) -> VerifyPass {
    let mut cells = fleet.cells.clone();
    let mut shadows: Vec<Vec<Chip>> = if split_layers {
        cells.iter().map(|c| c.chips.clone()).collect()
    } else {
        Vec::new()
    };
    let mut latency_ns = [Vec::new(), Vec::new()];
    let mut tally = BTreeMap::new();
    let mut impostor_accepts = 0;
    let mut split = [Split::default(); 2];
    let _root = span(crate::trace::ROOT_SPAN);
    let start = Instant::now();
    for index in 0..PASS_REQUESTS {
        let (ci, device, target, genuine) = request(seed, index);
        let Cell {
            style,
            design,
            env,
            challenges,
            chips,
            service,
        } = &mut cells[ci];
        let t0 = Instant::now();
        if split_layers {
            {
                let _span = span("serve.store.read");
                std::hint::black_box(service.store().read_with_replicas(target));
            }
            let t1 = Instant::now();
            {
                let _span = span("puf.response");
                std::hint::black_box(shadows[ci][device as usize].response(
                    design,
                    env,
                    &challenges[target as usize],
                ));
            }
            split[ci].store_read += (t1 - t0).as_nanos();
            split[ci].response += t1.elapsed().as_nanos();
        }
        let t2 = Instant::now();
        // Event ids step by 8 per request, as serve-bench spaces them, so
        // every attempt's latency jitter draw is distinct.
        let outcome = {
            let _span = span("serve.probe");
            service.probe(
                &mut chips[device as usize],
                device,
                target,
                index * 8,
                design,
                env,
                None,
            )
        };
        let t3 = Instant::now();
        {
            let _span = span("serve.admit");
            service.admit(&outcome, genuine);
        }
        let done = Instant::now();
        latency_ns[ci].push((done - t2).as_nanos() as u64);
        if split_layers {
            split[ci].requests += 1;
            split[ci].probe += (t3 - t2).as_nanos();
            split[ci].admit += (done - t3).as_nanos();
        }
        let traffic = if genuine { "genuine" } else { "impostor" };
        if !genuine && matches!(outcome.verdict, Verdict::Accepted { .. }) {
            impostor_accepts += 1;
        }
        let key = format!("{}/{traffic}/{}", cell_tag(*style), outcome.verdict.label());
        *tally.entry(key).or_insert(0) += 1;
        *tally.entry("sim_latency_us".to_string()).or_insert(0) += outcome.latency_us;
    }
    VerifyPass {
        wall: start.elapsed(),
        latency_ns,
        tally,
        impostor_accepts,
        split,
    }
}
