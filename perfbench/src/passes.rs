//! One pass of the paper-repro and serve-storm workloads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aro_ecc::keygen::KeyGenerator;
use aro_faults::{FaultInjector, FaultPlan};
use aro_obs::span;
use aro_serve::{BenchPlan, BenchStats};
use aro_sim::experiments::serve_bench::FLEET_AGES_YEARS;
use aro_sim::harness::{self, HarnessOptions};
use aro_sim::servefleet::{stats_row, FleetWorkspace};
use aro_sim::{faultctx, popcache, SimConfig};

use crate::fleet::{provision, STYLES};
use crate::trace::ROOT_SPAN;

/// EXP-1..17 and EXP-19: every paper experiment except the EXP-18 serve
/// sweep, so serve does no work in this workload.
pub const PAPER_IDS: [&str; 18] = [
    "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "exp9", "exp10", "exp11",
    "exp12", "exp13", "exp14", "exp15", "exp16", "exp17", "exp19",
];

/// One experiment of a paper-repro pass.
pub struct ExperimentRun {
    pub id: &'static str,
    /// The rendered report as `repro` prints it, or the harness error.
    pub output: Result<String, String>,
}

/// Runs the paper-scale sweep once, inside one population-cache scope
/// as `repro` does, timing each experiment.
pub fn paper_pass(cfg: &SimConfig) -> (Duration, Vec<ExperimentRun>) {
    let _root = span(ROOT_SPAN);
    let start = Instant::now();
    let runs = popcache::scoped(|| {
        PAPER_IDS
            .iter()
            .map(|&id| {
                let outcome = {
                    let _span = span(&format!("sim.exp.{id}"));
                    harness::run_experiments(cfg, &[id], &HarnessOptions::default())
                };
                let output = match (outcome.successes.first(), outcome.failures.first()) {
                    (Some(success), _) => Ok(format!("{}\n", success.report)),
                    (None, Some(failure)) => Err(failure.error.clone()),
                    (None, None) => Err("harness returned no outcome".to_string()),
                };
                ExperimentRun { id, output }
            })
            .collect()
    });
    (start.elapsed(), runs)
}

/// Serve-bench's traffic per sweep point.
const STORM_PLAN: BenchPlan = BenchPlan {
    genuine_rounds: 8,
    impostor_rounds: 3,
};

/// The serve-storm fleets: one provisioned workspace per cell under the
/// full-intensity storm plan, as `repro --quick --faults storm
/// serve-bench` builds them.
pub struct StormSetup {
    inj: Arc<FaultInjector>,
    label: String,
    cells: Vec<(KeyGenerator, FleetWorkspace)>,
}

impl StormSetup {
    pub fn build(cfg: &SimConfig) -> Self {
        let plan = FaultPlan::parse("storm").expect("storm is a preset plan");
        let inj = Arc::new(FaultInjector::new(plan, cfg.seed));
        // The same row label serve-bench gives an ambient plan, so rows
        // compare byte for byte with `repro` output.
        let label = format!("ambient#{:08x}", inj.fingerprint() as u32);
        let fleet = cfg.n_chips.clamp(4, 8);
        let cells = popcache::scoped(|| {
            faultctx::scoped(Some(Arc::clone(&inj)), || {
                STYLES
                    .iter()
                    .map(|&style| {
                        let generator = provision(cfg, style);
                        let workspace = {
                            let _span = span("sim.workspace");
                            FleetWorkspace::new(cfg, &generator, style, fleet)
                        };
                        (generator, workspace)
                    })
                    .collect()
            })
        });
        Self { inj, label, cells }
    }
}

/// One storm trial and its serve-bench table row.
pub struct Trial {
    pub row: Vec<String>,
    pub stats: BenchStats,
}

/// Runs the serve-bench sweep once: every cell at 0, 5 and 10 years
/// under the storm, in a fresh cache scope so each pass does the same
/// work.
pub fn storm_pass(cfg: &SimConfig, setup: &mut StormSetup) -> (Duration, Vec<Trial>) {
    let _root = span(ROOT_SPAN);
    let start = Instant::now();
    let StormSetup { inj, label, cells } = setup;
    let trials = popcache::scoped(|| {
        faultctx::scoped(Some(Arc::clone(inj)), || {
            let mut trials = Vec::new();
            for (generator, workspace) in cells.iter_mut() {
                let style = workspace.style();
                for age_years in FLEET_AGES_YEARS {
                    let scope = format!(
                        "SERVE-BENCH {} age={age_years:.0}y faults={label}",
                        style.label()
                    );
                    let stats = {
                        let _span = span("sim.trial");
                        workspace.run_trial(
                            cfg,
                            generator,
                            Some(inj),
                            age_years,
                            &STORM_PLAN,
                            &scope,
                        )
                    };
                    trials.push(Trial {
                        row: stats_row(style, age_years, label, &stats),
                        stats,
                    });
                }
            }
            trials
        })
    });
    (start.elapsed(), trials)
}
