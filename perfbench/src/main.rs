//! `aro-perfbench`: host-time benchmark of the ARO-PUF reproduction.
//!
//! ```text
//! aro-perfbench --workload <paper-repro|verify-loop|serve-storm> --seed N
//!               --seconds S --trace <0|1> [--threads T] [--root DIR] [--trace-dir DIR]
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics; traced runs
//! (`--trace 1`) enable the program's `aro-obs` spans and counters and
//! print the per-layer metrics. Either way the last stdout line is the
//! result object `{"correct", "attempted", "failed", "metrics"}`, and
//! the lines before it are the human-readable report. `perfbench/run.py`
//! builds this binary and is the entry point; see `perfbench/README.md`.

mod fleet;
mod passes;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aro_sim::SimConfig;

use fleet::{Fleet, PASS_REQUESTS, STYLES};
use passes::{ExperimentRun, StormSetup, Trial};
use stats::{median, quantile_sorted, secs, Metric};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Verify passes after each main pass of paper-repro and serve-storm,
/// so their verify samples span the whole run. Each pass gives 1000
/// verifications per cell (10 beyond p99); the metrics are medians over
/// passes.
const VERIFY_PASSES_PER_PASS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperRepro,
    VerifyLoop,
    ServeStorm,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-repro" => Some(Self::PaperRepro),
            "verify-loop" => Some(Self::VerifyLoop),
            "serve-storm" => Some(Self::ServeStorm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperRepro => "paper-repro",
            Self::VerifyLoop => "verify-loop",
            Self::ServeStorm => "serve-storm",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    root: PathBuf,
    trace_dir: PathBuf,
}

const USAGE: &str = "usage: aro-perfbench --workload <paper-repro|verify-loop|serve-storm> \
    --seed N --seconds S --trace <0|1> [--threads T] [--root DIR] [--trace-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = 2;
    let mut root = PathBuf::from(".");
    let mut trace_dir = PathBuf::from("perfbench/target");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--threads" => {
                threads = usize::try_from(number()?.max(1)).map_err(|e| e.to_string())?
            }
            "--root" => root = PathBuf::from(value),
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        root,
        trace_dir,
    })
}

/// Output digests pinned in `perfbench/expected.json`: the storm
/// results (the same at every seed, since the seed only draws verify
/// requests) and the verify tallies at the golden and held-out seeds.
struct Expected {
    golden_seed: u64,
    held_out_seed: u64,
    digests: BTreeMap<&'static str, String>,
}

impl Expected {
    fn load(root: &Path, seed: u64) -> Result<Self, String> {
        use aro_obs::json::Value;
        let path = root.join("perfbench/expected.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = aro_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let seed_of = |key| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("expected.json: {key} missing"))
        };
        let mut digests = BTreeMap::new();
        if let Some(storm) = doc.get("storm_digest").and_then(Value::as_str) {
            digests.insert("storm", storm.to_string());
        }
        let verify = doc
            .get("verify_digests")
            .and_then(|d| d.get(&seed.to_string()));
        if let Some(verify) = verify.and_then(Value::as_str) {
            digests.insert("verify", verify.to_string());
        }
        Ok(Self {
            golden_seed: seed_of("golden_seed")?,
            held_out_seed: seed_of("held_out_seed")?,
            digests,
        })
    }
}

/// The committed paper-scale report, split into its `## EXP-k` sections.
fn golden_sections(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = root.join("repro_paper_scale.md");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sections = BTreeMap::new();
    let mut starts: Vec<usize> = text
        .match_indices("\n## EXP-")
        .map(|(i, _)| i + 1)
        .collect();
    starts.push(text.len());
    for pair in starts.windows(2) {
        let section = &text[pair[0]..pair[1]];
        sections.insert(section_id(section), section.to_string());
    }
    Ok(sections)
}

/// `EXP-k` from a rendered report's `## EXP-k — title` heading.
fn section_id(text: &str) -> String {
    text.split_whitespace()
        .nth(1)
        .unwrap_or_default()
        .to_string()
}

/// Operation tally behind `attempted`/`failed`, plus what failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The pinned outputs this run was compared against.
    pinned: BTreeSet<&'static str>,
}

impl Checks {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Compares a pass's output digest with the first pass's (the
    /// program must repeat itself) and with the pinned digest, if any.
    fn digest(
        &mut self,
        kind: &'static str,
        digest: String,
        first: &mut Option<String>,
        pinned: Option<&String>,
        ops: u64,
    ) {
        if let Some(pinned) = pinned {
            self.pinned.insert(kind);
            if *pinned != digest {
                self.fail(ops, format!("{kind} digest {digest} != expected {pinned}"));
            }
        }
        match first {
            Some(first) if *first != digest => self.fail(
                ops,
                format!("{kind} digest {digest} differs from the first pass's {first}"),
            ),
            Some(_) => {}
            None => *first = Some(digest),
        }
    }
}

struct Setup {
    fleet: Fleet,
    storm: Option<StormSetup>,
}

impl Setup {
    fn build(workload: Workload, quick: &SimConfig) -> Self {
        Self {
            fleet: Fleet::build(quick),
            storm: (workload == Workload::ServeStorm).then(|| StormSetup::build(quick)),
        }
    }
}

/// Everything a run measured and checked, across its passes.
struct Bench {
    workload: Workload,
    /// The benchmark seed: it draws the verify request stream. The
    /// configurations stay at the paper's seed, so every seed does the
    /// same amount of work, paper-repro renders the committed report and
    /// serve-storm repeats `repro --quick --faults storm serve-bench`.
    seed: u64,
    /// Whether the seed is pinned in `expected.json`.
    role: &'static str,
    paper_cfg: SimConfig,
    quick_cfg: SimConfig,
    expected: Expected,
    golden: Option<BTreeMap<String, String>>,
    checks: Checks,
    first_digest: BTreeMap<&'static str, Option<String>>,
    /// Per verify pass: host µs per verification at p50 and p99, per
    /// cell, and verifications per host second.
    verify_passes: Vec<([[f64; 2]; 2], f64)>,
    verify_split: [fleet::Split; 2],
    /// The first storm pass's serve-bench rows (simulated model outputs).
    storm_rows: Vec<Vec<String>>,
}

impl Bench {
    fn new(args: &Args) -> Result<Self, String> {
        let expected = Expected::load(&args.root, args.seed)?;
        let golden = (args.workload == Workload::PaperRepro)
            .then(|| golden_sections(&args.root))
            .transpose()?;
        let role = match args.seed {
            s if s == expected.golden_seed => "golden seed",
            s if s == expected.held_out_seed => "held-out seed",
            _ => "unpinned seed",
        };
        Ok(Self {
            workload: args.workload,
            seed: args.seed,
            role,
            paper_cfg: SimConfig::paper(),
            quick_cfg: SimConfig::quick(),
            expected,
            golden,
            checks: Checks::default(),
            first_digest: BTreeMap::new(),
            verify_passes: Vec::new(),
            verify_split: [fleet::Split::default(); 2],
            storm_rows: Vec::new(),
        })
    }

    fn setup(&self) -> Setup {
        Setup::build(self.workload, &self.quick_cfg)
    }

    /// One pass of the workload's fixed work; returns its host wall.
    fn main_pass(&mut self, setup: &mut Setup) -> Duration {
        match self.workload {
            Workload::PaperRepro => {
                let (wall, runs) = passes::paper_pass(&self.paper_cfg);
                self.check_paper(&runs);
                wall
            }
            Workload::VerifyLoop => self.verify_pass(setup, false),
            Workload::ServeStorm => {
                let storm = setup
                    .storm
                    .as_mut()
                    .expect("serve-storm set-up builds the storm fleets");
                let (wall, trials) = passes::storm_pass(&self.quick_cfg, storm);
                self.check_storm(&trials);
                wall
            }
        }
    }

    /// One closed-loop verify pass, pooled into the verify metrics;
    /// `split` also times each verification's layers on duplicates.
    fn verify_pass(&mut self, setup: &Setup, split: bool) -> Duration {
        let pass = fleet::run_pass(&setup.fleet, self.seed, split);
        let wall = pass.wall;
        self.checks.attempted += pass.requests();
        if pass.impostor_accepts > 0 {
            self.checks.fail(
                pass.impostor_accepts,
                format!("{} impostor accepts", pass.impostor_accepts),
            );
        }
        let pinned = self.expected.digests.get("verify");
        let first = self.first_digest.entry("verify").or_default();
        self.checks
            .digest("verify", pass.digest(), first, pinned, pass.requests());
        let rate = pass.requests() as f64 / secs(wall);
        let percentiles = pass.latency_ns.map(|mut ns| {
            ns.sort_unstable();
            [0.50, 0.99].map(|q| quantile_sorted(&ns, q) as f64 / 1e3)
        });
        self.verify_passes.push((percentiles, rate));
        for (total, split) in self.verify_split.iter_mut().zip(pass.split) {
            total.requests += split.requests;
            total.store_read += split.store_read;
            total.response += split.response;
            total.probe += split.probe;
            total.admit += split.admit;
        }
        wall
    }

    fn check_paper(&mut self, runs: &[ExperimentRun]) {
        let mut rendered = String::new();
        for run in runs {
            self.checks.attempted += 1;
            match &run.output {
                Err(error) => self.checks.fail(1, format!("{} failed: {error}", run.id)),
                Ok(text) => {
                    let section = section_id(text);
                    if let Some(golden) = &self.golden {
                        self.checks.pinned.insert("repro_paper_scale.md");
                        if golden.get(&section) != Some(text) {
                            self.checks
                                .fail(1, format!("{section} differs from repro_paper_scale.md"));
                        }
                    }
                    rendered.push_str(text);
                }
            }
        }
        let first = self.first_digest.entry("paper").or_default();
        self.checks.digest(
            "paper",
            stats::digest(rendered.as_bytes()),
            first,
            None,
            runs.len() as u64,
        );
    }

    fn check_storm(&mut self, trials: &[Trial]) {
        self.checks.attempted += trials.len() as u64;
        for trial in trials {
            if trial.stats.impostor_accepted > 0 {
                self.checks.fail(
                    1,
                    format!("impostor accepted in storm trial {:?}", trial.row),
                );
            }
        }
        let stats: Vec<_> = trials.iter().map(|t| &t.stats).collect();
        let digest = stats::digest(format!("{stats:?}").as_bytes());
        let pinned = self.expected.digests.get("storm");
        let first = self.first_digest.entry("storm").or_default();
        self.checks
            .digest("storm", digest, first, pinned, trials.len() as u64);
        if self.storm_rows.is_empty() {
            self.storm_rows = trials.iter().map(|t| t.row.clone()).collect();
        }
    }

    /// The verification metrics: per-cell host latency percentiles and
    /// closed-loop throughput, each the median over verify passes, so a
    /// burst of interference in one pass does not move them.
    fn verify_metrics(&self) -> Vec<Metric> {
        let passes = &self.verify_passes;
        let per_cell = (PASS_REQUESTS / 2) as usize * passes.len();
        let mut metrics = Vec::new();
        for (cell, style) in STYLES.iter().enumerate() {
            for (q, label) in ["p50", "p99"].iter().enumerate() {
                let values: Vec<f64> = passes.iter().map(|(pct, _)| pct[cell][q]).collect();
                let name = format!("verify_us_{label}_{}", fleet::cell_tag(*style));
                metrics.push(Metric::new(name, median(&values), "us", per_cell));
            }
        }
        let rates: Vec<f64> = passes.iter().map(|(_, rate)| *rate).collect();
        metrics.push(Metric::new(
            "verifies_per_s",
            median(&rates),
            "1/s",
            2 * per_cell,
        ));
        metrics
    }

    /// Prints the deterministic model outputs: checked for exact
    /// equality, never reported as performance.
    fn print_model_outputs(&self) {
        println!("model outputs (simulated time, checked for exact equality, not performance):");
        for (kind, digest) in &self.first_digest {
            println!(
                "  {kind} output digest: {}",
                digest.as_deref().unwrap_or("-")
            );
        }
        if !self.storm_rows.is_empty() {
            println!("  serve-bench rows (auths/s per simulated second, p50/p99 simulated µs):");
            println!(
                "    | {} |",
                aro_sim::servefleet::table_columns().join(" | ")
            );
            for row in &self.storm_rows {
                println!("    | {} |", row.join(" | "));
            }
        }
    }

    fn print_checks(&self) {
        let c = &self.checks;
        let rate = c.failed.min(c.attempted) as f64 / c.attempted.max(1) as f64;
        println!(
            "error_rate {rate} (ratio, {} failed of {} attempted operations)",
            c.failed.min(c.attempted),
            c.attempted
        );
        let role = self.role;
        let pinned: Vec<&str> = c.pinned.iter().copied().collect();
        println!(
            "checks ({role}): zero impostor accepts, passes repeat their outputs; \
             compared with pinned: {}",
            if pinned.is_empty() {
                "none".to_string()
            } else {
                pinned.join(", ")
            }
        );
        for problem in &c.problems {
            println!("CHECK FAILED: {problem}");
        }
    }

    fn result(&self, metrics: &[Metric]) -> String {
        let c = &self.checks;
        let failed = c.failed.min(c.attempted);
        stats::result_line(failed == 0, c.attempted.max(1), failed, metrics)
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<34} {:>16} {:<6} {:<6} {:>8}",
        "metric", "value", "unit", "clock", "samples"
    );
    for m in metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.clock, m.samples
        );
    }
}

/// End-to-end run: tracing off, repeated set-up, passes until
/// `--seconds` of fixed work has run.
fn run_timed(args: &Args, bench: &mut Bench) -> Vec<Metric> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(bench.setup());
        setup_s.push(secs(t.elapsed()));
    }
    let mut setup = setup.expect("SETUP_REPS > 0");
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || started.elapsed() < deadline {
        walls.push(secs(bench.main_pass(&mut setup)));
        if bench.workload != Workload::VerifyLoop {
            // Every workload reports the verifier's host cost on the
            // same fleet; here it is measured between main passes.
            for _ in 0..VERIFY_PASSES_PER_PASS {
                bench.verify_pass(&setup, false);
            }
        }
    }
    let mut metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("wall_s", median(&walls), "s", walls.len()),
    ];
    metrics.extend(bench.verify_metrics());
    metrics.push(Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB", 1));
    print_metrics("end-to-end metrics (tracing off):", &metrics);
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  set-ups (s): {}", fmt(&setup_s));
    println!("  passes (s):  {}", fmt(&walls));
    let p99: Vec<f64> = bench
        .verify_passes
        .iter()
        .map(|(pct, _)| pct[0][1])
        .collect();
    println!("  verify passes, p99 ro (us): {}", fmt(&p99));
    metrics
}

/// Traced run: one traced set-up; a traced, an untraced (the overhead
/// baseline) and a traced pass at the configured thread count; a verify
/// pass that splits each verification by layer; and a traced
/// single-thread pass for the count check.
fn run_traced(args: &Args, bench: &mut Bench) -> Vec<Metric> {
    let capture = trace::Capture::start();
    let mut setup = bench.setup();
    let setup_phase = capture.phase();

    // Traced, untraced, traced: the first pass also warms the process,
    // so the overhead compares the second traced pass with the untraced
    // one run just before it.
    let from = capture.mark();
    bench.main_pass(&mut setup);
    let mut pass_phases = vec![capture.phase()];
    aro_obs::set_enabled(false);
    let untraced = bench.main_pass(&mut setup);
    aro_obs::set_enabled(true);
    aro_obs::reset();
    let traced = bench.main_pass(&mut setup);
    pass_phases.push(capture.phase());
    let events = capture.events(from);

    // The verify tail: for verify-loop an extra pass that also times the
    // store read and response on duplicates to split each verification.
    bench.verify_pass(&setup, true);
    let tail_phase = capture.phase();

    aro_par::set_thread_override(1);
    bench.main_pass(&mut setup);
    let single = capture.phase();
    aro_par::set_thread_override(args.threads);

    let path = args.trace_dir.join(format!(
        "perfbench-{}-seed{}.spans.jsonl",
        bench.workload.name(),
        bench.seed
    ));
    if let Err(e) = capture.finish(&path) {
        println!("warning: could not write spans to {}: {e}", path.display());
    } else {
        println!("spans written to {}", path.display());
    }

    let mut runs = pass_phases.iter().map(|p| &p.counters).collect::<Vec<_>>();
    runs.push(&single.counters);
    bench.checks.attempted += 1;
    match trace::count_mismatch(&runs) {
        None => println!(
            "count determinism: every counter repeats across two traced passes and threads {} vs 1",
            args.threads
        ),
        Some(diff) => bench
            .checks
            .fail(1, format!("counts vary between passes: {diff}")),
    }

    let profile = trace::Profile::from_events(&events);
    let view = trace::View::new(&setup_phase, &pass_phases, &tail_phase);
    let overhead = secs(traced) / secs(untraced);
    let (metrics, specific) = trace::per_layer_metrics(&view, &profile, overhead);
    trace::print_report(bench.workload.name(), &profile, &view);
    trace::print_verify_split(&bench.verify_split);
    print_metrics("per-layer metrics (traced run):", &metrics);
    print_metrics(
        "workload-specific layer timings (traced run; 0 = not exercised):",
        &specific,
    );
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aro-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    aro_par::set_thread_override(args.threads);
    let mut bench = match Bench::new(&args) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("aro-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# perfbench {} seed={} threads={} seconds={} trace={}",
        bench.workload.name(),
        args.seed,
        args.threads,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace {
        run_traced(&args, &mut bench)
    } else {
        run_timed(&args, &mut bench)
    };
    bench.print_model_outputs();
    bench.print_checks();
    println!("{}", bench.result(&metrics));
    ExitCode::SUCCESS
}
