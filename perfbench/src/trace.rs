//! The traced run: captures the program's `aro-obs` spans and counters
//! plus the benchmark's own spans around calls into each layer, and
//! turns them into per-layer metrics and a report.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use aro_obs::span::{ProfileStats, SpanAgg};
use aro_obs::SpanStats;

use crate::fleet::Split;
use crate::passes::PAPER_IDS;
use crate::stats::Metric;

/// The benchmark's root span around each traced pass.
pub const ROOT_SPAN: &str = "bench.pass";

/// Counters and span timings of one phase of the traced run.
pub struct Phase {
    pub counters: BTreeMap<String, u64>,
    timings: BTreeMap<String, SpanStats>,
}

/// Span events kept in memory while the run is traced and written out
/// when it ends.
pub struct Capture {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl Capture {
    pub fn start() -> Self {
        aro_obs::set_enabled(true);
        aro_obs::reset();
        Self {
            buffer: aro_obs::sink::install_memory(),
        }
    }

    /// Current end of the event buffer.
    pub fn mark(&self) -> usize {
        self.buffer.lock().expect("span buffer poisoned").len()
    }

    /// The events captured since `from`.
    pub fn events(&self, from: usize) -> String {
        let buffer = self.buffer.lock().expect("span buffer poisoned");
        String::from_utf8_lossy(&buffer[from..]).into_owned()
    }

    /// Ends the current phase: its counters and span timings, then a
    /// clean slate for the next.
    pub fn phase(&self) -> Phase {
        let counters = aro_obs::snapshot()
            .counters()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
        let timings = aro_obs::timing_snapshot();
        aro_obs::reset();
        Phase { counters, timings }
    }

    /// Stops tracing and writes every captured event to `path`.
    pub fn finish(self, path: &Path) -> std::io::Result<()> {
        aro_obs::sink::close();
        aro_obs::set_enabled(false);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let buffer = self.buffer.lock().expect("span buffer poisoned");
        std::fs::write(path, &*buffer)
    }
}

/// The first counter that differs between runs, if any.
pub fn count_mismatch(runs: &[&BTreeMap<String, u64>]) -> Option<String> {
    let first = runs.first()?;
    for (i, run) in runs.iter().enumerate().skip(1) {
        if run != first {
            let names = first.keys().chain(run.keys());
            let name = names
                .filter(|n| first.get(*n) != run.get(*n))
                .min()
                .expect("unequal maps differ in some key");
            return Some(format!(
                "{name}: {:?} in the first pass, {:?} in pass {}",
                first.get(name),
                run.get(name),
                i + 1
            ));
        }
    }
    None
}

/// The experiment a span belongs to, for the spans that wrap a whole
/// experiment or one of its phases (`exp.exp16`, `sim.exp.exp16`,
/// `exp19.sweep`): their self time is work no layer span attributes yet.
fn experiment_of(name: &str) -> Option<&str> {
    let rest = name.strip_prefix("sim.").unwrap_or(name);
    let rest = rest.strip_prefix("exp.").unwrap_or(rest);
    let id = rest.split('.').next().unwrap_or(rest);
    id.starts_with("exp").then_some(id)
}

/// Layer of a span name: its first segment; experiment spans belong to
/// the experiment engine (`sim`).
fn layer(name: &str) -> &str {
    if experiment_of(name).is_some() {
        "sim"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// Self-time profile of the traced passes on the benchmark's thread.
pub struct Profile {
    stats: BTreeMap<String, ProfileStats>,
    wall_ns: u128,
}

impl Profile {
    /// Replays the span events of the thread that opened [`ROOT_SPAN`].
    /// Worker-thread spans are left out: their time already shows as the
    /// blocking parent's time on this thread.
    pub fn from_events(events: &str) -> Self {
        let parsed: Vec<_> = events
            .lines()
            .filter_map(|line| aro_obs::json::parse(line).ok())
            .collect();
        let field = |v: &aro_obs::json::Value, key| {
            v.get(key)
                .and_then(aro_obs::json::Value::as_str)
                .map(str::to_string)
        };
        let thread =
            |v: &aro_obs::json::Value| v.get("thread").and_then(aro_obs::json::Value::as_u64);
        let main = parsed.iter().find_map(|v| {
            (field(v, "event").as_deref() == Some("span_open")
                && field(v, "name").as_deref() == Some(ROOT_SPAN))
            .then(|| thread(v))
            .flatten()
        });
        let mut agg = SpanAgg::new();
        for v in parsed
            .iter()
            .filter(|v| thread(v) == main && main.is_some())
        {
            let (Some(event), Some(name), Some(t)) =
                (field(v, "event"), field(v, "name"), thread(v))
            else {
                continue;
            };
            match event.as_str() {
                "span_open" => agg.open(t, &name),
                "span_close" => {
                    let dur = v
                        .get("dur_ns")
                        .and_then(aro_obs::json::Value::as_f64)
                        .unwrap_or(0.0);
                    agg.close(t, &name, dur as u128);
                }
                _ => {}
            }
        }
        Self {
            wall_ns: agg.root_total_ns(),
            stats: agg.stats().clone(),
        }
    }

    fn uncovered_ns(&self) -> u128 {
        self.stats
            .iter()
            .filter(|(name, _)| name.as_str() == ROOT_SPAN || experiment_of(name).is_some())
            .map(|(_, s)| s.self_ns())
            .sum()
    }

    /// Share of the traced wall whose self time sits in a layer span
    /// finer than a whole experiment.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        1.0 - self.uncovered_ns() as f64 / self.wall_ns as f64
    }
}

/// The traced run's phases, combined into "one set-up, one pass and one
/// splitting verify pass".
pub struct View<'a> {
    setup: &'a Phase,
    passes: &'a [Phase],
    tail: &'a Phase,
}

impl<'a> View<'a> {
    pub fn new(setup: &'a Phase, passes: &'a [Phase], tail: &'a Phase) -> Self {
        Self {
            setup,
            passes,
            tail,
        }
    }

    fn span_sum(&self, name: &str, pick: impl Fn(&SpanStats) -> f64) -> f64 {
        let of = |p: &Phase| p.timings.get(name).map_or(0.0, &pick);
        let passes = self.passes.iter().map(of).sum::<f64>() / self.passes.len().max(1) as f64;
        of(self.setup) + passes + of(self.tail)
    }

    fn ns(&self, name: &str) -> f64 {
        self.span_sum(name, |s| s.total_ns as f64)
    }

    fn calls(&self, name: &str) -> f64 {
        self.span_sum(name, |s| s.count as f64)
    }

    fn count(&self, name: &str) -> f64 {
        self.count_where(|n| n == name)
    }

    fn count_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        let of = |p: &Phase| {
            p.counters
                .iter()
                .filter(|(n, _)| pred(n))
                .map(|(_, v)| *v)
                .sum::<u64>()
        };
        let first = self.passes.first().map_or(0, of);
        (of(self.setup) + first + of(self.tail)) as f64
    }

    fn ratio(&self, hits: &str, misses: &[&str]) -> f64 {
        let hits_n = self.count(hits);
        let total = hits_n + misses.iter().map(|m| self.count(m)).sum::<f64>();
        if total == 0.0 {
            0.0
        } else {
            hits_n / total
        }
    }
}

/// Host time and calls of the spans that only some workloads enter:
/// printed in the trace report, where a 0 reads "not exercised".
const WORKLOAD_SPANS: [&str; 7] = [
    "sim.workspace",
    "sim.trial",
    "serve.workspace",
    "serve.enroll_fleet",
    "serve.age_fleet",
    "serve.bench",
    "serve.reenroll",
];

/// The per-layer metrics. The first list is the one `BENCHMARK.json`
/// names: host time (`.ns`) of the layer calls every workload makes,
/// call counts, `aro-obs` counters and ratios, over one set-up, one pass
/// and one splitting verify pass. The second holds the host times of
/// spans only some workloads enter (per experiment, per serve phase),
/// reported beside them.
pub fn per_layer_metrics(
    view: &View<'_>,
    profile: &Profile,
    overhead: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let ns = |metric: &str, span: &str| {
        Metric::new(metric, view.ns(span), "ns", view.calls(span) as usize)
    };
    let calls = |metric: &str, span: &str| Metric::new(metric, view.calls(span), "count", 1);
    let count = |name: &str| Metric::new(name, view.count(name), "count", 1);
    let ratio = |name: &str, value: f64| Metric::new(name, value, "ratio", 1);
    let key_failure_ratio = {
        let reconstructions =
            view.count("ecc.key_reconstructions") + view.count("ecc.key_reconstructions_soft");
        if reconstructions == 0.0 {
            0.0
        } else {
            view.count("ecc.key_failures") / reconstructions
        }
    };
    let mut m = vec![
        ns("sim.provision.ns", "sim.provision"),
        calls("sim.trial.calls", "sim.trial"),
        ratio(
            "sim.snapshot.hit_ratio",
            view.ratio("sim.snapshot_hits", &["sim.snapshot_misses"]),
        ),
        ratio(
            "sim.popcache.hit_ratio",
            view.ratio("sim.popcache_hits", &["sim.popcache_misses"]),
        ),
        ratio(
            "sim.provision.hit_ratio",
            view.ratio("sim.provision_hits", &["sim.provision_misses"]),
        ),
        count("device.bti_applies"),
        count("device.hci_applies"),
        ns("device.age.ns", "device.age"),
        count("circuit.kernel_rebuilds"),
        ns("puf.fabricate.ns", "puf.fabricate"),
        ns("puf.golden.ns", "puf.golden"),
        calls("puf.golden.calls", "puf.golden"),
        ns("puf.response.ns", "puf.response"),
        calls("puf.response.calls", "puf.response"),
        ns("ecc.enroll.ns", "ecc.enroll"),
        calls("ecc.enroll.calls", "ecc.enroll"),
        Metric::new(
            "ecc.decodes",
            view.count("ecc.bch_decode_attempts"),
            "count",
            1,
        ),
        count("ecc.key_reconstructions_soft"),
        ratio("ecc.key_failure_ratio", key_failure_ratio),
        Metric::new(
            "faults.events",
            view.count_where(|n| n.starts_with("faults.")),
            "count",
            1,
        ),
        ns("serve.store.read.ns", "serve.store.read"),
        calls("serve.store.read.calls", "serve.store.read"),
        ns("serve.probe.ns", "serve.probe"),
        ns("serve.admit.ns", "serve.admit"),
        calls("serve.admit.calls", "serve.admit"),
        calls("serve.reenroll.calls", "serve.reenroll"),
        ratio(
            "serve.reenroll.readmit_ratio",
            view.ratio(
                "serve.reenrolled",
                &["serve.reenroll_failures", "serve.reenroll_refused"],
            ),
        ),
    ];
    for name in [
        "serve.requests",
        "serve.accepted",
        "serve.rejected",
        "serve.timeouts",
        "serve.corrupt_reads",
        "serve.replica_fallbacks",
        "serve.scrub_repairs",
        "serve.store_repairs",
        "serve.shed",
        "serve.quarantines",
    ] {
        m.push(count(name));
    }
    m.push(ratio("obs.trace_overhead_ratio", overhead));
    m.push(ratio("obs.span_coverage", profile.coverage()));

    let exp_spans = PAPER_IDS.iter().map(|id| format!("sim.exp.{id}"));
    let specific = exp_spans
        .chain(WORKLOAD_SPANS.iter().map(|s| s.to_string()))
        .map(|span| ns(&format!("{span}.ns"), &span))
        .collect();
    (m, specific)
}

/// Per-layer calls and self time of the traced passes, the `aro-obs`
/// counts beside them, and the uncovered remainder by name.
pub fn print_report(workload: &str, profile: &Profile, view: &View<'_>) {
    let wall = profile.wall_ns.max(1) as f64;
    let ms = |ns: u128| ns as f64 / 1e6;
    println!("trace report: {workload} (benchmark thread, traced passes)");
    println!(
        "  traced wall {:.1} ms, span coverage {:.1} %",
        ms(profile.wall_ns),
        100.0 * profile.coverage()
    );
    let mut layers: BTreeMap<&str, (u64, u128)> = BTreeMap::new();
    for (name, s) in &profile.stats {
        let entry = layers.entry(layer(name)).or_default();
        entry.0 += s.count;
        entry.1 += s.self_ns();
    }
    println!(
        "  {:<10} {:>10} {:>12} {:>7}",
        "layer", "calls", "self_ms", "share"
    );
    for (name, (calls, self_ns)) in &layers {
        println!(
            "  {name:<10} {calls:>10} {:>12.1} {:>6.1}%",
            ms(*self_ns),
            100.0 * *self_ns as f64 / wall
        );
    }
    println!(
        "  {:<28} {:>10} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "share"
    );
    for (name, s) in &profile.stats {
        println!(
            "  {name:<28} {:>10} {:>12.1} {:>12.1} {:>6.1}%",
            s.count,
            ms(s.total_ns),
            ms(s.self_ns()),
            100.0 * s.self_ns() as f64 / wall
        );
    }
    println!("  uncovered remainder (self time no layer span attributes):");
    let mut uncovered: BTreeMap<&str, u128> = BTreeMap::new();
    for (name, s) in &profile.stats {
        if name.as_str() == ROOT_SPAN {
            *uncovered
                .entry("benchmark loop outside any layer call")
                .or_default() += s.self_ns();
        } else if let Some(id) = experiment_of(name) {
            *uncovered.entry(id).or_default() += s.self_ns();
        }
    }
    for (what, self_ns) in uncovered.iter().filter(|(_, ns)| **ns > 0) {
        let note = if what.starts_with("exp") {
            "  inside the experiment: no layer timers yet"
        } else {
            ""
        };
        println!(
            "    {what:<38} {:>10.1} ms {:>6.1}%{note}",
            ms(*self_ns),
            100.0 * *self_ns as f64 / wall
        );
    }
    println!("  aro-obs counts (one set-up, one pass, one splitting verify pass):");
    let mut names: Vec<&String> = view.setup.counters.keys().collect();
    for phase in view.passes.iter().take(1).chain([view.tail]) {
        names.extend(phase.counters.keys());
    }
    names.sort();
    names.dedup();
    for name in names {
        println!("    {name:<40} {:>14}", view.count(name));
    }
}

/// Splits each cell's verification time into store read, PUF response
/// and admit.
pub fn print_verify_split(splits: &[Split; 2]) {
    println!("verification split (mean host µs per request; store read and response re-timed on duplicates):");
    println!(
        "  {:<5} {:>9} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "cell", "requests", "verify", "probe", "admit", "store.read", "response"
    );
    for (style, s) in crate::fleet::STYLES.iter().zip(splits) {
        let us = |ns: u128| ns as f64 / s.requests.max(1) as f64 / 1e3;
        println!(
            "  {:<5} {:>9} {:>10.2} {:>10.2} {:>10.2} {:>12.2} {:>10.2}",
            crate::fleet::cell_tag(*style),
            s.requests,
            us(s.probe + s.admit),
            us(s.probe),
            us(s.admit),
            us(s.store_read),
            us(s.response)
        );
    }
}
