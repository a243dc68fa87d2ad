//! Cross-experiment population cache.
//!
//! `run_all` used to refabricate identical chip populations over and over:
//! every experiment that calls [`crate::runner::build_population`] (or
//! `Population::fabricate` directly) re-sampled the same deterministic
//! RNG streams into the same silicon. Fabrication is a pure function of
//! *(design, n_chips)*, so one baseline build per distinct key suffices —
//! callers get a clone of an [`Rc`]'d pristine population and mutate that.
//!
//! The cache is **scoped, not global**: it exists only inside a
//! [`scoped`] region (installed by `experiments::run_all`, `run_by_id`,
//! and the `repro` binary's experiment loop) and is dropped when the
//! outermost scope exits. Every run therefore starts cold, which keeps
//! repeated runs — and the observability suite's thread-count determinism
//! comparison — byte-identical. The cache is also thread-local; worker
//! threads inside `par_map_mut` never touch it.
//!
//! Keying compares the **full design** (style, seed domain, technology,
//! readout, pairing bias — everything `PufDesign::eq` sees) plus the chip
//! count. exp6's duty sweep shares a seed and style across designs that
//! differ only in one `TechParams` field, so a narrower key would alias
//! them; a linear scan over at most [`CAPACITY`] entries is cheaper than
//! hashing the design anyway.
//!
//! Caching is **lazy**: the first request for a key passes straight
//! through to `Population::fabricate` and only records the key; a baseline
//! is built and retained when the *second* request for the same key
//! arrives. Single-use designs — exp13's per-seed populations, exp6's six
//! duty-sweep designs — therefore pay nothing (no retained copy, no extra
//! clone), while every key that is actually reused costs one extra
//! fabrication amortized over all subsequent hits.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_ecc::area::{search_design, KeyGenSpec, PufAreaParams};
use aro_ecc::keygen::KeyGenerator;
use aro_metrics::bits::BitString;
use aro_puf::snapshot::{age_step_recorded, age_step_replayed, AgedStepSnapshot};
use aro_puf::{Chip, MissionProfile, MissionStepKey, Population, PufDesign};

use crate::config::SimConfig;
use crate::runner::{build_population, measure_flip_timeline, FlipTimeline};

/// Maximum retained baselines per scope (LRU beyond this). Only keys
/// requested at least twice are ever retained; at paper scale the working
/// set is the two main-config populations plus exp6's two half-size
/// temperature-sweep populations.
pub const CAPACITY: usize = 8;

/// Maximum remembered seen-once keys (FIFO beyond this). A key holds a
/// `PufDesign` clone, not a population, so this bound is about lookup
/// cost, not memory.
const SEEN_CAPACITY: usize = 32;

/// Maximum retained aged-step snapshots per scope (LRU beyond this). The
/// lifecycle sweeps' shared ten-year timeline needs ~160 live entries
/// (15 distinct aging prefixes × 8 chips for EXP-16, plus the single
/// ten-year step of the EXP-8/15 population); an entry is ~20 KB of wear
/// plus its telemetry tape (empty on un-instrumented runs).
pub const SNAPSHOT_CAPACITY: usize = 256;

/// Maximum retained single-chip baselines per scope (LRU beyond this).
/// The lifecycle sweeps share one ~20-chip population across EXP-8 and
/// EXP-15; a chip is a few MB of ring state, so the bound keeps the
/// cache within one population's footprint.
pub const CHIP_CAPACITY: usize = 24;

/// Maximum retained golden responses per scope (LRU beyond this).
const GOLDEN_CAPACITY: usize = 64;

type Entry = (PufDesign, usize, Rc<Population>);

/// Identity of one ECC provisioning problem. Exact float bit patterns:
/// provisioning is deterministic in its inputs, and two BERs that differ
/// in the last ulp are legitimately different problems.
type ProvisionKey = (u64, usize, u64, PufAreaParams);

fn provision_key(p_bit: f64, key_bits: usize, p_fail_target: f64, puf: &PufAreaParams) -> ProvisionKey {
    (p_bit.to_bits(), key_bits, p_fail_target.to_bits(), *puf)
}

#[derive(Default)]
struct Scope {
    /// Baselines for keys requested at least twice, LRU-ordered (oldest
    /// first).
    entries: Vec<Entry>,
    /// Keys requested exactly once, FIFO-ordered, awaiting promotion.
    seen_once: Vec<(PufDesign, usize)>,
    /// Memoized standard flip timelines, keyed by (config, style, fault
    /// fingerprint) — the fingerprint is 0 when no live fault context is
    /// installed, so zero-intensity runs share the fault-free entries. A
    /// timeline is a few hundred bytes, so these are kept unconditionally
    /// (no lazy promotion, no eviction) for the scope's lifetime.
    timelines: Vec<((SimConfig, RoStyle, u64), FlipTimeline)>,
    /// Memoized ECC design-space searches (exp5 sweeps four points; exp8
    /// and exp14 re-derive exp5's worst-case ARO point).
    specs: Vec<(ProvisionKey, Option<KeyGenSpec>)>,
    /// Memoized key generators built from those searches (shared by exp8
    /// and exp14, which provision for the same measured BER).
    generators: Vec<(ProvisionKey, Option<KeyGenerator>)>,
    /// Recorded aging steps, LRU-ordered (oldest first). Keyed by the
    /// silicon identity *(design, chip id)* plus the **full step-prefix
    /// sequence** — BTI equivalent-time accumulation is not additive, so
    /// two different partitions of the same calendar time are different
    /// wear histories. Fault plans are deliberately *not* part of the
    /// key: a snapshot records per-ring coverage, and replay ages any
    /// ring the recording and replaying trials disagree on live (see
    /// `aro_puf::snapshot`).
    snapshots: Vec<SnapshotEntry>,
    /// Pristine single-chip baselines, LRU-ordered. Fabrication is a
    /// pure function of *(design, id)*; EXP-8 and EXP-15 walk the same
    /// chips of the same design, so the second sweep clones instead of
    /// re-sampling the whole array.
    chips: Vec<(PufDesign, u64, Rc<Chip>)>,
    /// Memoized golden (noiseless) responses of pristine chips, keyed by
    /// *(design, chip id, environment, pairing)*, LRU-ordered.
    goldens: Vec<GoldenEntry>,
}

struct GoldenEntry {
    design: PufDesign,
    chip_id: u64,
    env: Environment,
    pairs: Vec<(usize, usize)>,
    golden: BitString,
}

struct SnapshotEntry {
    design: PufDesign,
    chip_id: u64,
    steps: Vec<MissionStepKey>,
    /// `None` only inside one [`age_fleet_snapshotted`] call: the entry
    /// holds its LRU slot while a worker records the step.
    snapshot: Option<Arc<AgedStepSnapshot>>,
}

thread_local! {
    /// `None` = no scope active (plain fabrication, no caching).
    static CACHE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Runs `f` with a population cache installed. Re-entrant: nested scopes
/// join the outermost one instead of shadowing it, so `run_all` keeps its
/// cross-experiment cache even though each `run_by_id` opens its own scope.
pub fn scoped<R>(f: impl FnOnce() -> R) -> R {
    let installed = CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        if slot.is_none() {
            *slot = Some(Scope::default());
            true
        } else {
            false
        }
    });
    // Drop guard so a panicking experiment still clears the scope.
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            if self.0 {
                CACHE.with(|cache| *cache.borrow_mut() = None);
            }
        }
    }
    let _guard = Guard(installed);
    f()
}

/// Whether a cache scope is currently active on this thread.
#[must_use]
pub fn is_active() -> bool {
    CACHE.with(|cache| cache.borrow().is_some())
}

/// Fabricates (or re-uses) the population of `design` with `n_chips`
/// chips. Inside a [`scoped`] region the second request per key builds a
/// pristine baseline and every later request returns a clone of it;
/// outside any scope — and on any key's first request — this is exactly
/// `Population::fabricate`.
#[must_use]
pub fn fabricate(design: &PufDesign, n_chips: usize) -> Population {
    CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        let Some(scope) = slot.as_mut() else {
            return Population::fabricate(design, n_chips);
        };
        if let Some(index) = scope
            .entries
            .iter()
            .position(|(d, n, _)| *n == n_chips && d == design)
        {
            aro_obs::counter("sim.popcache_hits", 1);
            // LRU: refresh the entry's position before handing out a clone.
            let entry = scope.entries.remove(index);
            let population = (*entry.2).clone();
            scope.entries.push(entry);
            return population;
        }
        aro_obs::counter("sim.popcache_misses", 1);
        if let Some(index) = scope
            .seen_once
            .iter()
            .position(|(d, n)| *n == n_chips && d == design)
        {
            // Second request: the key earns a retained baseline.
            scope.seen_once.remove(index);
            let baseline = Rc::new(Population::fabricate(design, n_chips));
            let population = (*baseline).clone();
            if scope.entries.len() >= CAPACITY {
                scope.entries.remove(0);
            }
            scope.entries.push((design.clone(), n_chips, baseline));
            return population;
        }
        // First sighting: remember the key, don't pay for a copy.
        if scope.seen_once.len() >= SEEN_CAPACITY {
            scope.seen_once.remove(0);
        }
        scope.seen_once.push((design.clone(), n_chips));
        Population::fabricate(design, n_chips)
    })
}

/// Empties the active scope without tearing it down: retained baselines,
/// seen-once keys, memoized timelines, and provisioning results are all
/// dropped; later requests rebuild from scratch. The experiment harness
/// calls this after catching a panic — an experiment that died mid-build
/// may have left the cache holding entries whose construction it never
/// finished observing, and a cold cache is always correct (every entry is
/// a pure function of its key). No-op outside a scope.
pub fn reset() {
    CACHE.with(|cache| {
        if let Some(scope) = cache.borrow_mut().as_mut() {
            *scope = Scope::default();
            aro_obs::counter("sim.popcache_resets", 1);
        }
    });
}

/// Number of retained baselines in the active scope (0 without a scope).
/// Exposed for cache-behavior tests.
#[must_use]
pub fn retained_baselines() -> usize {
    CACHE.with(|cache| cache.borrow().as_ref().map_or(0, |s| s.entries.len()))
}

/// Number of retained aged-step snapshots in the active scope (0 without
/// a scope). Exposed for cache-behavior tests.
#[must_use]
pub fn retained_snapshots() -> usize {
    CACHE.with(|cache| cache.borrow().as_ref().map_or(0, |s| s.snapshots.len()))
}

/// The aging history a chip has walked since fabrication (or its last
/// [`Chip::reset_to_fabricated`]) — the snapshot store's step-prefix key.
///
/// The caller owns the bookkeeping: start a fresh cursor whenever the
/// chip starts from fresh silicon, and route **every** aging step of the
/// trial through [`age_chip_snapshotted`] with the same cursor. A cursor
/// that skips a step would key snapshots against the wrong wear state.
#[derive(Debug, Clone, Default)]
pub struct AgeCursor {
    steps: Vec<MissionStepKey>,
}

impl AgeCursor {
    /// A cursor for a chip at fresh (just-fabricated) silicon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the cursor to fresh silicon (pair with
    /// [`Chip::reset_to_fabricated`] when reusing a workspace chip).
    pub fn clear(&mut self) {
        self.steps.clear();
    }
}

thread_local! {
    /// Per-thread override of the snapshot kill switch (tests toggle it
    /// mid-process; the env default is read once).
    static SNAPSHOTS_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

fn snapshots_env_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        !matches!(
            std::env::var("ARO_SNAPSHOTS").as_deref(),
            Ok("off" | "0" | "false")
        )
    })
}

/// Whether the aged-state snapshot store is live. Defaults to on; the
/// `ARO_SNAPSHOTS=off` environment variable (or a thread-local
/// [`set_snapshots_enabled`] override) disables it, turning
/// [`age_chip_snapshotted`] into a plain cold [`MissionProfile::age_chip`]
/// — the determinism smokes byte-compare the two modes.
#[must_use]
pub fn snapshots_enabled() -> bool {
    SNAPSHOTS_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(snapshots_env_default)
}

/// Overrides the snapshot kill switch on this thread: `Some(false)`
/// forces cold aging, `Some(true)` forces the store on, `None` restores
/// the `ARO_SNAPSHOTS` environment default. Test-only control surface —
/// production callers use the environment variable.
pub fn set_snapshots_enabled(on: Option<bool>) {
    SNAPSHOTS_OVERRIDE.with(|cell| cell.set(on));
}

/// [`MissionProfile::age_chip`] routed through the aged-state snapshot
/// store: the first trial to walk a given *(design, chip, step-prefix)*
/// records the step, every later trial replays it. Outside a [`scoped`]
/// region — or with snapshots disabled, see [`snapshots_enabled`] — this
/// is exactly `age_chip` (and the cursor still advances, so code paths
/// shared with un-scoped tests behave identically). The one-chip case of
/// [`age_fleet_snapshotted`].
///
/// Byte-identity contract: responses, wear state, and telemetry match a
/// cold `age_chip` walk bit for bit, under any fault plan — see
/// [`aro_puf::snapshot`] for why replay is fault-safe.
pub fn age_chip_snapshotted(
    chip: &mut Chip,
    design: &PufDesign,
    profile: &MissionProfile,
    duration_s: f64,
    cursor: &mut AgeCursor,
) {
    age_fleet_snapshotted(
        std::slice::from_mut(chip),
        design,
        profile,
        duration_s,
        std::slice::from_mut(cursor),
    );
}

/// How one chip of a fleet pass ages.
enum FleetAging {
    /// No live store: plain [`MissionProfile::age_chip`].
    Cold,
    /// Replay a stored snapshot.
    Replay(Arc<AgedStepSnapshot>),
    /// Record the step into the entry reserved for it.
    Record,
}

/// Ages every chip of a fleet by one step through the snapshot store,
/// fanning the per-chip work out over the `aro-par` workers. Chip `i`
/// walks with `cursors[i]`.
///
/// The store is only touched on the calling thread:
///
/// 1. in chip order, offer kernel hints, advance the cursor and look the
///    step up — a hit refreshes its LRU slot, a miss reserves one (with
///    the eviction a sequential insert would make);
/// 2. on the workers, replay the hits, record the misses (or age cold
///    with no live store);
/// 3. fill the reserved slots with the recordings.
///
/// A chip's lookup never depends on another chip's aging (keys carry the
/// chip id), so the store's LRU order, the `sim.snapshot_*` counters and
/// every output byte match a chip-by-chip [`age_chip_snapshotted`] walk.
/// Worker telemetry merges in worker-index order, as every `aro-par`
/// fan-out does. (Two chips of one pass with the same id and step
/// prefix both record, where the sequential walk would replay the
/// second: same bytes, different hit/miss counters.)
///
/// # Panics
/// Panics if `chips` and `cursors` differ in length.
pub fn age_fleet_snapshotted(
    chips: &mut [Chip],
    design: &PufDesign,
    profile: &MissionProfile,
    duration_s: f64,
    cursors: &mut [AgeCursor],
) {
    assert_eq!(chips.len(), cursors.len(), "one cursor per chip");
    let live = is_active() && snapshots_enabled();
    let step = profile.step_key(duration_s);
    let plans: Vec<FleetAging> = chips
        .iter()
        .zip(cursors.iter_mut())
        .map(|(chip, cursor)| {
            if live && !cursor.steps.is_empty() {
                // The reads since the previous step warmed this chip's
                // kernels; offer them to that step's snapshot so replays
                // can preload.
                offer_kernel_hints(chip, design, &cursor.steps);
            }
            cursor.steps.push(step);
            if !live {
                return FleetAging::Cold;
            }
            // Counters stay outside the recorded tape: the tap only runs
            // inside `age_step_recorded`, on the worker.
            if let Some(snapshot) = claim_snapshot(design, chip.id(), &cursor.steps) {
                aro_obs::counter("sim.snapshot_hits", 1);
                FleetAging::Replay(snapshot)
            } else {
                aro_obs::counter("sim.snapshot_misses", 1);
                FleetAging::Record
            }
        })
        .collect();
    let mut work: Vec<(&mut Chip, FleetAging)> = chips.iter_mut().zip(plans).collect();
    let recorded = aro_par::par_map_mut(&mut work, |_, (chip, aging)| match aging {
        FleetAging::Cold => {
            profile.age_chip(chip, design, duration_s);
            None
        }
        FleetAging::Replay(snapshot) => {
            age_step_replayed(chip, design, profile, duration_s, snapshot);
            None
        }
        FleetAging::Record => Some(age_step_recorded(chip, design, profile, duration_s)),
    });
    drop(work);
    CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        let Some(scope) = slot.as_mut() else {
            return;
        };
        for ((chip, cursor), snapshot) in chips.iter().zip(cursors.iter()).zip(recorded) {
            let Some(snapshot) = snapshot else {
                continue;
            };
            let chip_id = chip.id();
            // A reservation evicted within this pass is dropped, as a
            // sequential walk would have inserted and then evicted it.
            if let Some(entry) = scope.snapshots.iter_mut().rev().find(|entry| {
                entry.snapshot.is_none()
                    && entry.chip_id == chip_id
                    && entry.steps == cursor.steps
                    && entry.design == *design
            }) {
                entry.snapshot = Some(Arc::new(snapshot));
            }
        }
    });
}

/// Looks up the snapshot for *(design, chip, steps)*. A found entry
/// moves to the LRU's young end and its snapshot is returned (`None`
/// for a reservation still being recorded); a miss reserves an empty
/// entry there, evicting the oldest one at capacity, exactly where a
/// sequential insert would land.
fn claim_snapshot(
    design: &PufDesign,
    chip_id: u64,
    steps: &[MissionStepKey],
) -> Option<Arc<AgedStepSnapshot>> {
    CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        let scope = slot.as_mut()?;
        let found = scope.snapshots.iter().position(|entry| {
            entry.chip_id == chip_id && entry.steps == steps && entry.design == *design
        });
        if let Some(index) = found {
            let entry = scope.snapshots.remove(index);
            let snapshot = entry.snapshot.clone();
            scope.snapshots.push(entry);
            return snapshot;
        }
        if scope.snapshots.len() >= SNAPSHOT_CAPACITY {
            scope.snapshots.remove(0);
        }
        scope.snapshots.push(SnapshotEntry {
            design: design.clone(),
            chip_id,
            steps: steps.to_vec(),
            snapshot: None,
        });
        None
    })
}

/// Offers a chip's warm kernels to the snapshot stored for `steps`
/// (no-op when no such snapshot exists or its hints are already filled).
fn offer_kernel_hints(chip: &Chip, design: &PufDesign, steps: &[MissionStepKey]) {
    let chip_id = chip.id();
    let snapshot = CACHE.with(|cache| {
        let slot = cache.borrow();
        let scope = slot.as_ref()?;
        scope
            .snapshots
            .iter()
            .find(|entry| {
                entry.chip_id == chip_id && entry.steps == steps && entry.design == *design
            })
            .and_then(|entry| entry.snapshot.clone())
    });
    if let Some(snapshot) = snapshot {
        snapshot.harvest_kernel_hints(chip);
    }
}

/// Offers the chip's warm kernels to the snapshot its cursor currently
/// stands on. The lifecycle sweeps call this after a trial's *final*
/// reads — mid-trial steps are harvested automatically by the next
/// [`age_chip_snapshotted`] call, but the last step of a trial sees no
/// further aging, so without this call its replays would rebuild kernels
/// cold. No-op outside a scope or with snapshots disabled.
pub fn harvest_kernel_hints(chip: &Chip, design: &PufDesign, cursor: &AgeCursor) {
    if is_active() && snapshots_enabled() && !cursor.steps.is_empty() {
        offer_kernel_hints(chip, design, &cursor.steps);
    }
}

/// Fabricates (or clones) one chip of `design`. Inside a [`scoped`]
/// region the first request per *(design, id)* retains a pristine
/// baseline and every request returns a clone of it; outside a scope
/// this is exactly [`Chip::fabricate`]. EXP-8 and EXP-15 walk the same
/// chips of the same design, so the second sweep skips re-sampling the
/// whole array. Active in both snapshot modes — the clone is bitwise the
/// fabricated chip, so outputs are unchanged either way.
#[must_use]
pub fn fabricated_chip(design: &PufDesign, id: u64) -> Chip {
    CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        let Some(scope) = slot.as_mut() else {
            return Chip::fabricate(design, id);
        };
        if let Some(index) = scope
            .chips
            .iter()
            .position(|(d, i, _)| *i == id && d == design)
        {
            aro_obs::counter("sim.popcache_hits", 1);
            let entry = scope.chips.remove(index);
            let chip = (*entry.2).clone();
            scope.chips.push(entry);
            return chip;
        }
        aro_obs::counter("sim.popcache_misses", 1);
        let baseline = Rc::new(Chip::fabricate(design, id));
        let chip = (*baseline).clone();
        if scope.chips.len() >= CHIP_CAPACITY {
            scope.chips.remove(0);
        }
        scope.chips.push((design.clone(), id, baseline));
        chip
    })
}

/// [`Chip::golden_response`] memoized per scope for *pristine* chips
/// (fresh silicon, no faults). The golden response is a pure function of
/// *(design, chip id, environment, pairing)*; EXP-8 computes it for the
/// chips EXP-15 re-enrolls, so the second sweep reads it back instead of
/// re-deriving 2 500 ring frequencies. Aged or faulted chips bypass the
/// cache (their "golden" would not be the enrollment-time one).
#[must_use]
pub fn golden_response(
    chip: &Chip,
    design: &PufDesign,
    env: &Environment,
    pairs: &[(usize, usize)],
) -> BitString {
    if chip.age_s() != 0.0 || chip.faulted_ro_count() != 0 {
        return chip.golden_response(design, env, pairs);
    }
    let chip_id = chip.id();
    let cached = CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        let scope = slot.as_mut()?;
        let index = scope.goldens.iter().position(|entry| {
            entry.chip_id == chip_id
                && entry.env == *env
                && entry.pairs == pairs
                && entry.design == *design
        })?;
        aro_obs::counter("sim.popcache_hits", 1);
        let entry = scope.goldens.remove(index);
        let golden = entry.golden.clone();
        scope.goldens.push(entry);
        Some(golden)
    });
    if let Some(golden) = cached {
        return golden;
    }
    let golden = chip.golden_response(design, env, pairs);
    CACHE.with(|cache| {
        if let Some(scope) = cache.borrow_mut().as_mut() {
            aro_obs::counter("sim.popcache_misses", 1);
            if scope.goldens.len() >= GOLDEN_CAPACITY {
                scope.goldens.remove(0);
            }
            scope.goldens.push(GoldenEntry {
                design: design.clone(),
                chip_id,
                env: *env,
                pairs: pairs.to_vec(),
                golden: golden.clone(),
            });
        }
    });
    golden
}

/// The ten-year flip timeline of a style under a config — the
/// paper-standard measurement (typical mission, standard checkpoints) that
/// exp2, exp5, exp8, exp13 and exp14 all start from. Deterministic in
/// *(config, style)*: the population comes from [`fabricate`] (a pristine
/// clone or a fresh build, bit-identical either way) and every noise
/// stream is seeded from the design, so inside a [`scoped`] region the
/// measurement runs once per key and later callers get a memoized copy.
#[must_use]
pub fn standard_flip_timeline(cfg: &SimConfig, style: RoStyle) -> FlipTimeline {
    // Fault schedules change the measurement, so a live fault context gets
    // its own cache entries (fingerprint 0 = fault-free, shared with
    // zero-intensity plans, which `faultctx::current` reports as `None`).
    let fault_fp = crate::faultctx::current().map_or(0, |inj| inj.fingerprint());
    let cached = CACHE.with(|cache| {
        cache.borrow().as_ref().and_then(|scope| {
            scope
                .timelines
                .iter()
                .find(|(key, _)| key.1 == style && key.2 == fault_fp && key.0 == *cfg)
                .map(|(_, timeline)| timeline.clone())
        })
    });
    if let Some(timeline) = cached {
        aro_obs::counter("sim.popcache_timeline_hits", 1);
        return timeline;
    }
    let mut population = build_population(cfg, style);
    let profile = MissionProfile::typical(population.design().tech());
    let timeline = measure_flip_timeline(
        &mut population,
        &profile,
        &aro_puf::lifetime::standard_checkpoints(),
    );
    CACHE.with(|cache| {
        if let Some(scope) = cache.borrow_mut().as_mut() {
            aro_obs::counter("sim.popcache_timeline_misses", 1);
            scope
                .timelines
                .push(((cfg.clone(), style, fault_fp), timeline.clone()));
        }
    });
    timeline
}

/// [`search_design`] memoized per scope. The search sweeps hundreds of
/// (repetition ⊗ BCH) points per call and is pure in its inputs, so one
/// run never needs to solve the same provisioning problem twice.
#[must_use]
pub fn provisioned_spec(
    p_bit: f64,
    key_bits: usize,
    p_fail_target: f64,
    puf: &PufAreaParams,
) -> Option<KeyGenSpec> {
    let key = provision_key(p_bit, key_bits, p_fail_target, puf);
    let cached = CACHE.with(|cache| {
        cache.borrow().as_ref().and_then(|scope| {
            scope
                .specs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, spec)| spec.clone())
        })
    });
    if let Some(spec) = cached {
        aro_obs::counter("sim.provision_hits", 1);
        return spec;
    }
    let spec = search_design(p_bit, key_bits, p_fail_target, puf);
    CACHE.with(|cache| {
        if let Some(scope) = cache.borrow_mut().as_mut() {
            aro_obs::counter("sim.provision_misses", 1);
            scope.specs.push((key, spec.clone()));
        }
    });
    spec
}

/// [`KeyGenerator::for_bit_error_rate`] memoized per scope, with its
/// internal searches also routed through [`provisioned_spec`]. exp8 and
/// exp14 both provision for the ARO design's worst-case ten-year BER;
/// inside one run the second caller gets a clone.
#[must_use]
pub fn provisioned_generator(
    p_bit: f64,
    key_bits: usize,
    p_fail_target: f64,
    puf: &PufAreaParams,
) -> Option<KeyGenerator> {
    let key = provision_key(p_bit, key_bits, p_fail_target, puf);
    let cached = CACHE.with(|cache| {
        cache.borrow().as_ref().and_then(|scope| {
            scope
                .generators
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, generator)| generator.clone())
        })
    });
    if let Some(generator) = cached {
        aro_obs::counter("sim.provision_hits", 1);
        return generator;
    }
    let generator =
        KeyGenerator::for_bit_error_rate_via(provisioned_spec, p_bit, key_bits, p_fail_target, puf);
    CACHE.with(|cache| {
        if let Some(scope) = cache.borrow_mut().as_mut() {
            scope.generators.push((key, generator.clone()));
        }
    });
    generator
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::RoStyle;

    fn design(style: RoStyle, seed: u64) -> PufDesign {
        PufDesign::builder(style).n_ros(8).seed(seed).build()
    }

    #[test]
    fn scoped_reuse_is_bit_identical_to_fresh_fabrication() {
        let d = design(RoStyle::Conventional, 7);
        let fresh = Population::fabricate(&d, 3);
        let (first, second, third) = scoped(|| {
            let first = fabricate(&d, 3); // passthrough (first sighting)
            let second = fabricate(&d, 3); // promotion (baseline retained)
            let third = fabricate(&d, 3); // hit (clone of the baseline)
            (first, second, third)
        });
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        assert_eq!(third, fresh);
    }

    #[test]
    fn baselines_are_retained_only_on_the_second_request() {
        let d = design(RoStyle::Conventional, 8);
        scoped(|| {
            let _ = fabricate(&d, 3);
            assert_eq!(retained_baselines(), 0, "first sighting must not retain");
            let _ = fabricate(&d, 3);
            assert_eq!(retained_baselines(), 1, "second request must promote");
            let _ = fabricate(&d, 3);
            assert_eq!(retained_baselines(), 1);
        });
        assert_eq!(retained_baselines(), 0);
    }

    #[test]
    fn different_seeds_and_styles_never_share() {
        scoped(|| {
            let a = fabricate(&design(RoStyle::Conventional, 1), 3);
            let b = fabricate(&design(RoStyle::Conventional, 2), 3);
            let c = fabricate(&design(RoStyle::AgingResistant, 1), 3);
            assert_ne!(a, b, "different seeds must fabricate differently");
            assert_ne!(a, c, "different styles must fabricate differently");
            assert_ne!(b, c);
        });
    }

    #[test]
    fn different_chip_counts_never_share() {
        let d = design(RoStyle::Conventional, 3);
        scoped(|| {
            let small = fabricate(&d, 2);
            let large = fabricate(&d, 4);
            assert_eq!(small.len(), 2);
            assert_eq!(large.len(), 4);
            // The shared prefix is still identical chips (same id streams).
            assert_eq!(small.chips(), &large.chips()[..2]);
        });
    }

    #[test]
    fn tech_difference_is_part_of_the_key() {
        // exp6's duty sweep: same seed/style/chip count, one tech field off.
        let base = design(RoStyle::AgingResistant, 4);
        let tweaked_tech = aro_device::params::TechParams {
            aro_idle_stress_fraction: 0.5,
            ..aro_device::params::TechParams::default()
        };
        let tweaked = PufDesign::builder(RoStyle::AgingResistant)
            .n_ros(8)
            .tech(tweaked_tech)
            .seed(4)
            .build();
        scoped(|| {
            let a = fabricate(&base, 2);
            let b = fabricate(&tweaked, 2);
            assert_eq!(a.design(), &base);
            assert_eq!(b.design(), &tweaked);
            assert_ne!(a.design(), b.design(), "tech params must split the key");
        });
    }

    #[test]
    fn no_scope_means_no_cache() {
        assert!(!is_active());
        let d = design(RoStyle::Conventional, 5);
        // Plain passthrough; nothing to assert beyond it working.
        let population = fabricate(&d, 2);
        assert_eq!(population.len(), 2);
        scoped(|| assert!(is_active()));
        assert!(!is_active());
    }

    #[test]
    fn nested_scopes_share_the_outer_cache() {
        let d = design(RoStyle::Conventional, 6);
        scoped(|| {
            let outer = fabricate(&d, 2);
            let inner = scoped(|| fabricate(&d, 2));
            assert_eq!(outer, inner);
            // The outer scope survives the nested region.
            assert!(is_active());
        });
        assert!(!is_active());
    }

    #[test]
    fn reset_empties_the_scope_but_keeps_it_usable() {
        let d = design(RoStyle::Conventional, 9);
        scoped(|| {
            let before = fabricate(&d, 2);
            let _ = fabricate(&d, 2);
            assert_eq!(retained_baselines(), 1);
            reset();
            assert_eq!(retained_baselines(), 0);
            assert!(is_active(), "reset must not tear the scope down");
            // The cache refills and still produces identical silicon.
            let _ = fabricate(&d, 2);
            let after = fabricate(&d, 2);
            assert_eq!(retained_baselines(), 1);
            assert_eq!(before, after);
        });
        reset(); // no-op outside a scope
        assert!(!is_active());
    }

    #[test]
    fn snapshotted_aging_is_bit_identical_to_cold_aging() {
        use aro_device::units::YEAR;
        let d = design(RoStyle::AgingResistant, 11);
        let profile = MissionProfile::typical(d.tech());
        let mut cold = Chip::fabricate(&d, 0);
        for _ in 0..3 {
            profile.age_chip(&mut cold, &d, 2.5 * YEAR);
        }
        scoped(|| {
            // First walk records one snapshot per step.
            let mut recorder = Chip::fabricate(&d, 0);
            let mut cursor = AgeCursor::new();
            for _ in 0..3 {
                age_chip_snapshotted(&mut recorder, &d, &profile, 2.5 * YEAR, &mut cursor);
            }
            assert_eq!(retained_snapshots(), 3);
            assert_eq!(recorder, cold);
            // Second walk replays; no new entries, same bits.
            let mut replayer = Chip::fabricate(&d, 0);
            cursor.clear();
            for _ in 0..3 {
                age_chip_snapshotted(&mut replayer, &d, &profile, 2.5 * YEAR, &mut cursor);
            }
            assert_eq!(retained_snapshots(), 3, "replays must not re-record");
            assert_eq!(replayer, cold);
        });
        assert_eq!(retained_snapshots(), 0, "store must die with the scope");
    }

    /// The store's entries in LRU order (oldest first), as
    /// `(chip id, step-prefix length)`.
    fn snapshot_lru() -> Vec<(u64, usize)> {
        CACHE.with(|cache| {
            cache.borrow().as_ref().map_or_else(Vec::new, |scope| {
                scope
                    .snapshots
                    .iter()
                    .map(|entry| (entry.chip_id, entry.steps.len()))
                    .collect()
            })
        })
    }

    #[test]
    fn fleet_aging_matches_the_per_chip_walk_at_every_thread_count() {
        use aro_device::units::YEAR;
        let d = design(RoStyle::AgingResistant, 13);
        let profile = MissionProfile::typical(d.tech());
        let fresh: Vec<Chip> = (0..8).map(|id| Chip::fabricate(&d, id)).collect();
        let mut cold = fresh.clone();
        for chip in &mut cold {
            profile.age_chip(chip, &d, 2.5 * YEAR);
        }
        // The pre-recorded chips make the pass over 0..7 mix replays with
        // recordings; the odd set interleaves them, so a recording's LRU
        // slot must be reserved at lookup time, not taken at insert
        // time. The later lookup replays chip 6's recording from the
        // pass onto fresh silicon, refreshing its LRU slot.
        let walk_one = |chip: &mut Chip, cursor: &mut AgeCursor| {
            age_chip_snapshotted(chip, &d, &profile, 2.5 * YEAR, cursor);
        };
        for prerecorded in [[0usize, 1, 2, 3], [1, 3, 5, 7]] {
            let run = |fleet: bool, snapshots: bool| {
                set_snapshots_enabled(Some(snapshots));
                aro_obs::reset();
                aro_obs::set_enabled(true);
                let out = scoped(|| {
                    for &id in &prerecorded {
                        walk_one(&mut fresh[id].clone(), &mut AgeCursor::new());
                    }
                    let mut chips = fresh.clone();
                    let mut cursors = vec![AgeCursor::new(); chips.len()];
                    if fleet {
                        age_fleet_snapshotted(&mut chips, &d, &profile, 2.5 * YEAR, &mut cursors);
                    } else {
                        for (chip, cursor) in chips.iter_mut().zip(&mut cursors) {
                            walk_one(chip, cursor);
                        }
                    }
                    let retained = retained_snapshots();
                    let mut later = fresh[6].clone();
                    walk_one(&mut later, &mut AgeCursor::new());
                    assert_eq!(later, chips[6]);
                    (chips, retained, snapshot_lru())
                });
                aro_obs::set_enabled(false);
                let registry = aro_obs::take_scratch();
                set_snapshots_enabled(None);
                (out, registry.dump())
            };
            let reference = run(false, true);
            assert_eq!(
                reference.0 .0, cold,
                "the per-chip walk must equal cold aging"
            );
            assert_eq!(reference.0 .1, 8);
            assert!(
                reference.1.contains("sim.snapshot_hits"),
                "no replay was exercised"
            );
            for threads in [1, 2, 8] {
                aro_par::set_thread_override(threads);
                let fleet = run(true, true);
                let off = run(true, false);
                aro_par::set_thread_override(0);
                // Chips, retained entries, LRU order, and every counter
                // and sketch (the snapshot hit/miss counters included).
                assert_eq!(
                    fleet, reference,
                    "fleet pass diverged at {threads} threads ({prerecorded:?} pre-recorded)"
                );
                assert_eq!(
                    off.0 .0, cold,
                    "snapshots off must age cold at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn snapshot_keys_distinguish_step_partitions_and_silicon() {
        use aro_device::units::YEAR;
        let d = design(RoStyle::Conventional, 12);
        let profile = MissionProfile::typical(d.tech());
        scoped(|| {
            let mut one_step = Chip::fabricate(&d, 0);
            let mut cursor = AgeCursor::new();
            age_chip_snapshotted(&mut one_step, &d, &profile, 2.5 * YEAR, &mut cursor);
            // Same calendar time as two 1.25-year steps, but BTI
            // equivalent-time accumulation is not additive: the prefix
            // key must not alias the partitions.
            let mut two_steps = Chip::fabricate(&d, 0);
            cursor.clear();
            for _ in 0..2 {
                age_chip_snapshotted(&mut two_steps, &d, &profile, 1.25 * YEAR, &mut cursor);
            }
            assert_eq!(retained_snapshots(), 3);
            // Different chip of the same design: own entries.
            let mut other = Chip::fabricate(&d, 1);
            cursor.clear();
            age_chip_snapshotted(&mut other, &d, &profile, 2.5 * YEAR, &mut cursor);
            assert_eq!(retained_snapshots(), 4);
        });
    }

    #[test]
    fn capacity_is_bounded_lru() {
        scoped(|| {
            // Request every key twice so each one gets promoted; the LRU
            // must still never hold more than CAPACITY baselines.
            for seed in 0..(CAPACITY as u64 + 3) {
                let d = design(RoStyle::Conventional, seed);
                let _ = fabricate(&d, 2);
                let _ = fabricate(&d, 2);
            }
            assert_eq!(retained_baselines(), CAPACITY);
            // The oldest entry was evicted; requesting it again must still
            // produce the deterministic result.
            let again = fabricate(&design(RoStyle::Conventional, 0), 2);
            assert_eq!(
                again,
                Population::fabricate(&design(RoStyle::Conventional, 0), 2)
            );
        });
    }
}
