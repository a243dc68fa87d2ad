//! Aged-state snapshots: record one mission aging step once, replay it
//! onto any chip that is at the same point of the same aging history.
//!
//! The lifecycle sweeps (EXP-8/15/16) age every chip along the *same*
//! shared ten-year timeline once per (trial × chip), and re-walking the
//! per-device wear physics dominated their wall time. A recorded
//! [`AgedStepSnapshot`] captures everything one [`MissionProfile::step`]
//! does to a chip:
//!
//! * the **wear state** of every healthy ring after the step (BTI
//!   accumulators per device, HCI equivalent cycles, wear epoch), stored
//!   compactly — see [`WearStore`];
//! * the **telemetry tape** the step emitted (counters and sketches, per
//!   ring and phase), so an instrumented replay reproduces the
//!   observability streams byte for byte (see `aro_obs::tap_replay`).
//!
//! Replay is *incremental*: the chip must already hold the state the
//! recording chip held just before the step (the snapshot store keys
//! entries by the full step-prefix sequence, [`MissionStepKey`], because
//! BTI equivalent-time accumulation is not additive across different
//! step partitions of the same calendar time).
//!
//! # Hard faults
//!
//! Wear physics is fault-*independent* where it matters: BTI stress does
//! not consult ring health, and HCI scales with the ring's oscillation
//! frequency (zero for a dead ring, the stuck value for a stuck one).
//! Snapshots therefore carry **no fault-plan identity** at all. Instead
//! each snapshot records which rings were healthy when it was recorded
//! (its *coverage*), and replay uses the recorded fast path only for
//! rings that are covered **and** currently healthy — every other ring
//! is aged live through the exact cold-path batches. A trial under a
//! different fault plan than the recording trial thus reuses the shared
//! healthy-ring work and recomputes precisely the rings the plans
//! disagree on, staying byte-identical to a cold run under its own plan.

use std::sync::OnceLock;

use aro_circuit::ring::{ActiveStressBatch, IdleStressBatch};
use aro_device::aging::WearLevel;
use aro_device::environment::Environment;
use aro_obs::TapEvent;

use crate::chip::Chip;
use crate::design::PufDesign;
use crate::lifetime::MissionProfile;

/// The telemetry a recorded step emitted, with per-ring spans so replay
/// can interleave taped (covered) and live (uncovered) rings in the
/// exact cold emission order: the active phase visits every ring in
/// array order, then the idle phase does.
#[derive(Debug, Clone)]
struct StepTape {
    events: Vec<TapEvent>,
    /// Half-open `events` range each ring emitted during the active phase.
    active_spans: Vec<(u32, u32)>,
    /// Half-open `events` range each ring emitted during the idle phase.
    idle_spans: Vec<(u32, u32)>,
    /// Whole-step aggregate of the spanned events (active phase in ring
    /// order, then idle phase): counter totals, plus every sketch
    /// observation in emission order. Counters fold commutatively and
    /// sketches keep their exact order, so emitting the aggregate leaves
    /// the registry bitwise identical to per-event dispatch — at a few
    /// calls instead of thousands. Used by the all-rings-fast replay path.
    agg_counters: Vec<(&'static str, u64)>,
    agg_sketches: Vec<(&'static str, f64)>,
}

impl StepTape {
    fn new(events: Vec<TapEvent>, active_spans: Vec<(u32, u32)>, idle_spans: Vec<(u32, u32)>) -> Self {
        let mut agg_counters: Vec<(&'static str, u64)> = Vec::new();
        let mut agg_sketches: Vec<(&'static str, f64)> = Vec::new();
        for spans in [&active_spans, &idle_spans] {
            for &(start, end) in spans.iter() {
                for event in &events[start as usize..end as usize] {
                    match *event {
                        TapEvent::Counter(name, delta) => {
                            match agg_counters.iter_mut().find(|(n, _)| {
                                n.as_ptr() == name.as_ptr() && n.len() == name.len()
                            }) {
                                Some(slot) => slot.1 += delta,
                                None => agg_counters.push((name, delta)),
                            }
                        }
                        TapEvent::Sketch(name, value) => agg_sketches.push((name, value)),
                    }
                }
            }
        }
        Self {
            events,
            active_spans,
            idle_spans,
            agg_counters,
            agg_sketches,
        }
    }

    fn replay(&self, spans: &[(u32, u32)], ring: usize) {
        let (start, end) = spans[ring];
        aro_obs::tap_replay(&self.events[start as usize..end as usize]);
    }

    /// Emits the whole step's telemetry at once — valid only when every
    /// ring replays fast, i.e. the emission set is exactly the union of
    /// all per-ring spans.
    fn replay_all(&self) {
        if !aro_obs::enabled() {
            return;
        }
        for &(name, total) in &self.agg_counters {
            aro_obs::counter(name, total);
        }
        for &(name, value) in &self.agg_sketches {
            aro_obs::sketch(name, value);
        }
    }
}

/// Post-step wear of the covered rings.
///
/// The structural common case collapses hard: BTI transitions are driven
/// by chip-wide batches whose per-device value depends only on the
/// device's own stress history, and every covered ring's device `d` has
/// the *same* history as device `d` of every other covered ring — so one
/// per-device BTI vector serves the whole array. HCI equivalent cycles
/// are identical for all devices of a ring (same frequency, same
/// factor), leaving one scalar per ring. [`WearStore::capture`] verifies
/// both collapses bitwise while sweeping and falls back to a dense
/// per-device copy if the physics ever stops cooperating.
#[derive(Debug, Clone)]
enum WearStore {
    Uniform {
        /// Per-device BTI accumulators shared by every covered ring
        /// (canonical order: per stage, PMOS then NMOS).
        bti: Vec<f64>,
        /// Per-ring HCI equivalent cycles (uncovered slots are zero).
        hci: Vec<f64>,
    },
    /// Per-ring, per-device wear of covered rings (uncovered slots are
    /// zero), flattened as `ring * devices_per_ring + device`.
    Dense(Vec<WearLevel>),
}

impl WearStore {
    fn capture(chip: &Chip, covered: &[bool]) -> Self {
        let mut scratch: Vec<WearLevel> = Vec::new();
        let mut bti: Option<Vec<f64>> = None;
        let mut hci = vec![0.0_f64; covered.len()];
        for (i, ro) in chip.ros().iter().enumerate() {
            if !covered[i] {
                continue;
            }
            scratch.clear();
            ro.capture_wear_levels(&mut scratch);
            let ring_hci = scratch[0].hci_eq_cycles;
            let uniform_hci = scratch.iter().all(|w| w.hci_eq_cycles == ring_hci);
            let uniform_bti = match &bti {
                None => {
                    bti = Some(scratch.iter().map(|w| w.bti_dvth).collect());
                    true
                }
                Some(template) => template
                    .iter()
                    .zip(&scratch)
                    .all(|(t, w)| *t == w.bti_dvth),
            };
            if !(uniform_hci && uniform_bti) {
                return Self::capture_dense(chip, covered);
            }
            hci[i] = ring_hci;
        }
        Self::Uniform {
            bti: bti.unwrap_or_default(),
            hci,
        }
    }

    fn capture_dense(chip: &Chip, covered: &[bool]) -> Self {
        let devices = 2 * chip.ros().first().map_or(0, |ro| ro.n_stages());
        let zero = WearLevel {
            bti_dvth: 0.0,
            hci_eq_cycles: 0.0,
        };
        let mut levels = vec![zero; covered.len() * devices];
        let mut scratch: Vec<WearLevel> = Vec::new();
        for (i, ro) in chip.ros().iter().enumerate() {
            if !covered[i] {
                continue;
            }
            scratch.clear();
            ro.capture_wear_levels(&mut scratch);
            levels[i * devices..(i + 1) * devices].copy_from_slice(&scratch);
        }
        Self::Dense(levels)
    }

}

/// One recorded aging step: everything needed to bring a chip that holds
/// the pre-step state to the exact post-step state — wear, wear epoch,
/// and the telemetry the step emitted.
#[derive(Debug, Clone)]
pub struct AgedStepSnapshot {
    tape: StepTape,
    wear: WearStore,
    /// `devices_per_ring` of the recording design (for `Dense` slicing).
    devices: usize,
    /// Rings that were healthy when the step was recorded.
    covered: Vec<bool>,
    /// Uniform wear epoch of the array after the step.
    epoch_after: u64,
    /// Frequency-kernel results harvested from a chip that already
    /// finished this step's post-step reads (lazily filled, see
    /// [`AgedStepSnapshot::harvest_kernel_hints`]). Replays preload these
    /// so the first read after the step skips its kernel rebuild. Set
    /// once; a `OnceLock` keeps the snapshot `Send + Sync`, so fleet
    /// workers can replay one shared snapshot.
    hints: OnceLock<KernelHints>,
}

/// Harvested per-ring kernel results, all derived under one environment.
#[derive(Debug, Clone)]
struct KernelHints {
    env: Environment,
    /// Per-ring `(period_s, freq_hz)`; `None` where no warm kernel was
    /// available at harvest time.
    results: Vec<Option<(f64, f64)>>,
}

impl AgedStepSnapshot {
    /// Approximate heap footprint, for store accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let tape = self.tape.events.len() * std::mem::size_of::<TapEvent>()
            + (self.tape.active_spans.len() + self.tape.idle_spans.len()) * 8
            + self.tape.agg_counters.len() * 24
            + self.tape.agg_sketches.len() * 24;
        let hints = self.hints.get().map_or(0, |h| {
            h.results.len() * std::mem::size_of::<Option<(f64, f64)>>()
        });
        let wear = match &self.wear {
            WearStore::Uniform { bti, hci } => (bti.len() + hci.len()) * 8,
            WearStore::Dense(levels) => levels.len() * std::mem::size_of::<WearLevel>(),
        };
        tape + wear + hints + self.covered.len()
    }
}

/// Ages `chip` through one mission step exactly as
/// [`MissionProfile::age_chip`] would — same batches, same per-ring
/// order, bit-identical wear and telemetry — while recording a snapshot
/// of the step for later replay.
pub fn age_step_recorded(
    chip: &mut Chip,
    design: &PufDesign,
    profile: &MissionProfile,
    duration_s: f64,
) -> AgedStepSnapshot {
    let step = profile.step(design, duration_s);
    let n = chip.ros().len();
    let covered: Vec<bool> = chip.ros().iter().map(|ro| ro.health().is_healthy()).collect();
    let process = *chip.process();
    aro_obs::tap_begin();
    let mut active_spans = Vec::with_capacity(n);
    {
        let mut batch = ActiveStressBatch::new(&step.models, &step.env, step.active_s);
        for ro in chip.ros_mut() {
            let start = aro_obs::tap_position() as u32;
            ro.stress_active_with(design.tech(), &step.env, &process, &mut batch);
            active_spans.push((start, aro_obs::tap_position() as u32));
        }
    }
    let mut idle_spans = Vec::with_capacity(n);
    {
        let mut batch = IdleStressBatch::new(
            design.style(),
            design.tech(),
            &step.models,
            step.temp_celsius,
            step.vdd,
            step.idle_s,
        );
        for ro in chip.ros_mut() {
            let start = aro_obs::tap_position() as u32;
            ro.stress_idle_with(&mut batch);
            idle_spans.push((start, aro_obs::tap_position() as u32));
        }
    }
    chip.add_age(step.duration_s);
    let events = aro_obs::tap_take();
    let epoch_after = chip.ros().first().map_or(0, |ro| ro.wear_epoch());
    debug_assert!(
        chip.ros().iter().all(|ro| ro.wear_epoch() == epoch_after),
        "wear epochs diverged across the array"
    );
    AgedStepSnapshot {
        tape: StepTape::new(events, active_spans, idle_spans),
        wear: WearStore::capture(chip, &covered),
        devices: chip.ros().first().map_or(0, |ro| 2 * ro.n_stages()),
        covered,
        epoch_after,
        hints: OnceLock::new(),
    }
}

/// Ages `chip` through one mission step by replaying `snapshot`.
///
/// Rings that are covered by the snapshot **and** currently healthy take
/// the fast path: their recorded telemetry span is replayed and their
/// wear is restored from the captured post-step state. Every other ring
/// — faulted now, or faulted when the snapshot was recorded — is aged
/// live through the same batches the cold path uses. The resulting chip
/// state and telemetry are byte-identical to
/// [`MissionProfile::age_chip`] under the current fault state.
///
/// # Panics
/// Panics if the snapshot was recorded for a different array shape.
pub fn age_step_replayed(
    chip: &mut Chip,
    design: &PufDesign,
    profile: &MissionProfile,
    duration_s: f64,
    snapshot: &AgedStepSnapshot,
) {
    let step = profile.step(design, duration_s);
    let n = chip.ros().len();
    assert_eq!(snapshot.covered.len(), n, "snapshot recorded for another array");
    let process = *chip.process();
    let fast: Vec<bool> = chip
        .ros()
        .iter()
        .enumerate()
        .map(|(i, ro)| snapshot.covered[i] && ro.health().is_healthy())
        .collect();
    if fast.iter().all(|&f| f) {
        // Every ring takes the recorded fast path: skip the per-ring
        // batch/tape interleave entirely. The aggregated tape leaves the
        // registry bitwise where per-ring replay would (counters fold
        // commutatively, sketches keep emission order), and the wear
        // restore below is the same loop the mixed path runs.
        snapshot.tape.replay_all();
        let mut scratch: Vec<WearLevel> = Vec::with_capacity(snapshot.devices);
        for (i, ro) in chip.ros_mut().iter_mut().enumerate() {
            snapshot.wear_levels_for(i, &mut scratch);
            ro.restore_wear_levels(&scratch, snapshot.epoch_after);
        }
        chip.add_age(step.duration_s);
        snapshot.preload_kernel_hints(chip, design);
        return;
    }
    {
        let mut batch = ActiveStressBatch::new(&step.models, &step.env, step.active_s);
        for (i, ro) in chip.ros_mut().iter_mut().enumerate() {
            if fast[i] {
                snapshot.tape.replay(&snapshot.tape.active_spans, i);
            } else {
                ro.stress_active_with(design.tech(), &step.env, &process, &mut batch);
            }
        }
    }
    {
        let mut batch = IdleStressBatch::new(
            design.style(),
            design.tech(),
            &step.models,
            step.temp_celsius,
            step.vdd,
            step.idle_s,
        );
        for (i, ro) in chip.ros_mut().iter_mut().enumerate() {
            if fast[i] {
                snapshot.tape.replay(&snapshot.tape.idle_spans, i);
            } else {
                ro.stress_idle_with(&mut batch);
            }
        }
    }
    let mut scratch: Vec<WearLevel> = Vec::with_capacity(snapshot.devices);
    for (i, ro) in chip.ros_mut().iter_mut().enumerate() {
        if fast[i] {
            snapshot.wear_levels_for(i, &mut scratch);
            ro.restore_wear_levels(&scratch, snapshot.epoch_after);
        }
    }
    chip.add_age(step.duration_s);
    snapshot.preload_kernel_hints(chip, design);
}

impl AgedStepSnapshot {
    /// Harvests warm frequency-kernel results from a chip standing at
    /// this snapshot's post-step state — typically the recording chip,
    /// after the reads that followed the step warmed its kernels. The
    /// harvest keeps one environment cohort (the first one seen) and only
    /// covered rings whose kernel matches their current wear epoch, so a
    /// hint can never describe anything but the recorded post-step wear
    /// of identical silicon. Idempotent: once filled, later calls return
    /// immediately. No-op if the chip holds no harvestable kernels.
    pub fn harvest_kernel_hints(&self, chip: &Chip) {
        if self.hints.get().is_some() {
            return;
        }
        let mut env: Option<Environment> = None;
        let mut results: Vec<Option<(f64, f64)>> = vec![None; self.covered.len()];
        for (i, ro) in chip.ros().iter().enumerate() {
            if !self.covered[i] || ro.wear_epoch() != self.epoch_after {
                continue;
            }
            let Some((ring_env, period_s, freq_hz)) = ro.cached_kernel_result() else {
                continue;
            };
            match env {
                None => env = Some(ring_env),
                Some(e) if e == ring_env => {}
                Some(_) => continue,
            }
            results[i] = Some((period_s, freq_hz));
        }
        if let Some(env) = env {
            // Another thread may have filled the slot since the check
            // above; the first fill wins, as it does sequentially.
            let _ = self.hints.set(KernelHints { env, results });
        }
    }

    /// Installs harvested kernel results on a chip that just replayed
    /// this step, so its first post-step read skips the rebuild. Only
    /// covered rings receive hints (an uncovered ring was aged live and
    /// its wear may differ from the recorded state), and
    /// `RingOscillator::preload_kernel` further refuses faulted and
    /// observability-sampled rings — the preload is therefore invisible
    /// to every output and telemetry stream (see the phantom-kernel
    /// bookkeeping in `aro_circuit::kernel`).
    fn preload_kernel_hints(&self, chip: &Chip, design: &PufDesign) {
        let Some(hints) = self.hints.get() else {
            return;
        };
        let process = *chip.process();
        for (i, ro) in chip.ros().iter().enumerate() {
            if !self.covered[i] {
                continue;
            }
            if let Some((period_s, freq_hz)) = hints.results[i] {
                let _ = ro.preload_kernel(design.tech(), &hints.env, &process, period_s, freq_hz);
            }
        }
    }

    fn wear_levels_for(&self, ring: usize, out: &mut Vec<WearLevel>) {
        out.clear();
        match &self.wear {
            WearStore::Uniform { bti, hci } => {
                out.extend(bti.iter().map(|&b| WearLevel {
                    bti_dvth: b,
                    hci_eq_cycles: hci[ring],
                }));
            }
            WearStore::Dense(levels) => {
                out.extend_from_slice(&levels[ring * self.devices..(ring + 1) * self.devices]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aro_circuit::ring::{RoHealth, RoStyle};
    use aro_device::environment::Environment;
    use aro_device::units::YEAR;

    fn design(style: RoStyle) -> PufDesign {
        PufDesign::builder(style).n_ros(16).seed(4242).build()
    }

    fn chips_equal(a: &Chip, b: &Chip) -> bool {
        a == b && a.age_s() == b.age_s()
    }

    #[test]
    fn recorded_step_matches_the_cold_path_bitwise() {
        for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
            let design = design(style);
            let profile = MissionProfile::typical(design.tech());
            let mut cold = Chip::fabricate(&design, 1);
            let mut recorded = Chip::fabricate(&design, 1);
            for _ in 0..3 {
                profile.age_chip(&mut cold, &design, 2.5 * YEAR);
                let _ = age_step_recorded(&mut recorded, &design, &profile, 2.5 * YEAR);
            }
            assert!(chips_equal(&cold, &recorded), "style {style:?}");
            let env = Environment::nominal(design.tech());
            assert_eq!(
                cold.frequencies(&design, &env),
                recorded.frequencies(&design, &env)
            );
        }
    }

    #[test]
    fn replayed_step_matches_the_cold_path_bitwise() {
        for style in [RoStyle::Conventional, RoStyle::AgingResistant] {
            let design = design(style);
            let profile = MissionProfile::typical(design.tech());
            let mut donor = Chip::fabricate(&design, 2);
            let snapshots: Vec<AgedStepSnapshot> = (0..4)
                .map(|_| age_step_recorded(&mut donor, &design, &profile, 1.25 * YEAR))
                .collect();
            let mut cold = Chip::fabricate(&design, 2);
            let mut replayed = Chip::fabricate(&design, 2);
            for snapshot in &snapshots {
                profile.age_chip(&mut cold, &design, 1.25 * YEAR);
                age_step_replayed(&mut replayed, &design, &profile, 1.25 * YEAR, snapshot);
            }
            assert!(chips_equal(&cold, &replayed), "style {style:?}");
            let env = Environment::nominal(design.tech());
            assert_eq!(
                cold.frequencies(&design, &env),
                replayed.frequencies(&design, &env)
            );
        }
    }

    #[test]
    fn replay_under_different_faults_ages_disagreeing_rings_live() {
        let design = design(RoStyle::AgingResistant);
        let profile = MissionProfile::typical(design.tech());
        // Record on a chip with ring 3 dead.
        let mut donor = Chip::fabricate(&design, 5);
        donor.set_ro_health(3, RoHealth::Dead);
        let snapshot = age_step_recorded(&mut donor, &design, &profile, 5.0 * YEAR);
        // Replay on the same silicon with a *different* plan: ring 3
        // healthy, ring 7 stuck.
        let plan = |chip: &mut Chip| {
            chip.set_ro_health(7, RoHealth::Stuck(9.0e8));
        };
        let mut cold = Chip::fabricate(&design, 5);
        plan(&mut cold);
        profile.age_chip(&mut cold, &design, 5.0 * YEAR);
        let mut replayed = Chip::fabricate(&design, 5);
        plan(&mut replayed);
        age_step_replayed(&mut replayed, &design, &profile, 5.0 * YEAR, &snapshot);
        assert!(chips_equal(&cold, &replayed));
        cold.set_ro_health(7, RoHealth::Healthy);
        replayed.set_ro_health(7, RoHealth::Healthy);
        let env = Environment::nominal(design.tech());
        assert_eq!(
            cold.frequencies(&design, &env),
            replayed.frequencies(&design, &env)
        );
    }

    #[test]
    fn reset_to_fabricated_rewinds_a_workspace_chip() {
        let design = design(RoStyle::Conventional);
        let profile = MissionProfile::typical(design.tech());
        let fresh = Chip::fabricate(&design, 9);
        let mut workspace = Chip::fabricate(&design, 9);
        let env = Environment::nominal(design.tech());
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (2 * i, 2 * i + 1)).collect();
        let expected_first = {
            let mut probe = Chip::fabricate(&design, 9);
            probe.response(&design, &env, &pairs)
        };
        let _ = workspace.response(&design, &env, &pairs);
        workspace.set_ro_health(2, RoHealth::Dead);
        profile.age_chip(&mut workspace, &design, 7.0 * YEAR);
        workspace.reset_to_fabricated();
        assert!(chips_equal(&fresh, &workspace));
        // The noise stream rewound too: the first post-reset read equals
        // the first read of a freshly fabricated chip.
        assert_eq!(workspace.response(&design, &env, &pairs), expected_first);
    }
}
