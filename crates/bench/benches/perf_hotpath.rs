//! Microbenches pinning the hot paths the performance work targets: the
//! precomputed frequency kernel (cached query vs forced rebuild),
//! parallel population fabrication, one aging-timeline checkpoint, and
//! the verify read path — a sealed, replicated store read of a
//! conventional-cell-sized record and the bit kernels its seal and key
//! derivation run on — and the re-enrollment continuity gate's
//! erasure-aware soft reconstruction at the conventional cell's width —
//! and the serve fleet's snapshotted aging pass, recording and replaying.
//!
//! Compare against `BENCH_baseline.json` at the workspace root with
//! `scripts/bench_check.sh`; the end-to-end numbers live in
//! `docs/PERFORMANCE.md`.

use aro_circuit::ring::RoStyle;
use aro_device::environment::Environment;
use aro_device::units::YEAR;
use aro_ecc::{BchCode, Code, Erasures, FuzzyExtractor, RepetitionCode, SoftBit, SoftConcatDecoder};
use aro_metrics::bits::BitString;
use aro_puf::{Chip, MissionProfile, Population, PufDesign};
use aro_serve::store::{ShardedStore, StoredRecord};
use aro_sim::parallel::par_build;
use aro_sim::popcache::{self, age_fleet_snapshotted, AgeCursor};
use aro_sim::runner::measure_flip_timeline;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The conventional cell's helper offset length: with the 128-bit salt it
/// makes the 28,943 stored bits the serve fleet seals per RO device.
const RO_OFFSET_BITS: usize = 28_815;

fn bench(c: &mut Criterion) {
    let design = PufDesign::standard(RoStyle::AgingResistant, 7);
    let tech = design.tech();
    let nominal = Environment::nominal(tech);
    // A second environment forces a kernel identity mismatch on every
    // other query, so alternating between the two measures the full
    // rebuild, not the cache hit.
    let hot = Environment::new(85.0, tech.vdd_nominal);
    let chip = Chip::fabricate(&design, 0);

    c.bench_function("freq_kernel_cached_query", |b| {
        // Steady state: the kernel is valid, every call is a cache hit.
        black_box(chip.frequency(&design, &nominal, 0));
        b.iter(|| black_box(chip.frequency(&design, &nominal, black_box(0))))
    });

    c.bench_function("freq_kernel_rebuild", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let env = if flip { &hot } else { &nominal };
            black_box(chip.frequency(&design, env, black_box(0)))
        })
    });

    c.bench_function("population_fabricate_8_chips", |b| {
        b.iter(|| black_box(Population::fabricate(black_box(&design), 8)))
    });

    c.bench_function("flip_timeline_one_checkpoint", |b| {
        let pristine = Population::fabricate(&design, 4);
        let profile = MissionProfile::typical(design.tech());
        b.iter(|| {
            let mut population = pristine.clone();
            black_box(measure_flip_timeline(
                &mut population,
                &profile,
                &[10.0 * YEAR],
            ))
        })
    });
}

fn bench_verify_path(c: &mut Criterion) {
    let bits = BitString::from_fn(RO_OFFSET_BITS, |i| (i * 7 + i / 5) % 3 == 0);
    let fe = FuzzyExtractor::new(RepetitionCode::new(RO_OFFSET_BITS), 1);
    let (key, helper) = fe.generate(&bits, &mut StdRng::seed_from_u64(7));
    assert_eq!(helper.stored_bits(), 28_943);
    let pairs = (0..64).map(|i| (2 * i, 2 * i + 1)).collect();
    let reference = BitString::from_fn(64, |i| i % 5 < 2);
    let record = StoredRecord::new(0, pairs, reference, helper, key.truncated(128));
    let mut store = ShardedStore::for_fleet_replicated(1, 2, 2);
    store.insert(record);

    c.bench_function("store_read_with_replicas", |b| {
        // Both replicas intact: every read re-checks both seals.
        b.iter(|| black_box(store.read_with_replicas(black_box(0))))
    });

    c.bench_function("bitstring_to_bytes", |b| {
        b.iter(|| black_box(black_box(&bits).to_bytes()))
    });

    c.bench_function("bitstring_slice", |b| {
        // An odd start offset: every output word is a two-word shift-merge.
        b.iter(|| black_box(black_box(&bits).slice(37, RO_OFFSET_BITS - 100)))
    });

    c.bench_function("bitstring_concat", |b| {
        let (left, right) = (bits.slice(0, 14_407), bits.slice(14_407, 14_408));
        b.iter(|| black_box(black_box(&left).concat(black_box(&right))))
    });
}

fn bench_continuity_gate(c: &mut Criterion) {
    // The conventional cell's quick-scale key code under the full storm:
    // 149x repetition ⊗ BCH(511,130,55), one block of 76,139 response bits.
    let decoder = SoftConcatDecoder::new(BchCode::new(9, 55), RepetitionCode::new(149));
    let n = decoder.code().n();
    let fe = FuzzyExtractor::new(decoder.code().clone(), 1);
    let mut rng = StdRng::seed_from_u64(11);
    let w: BitString = (0..n).map(|_| rng.gen::<bool>()).collect();
    let (_, helper) = fe.generate(&w, &mut rng);
    let reading: Vec<SoftBit> = w
        .iter()
        .map(|bit| SoftBit::new(bit ^ rng.gen_bool(0.2), rng.gen_range(0.1..2.0)))
        .collect();
    // About 1 % of positions erased, split between flagged helper bits
    // and BIST-flagged response bits.
    let erasures = Erasures {
        helper: (0..n / 200).map(|_| (0, rng.gen_range(0..n))).collect(),
        response: (0..n / 200).map(|_| rng.gen_range(0..n)).collect(),
    };
    // The reading decodes: every call runs the full gate, key derivation
    // included.
    assert!(decoder
        .reproduce_soft_erasure_aware(&reading, &helper, &erasures)
        .is_some());

    c.bench_function("reproduce_soft_erasure_aware_ro", |b| {
        b.iter(|| {
            black_box(decoder.reproduce_soft_erasure_aware(
                black_box(&reading),
                black_box(&helper),
                black_box(&erasures),
            ))
        })
    });
}

fn bench_fleet_aging(c: &mut Criterion) {
    // The serve fleet's ARO cell at quick scale under the full storm:
    // 8 chips of 5,610 rings, aged ten years in one step, rewound with
    // `reset_to_fabricated` before every pass as a serve trial does.
    let design = PufDesign::builder(RoStyle::AgingResistant)
        .n_ros(5_610)
        .seed(0xe18)
        .build();
    let profile = MissionProfile::typical(design.tech());
    let mut chips: Vec<Chip> = par_build(8, |id| Chip::fabricate(&design, id as u64));
    let age_pass = |chips: &mut [Chip]| {
        for chip in chips.iter_mut() {
            chip.reset_to_fabricated();
        }
        let mut cursors = vec![AgeCursor::new(); chips.len()];
        age_fleet_snapshotted(chips, &design, &profile, 10.0 * YEAR, &mut cursors);
    };

    c.bench_function("age_fleet_snapshotted_record", |b| {
        // A fresh store every pass: all 8 chips miss and record.
        b.iter(|| popcache::scoped(|| age_pass(black_box(&mut chips))))
    });

    popcache::scoped(|| {
        age_pass(&mut chips);
        c.bench_function("age_fleet_snapshotted_replay", |b| {
            // The store holds the pass: all 8 chips hit and replay.
            b.iter(|| age_pass(black_box(&mut chips)))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench, bench_verify_path, bench_continuity_gate, bench_fleet_aging
}
criterion_main!(benches);
