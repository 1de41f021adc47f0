//! Guided-vs-random autotuning benchmark on the Fig. 7 filter set.
//!
//! Measures what the cost model buys: how many *timed trials* each strategy
//! needs before it finds a schedule within 5% of the best known one. Every
//! distinct candidate schedule is timed once into a shared table (the median
//! of an odd number of warm runs, taken in rounds across the candidates, each
//! candidate first asserted bit-identical to the interpreter oracle), so both
//! strategies consume identical measurements and differ only in *order*:
//! guided walks the model's ranking, random walks seed-shuffled
//! permutations (averaged over several seeds).
//!
//! Writes `BENCH_autotune.json` in the workspace root with two gated
//! columns:
//!
//! * `guided_vs_random_speedup` — geometric mean over filters of
//!   (random timed trials to within-5%) / (guided timed trials to
//!   within-5%), floored at 1.2× in CI;
//! * `warm_start_zero_trials` — 1.0 when a second search against a
//!   `ScheduleCache` round-tripped through its on-disk format performs zero
//!   timed trials, 0.0 otherwise (floored at 1.0).
//!
//! Per filter the report also records `time_to_5pct_ns` for both strategies:
//! the timing budget (trial time × repetitions, summed along the search
//! order) spent reaching the 5% band.
//!
//! Setting `HELIUM_BENCH_SMOKE=1` skips the criterion group and writes the
//! report from a reduced configuration — the CI `autotune` job uses this and
//! gates the columns via `.github/scripts/bench_gate.py`.

use criterion::{criterion_group, Criterion};
use helium_apps::photoflow::PhotoFilter;
use helium_bench::{lift_photoflow, time_interleaved, LiftedRealizeSetup};
use helium_halide::cache::fingerprint_schedule;
use helium_halide::{
    CompileOptions, CompiledPipeline, ExecBackend, Pipeline, RealizeInputs, Realizer, Schedule,
};
use helium_tune::{
    enumerate_candidates, guided_search_cached, rank_candidates, ScheduleCache, SearchConfig, Trial,
};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

fn smoke_mode() -> bool {
    std::env::var("HELIUM_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Steady-state timing of every candidate: the median of `reps` (odd) warm
/// runs, taken in rounds across the candidates so drift in the host's speed
/// lands on every candidate alike (see [`time_interleaved`]). Gated on
/// correctness: each candidate's warm-up run must be bit-identical to
/// `oracle`.
fn time_candidates(
    pipeline: &Pipeline,
    schedules: &[&Schedule],
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    oracle: &helium_halide::Buffer,
    reps: usize,
) -> Vec<Duration> {
    let compiled: Vec<_> = schedules
        .iter()
        .map(|schedule| {
            let compiled = pipeline
                .compile(schedule, &CompileOptions::default())
                .expect("compile candidate");
            let warm = compiled.run(inputs, extents).expect("warm-up run");
            assert_eq!(
                &warm, oracle,
                "candidate schedule [{schedule}] diverged from the interpreter oracle"
            );
            compiled
        })
        .collect();
    let sides: Vec<&CompiledPipeline> = compiled.iter().collect();
    time_interleaved(&sides, inputs, extents, reps)
}

/// Trials until the first schedule within `tol` of the best lands, walking
/// `order`, plus the timing budget spent getting there.
fn trials_to_within(
    order: impl Iterator<Item = u64>,
    times: &BTreeMap<u64, Duration>,
    threshold: Duration,
    reps: usize,
) -> (usize, u128) {
    let mut spent: u128 = 0;
    for (i, fp) in order.enumerate() {
        let t = times[&fp];
        // A timed trial costs the warm-up plus `reps` measured runs.
        spent += t.as_nanos() * (reps as u128 + 1);
        if t <= threshold {
            return (i + 1, spent);
        }
    }
    (times.len(), spent)
}

struct FilterSplit {
    name: &'static str,
    candidates: usize,
    best_ns: u128,
    guided_trials: usize,
    guided_time_ns: u128,
    random_trials: f64,
    random_time_ns: f64,
    speedup: f64,
}

/// The guided-vs-random split for one lifted filter: shared timing table,
/// then trials-to-within-5% along the model ranking versus along random
/// permutations.
fn tune_split(filter: PhotoFilter, w: usize, h: usize, reps: usize, seeds: u64) -> FilterSplit {
    let (app, lifted) = lift_photoflow(filter, w, h);
    let setup = LiftedRealizeSetup::new(&app, &lifted);
    let inputs = setup.inputs();
    let pipeline = setup.pipeline();
    let extents = setup.extents.clone();

    let candidates = enumerate_candidates(pipeline, 40);
    let ranked: Vec<Trial> =
        rank_candidates(pipeline, &extents, &inputs, &candidates).expect("rank candidates");
    // Non-vacuity: the model must be working with real tier information.
    assert!(
        ranked.iter().any(|t| t.features.fused_stores > 0),
        "no candidate fused any store — the dry-run profile is vacuous"
    );

    let oracle = Realizer::new(Schedule::naive())
        .with_backend(ExecBackend::Interpret)
        .realize(pipeline, &extents, &inputs)
        .expect("interpreter oracle");
    let schedules: Vec<&Schedule> = ranked.iter().map(|t| &t.schedule).collect();
    let medians = time_candidates(pipeline, &schedules, &extents, &inputs, &oracle, reps);
    let times: BTreeMap<u64, Duration> =
        ranked.iter().map(|t| t.fingerprint).zip(medians).collect();

    let best = *times.values().min().expect("non-empty table");
    let threshold = Duration::from_nanos((best.as_nanos() as f64 * 1.05) as u64);

    let (guided_trials, guided_time_ns) = trials_to_within(
        ranked.iter().map(|t| t.fingerprint),
        &times,
        threshold,
        reps,
    );

    let mut fps: Vec<u64> = ranked.iter().map(|t| t.fingerprint).collect();
    let (mut random_total, mut random_time_total) = (0usize, 0u128);
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xBA5E ^ seed);
        // Fisher–Yates: the shim rand has gen_range but no shuffle.
        for i in (1..fps.len()).rev() {
            fps.swap(i, rng.gen_range(0..i + 1));
        }
        let (n, t) = trials_to_within(fps.iter().copied(), &times, threshold, reps);
        random_total += n;
        random_time_total += t;
    }
    let random_trials = random_total as f64 / seeds as f64;
    let speedup = random_trials / guided_trials as f64;
    println!(
        "autotune: {} [{w}, {h}] candidates={} best={best:?} guided_trials={guided_trials} \
         random_trials={random_trials:.1} guided_vs_random={speedup:.2}x",
        filter.name(),
        times.len(),
    );
    FilterSplit {
        name: filter.name(),
        candidates: times.len(),
        best_ns: best.as_nanos(),
        guided_trials,
        guided_time_ns,
        random_trials,
        random_time_ns: random_time_total as f64 / seeds as f64,
        speedup,
    }
}

/// Round-trip the schedule cache through its on-disk format and verify the
/// second (fresh) search performs zero timed trials. Returns 1.0 on success.
fn warm_start_split(w: usize, h: usize) -> f64 {
    let (app, lifted) = lift_photoflow(PhotoFilter::Invert, w, h);
    let setup = LiftedRealizeSetup::new(&app, &lifted);
    let inputs = setup.inputs();
    let config = SearchConfig {
        top_k: 3,
        repetitions: 1,
        max_candidates: 24,
        budget: Duration::from_secs(60),
    };
    let mut cache = ScheduleCache::new();
    let cold = guided_search_cached(
        setup.pipeline(),
        &setup.extents,
        &inputs,
        &config,
        &mut cache,
    )
    .expect("cold search");
    let path = std::env::temp_dir().join(format!("helium_bench_schedules_{}", std::process::id()));
    cache.save(&path).expect("persist schedule cache");
    let mut fresh = ScheduleCache::load(&path).expect("reload schedule cache");
    let hot = guided_search_cached(
        setup.pipeline(),
        &setup.extents,
        &inputs,
        &config,
        &mut fresh,
    )
    .expect("warm search");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        fingerprint_schedule(&hot.best),
        fingerprint_schedule(&cold.best),
        "the cached winner must round-trip exactly"
    );
    println!(
        "autotune: warm start cold_trials={} hot_trials={} (cache round-tripped through disk)",
        cold.timed_trials, hot.timed_trials
    );
    if cold.timed_trials >= 1 && hot.timed_trials == 0 {
        1.0
    } else {
        0.0
    }
}

fn bench_autotune(c: &mut Criterion) {
    let mut group = c.benchmark_group("autotune");
    group.sample_size(10);
    let (app, lifted) = lift_photoflow(PhotoFilter::Blur, 96, 64);
    let setup = LiftedRealizeSetup::new(&app, &lifted);
    let inputs = setup.inputs();
    let candidates = enumerate_candidates(setup.pipeline(), 24);
    group.bench_function("model_rank_blur", |b| {
        b.iter(|| {
            rank_candidates(setup.pipeline(), &setup.extents, &inputs, &candidates)
                .expect("rank")
                .len()
        })
    });
    group.finish();
}

fn write_report(reps: usize, seeds: u64) {
    let smoke = smoke_mode();
    let (w, h) = if smoke { (96, 64) } else { (192, 128) };
    let filters: &[PhotoFilter] = if smoke {
        &[PhotoFilter::Invert, PhotoFilter::Blur]
    } else {
        &[PhotoFilter::Invert, PhotoFilter::Blur, PhotoFilter::Sharpen]
    };
    let splits: Vec<FilterSplit> = filters
        .iter()
        .map(|&f| tune_split(f, w, h, reps, seeds))
        .collect();
    let speedup = (splits.iter().map(|s| s.speedup.ln()).sum::<f64>() / splits.len() as f64).exp();
    let warm_zero = warm_start_split(w, h);

    let mut rows = String::new();
    for (i, s) in splits.iter().enumerate() {
        let sep = if i + 1 == splits.len() { "" } else { "," };
        let _ = write!(
            rows,
            "\n    {{\"filter\": \"{}\", \"candidates\": {}, \"best_ns\": {}, \
             \"guided_trials\": {}, \"guided_time_to_5pct_ns\": {}, \
             \"random_trials\": {:.2}, \"random_time_to_5pct_ns\": {:.0}, \
             \"speedup\": {:.3}}}{sep}",
            s.name,
            s.candidates,
            s.best_ns,
            s.guided_trials,
            s.guided_time_ns,
            s.random_trials,
            s.random_time_ns,
            s.speedup,
        );
    }
    let json = format!(
        "{{\n  \"benchmark\": \"autotune\",\n  \"smoke\": {smoke},\n  \
         \"extents\": [{w}, {h}],\n  \"repetitions\": {reps},\n  \
         \"random_seeds\": {seeds},\n  \"filters\": [{rows}\n  ],\n  \
         \"guided_vs_random_speedup\": {speedup:.3},\n  \
         \"warm_start_zero_trials\": {warm_zero:.1}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_autotune.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("autotune: wrote {}", path.display()),
        Err(e) => eprintln!("autotune: could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_autotune);

fn main() {
    if smoke_mode() {
        println!("autotune: HELIUM_BENCH_SMOKE set, running reduced report only");
        write_report(21, 3);
    } else {
        benches();
        write_report(21, 5);
    }
}
