//! Properties of the guided autotuner (`helium-tune`) against the lifted
//! Fig. 7 filters:
//!
//! 1. **Rank correlation** — the analytical cost model's ordering of
//!    candidate schedules must agree with measured steady-state times well
//!    enough that the *top model quartile* contains a schedule within
//!    tolerance of the true best. The model never has to predict wall-clock;
//!    it has to put a near-best schedule early in the search order — that is
//!    the property the guided search's trial-count advantage rests on.
//! 2. **Structural ordering** — on a stencil pipeline the model must rank a
//!    fused wide schedule strictly ahead of the naive scalar one, and its
//!    feature vector must reflect the dry-run facts it scored (fused stores
//!    present, taps counted).
//! 3. **Persistence** — a `ScheduleCache` tuned in one process state and
//!    round-tripped through its on-disk format warms a completely fresh
//!    state with *zero* timed trials, and the winner survives the round
//!    trip bit-exactly.
//!
//! The CI `autotune` job runs this suite with a non-vacuity guard.

use helium::halide::prelude::*;
use helium_apps::photoflow::PhotoFilter;
use helium_bench::{lift_photoflow, LiftedRealizeSetup};
use helium_tune::{
    enumerate_candidates, guided_search_cached, rank_candidates, score, ScheduleCache,
    SearchConfig, Trial,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held for the whole of every test in this binary. Tests in one binary run
/// on parallel threads, and a timing taken while another test lifts,
/// compiles or times on the same cores measures the contention, not the
/// schedule.
static ALONE: Mutex<()> = Mutex::new(());

/// Run the calling test alone (a panicked holder only poisons the lock).
fn alone() -> std::sync::MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Steady-state time of every ranked candidate, as interleaved medians:
/// each candidate is compiled and run once untimed (which also primes the
/// shared program cache), then timed once per round for `rounds` rounds,
/// so drift in the host's speed lands on every candidate alike. Every other
/// round runs the candidates in reverse: in one fixed order each candidate
/// always follows the same neighbour, and the first (the model's top pick)
/// follows the slowest, which read up to 40% slower than the same kernel
/// timed elsewhere in the order. A candidate's time is the median of its
/// rounds.
fn measure(
    pipeline: &Pipeline,
    ranked: &[Trial],
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    rounds: usize,
) -> Vec<Duration> {
    let compiled: Vec<CompiledPipeline> = ranked
        .iter()
        .map(|trial| {
            let c = pipeline
                .compile(&trial.schedule, &CompileOptions::default())
                .expect("compile ranked candidate");
            let _ = c.run(inputs, extents).expect("warm-up");
            c
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(rounds); compiled.len()];
    for round in 0..rounds {
        for k in 0..compiled.len() {
            let i = if round % 2 == 0 {
                k
            } else {
                compiled.len() - 1 - k
            };
            let start = Instant::now();
            let _ = compiled[i].run(inputs, extents).expect("timed run");
            samples[i].push(start.elapsed());
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort();
            s[s.len() / 2]
        })
        .collect()
}

/// The rank-correlation property for one filter: among the model's top
/// quartile there must be a schedule measured within `tol`× of the best
/// measured time over *all* candidates.
fn assert_top_quartile_contains_near_best(filter: PhotoFilter, tol: f64) {
    let _alone = alone();
    let (app, lifted) = lift_photoflow(filter, 96, 64);
    let setup = LiftedRealizeSetup::new(&app, &lifted);
    let inputs = setup.inputs();
    let pipeline = setup.pipeline();

    let candidates = enumerate_candidates(pipeline, 32);
    let ranked =
        rank_candidates(pipeline, &setup.extents, &inputs, &candidates).expect("rank candidates");
    assert!(
        ranked.len() >= 8,
        "{}: need a meaningful candidate pool, got {}",
        filter.name(),
        ranked.len()
    );

    let times = measure(pipeline, &ranked, &setup.extents, &inputs, 11);
    let best = *times.iter().min().expect("non-empty");
    let quartile = ranked.len().div_ceil(4);
    let best_in_quartile = *times[..quartile].iter().min().expect("non-empty quartile");

    assert!(
        best_in_quartile.as_secs_f64() <= best.as_secs_f64() * tol,
        "{}: model's top quartile ({} of {}) bottoms out at {:?}, but the \
         true best is {:?} — ranking is not correlated with measurement",
        filter.name(),
        quartile,
        ranked.len(),
        best_in_quartile,
        best,
    );
}

#[test]
fn model_top_quartile_contains_near_best_invert() {
    assert_top_quartile_contains_near_best(PhotoFilter::Invert, 1.5);
}

#[test]
fn model_top_quartile_contains_near_best_blur() {
    assert_top_quartile_contains_near_best(PhotoFilter::Blur, 1.5);
}

#[test]
fn model_top_quartile_contains_near_best_sharpen() {
    assert_top_quartile_contains_near_best(PhotoFilter::Sharpen, 1.5);
}

#[test]
fn model_ranks_fused_wide_above_naive_scalar_on_blur() {
    let _alone = alone();
    let (app, lifted) = lift_photoflow(PhotoFilter::Blur, 96, 64);
    let setup = LiftedRealizeSetup::new(&app, &lifted);
    let inputs = setup.inputs();
    let pipeline = setup.pipeline();

    let naive = pipeline
        .compile(&Schedule::naive(), &CompileOptions::default())
        .unwrap()
        .dry_run(&inputs, &setup.extents)
        .unwrap();
    let wide = Schedule::stencil_default();
    let fused = pipeline
        .compile(&wide, &CompileOptions::default())
        .unwrap()
        .dry_run(&inputs, &setup.extents)
        .unwrap();

    let naive_score = score(&Schedule::naive(), &naive);
    let fused_score = score(&wide, &fused);
    assert!(
        fused_score < naive_score,
        "fused wide schedule must score cheaper than naive scalar \
         ({fused_score} vs {naive_score})"
    );

    // The ranking's feature vectors must reflect the dry-run facts they
    // were scored from, not re-guessed admissibility. A Scalar tier (the
    // `HELIUM_FORCE_SCALAR` pin) runs no fused kernel, and its dry runs
    // report none, so no candidate fuses or shows taps there.
    let fuses = Target::current().tier() != Tier::Scalar;
    let candidates = enumerate_candidates(pipeline, 32);
    let ranked = rank_candidates(pipeline, &setup.extents, &inputs, &candidates).unwrap();
    let top = &ranked[0];
    assert_eq!(
        top.features.fused_stores > 0,
        fuses,
        "the winning candidate must fuse exactly when the tier runs fused kernels"
    );
    assert!(
        ranked.iter().all(|t| t.features.output_cells > 0),
        "every feature vector carries the dry-run cell counts"
    );
    assert_eq!(
        ranked.iter().any(|t| t.features.taps > 0),
        fuses,
        "blur's stencil taps must be visible to the model exactly when it fuses"
    );
}

#[test]
fn schedule_cache_round_trip_warms_fresh_state_with_zero_search() {
    let _alone = alone();
    let (app, lifted) = lift_photoflow(PhotoFilter::Invert, 96, 64);
    let setup = LiftedRealizeSetup::new(&app, &lifted);
    let inputs = setup.inputs();
    let pipeline = setup.pipeline();
    let config = SearchConfig {
        top_k: 3,
        repetitions: 1,
        max_candidates: 16,
        budget: Duration::from_secs(60),
    };

    // Process state 1: tune and persist.
    let mut cache = ScheduleCache::new();
    let cold = guided_search_cached(pipeline, &setup.extents, &inputs, &config, &mut cache)
        .expect("cold search");
    assert!(!cold.from_cache);
    assert!(cold.timed_trials >= 1, "a cold search must time something");
    let dir = std::env::temp_dir().join(format!("helium_prop_tune_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("schedules.txt");
    cache.save(&path).expect("persist");

    // Process state 2: only the file survives. Zero timed trials.
    let mut fresh = ScheduleCache::load(&path).expect("reload");
    let hot = guided_search_cached(pipeline, &setup.extents, &inputs, &config, &mut fresh)
        .expect("warm search");
    std::fs::remove_dir_all(&dir).ok();
    assert!(hot.from_cache, "the persisted winner must be found");
    assert_eq!(hot.timed_trials, 0, "warm start performs no timed trials");
    assert!(hot.trials.is_empty(), "no candidates were even ranked");
    assert_eq!(hot.best, cold.best, "the winner survives the round trip");
    assert_eq!(hot.best_time, cold.best_time, "so does its recorded time");
}
