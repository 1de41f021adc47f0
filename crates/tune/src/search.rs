//! The guided search loop: enumerate the candidate space, rank it with the
//! analytical cost model (dry-run compiles only — no timing), then refine the
//! top-K with a successive-halving bandit over real cached steady-state
//! timings.
//!
//! The budget-bearing resource is *timed trials*: the model ranks the whole
//! candidate space for the price of a few dry-run compiles, and only the
//! handful of schedules that can plausibly win are ever timed. The
//! `BENCH_autotune.json` report compares this against a random walk over the
//! same candidates and gates the resulting `guided_vs_random_speedup` in CI.

use crate::cache::{CachedSchedule, ScheduleCache, ScheduleKey};
use crate::model::{score, ScheduleFeatures};
use helium_halide::cache::fingerprint_schedule;
use helium_halide::{CompileOptions, ExecBackend, Pipeline, RealizeError, RealizeInputs, Schedule};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Configuration of a guided search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Candidates surviving model ranking into the timing bandit.
    pub top_k: usize,
    /// Timing repetitions of the bandit's first round (doubled per round).
    pub repetitions: usize,
    /// Cap on the enumerated candidate space; larger spaces are thinned by
    /// deterministic stride sampling.
    pub max_candidates: usize,
    /// Wall-clock budget for the timed refinement phase.
    pub budget: Duration,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            top_k: 5,
            repetitions: 2,
            max_candidates: 96,
            budget: Duration::from_secs(10),
        }
    }
}

/// One candidate's record: the model's verdict and, when the bandit timed
/// it, the measurement.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The candidate schedule.
    pub schedule: Schedule,
    /// Its schedule fingerprint (the dedupe key).
    pub fingerprint: u64,
    /// The model's feature vector — *why* the model ranked it here.
    pub features: ScheduleFeatures,
    /// The model's predicted relative cost (lower is better).
    pub model_score: f64,
    /// Best observed steady-state time, when the bandit timed this trial.
    pub measured: Option<Duration>,
    /// Total timing repetitions spent on this trial across bandit rounds.
    pub timed_reps: usize,
}

/// Result of a guided search.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The winning schedule.
    pub best: Schedule,
    /// Its best observed steady-state time (zero on a pure cache hit).
    pub best_time: Duration,
    /// Every ranked candidate in model order, with features and any
    /// measurements. Empty on a pure cache hit.
    pub trials: Vec<Trial>,
    /// Distinct schedules the bandit actually timed. Zero when the schedule
    /// cache already held a winner for this key.
    pub timed_trials: usize,
    /// Whether the winner came from a [`ScheduleCache`] without any search.
    pub from_cache: bool,
}

/// Enumerate the deterministic candidate space for `pipeline`: vectorized or
/// not, crossed with tilings, parallelism and per-producer placements
/// (inline / `compute_root` / `compute_at` the outermost output loop),
/// deduplicated by schedule fingerprint and seeded with the naive and
/// stencil-default schedules. A `compute_at` placement slides its producer's
/// window wherever the region allows, so no separate locality variant is
/// enumerated, and it is enumerated untiled only: under a tile the region
/// moves with the tile column, no window forms, and it ran 3.5–5× slower
/// than a tiled `compute_root` on the Fig. 8 pipelines at 1920×1080 (2-vCPU
/// Xeon). Spaces larger than `limit` are thinned by stride sampling so every
/// region of the space stays represented.
pub fn enumerate_candidates(pipeline: &Pipeline, limit: usize) -> Vec<Schedule> {
    let tiles = [None, Some((64usize, 64usize)), Some((128, 128))];
    let parallels = [false, true];
    let producers: Vec<String> = pipeline
        .funcs
        .keys()
        .filter(|n| **n != pipeline.output)
        .cloned()
        .collect();
    let attach_var = pipeline.output_func().vars.last().cloned();

    // Per-producer placement choices: 0 = inline, 1 = compute_root,
    // 2 = compute_at the outermost output loop. Pipelines with many
    // producers fall back to uniform placements to keep the space bounded.
    let placement_sets: Vec<Vec<u8>> = if producers.len() <= 2 {
        let n = producers.len() as u32;
        (0..3u32.pow(n))
            .map(|mut code| {
                (0..n)
                    .map(|_| {
                        let c = (code % 3) as u8;
                        code /= 3;
                        c
                    })
                    .collect()
            })
            .collect()
    } else {
        vec![vec![0; producers.len()], vec![1; producers.len()]]
    };

    let mut all = vec![Schedule::naive(), Schedule::stencil_default()];
    for placements in &placement_sets {
        let tiles = if placements.contains(&2) {
            &tiles[..1]
        } else {
            &tiles[..]
        };
        for &parallel in &parallels {
            for &tile in tiles {
                for vectorize in [false, true] {
                    let mut s = Schedule::naive()
                        .with_parallel(parallel)
                        .with_tile(tile)
                        .with_vectorize(vectorize);
                    for (producer, code) in producers.iter().zip(placements) {
                        match (code, &attach_var) {
                            (1, _) => s = s.with_compute_root(producer),
                            (2, Some(var)) => s = s.with_compute_at(producer, var),
                            _ => {}
                        }
                    }
                    all.push(s);
                }
            }
        }
    }
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    all.retain(|s| seen.insert(fingerprint_schedule(s)));
    if all.len() > limit.max(2) {
        let len = all.len();
        let limit = limit.max(2);
        let mut thinned: Vec<Schedule> = (0..limit).map(|i| all[i * len / limit].clone()).collect();
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        thinned.retain(|s| seen.insert(fingerprint_schedule(s)));
        return thinned;
    }
    all
}

/// Rank `candidates` by model score: dry-run compile each one (no
/// execution), extract features, score, and sort ascending (best first).
/// Candidates the compiler rejects outright are dropped.
///
/// # Errors
/// Returns an error only when *no* candidate compiles — realize-level
/// problems like missing inputs surface here.
pub fn rank_candidates(
    pipeline: &Pipeline,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    candidates: &[Schedule],
) -> Result<Vec<Trial>, RealizeError> {
    let mut trials = Vec::with_capacity(candidates.len());
    let mut last_err = None;
    for schedule in candidates {
        let compiled = match pipeline.compile(schedule, &CompileOptions::default()) {
            Ok(c) => c,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        let profile = match compiled.dry_run(inputs, extents) {
            Ok(p) => p,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        let features = ScheduleFeatures::extract(schedule, &profile);
        trials.push(Trial {
            fingerprint: fingerprint_schedule(schedule),
            model_score: score(schedule, &profile),
            schedule: schedule.clone(),
            features,
            measured: None,
            timed_reps: 0,
        });
    }
    if trials.is_empty() {
        return Err(last_err.unwrap_or(RealizeError::UndefinedFunc(pipeline.output.clone())));
    }
    trials.sort_by(|a, b| {
        a.model_score
            .partial_cmp(&b.model_score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(trials)
}

/// Steady-state best-of-`reps` timing of one schedule: compile once, one
/// untimed warm-up run to populate the program cache, then time cached runs.
fn time_schedule(
    schedule: &Schedule,
    pipeline: &Pipeline,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    reps: usize,
) -> Result<Duration, RealizeError> {
    let compiled = pipeline.compile(schedule, &CompileOptions::default())?;
    let _ = compiled.run(inputs, extents)?;
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let _ = compiled.run(inputs, extents)?;
        best = best.min(start.elapsed());
    }
    Ok(best)
}

/// Model-guided schedule search: rank the enumerated candidate space by the
/// analytical cost model, then refine the top-K with a successive-halving
/// bandit — each round times the surviving pool at doubled repetitions and
/// keeps the faster half, so cheap noisy measurements screen broadly and
/// precise ones decide the final.
///
/// # Errors
/// Returns an error if the pipeline cannot be realized at all (missing
/// inputs, undefined funcs, ...).
pub fn guided_search(
    pipeline: &Pipeline,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    config: &SearchConfig,
) -> Result<TuneReport, RealizeError> {
    let candidates = enumerate_candidates(pipeline, config.max_candidates);
    let mut trials = rank_candidates(pipeline, extents, inputs, &candidates)?;

    let started = Instant::now();
    let mut pool: Vec<usize> = (0..trials.len().min(config.top_k.max(1))).collect();
    let mut reps = config.repetitions.max(1);
    loop {
        for &i in &pool {
            // The first round must time every pool member even if the budget
            // is already gone — the report needs at least one measurement.
            if trials[i].timed_reps > 0 && started.elapsed() >= config.budget {
                continue;
            }
            let t = time_schedule(&trials[i].schedule, pipeline, extents, inputs, reps)?;
            let trial = &mut trials[i];
            trial.measured = Some(trial.measured.map_or(t, |m| m.min(t)));
            trial.timed_reps += reps;
        }
        if pool.len() <= 1 || started.elapsed() >= config.budget {
            break;
        }
        pool.sort_by_key(|&i| trials[i].measured.unwrap_or(Duration::MAX));
        pool.truncate(pool.len().div_ceil(2));
        reps = reps.saturating_mul(2);
    }
    let timed_trials = trials.iter().filter(|t| t.timed_reps > 0).count();
    let best_idx = trials
        .iter()
        .enumerate()
        .filter(|(_, t)| t.measured.is_some())
        .min_by_key(|(_, t)| t.measured.unwrap())
        .map(|(i, _)| i)
        .expect("at least one trial was timed");
    Ok(TuneReport {
        best: trials[best_idx].schedule.clone(),
        best_time: trials[best_idx].measured.unwrap(),
        trials,
        timed_trials,
        from_cache: false,
    })
}

/// [`guided_search`] with a persistent [`ScheduleCache`] in front: a hit
/// returns the cached winner with **zero timed trials** (the warm-start
/// contract a serving process relies on); a miss searches and inserts the
/// winner under `fingerprint_pipeline × extents × backend`.
///
/// # Errors
/// See [`guided_search`].
pub fn guided_search_cached(
    pipeline: &Pipeline,
    extents: &[usize],
    inputs: &RealizeInputs<'_>,
    config: &SearchConfig,
    cache: &mut ScheduleCache,
) -> Result<TuneReport, RealizeError> {
    let key = ScheduleKey::for_pipeline(pipeline, ExecBackend::Lowered, extents);
    if let Some(entry) = cache.get(&key) {
        return Ok(TuneReport {
            best: entry.schedule.clone(),
            best_time: Duration::from_nanos(entry.best_ns),
            trials: Vec::new(),
            timed_trials: 0,
            from_cache: true,
        });
    }
    let report = guided_search(pipeline, extents, inputs, config)?;
    let best_fp = fingerprint_schedule(&report.best);
    cache.insert(
        key,
        CachedSchedule {
            schedule: report.best.clone(),
            best_ns: report.best_time.as_nanos() as u64,
            model_score: report
                .trials
                .iter()
                .find(|t| t.fingerprint == best_fp)
                .map(|t| t.model_score)
                .unwrap_or(0.0),
            timed_trials: report.timed_trials,
        },
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helium_halide::{BinOp, Buffer, Expr, Func, ImageParam, Realizer, ScalarType, Value};

    fn blur_pipeline() -> (Pipeline, Buffer) {
        let x = Expr::var("x_0");
        let y = Expr::var("x_1");
        let blur_x = Func::pure(
            "blur_x",
            &["x_0", "x_1"],
            ScalarType::UInt16,
            Expr::add(
                Expr::cast(
                    ScalarType::UInt16,
                    Expr::Image("in".into(), vec![x.clone(), y.clone()]),
                ),
                Expr::cast(
                    ScalarType::UInt16,
                    Expr::Image(
                        "in".into(),
                        vec![Expr::add(x.clone(), Expr::int(1)), y.clone()],
                    ),
                ),
            ),
        );
        let out = Func::pure(
            "out",
            &["x_0", "x_1"],
            ScalarType::UInt8,
            Expr::cast(
                ScalarType::UInt8,
                Expr::bin(
                    BinOp::Shr,
                    Expr::add(
                        Expr::FuncRef("blur_x".into(), vec![x.clone(), y.clone()]),
                        Expr::FuncRef("blur_x".into(), vec![x, Expr::add(y, Expr::int(1))]),
                    ),
                    Expr::uint(2),
                ),
            ),
        );
        let p =
            Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]).with_func(blur_x);
        let mut input = Buffer::new(ScalarType::UInt8, &[72, 56]);
        for c in input.coords().collect::<Vec<_>>() {
            input.set(&c, Value::Int((c[0] * 7 + c[1] * 3) % 256));
        }
        (p, input)
    }

    #[test]
    fn enumeration_is_deduped_and_bounded() {
        let (p, _) = blur_pipeline();
        let all = enumerate_candidates(&p, 96);
        assert!(all.len() <= 96);
        assert!(all.len() > 10, "one producer spans a real space");
        let fps: BTreeSet<u64> = all.iter().map(fingerprint_schedule).collect();
        assert_eq!(fps.len(), all.len(), "candidates must be distinct");
        let thinned = enumerate_candidates(&p, 16);
        assert!(thinned.len() <= 16);
        assert!(
            thinned.iter().any(|s| s.vectorize),
            "stride thinning must keep vectorized candidates"
        );
    }

    #[test]
    fn enumeration_covers_locality_knobs() {
        let (p, _) = blur_pipeline();
        let all = enumerate_candidates(&p, 256);
        assert!(
            all.iter().any(|s| s.tile.is_none()
                && s.compute_at.get("blur_x").map(String::as_str) == Some("x_1")),
            "untiled compute_at at the outermost output loop is enumerated"
        );
        for tile in [None, Some((64, 64))] {
            assert!(
                all.iter()
                    .any(|s| s.tile == tile && s.compute_root.contains("blur_x")),
                "compute_root is enumerated ({tile:?})"
            );
        }
    }

    /// A pointwise chain `in → p0 → … → out` with `producers` intermediate
    /// funcs.
    fn chain(producers: usize) -> Pipeline {
        let at = || vec![Expr::var("x_0"), Expr::var("x_1")];
        let mut value = Expr::Image("in".into(), at());
        let mut funcs = Vec::new();
        for i in 0..producers {
            let name = format!("p{i}");
            funcs.push(Func::pure(&name, &["x_0", "x_1"], ScalarType::UInt8, value));
            value = Expr::FuncRef(name, at());
        }
        let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value);
        let p = Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)]);
        funcs.into_iter().fold(p, Pipeline::with_func)
    }

    #[test]
    fn enumeration_counts_and_untiled_compute_at() {
        // 2 parallel × 3 tiles × 2 vectorize per placement set that
        // attaches nothing, 2 × 1 × 2 per set that attaches a producer.
        for (producers, count) in [(0, 12), (1, 28), (2, 68)] {
            let all = enumerate_candidates(&chain(producers), usize::MAX);
            assert_eq!(all.len(), count, "{producers} producers");
            assert!(
                all.iter()
                    .all(|s| s.tile.is_none() || s.compute_at.is_empty()),
                "no candidate tiles a compute_at ({producers} producers)"
            );
        }
    }

    #[test]
    fn ranking_produces_features_and_sorted_scores() {
        let (p, input) = blur_pipeline();
        let inputs = RealizeInputs::new().with_image("in", &input);
        let candidates = enumerate_candidates(&p, 32);
        let trials = rank_candidates(&p, &[70, 54], &inputs, &candidates).unwrap();
        assert_eq!(trials.len(), candidates.len());
        for pair in trials.windows(2) {
            assert!(pair[0].model_score <= pair[1].model_score);
        }
        // The model must prefer a fused wide schedule over naive scalar.
        let naive_rank = trials
            .iter()
            .position(|t| t.schedule == Schedule::naive())
            .expect("naive is always a candidate");
        assert!(
            trials[0].features.vectorize,
            "the top-ranked schedule should be vectorized"
        );
        assert!(naive_rank > 0, "naive scalar cannot be the top pick");
    }

    #[test]
    fn guided_search_times_only_top_k_and_best_is_sound() {
        let (p, input) = blur_pipeline();
        let inputs = RealizeInputs::new().with_image("in", &input);
        let config = SearchConfig {
            top_k: 3,
            repetitions: 1,
            max_candidates: 24,
            budget: Duration::from_secs(30),
        };
        let report = guided_search(&p, &[70, 54], &inputs, &config).unwrap();
        assert!(report.timed_trials <= 3, "only the top-K pool is timed");
        assert!(report.timed_trials >= 1);
        assert!(!report.from_cache);
        // The winner must reproduce the naive result exactly.
        let naive = Realizer::new(Schedule::naive())
            .realize(&p, &[70, 54], &inputs)
            .unwrap();
        let tuned = Realizer::new(report.best.clone())
            .realize(&p, &[70, 54], &inputs)
            .unwrap();
        assert_eq!(naive, tuned);
    }

    #[test]
    fn cached_search_hits_with_zero_timed_trials() {
        let (p, input) = blur_pipeline();
        let inputs = RealizeInputs::new().with_image("in", &input);
        let config = SearchConfig {
            top_k: 2,
            repetitions: 1,
            max_candidates: 12,
            budget: Duration::from_secs(30),
        };
        let mut cache = ScheduleCache::new();
        let first = guided_search_cached(&p, &[70, 54], &inputs, &config, &mut cache).unwrap();
        assert!(first.timed_trials >= 1);
        assert_eq!(cache.len(), 1);
        let second = guided_search_cached(&p, &[70, 54], &inputs, &config, &mut cache).unwrap();
        assert_eq!(second.timed_trials, 0, "a cache hit performs no timing");
        assert!(second.from_cache);
        assert_eq!(second.best, first.best);
        // A different extents key misses.
        let third = guided_search_cached(&p, &[40, 30], &inputs, &config, &mut cache).unwrap();
        assert!(!third.from_cache);
        assert_eq!(cache.len(), 2);
    }
}
