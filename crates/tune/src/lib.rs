//! `helium-tune`: cost-model-guided schedule search with a persistent
//! schedule cache.
//!
//! The paper spends six hours of OpenTuner search per lifted filter. This
//! crate is the workspace's only schedule tuner: instead of sampling blindly,
//! its search exploits everything the compiled engine already knows about
//! itself:
//!
//! * **Cost model** ([`model`]): scores a candidate [`Schedule`] from a
//!   dry-run compile ([`CompiledPipeline::dry_run`]) — per-store fused lane
//!   family and chunk width, predicted interior/boundary split from the
//!   stencil halo radius, tap counts, materialized working set, reduction
//!   and privatize-then-merge admissibility — without timing anything.
//! * **Guided search** ([`search`]): ranks the enumerated candidate space by
//!   model score and refines the top-K with a successive-halving bandit over
//!   real cached steady-state timings, so the timing budget concentrates on
//!   schedules that can actually win.
//! * **Schedule cache** ([`cache`]): winners persist keyed by
//!   `fingerprint_pipeline × extents × backend` (the sibling of the program
//!   cache), serialized to the path named by `HELIUM_SCHEDULE_CACHE` — a
//!   warmed serving process performs zero timed trials before serving.
//! * **Trial log** ([`trials`]): every timed trial a cached search spends is
//!   appended (feature columns + measured nanoseconds) to a versioned text
//!   file beside the schedule cache — the design matrix for a future
//!   least-squares refit of the cost model's constants.
//!
//! [`CompiledPipeline::dry_run`]: helium_halide::CompiledPipeline::dry_run
//! [`Schedule`]: helium_halide::Schedule

#![warn(missing_docs)]

pub mod cache;
pub mod model;
pub mod search;
pub mod trials;

pub use cache::{
    CachedSchedule, ScheduleCache, ScheduleCacheError, ScheduleKey, SCHEDULE_CACHE_ENV,
};
pub use model::{score, ScheduleFeatures};
pub use search::{
    enumerate_candidates, guided_search, guided_search_cached, rank_candidates, SearchConfig,
    Trial, TuneReport,
};
pub use trials::{TrialLog, TrialLogError, TrialRecord};
