//! Schedules: the execution-strategy knobs the autotuner searches over.
//!
//! The paper re-optimizes lifted kernels by autotuning Halide schedules
//! (tiling, vectorization, parallelization, inlining). Our miniature runtime
//! models the same decisions: a [`Schedule`] controls how the realizer walks
//! the output domain, whether rows are distributed across threads, whether
//! the innermost loop is vectorized and where each producer func is computed:
//! inlined, materialized once (`compute_root`) or per iteration of an output
//! loop (`compute_at`, which reuses rows as a sliding window wherever the
//! producer's region slides).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An execution schedule for a pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Distribute the outermost dimension across worker threads.
    pub parallel: bool,
    /// Number of worker threads to use when `parallel` is set (0 = all cores).
    pub threads: usize,
    /// Tile sizes for the two innermost dimensions, if tiling is enabled.
    pub tile: Option<(usize, usize)>,
    /// Mark the innermost loop vectorized. The default tier then runs a
    /// store's fused SIMD kernel where one compiled, and the per-op tier
    /// evaluates [`crate::exec::MAX_LANES`] elements per dispatch instead of
    /// one. The fused chunk itself comes from each row (see [`crate::exec`]).
    pub vectorize: bool,
    /// Funcs materialized into intermediate buffers instead of being inlined.
    pub compute_root: BTreeSet<String>,
    /// Funcs computed inside a loop of the output func, keyed by producer
    /// name, valued by the consumer loop variable to attach at (one of the
    /// output func's pure variables, e.g. `x_1`).
    ///
    /// The lowered backend materializes such a producer into a small,
    /// bounds-inference-sized buffer that is recomputed at each iteration of
    /// the attach loop — trading redundant compute for locality, exactly like
    /// Halide's `compute_at`. Producers that cannot be attached (non-affine
    /// accesses, reductions, not referenced by the output) degrade to
    /// `compute_root`, which is value-identical. The interpreter backend
    /// always treats `compute_at` as `compute_root`.
    ///
    /// When the attach loop translates the producer's region by one row per
    /// iteration (coefficient 1 on the attach loop, extent > 1, every other
    /// dimension stationary), the lowered backend keeps the allocation as a
    /// rolling window across attach iterations and recomputes only the newly
    /// exposed rows; other regions are recomputed whole. Both are
    /// value-identical.
    pub compute_at: BTreeMap<String, String>,
}

impl Schedule {
    /// The naive schedule: sequential, untiled, scalar, fully inlined.
    pub fn naive() -> Schedule {
        Schedule::default()
    }

    /// A reasonable default for lifted stencils: parallel over the outer
    /// dimension, tiled and vectorized, everything inlined (fused).
    pub fn stencil_default() -> Schedule {
        Schedule {
            parallel: true,
            threads: 0,
            tile: Some((64, 64)),
            vectorize: true,
            ..Schedule::default()
        }
    }

    /// Enable parallelism.
    pub fn with_parallel(mut self, parallel: bool) -> Schedule {
        self.parallel = parallel;
        self
    }

    /// Limit the number of worker threads (0 = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Schedule {
        self.threads = threads;
        self
    }

    /// Set the tile sizes.
    pub fn with_tile(mut self, tile: Option<(usize, usize)>) -> Schedule {
        self.tile = tile;
        self
    }

    /// Vectorize the innermost loop, or not.
    pub fn with_vectorize(mut self, vectorize: bool) -> Schedule {
        self.vectorize = vectorize;
        self
    }

    /// Materialize `func` into its own buffer instead of inlining it.
    pub fn with_compute_root(mut self, func: &str) -> Schedule {
        self.compute_root.insert(func.to_string());
        self
    }

    /// Compute `func` at each iteration of the output loop over `var`,
    /// materializing only the region the remaining inner loops consume.
    pub fn with_compute_at(mut self, func: &str, var: &str) -> Schedule {
        self.compute_at.insert(func.to_string(), var.to_string());
        self
    }

    /// Effective number of worker threads.
    pub fn effective_threads(&self) -> usize {
        if !self.parallel {
            return 1;
        }
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parallel={} threads={} tile={:?} vectorize={} roots={:?} at={:?}",
            self.parallel,
            self.threads,
            self.tile,
            self.vectorize,
            self.compute_root,
            self.compute_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let s = Schedule::naive()
            .with_parallel(true)
            .with_threads(4)
            .with_tile(Some((32, 16)))
            .with_vectorize(true)
            .with_compute_root("blur_x");
        assert!(s.parallel);
        assert_eq!(s.threads, 4);
        assert_eq!(s.tile, Some((32, 16)));
        assert!(s.vectorize);
        assert!(!Schedule::naive().vectorize, "the naive schedule is scalar");
        assert!(s.compute_root.contains("blur_x"));
        assert_eq!(s.effective_threads(), 4);
    }

    #[test]
    fn sequential_schedules_use_one_thread() {
        assert_eq!(Schedule::naive().effective_threads(), 1);
        assert!(Schedule::stencil_default().effective_threads() >= 1);
    }

    #[test]
    fn locality_knobs_are_fingerprint_visible() {
        let s = Schedule::naive()
            .with_compute_root("blur_y")
            .with_compute_at("blur_x", "x_1");
        // The fingerprint hashes the Display output, so the placements must
        // appear there or cached programs would alias across them.
        let text = s.to_string();
        assert!(text.contains("roots={\"blur_y\"}"), "{text}");
        assert!(text.contains("at={\"blur_x\": \"x_1\"}"), "{text}");
    }

    #[test]
    fn display_mentions_knobs() {
        let s = Schedule::stencil_default();
        let text = s.to_string();
        assert!(text.contains("parallel=true"));
        assert!(text.contains("vectorize=true"));
    }
}
