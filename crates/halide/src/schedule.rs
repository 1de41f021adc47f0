//! Schedules: the execution-strategy knobs the autotuner searches over.
//!
//! The paper re-optimizes lifted kernels by autotuning Halide schedules
//! (tiling, vectorization, parallelization, inlining). Our miniature runtime
//! models the same decisions: a [`Schedule`] controls how the realizer walks
//! the output domain, whether rows are distributed across threads, how many
//! pixels are evaluated per dispatch ("vectorization") and which producer
//! funcs are materialized (`compute_root`) versus inlined.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An execution schedule for a pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Distribute the outermost dimension across worker threads.
    pub parallel: bool,
    /// Number of worker threads to use when `parallel` is set (0 = all cores).
    pub threads: usize,
    /// Tile sizes for the two innermost dimensions, if tiling is enabled.
    pub tile: Option<(usize, usize)>,
    /// Number of output elements evaluated per inner dispatch of the per-op
    /// tier; widths beyond [`crate::exec::MAX_LANES`] are batched, never
    /// silently truncated. A width above 1 also marks the innermost loop
    /// vectorized, which lets the default tier run a store's fused SIMD
    /// kernel. The fused chunk itself comes from each row, not from this
    /// width (see [`crate::exec`]).
    pub vector_width: usize,
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
    pub compute_at: BTreeMap<String, String>,
    /// `compute_at` producers opted into sliding-window reuse: when the
    /// attach loop translates the producer's region by one row per iteration
    /// (coefficient 1 on the attach loop, extent > 1), the lowered backend
    /// keeps the scoped allocation as a rolling window across attach
    /// iterations and recomputes only the newly exposed rows. Producers whose
    /// inferred region does not slide (other coefficients, strided
    /// translation, extent 1) silently keep the recompute-everything
    /// placement, which is value-identical.
    pub store_sliding: BTreeSet<String>,
    /// Let one loop nest produce several outputs: consecutive materialized
    /// stages with compatible loop structure (identical outer extent,
    /// pure, untiled, cross-stage reads that never look ahead in the shared
    /// loop) compile into a single shared nest carrying one `Produce` block
    /// per stage, so `compose_after` chains stop re-walking the image per
    /// stage. Stages that do not qualify keep their own nests — the grouping
    /// is always value-identical.
    pub fuse_outputs: bool,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            parallel: false,
            threads: 0,
            tile: None,
            vector_width: 1,
            compute_root: BTreeSet::new(),
            compute_at: BTreeMap::new(),
            store_sliding: BTreeSet::new(),
            fuse_outputs: false,
        }
    }
}

impl Schedule {
    /// The naive schedule: sequential, untiled, scalar, fully inlined.
    pub fn naive() -> Schedule {
        Schedule::default()
    }

    /// A reasonable default for lifted stencils: parallel over the outer
    /// dimension with a modest vector width, everything inlined (fused).
    pub fn stencil_default() -> Schedule {
        Schedule {
            parallel: true,
            threads: 0,
            tile: Some((64, 64)),
            vector_width: 8,
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

    /// Set the vector width.
    pub fn with_vector_width(mut self, width: usize) -> Schedule {
        self.vector_width = width.max(1);
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

    /// Keep `func`'s `compute_at` allocation as a sliding window across
    /// attach-loop iterations, recomputing only newly exposed rows. No-op
    /// unless `func` is also scheduled `compute_at` with a region that
    /// translates by the attach loop.
    pub fn with_store_sliding(mut self, func: &str) -> Schedule {
        self.store_sliding.insert(func.to_string());
        self
    }

    /// Fuse consecutive compatible materialized stages into one shared loop
    /// nest producing several outputs.
    pub fn with_fuse_outputs(mut self, fuse: bool) -> Schedule {
        self.fuse_outputs = fuse;
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
            "parallel={} threads={} tile={:?} vector={} roots={:?} at={:?} sliding={:?} fuse={}",
            self.parallel,
            self.threads,
            self.tile,
            self.vector_width,
            self.compute_root,
            self.compute_at,
            self.store_sliding,
            self.fuse_outputs
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
            .with_vector_width(0)
            .with_compute_root("blur_x");
        assert!(s.parallel);
        assert_eq!(s.threads, 4);
        assert_eq!(s.tile, Some((32, 16)));
        assert_eq!(s.vector_width, 1, "vector width is clamped to at least 1");
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
            .with_compute_at("blur_x", "x_1")
            .with_store_sliding("blur_x")
            .with_fuse_outputs(true);
        assert!(s.store_sliding.contains("blur_x"));
        assert!(s.fuse_outputs);
        // The fingerprint hashes the Display output, so the locality knobs
        // must appear there or cached programs would alias across them.
        let text = s.to_string();
        assert!(text.contains("sliding={\"blur_x\"}"), "{text}");
        assert!(text.contains("fuse=true"), "{text}");
    }

    #[test]
    fn display_mentions_knobs() {
        let s = Schedule::stencil_default();
        let text = s.to_string();
        assert!(text.contains("parallel=true"));
        assert!(text.contains("vector=8"));
    }
}
