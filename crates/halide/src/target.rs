//! Unified backend-selection API: which execution *tier* the runner may use
//! (fused lane kernels vs per-op lanes vs per-element fallback).
//!
//! A [`Target`] is resolved **once at compile time** — [`Pipeline::compile`]
//! stores the resolved value on the [`CompiledPipeline`] — and every dispatch
//! site (tier selection, fused builders, reduce kernels) reads that one
//! value. The rule is one: a store runs its compiled fused kernel (or reduce
//! kernel) wherever it has one, whatever its loop kind, unless the target
//! pins [`Tier::Scalar`]. The ISA is not part of the target and no caller
//! chooses one: the fused lane kernels are portable constant-trip loops,
//! whose rows the compiler builds twice — for the baseline and, for the lane
//! families where it pays, for AVX2 — and each prepared plan runs the build
//! [`Target::effective_isa`] detects on the host.
//!
//! [`Pipeline::compile`]: crate::func::Pipeline::compile
//! [`CompiledPipeline`]: crate::compile::CompiledPipeline
//!
//! Construction:
//!
//! - [`Target::detect`] — the default target: `Auto` tier.
//! - [`Target::with_tier`] — a target with a pinned tier.
//! - [`Target::current`] — [`Target::detect`] adjusted by the environment
//!   pin, computed once per process. This is the **only** place in the
//!   workspace that reads `HELIUM_FORCE_SCALAR`, and what
//!   `CompileOptions { target: None, .. }` resolves to.
//!
//! All targets produce bit-identical buffers; the knob exists for
//! differential testing and benchmarking.

use std::sync::OnceLock;

/// Which execution tiers the runner may use for stores that have a fused
/// SIMD kernel. All tiers produce bit-identical buffers; the knob exists for
/// differential testing and benchmarking of the tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Every store with a compiled fused or reduce kernel runs it, whatever
    /// its loop kind; the rest use the per-op tier.
    #[default]
    Auto,
    /// Never use fused kernels (the per-op lane tier handles every store).
    Scalar,
}

/// The build of the fused row loops a host runs ([`Target::effective_isa`]):
/// the same portable source, compiled for the baseline or for AVX2 (the
/// `f64` lane family has only the baseline build).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Isa {
    /// The build for the compile target's baseline (SSE2 on x86-64).
    #[default]
    Portable,
    /// The build with AVX2 enabled, run where the CPU reports AVX2.
    Avx2,
}

impl Isa {
    /// Stable lowercase tag, used in bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
        }
    }
}

/// A resolved backend selection: the execution [`Tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Target {
    tier: Tier,
}

impl Target {
    /// The default target: `Auto` tier.
    pub fn detect() -> Target {
        Target { tier: Tier::Auto }
    }

    /// This target with its execution tier replaced.
    pub fn with_tier(self, tier: Tier) -> Target {
        Target { tier }
    }

    /// The execution tier this target pins (or `Auto`).
    pub fn tier(self) -> Tier {
        self.tier
    }

    /// The build of the fused row loops the running CPU supports: `Avx2`
    /// when it reports AVX2, else `Portable`. Preparing a plan records it,
    /// and the plan's fused rows run that build; no caller can choose it.
    pub fn effective_isa(self) -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    /// The target `CompileOptions { target: None, .. }` resolves to:
    /// [`Target::detect`], with the `Scalar` tier pinned when
    /// `HELIUM_FORCE_SCALAR` is set to anything but empty or `0`. Computed
    /// once per process.
    pub fn current() -> Target {
        static ENV_TARGET: OnceLock<Target> = OnceLock::new();
        *ENV_TARGET.get_or_init(|| {
            let pinned =
                std::env::var("HELIUM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
            let tier = if pinned { Tier::Scalar } else { Tier::Auto };
            Target::detect().with_tier(tier)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_isa_describes_the_host() {
        // The detected CPU alone selects the build; the tier plays no part.
        let isa = Target::detect().effective_isa();
        for tier in [Tier::Auto, Tier::Scalar] {
            assert_eq!(Target::detect().with_tier(tier).effective_isa(), isa);
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            isa == Isa::Avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
    }

    #[test]
    fn with_tier_overrides_only_the_tier() {
        let t = Target::detect().with_tier(Tier::Scalar);
        assert_eq!(t.tier(), Tier::Scalar);
        assert_eq!(t.with_tier(Tier::Auto), Target::detect());
    }
}
