//! Unified backend-selection API: which execution *tier* the runner may use
//! (fused lane kernels vs per-op lanes vs per-element fallback).
//!
//! A [`Target`] is resolved **once at compile time** — [`Pipeline::compile`]
//! stores the resolved value on the [`CompiledPipeline`] — and every dispatch
//! site (tier selection, fused builders, reduce kernels) reads that one
//! value. The ISA is not part of it and no caller chooses one: the fused
//! lane kernels are portable constant-trip loops, whose rows the compiler
//! builds twice — for the baseline and, for the lane families where it
//! pays, for AVX2 — and each prepared plan runs the build
//! [`Target::effective_isa`] detects on the host.
//!
//! [`Pipeline::compile`]: crate::func::Pipeline::compile
//! [`CompiledPipeline`]: crate::compile::CompiledPipeline
//!
//! Construction:
//!
//! - [`Target::detect`] — the default target: `Auto` tier.
//! - [`Target::with_tier`] — a target with a pinned tier.
//! - [`Target::from_env`] — [`Target::detect`] adjusted by the environment
//!   pins. This is the **only** place in the workspace that reads
//!   `HELIUM_FORCE_SCALAR` / `HELIUM_FORCE_SIMD`.
//! - [`Target::current`] — the process-wide override (set via
//!   [`set_target_override`], used by benchmarks to time tiers from one
//!   process) if present, else [`Target::from_env`]. This is what
//!   `CompileOptions { target: None, .. }` resolves to.
//!
//! All targets produce bit-identical buffers; the knob exists for
//! differential testing and benchmarking.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which execution tiers the runner may use for stores that have a fused
/// SIMD kernel. All tiers produce bit-identical buffers; the knob exists for
/// differential testing and benchmarking of the tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Fused kernels run exactly under [`LoopKind::Vectorized`] lane loops
    /// (the schedule's `vectorize` flag); everything else uses the per-op
    /// tier.
    ///
    /// [`LoopKind::Vectorized`]: crate::stmt::LoopKind::Vectorized
    #[default]
    Auto,
    /// Never use fused kernels (the per-op lane tier handles every store).
    Scalar,
    /// Use fused kernels wherever one was compiled, even under serial
    /// innermost loops.
    Simd,
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

/// Process-wide override set by [`set_target_override`]: bit 7 = set, bits
/// 0..2 = tier.
static TARGET_OVERRIDE: AtomicU8 = AtomicU8::new(0);

const OVERRIDE_SET: u8 = 1 << 7;

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

    /// [`Target::detect`] adjusted by the environment pins, computed once
    /// per process. The only reader of the `HELIUM_*` selection variables:
    ///
    /// - `HELIUM_FORCE_SCALAR=1` — pin the `Scalar` tier.
    /// - `HELIUM_FORCE_SIMD=1` — pin the `Simd` tier (`FORCE_SCALAR` wins
    ///   if both are set, matching the historical precedence).
    pub fn from_env() -> Target {
        static ENV_TARGET: OnceLock<Target> = OnceLock::new();
        *ENV_TARGET.get_or_init(|| {
            let truthy = |name: &str| std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0");
            let mut t = Target::detect();
            if truthy("HELIUM_FORCE_SCALAR") {
                t.tier = Tier::Scalar;
            } else if truthy("HELIUM_FORCE_SIMD") {
                t.tier = Tier::Simd;
            }
            t
        })
    }

    /// The target `CompileOptions { target: None, .. }` resolves to: the
    /// process-wide override if one is set, else [`Target::from_env`].
    pub fn current() -> Target {
        let v = TARGET_OVERRIDE.load(Ordering::Relaxed);
        if v & OVERRIDE_SET != 0 {
            Target::decode(v)
        } else {
            Target::from_env()
        }
    }

    fn encode(self) -> u8 {
        let tier = match self.tier {
            Tier::Auto => 0u8,
            Tier::Scalar => 1,
            Tier::Simd => 2,
        };
        OVERRIDE_SET | tier
    }

    fn decode(v: u8) -> Target {
        let tier = match v & 0b11 {
            1 => Tier::Scalar,
            2 => Tier::Simd,
            _ => Tier::Auto,
        };
        Target { tier }
    }
}

/// Override (or with `None`, un-override) the process-wide [`Target`] that
/// [`Target::current`] returns. Benchmarks use this to time the scalar and
/// SIMD tiers from one process; per-pipeline control is available via
/// `CompileOptions::target`.
pub fn set_target_override(target: Option<Target>) {
    let v = match target {
        None => 0,
        Some(t) => t.encode(),
    };
    TARGET_OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_isa_describes_the_host() {
        // The detected CPU alone selects the build; the tier plays no part.
        let isa = Target::detect().effective_isa();
        for tier in [Tier::Auto, Tier::Scalar, Tier::Simd] {
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

    #[test]
    fn override_encode_decode_round_trips() {
        for tier in [Tier::Auto, Tier::Scalar, Tier::Simd] {
            let t = Target::detect().with_tier(tier);
            assert_eq!(Target::decode(t.encode()), t);
        }
    }
}
