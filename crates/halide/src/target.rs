//! Unified backend-selection API: which execution *tier* the runner may use
//! (fused lane kernels vs per-op lanes vs per-element fallback) and which
//! *ISA features* the fused kernels may exploit (explicit AVX2 `core::arch`
//! paths vs the portable constant-trip lane loops).
//!
//! A [`Target`] is resolved **once at compile time** — [`Pipeline::compile`]
//! stores the resolved value on the [`CompiledPipeline`] — and every dispatch
//! site (tier selection, fused builders, reduce kernels, the `arch` module's
//! AVX2 chunk evaluators, which the executor's per-family rule narrows
//! further) reads that one value.
//!
//! [`Pipeline::compile`]: crate::func::Pipeline::compile
//! [`CompiledPipeline`]: crate::compile::CompiledPipeline
//!
//! Construction:
//!
//! - [`Target::detect`] — the host's best target: `Auto` tier plus every ISA
//!   feature the running CPU reports (AVX2 via `is_x86_feature_detected!`).
//! - [`Target::portable`] — `Auto` tier, no ISA features: fused kernels run
//!   the portable lane loops only. The bit-exactness oracle configuration.
//! - [`Target::with_features`] — `Auto` tier with an explicit feature list
//!   (requested features absent from the host fall back safely at run time;
//!   see [`Target::effective_isa`]).
//! - [`Target::from_env`] — [`Target::detect`] adjusted by the environment
//!   pins. This is the **only** place in the workspace that reads
//!   `HELIUM_FORCE_SCALAR` / `HELIUM_FORCE_SIMD` / `HELIUM_PORTABLE`.
//! - [`Target::current`] — the process-wide override (set via
//!   [`set_target_override`], used by benchmarks to time tiers from one
//!   process) if present, else [`Target::from_env`]. This is what
//!   `CompileOptions { target: None, .. }` resolves to.
//!
//! All targets produce bit-identical buffers; the knob exists for
//! differential testing, benchmarking, and honest fallback on older hosts.

use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::OnceLock;

/// Which execution tiers the runner may use for stores that have a fused
/// SIMD kernel. All tiers produce bit-identical buffers; the knob exists for
/// differential testing and benchmarking of the tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Fused kernels run under vectorized loops; everything else uses the
    /// per-op tier.
    #[default]
    Auto,
    /// Never use fused kernels (the per-op lane tier handles every store).
    Scalar,
    /// Use fused kernels wherever one was compiled, even under serial
    /// innermost loops.
    Simd,
}

/// An ISA feature a [`Target`] may carry. Fused kernels only use a feature
/// when the running CPU also reports it (see [`Target::effective_isa`]), so
/// requesting one on an older host degrades to portable lanes, never UB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// 256-bit AVX2 integer + float vectors (`core::arch::x86_64`).
    Avx2,
}

const FEATURE_AVX2: u8 = 1 << 0;

/// The instruction-set family a fused chunk actually executes on: resolved
/// from a [`Target`] by [`Target::effective_isa`] at run time, then narrowed
/// per lane family by the executor. Reported per store by
/// `StoreProfile::selected_isa` so the tuner can score it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Isa {
    /// Portable constant-trip lane loops (LLVM auto-vectorized).
    #[default]
    Portable,
    /// Hand-written AVX2 `core::arch` chunk evaluators.
    Avx2,
}

impl Isa {
    /// Stable lowercase tag, used in profiles and bench reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
        }
    }
}

/// A resolved backend selection: execution [`Tier`] plus the set of ISA
/// [`Feature`]s the fused kernels may exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Target {
    tier: Tier,
    features: u8,
}

/// Process-wide override set by [`set_target_override`]: bit 15 = set, bits
/// 0..2 = tier, bits 4..12 = feature bitset.
static TARGET_OVERRIDE: AtomicU16 = AtomicU16::new(0);

const OVERRIDE_SET: u16 = 1 << 15;

fn host_features() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return FEATURE_AVX2;
        }
    }
    0
}

impl Target {
    /// The host's best target: `Auto` tier plus every ISA feature the
    /// running CPU reports.
    pub fn detect() -> Target {
        Target {
            tier: Tier::Auto,
            features: host_features(),
        }
    }

    /// `Auto` tier with no ISA features: fused kernels run the portable lane
    /// loops only. This is the bit-exactness oracle configuration the
    /// differential matrix compares arch kernels against.
    pub fn portable() -> Target {
        Target {
            tier: Tier::Auto,
            features: 0,
        }
    }

    /// `Auto` tier with exactly the given ISA features. Features the host
    /// lacks are carried but never executed ([`Target::effective_isa`]
    /// re-checks runtime detection), so this is safe on any machine.
    pub fn with_features(features: &[Feature]) -> Target {
        let mut bits = 0u8;
        for f in features {
            bits |= match f {
                Feature::Avx2 => FEATURE_AVX2,
            };
        }
        Target {
            tier: Tier::Auto,
            features: bits,
        }
    }

    /// This target with its execution tier replaced.
    pub fn with_tier(self, tier: Tier) -> Target {
        Target { tier, ..self }
    }

    /// The execution tier this target pins (or `Auto`).
    pub fn tier(self) -> Tier {
        self.tier
    }

    /// Whether this target carries the given ISA feature.
    pub fn has(self, feature: Feature) -> bool {
        let bit = match feature {
            Feature::Avx2 => FEATURE_AVX2,
        };
        self.features & bit != 0
    }

    /// The carried ISA features, in a stable order.
    pub fn features(self) -> Vec<Feature> {
        let mut out = Vec::new();
        if self.features & FEATURE_AVX2 != 0 {
            out.push(Feature::Avx2);
        }
        out
    }

    /// Stable `+`-joined lowercase tag of the carried features (empty when
    /// none), used to key schedule caches so tuned schedules never migrate
    /// across ISAs: `"avx2"`, or `""` for portable.
    pub fn feature_tag(self) -> String {
        let mut parts = Vec::new();
        if self.features & FEATURE_AVX2 != 0 {
            parts.push("avx2");
        }
        parts.join("+")
    }

    /// The ISA the fused chunk evaluators may execute on: a carried feature
    /// only counts when the running CPU also reports it, which makes
    /// dispatching into `#[target_feature]` code sound and gives automatic
    /// portable fallback on older hosts. The executor narrows it per lane
    /// family (see `StoreProfile::selected_isa`).
    pub fn effective_isa(self) -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if self.features & FEATURE_AVX2 != 0 && std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    /// [`Target::detect`] adjusted by the environment pins, computed once
    /// per process. The only reader of the `HELIUM_*` selection variables:
    ///
    /// - `HELIUM_PORTABLE=1` — drop all ISA features (portable lanes only).
    /// - `HELIUM_FORCE_SCALAR=1` — pin the `Scalar` tier.
    /// - `HELIUM_FORCE_SIMD=1` — pin the `Simd` tier (`FORCE_SCALAR` wins
    ///   if both are set, matching the historical precedence).
    pub fn from_env() -> Target {
        static ENV_TARGET: OnceLock<Target> = OnceLock::new();
        *ENV_TARGET.get_or_init(|| {
            let truthy = |name: &str| std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0");
            let mut t = Target::detect();
            if truthy("HELIUM_PORTABLE") {
                t.features = 0;
            }
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

    fn encode(self) -> u16 {
        let tier = match self.tier {
            Tier::Auto => 0u16,
            Tier::Scalar => 1,
            Tier::Simd => 2,
        };
        OVERRIDE_SET | tier | ((self.features as u16) << 4)
    }

    fn decode(v: u16) -> Target {
        let tier = match v & 0b11 {
            1 => Tier::Scalar,
            2 => Tier::Simd,
            _ => Tier::Auto,
        };
        Target {
            tier,
            features: ((v >> 4) & 0xff) as u8,
        }
    }
}

/// Override (or with `None`, un-override) the process-wide [`Target`] that
/// [`Target::current`] returns. Benchmarks use this to time the scalar,
/// portable-SIMD and arch tiers from one process; per-pipeline control is
/// available via `CompileOptions::target`.
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
    fn portable_target_has_no_features_and_auto_tier() {
        let t = Target::portable();
        assert_eq!(t.tier(), Tier::Auto);
        assert!(!t.has(Feature::Avx2));
        assert_eq!(t.feature_tag(), "");
        assert_eq!(t.effective_isa(), Isa::Portable);
    }

    #[test]
    fn with_features_round_trips_and_tags() {
        let t = Target::with_features(&[Feature::Avx2]);
        assert!(t.has(Feature::Avx2));
        assert_eq!(t.features(), vec![Feature::Avx2]);
        assert_eq!(t.feature_tag(), "avx2");
    }

    #[test]
    fn detect_effective_isa_matches_carried_features() {
        let t = Target::detect();
        // On AVX2 hosts detect() carries the feature and resolves to the
        // arch ISA; elsewhere both sides are portable. Either way they agree.
        let expect = if t.has(Feature::Avx2) {
            Isa::Avx2
        } else {
            Isa::Portable
        };
        assert_eq!(t.effective_isa(), expect);
    }

    #[test]
    fn with_tier_overrides_only_the_tier() {
        let t = Target::with_features(&[Feature::Avx2]).with_tier(Tier::Scalar);
        assert_eq!(t.tier(), Tier::Scalar);
        assert!(t.has(Feature::Avx2));
    }

    #[test]
    fn override_encode_decode_round_trips() {
        for tier in [Tier::Auto, Tier::Scalar, Tier::Simd] {
            for feats in [&[][..], &[Feature::Avx2][..]] {
                let t = Target::with_features(feats).with_tier(tier);
                assert_eq!(Target::decode(t.encode()), t);
            }
        }
    }
}
