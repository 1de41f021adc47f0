//! # helium
//!
//! Umbrella crate for the Helium reproduction (PLDI 2015: "Lifting
//! High-Performance Stencil Kernels from Stripped x86 Binaries to Halide DSL
//! Code").
//!
//! This crate re-exports the workspace members so downstream users and the
//! examples/integration tests can depend on a single crate:
//!
//! * [`machine`] — the x86-like virtual machine substrate,
//! * [`dbi`] — the dynamic binary instrumentation substrate,
//! * [`apps`] — the legacy applications whose kernels are lifted,
//! * [`halide`] — the miniature Halide DSL, scheduler and compiled engine,
//! * [`core`] — the Helium pipeline itself (code localization + expression
//!   extraction + code generation).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end lift of a 2-D blur kernel
//! from a legacy binary into Halide source text and a runnable pipeline.

pub use helium_apps as apps;
pub use helium_core as core;
pub use helium_dbi as dbi;
pub use helium_halide as halide;
pub use helium_machine as machine;
