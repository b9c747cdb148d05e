//! # atlas-apps
//!
//! A deterministic generator of synthetic "Android app" benchmark programs.
//!
//! The paper evaluates on 46 closed-source Android apps (utility apps and
//! games, a subset of which leak sensitive user data).  Those apps are not
//! available, so this crate generates a suite of synthetic clients with the
//! same *shape*: each app obtains sensitive values from the modeled Android
//! sources (device id, location, contacts, SMS inbox), moves them through
//! the modeled collection classes using a randomly chosen mix of access
//! patterns, and sends some of them to sinks (SMS, HTTP, log).  App sizes
//! vary over more than an order of magnitude, leaks are known by
//! construction, and generation is fully deterministic given the seed.

#![warn(missing_docs)]

pub mod generator;
pub mod mutate;
pub mod patterns;
pub mod registry;
pub mod synthlib;

pub use generator::{generate_app, generate_app_with, generate_suite, AppConfig, GeneratedApp};
pub use mutate::{
    mutate_library, mutate_library_in_place, AppliedMutation, MutatedLibrary, MutationConfig,
    MutationError,
};
pub use patterns::PatternKind;
pub use registry::{build_library, registry_names, RegistryError, RegistryLibrary};
pub use synthlib::{
    generate_library, AliasingMix, AliasingPattern, SynthLibConfig, SyntheticLibrary,
};
