//! Builtin IE functions.
//!
//! The paper assumes a standard library of generic IE primitives: the
//! `rgx` family (§2), string concatenation, span containment, and a
//! printf-like `format` (§4.1). They are ordinary [`crate::IeFunction`]s
//! registered under well-known names; user registrations may shadow them.

mod numbers;
mod rgx;
mod spans;
mod strings;

use crate::registry::Registry;

pub use rgx::fixed_rgx;
pub(crate) use rgx::unassigned_matches;

/// Installs every builtin into `registry`.
pub fn install_builtins(registry: &mut Registry) {
    rgx::install(registry);
    strings::install(registry);
    spans::install(registry);
    numbers::install(registry);
}
