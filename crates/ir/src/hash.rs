//! Content hashing over programs: a specified 64-bit FNV-1a hasher and the
//! library fingerprint built on top of it.
//!
//! Everything that content-addresses program state — the verdict cache in
//! `atlas-learn`, the persistent artifact registry in `atlas-store` — must
//! agree on hash values *across processes*, so `std`'s `DefaultHasher`
//! (unspecified, randomly seeded) is not an option.  This module is the one
//! shared implementation: [`Fnv`] is the primitive, and
//! [`library_fingerprint`] / [`method_content_hash`] are the canonical
//! program digests layered on it.  A run computes both digests for every
//! method at once through [`crate::ContentIndex`], which yields the same
//! values from one pretty-print per method.

use crate::interface::{LibraryInterface, MethodSig};
use crate::pretty;
use crate::program::{MethodId, Program};

/// 64-bit FNV-1a.  Chosen because its output is *specified*: hashes computed
/// in different processes (or read back from serialized artifacts) must
/// agree bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher whose state is perturbed by `seed`, so independent hash
    /// domains (fingerprints, cache keys, …) never collide structurally.
    pub fn new(seed: u64) -> Fnv {
        let mut h = Fnv(Self::OFFSET);
        h.write_u64(seed);
        h
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one little-endian 64-bit value.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a string with a terminator, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The accumulated hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A content-addressed fingerprint of the library a run executes against:
/// every interface signature **plus** the pretty-printed body of every
/// library method.  Two library variants with identical interfaces but
/// different implementations (e.g. a patched `ArrayList`) therefore get
/// different fingerprints, and artifacts derived from them never
/// cross-pollinate.
pub fn library_fingerprint(program: &Program, interface: &LibraryInterface) -> u64 {
    fold_library(interface, |method| {
        method_content_hash(program, interface, method)
    })
}

/// Folds the interface content hash of every interface method, in
/// interface order, into the library fingerprint.
pub(crate) fn fold_library(
    interface: &LibraryInterface,
    mut content_hash: impl FnMut(MethodId) -> u64,
) -> u64 {
    let mut h = Fnv::new(0x11b);
    for sig in interface.methods() {
        h.write_u64(content_hash(sig.method));
    }
    h.finish()
}

/// Content hash of a single library method: signature and implementation.
pub fn method_content_hash(
    program: &Program,
    interface: &LibraryInterface,
    method: MethodId,
) -> u64 {
    match interface.sig(method) {
        Some(sig) => sig_content_hash(
            sig,
            &pretty::method_to_string(program, program.method(method)),
        ),
        None => {
            // Not part of the interface: fall back to the raw id.  Only
            // reachable through hand-built words over non-library methods;
            // such hashes are program-local but still deterministic.
            let mut h = Fnv::new(0x3ad);
            h.write_u64(u64::from(method.index()));
            h.finish()
        }
    }
}

/// [`method_content_hash`] of the interface method `sig`, whose
/// pretty-printed form (`pretty::method_to_string`) is `printed`.
pub(crate) fn sig_content_hash(sig: &MethodSig, printed: &str) -> u64 {
    let mut h = Fnv::new(0x3ad);
    h.write_str(&sig.class_name);
    h.write_str(&sig.name);
    h.write(&[sig.has_this as u8, sig.is_constructor as u8]);
    for ty in &sig.param_types {
        h.write_str(&ty.to_string());
    }
    h.write_str(&sig.return_type.to_string());
    h.write_str(printed);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::Type;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv::new(1);
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv::new(1);
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new(1);
        c.write_str("ab");
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
        // The reference value pins the algorithm: changing it would silently
        // orphan every persisted artifact.
        let mut h = Fnv::new(0);
        h.write_str("atlas");
        assert_eq!(h.finish(), 0x94d6_768f_018c_cec9);
    }

    #[test]
    fn fingerprint_tracks_implementation_content() {
        let build = |stores: bool| {
            let mut pb = ProgramBuilder::new();
            pb.class("Object").build();
            let mut c = pb.class("Box");
            c.library(true);
            c.field("f", Type::object());
            let mut set = c.method("set");
            let this = set.this();
            let ob = set.param("ob", Type::object());
            if stores {
                set.store(this, "f", ob);
            }
            set.finish();
            c.build();
            pb.build()
        };
        let a = build(true);
        let b = build(true);
        let c = build(false);
        let ia = LibraryInterface::from_program(&a);
        let ib = LibraryInterface::from_program(&b);
        let ic = LibraryInterface::from_program(&c);
        // Identical content, freshly built program: identical fingerprint.
        assert_eq!(library_fingerprint(&a, &ia), library_fingerprint(&b, &ib));
        // Same interface, different body: different fingerprint.
        assert_ne!(library_fingerprint(&a, &ia), library_fingerprint(&c, &ic));
    }
}
