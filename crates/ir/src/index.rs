//! The content index: every content hash a run keys on, from one
//! pretty-print per method.
//!
//! Three digests of a program address everything the pipeline persists:
//!
//! * each method's **deep hash** ([`deep_method_hash`]), folded per
//!   cluster into the dependency-closure fingerprints that name store
//!   shards ([`DepGraph::closure_fingerprint`]);
//! * each interface method's **interface content hash**
//!   ([`method_content_hash`]), which verdict keys hash words over;
//! * the **library fingerprint** ([`library_fingerprint`]), the fold of
//!   the interface content hashes stamped on every artifact.
//!
//! All three hash the method's pretty-printed form, which is most of the
//! cost.  [`ContentIndex::build`] prints each method once and derives
//! both per-method hashes from that one string, so a run that reads its
//! graph, its library fingerprint and its verdict keys from one index
//! prints the library once instead of once per reader.
//!
//! **Carried across edits.**  The mutation primitives ([`crate::mutate`])
//! are append-only: each edits one method in place or appends one method
//! to its class, shifts no id, and changes no other method's content and
//! no class declaration.  [`ContentIndex::rehash`] therefore brings an
//! index up to date after such an edit by re-hashing that one method and
//! refolding the library fingerprint, and the result equals a fresh
//! [`ContentIndex::build`] over the edited program, field for field.  A
//! served edit's hashing then costs one method, however large the
//! library has grown.
//!
//! [`deep_method_hash`]: crate::depgraph::deep_method_hash
//! [`method_content_hash`]: crate::hash::method_content_hash
//! [`library_fingerprint`]: crate::hash::library_fingerprint

use crate::depgraph::{deep_hash_of, DepGraph};
use crate::hash::{fold_library, sig_content_hash};
use crate::interface::LibraryInterface;
use crate::pretty;
use crate::program::{MethodId, Program};
use std::sync::Arc;

/// The content hashes of one program: its [`DepGraph`], each method's
/// interface content hash, and the library fingerprint folded from them.
/// See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentIndex {
    graph: DepGraph,
    /// `method_content_hash` per method id; `None` for methods outside
    /// the interface.  Shared, so every verdict keyer over this index
    /// reads one table.
    interface_hashes: Arc<[Option<u64>]>,
    library: u64,
}

impl ContentIndex {
    /// Indexes `program` under `interface`: one pretty-print per method.
    pub fn build(program: &Program, interface: &LibraryInterface) -> ContentIndex {
        let mut deep = Vec::with_capacity(program.num_methods());
        let mut interface_hashes = Vec::with_capacity(program.num_methods());
        for method in program.methods() {
            let printed = pretty::method_to_string(program, method);
            deep.push(deep_hash_of(program, method, &printed));
            interface_hashes.push(
                interface
                    .sig(method.id())
                    .map(|sig| sig_content_hash(sig, &printed)),
            );
        }
        let library = fold(interface, &interface_hashes);
        ContentIndex {
            graph: DepGraph::with_method_hashes(program, deep),
            interface_hashes: interface_hashes.into(),
            library,
        }
    }

    /// Brings the index up to date after one [`crate::mutate`] edit or
    /// its [`Undo`](crate::mutate::Undo): re-hashes `method` — edited in
    /// place, or appended to its class — as `program` (the edited
    /// program) now holds it, or drops it when `program` no longer has it
    /// (an undone append), and refolds the library fingerprint over
    /// `interface` (the edited program's, already brought in step).
    /// Every other method keeps its hashes, which the append-only
    /// contract of the primitives makes exact: the result equals
    /// [`ContentIndex::build`] over the edited program.
    ///
    /// # Panics
    /// Panics if `method` is past the next method id, or is dropped but
    /// was not the last.
    pub fn rehash(&mut self, program: &Program, interface: &LibraryInterface, method: MethodId) {
        let i = method.index() as usize;
        let mut hashes = self.interface_hashes.to_vec();
        if i < program.num_methods() {
            let m = program.method(method);
            let printed = pretty::method_to_string(program, m);
            self.graph
                .set_method(program, method, deep_hash_of(program, m, &printed));
            let hash = interface
                .sig(method)
                .map(|sig| sig_content_hash(sig, &printed));
            match hashes.get_mut(i) {
                Some(slot) => *slot = hash,
                None => hashes.push(hash),
            }
        } else {
            self.graph.drop_last_method(method);
            hashes.pop();
        }
        self.library = fold(interface, &hashes);
        self.interface_hashes = hashes.into();
    }

    /// The dependency graph (deep hashes, call and class edges).
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The interface content hash of every method, indexed by method id
    /// (`None` outside the interface).
    pub fn interface_hashes(&self) -> &Arc<[Option<u64>]> {
        &self.interface_hashes
    }

    /// The library fingerprint: equal to
    /// [`library_fingerprint`](crate::hash::library_fingerprint) over the
    /// indexed program and interface.
    pub fn library_fingerprint(&self) -> u64 {
        self.library
    }
}

/// The library fingerprint folded from an index's interface hashes.
fn fold(interface: &LibraryInterface, hashes: &[Option<u64>]) -> u64 {
    fold_library(interface, |method| {
        hashes[method.index() as usize].expect("every interface method is indexed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::hash::{library_fingerprint, method_content_hash};
    use crate::mutate;
    use crate::types::Type;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut set = c.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        let tmp = set.local("tmp", Type::object());
        set.assign(tmp, ob);
        set.store(this, "f", tmp);
        let helper = set.mref("Box", "touch");
        set.call(None, helper, Some(this), &[]);
        set.finish();
        let mut touch = c.method("touch");
        touch.public(false);
        touch.this();
        touch.finish();
        c.build();
        pb.build()
    }

    #[test]
    fn one_build_agrees_with_every_separate_digest() {
        let p = sample();
        let iface = LibraryInterface::from_program(&p);
        let index = ContentIndex::build(&p, &iface);
        assert_eq!(index.graph(), &DepGraph::build(&p));
        assert_eq!(index.library_fingerprint(), library_fingerprint(&p, &iface));
        for method in p.methods() {
            let expected = iface
                .sig(method.id())
                .map(|_| method_content_hash(&p, &iface, method.id()));
            assert_eq!(
                index.interface_hashes()[method.id().index() as usize],
                expected
            );
        }
        let touch = p.method_qualified("Box.touch").unwrap();
        assert_eq!(index.interface_hashes()[touch.index() as usize], None);
    }

    #[test]
    fn rehash_after_each_primitive_equals_a_fresh_build() {
        let mut p = sample();
        let mut index = ContentIndex::build(&p, &LibraryInterface::from_program(&p));
        let set = p.method_qualified("Box.set").unwrap();
        let touch = p.method_qualified("Box.touch").unwrap();
        let boxc = p.class_named("Box").unwrap();
        let edits: [&dyn Fn(&mut Program) -> MethodId; 5] = [
            &|p| mutate::edit_body(p, touch, 1).method,
            &|p| mutate::rename_local(p, set, 2).unwrap().method,
            &|p| mutate::add_method(p, boxc, 3).method,
            &|p| mutate::change_signature(p, set, 4).method,
            &|p| mutate::edit_body(p, set, 5).method,
        ];
        for edit in edits {
            let before = index.library_fingerprint();
            let method = edit(&mut p);
            let iface = LibraryInterface::from_program(&p);
            index.rehash(&p, &iface, method);
            assert_eq!(index, ContentIndex::build(&p, &iface));
            if iface.sig(method).is_some() {
                assert_ne!(index.library_fingerprint(), before);
            }
        }
    }
}
