//! Method-level dependency tracking: which methods can influence a
//! cluster's inference result, and a content fingerprint over exactly that
//! set.
//!
//! The verdict of an oracle query against a cluster is a function of far
//! less than the whole library: executing a synthesized unit test only ever
//! runs the cluster's interface methods, the methods they (transitively)
//! call, and the constructors/methods of the classes the synthesizer
//! instantiates for arguments.  [`DepGraph`] makes that set explicit — the
//! cluster's **dependency closure** — and [`DepGraph::closure_fingerprint`]
//! folds the content hashes of everything in it into one 64-bit value.
//!
//! Re-keying caches and store shards on the closure fingerprint instead of
//! the whole-library fingerprint (see `atlas-learn` / `atlas-store`) is
//! what turns warm starts into *incremental* re-analysis: editing one
//! method invalidates only the clusters whose closure contains it, and
//! every other cluster's artifacts splice through byte-identically.
//!
//! The closure is a deliberate over-approximation (soundness over
//! precision):
//!
//! * a class in the closure contributes its superclass chain, the classes
//!   named by its field types, and **all** of its declared methods;
//! * a method in the closure contributes its call targets, the classes
//!   named in its signature (the unit-test synthesizer may instantiate
//!   those), and the classes it allocates.
//!
//! Everything is content-addressed by name and pretty-printed body — never
//! by raw ids — so two independently built but identical programs agree on
//! every fingerprint, exactly like `atlas_ir::hash::library_fingerprint`.

use crate::hash::Fnv;
use crate::method::Method;
use crate::pretty;
use crate::program::{ClassId, MethodId, Program};
use crate::stmt::Stmt;
use crate::types::Type;
use std::collections::BTreeSet;

/// The dependency structure of one program: per-method content hashes,
/// call edges, and the class-level references (field types, signature
/// types, allocations) that the closure computation expands through.
///
/// Building a `DepGraph` pretty-prints every method once; cache it per
/// program, not per query.  A run gets its graph from a
/// [`ContentIndex`](crate::ContentIndex), which shares that one
/// pretty-print per method with the library fingerprint and the verdict
/// keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepGraph {
    /// Deep content hash per method (indexed by method id).
    method_hash: Vec<u64>,
    /// Content hash of each class's declaration surface (name, superclass,
    /// fields), indexed by class id.
    class_hash: Vec<u64>,
    /// Call targets per method, deduplicated.
    calls: Vec<Vec<MethodId>>,
    /// Classes named in each method's signature plus classes it allocates.
    method_classes: Vec<Vec<ClassId>>,
    /// Classes referenced by each class: superclass plus field types.
    class_refs: Vec<Vec<ClassId>>,
    /// Methods declared by each class.
    class_methods: Vec<Vec<MethodId>>,
}

/// A cluster's dependency closure: the classes and methods whose content
/// can influence the cluster's oracle verdicts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Closure {
    /// Classes in the closure (seed classes, superclasses, field/signature
    /// types, allocated classes — transitively).
    pub classes: BTreeSet<ClassId>,
    /// Methods in the closure (every method of a closure class plus every
    /// transitively called method).
    pub methods: BTreeSet<MethodId>,
}

impl Closure {
    /// Whether the closure contains the given method — i.e. whether a
    /// content change to it must dirty the cluster.
    pub fn contains_method(&self, method: MethodId) -> bool {
        self.methods.contains(&method)
    }
}

/// Resolves the class a type refers to, looking through array types.
fn type_class(program: &Program, ty: &Type) -> Option<ClassId> {
    match ty {
        Type::Object(name) => program.class_named(name),
        Type::Array(elem) => type_class(program, elem),
        _ => None,
    }
}

/// One method's outgoing edges: its call targets, and the classes named
/// in its signature plus the classes it allocates (each sorted,
/// deduplicated).
fn method_edges(program: &Program, method: &Method) -> (Vec<MethodId>, Vec<ClassId>) {
    let mut callees = BTreeSet::new();
    let mut classes = BTreeSet::new();
    crate::stmt::visit_block(method.body(), &mut |stmt| match stmt {
        Stmt::Call { method: target, .. } => {
            callees.insert(*target);
        }
        Stmt::New { class, .. } => {
            classes.insert(*class);
        }
        _ => {}
    });
    for (_, data) in method
        .vars()
        .take(method.num_params() + usize::from(method.has_this()))
    {
        if let Some(c) = type_class(program, &data.ty) {
            classes.insert(c);
        }
    }
    if let Some(c) = type_class(program, method.return_type()) {
        classes.insert(c);
    }
    (callees.into_iter().collect(), classes.into_iter().collect())
}

impl DepGraph {
    /// Builds the dependency graph of a program.  Pretty-prints every
    /// method once to compute the content hashes.
    pub fn build(program: &Program) -> DepGraph {
        let method_hash = program
            .methods()
            .map(|method| deep_method_hash(program, method.id()))
            .collect();
        DepGraph::with_method_hashes(program, method_hash)
    }

    /// The dependency graph of `program` over precomputed deep content
    /// hashes, one per method in id order ([`deep_method_hash`]).
    pub(crate) fn with_method_hashes(program: &Program, method_hash: Vec<u64>) -> DepGraph {
        let num_methods = program.num_methods();
        let mut calls = Vec::with_capacity(num_methods);
        let mut method_classes = Vec::with_capacity(num_methods);
        for method in program.methods() {
            let (callees, classes) = method_edges(program, method);
            calls.push(callees);
            method_classes.push(classes);
        }

        let mut class_hash = Vec::with_capacity(program.num_classes());
        let mut class_refs = Vec::with_capacity(program.num_classes());
        let mut class_methods = Vec::with_capacity(program.num_classes());
        for class in program.classes() {
            class_methods.push(class.methods().to_vec());
            let mut h = Fnv::new(0xc1a5);
            h.write_str(class.name());
            match class.superclass() {
                Some(sup) => h.write_str(program.class(sup).name()),
                None => h.write_str(""),
            }
            h.write(&[class.is_library() as u8]);
            let mut refs = BTreeSet::new();
            if let Some(sup) = class.superclass() {
                refs.insert(sup);
            }
            for &f in class.fields() {
                let field = program.field(f);
                h.write_str(field.name());
                h.write_str(&field.ty().to_string());
                if let Some(c) = type_class(program, field.ty()) {
                    refs.insert(c);
                }
            }
            class_hash.push(h.finish());
            class_refs.push(refs.into_iter().collect());
        }

        DepGraph {
            method_hash,
            class_hash,
            calls,
            method_classes,
            class_refs,
            class_methods,
        }
    }

    /// The deep content hash of one method (signature, flags, and
    /// pretty-printed body).
    pub fn method_hash(&self, method: MethodId) -> u64 {
        self.method_hash[method.index() as usize]
    }

    /// Replaces one method's row — deep hash `hash`, call targets and
    /// referenced classes — with what `program` now holds, and refreshes
    /// its class's method list.  `method` is an existing id (edited in
    /// place) or the next one (appended to its class); every other row is
    /// kept, which is sound for the edits of [`crate::mutate`]: they
    /// change the content of no other method and the declaration of no
    /// class.
    ///
    /// # Panics
    /// Panics if `method` is past the next id.
    pub(crate) fn set_method(&mut self, program: &Program, method: MethodId, hash: u64) {
        let i = method.index() as usize;
        assert!(
            i <= self.method_hash.len(),
            "method ids are append-only: {method} skips ids"
        );
        let m = program.method(method);
        let (callees, classes) = method_edges(program, m);
        if i == self.method_hash.len() {
            self.method_hash.push(hash);
            self.calls.push(callees);
            self.method_classes.push(classes);
        } else {
            self.method_hash[i] = hash;
            self.calls[i] = callees;
            self.method_classes[i] = classes;
        }
        let class = m.class();
        self.class_methods[class.index() as usize] = program.class(class).methods().to_vec();
    }

    /// Drops the row of `method`, the last one, from the graph and from
    /// its class's method list: the inverse of appending it (an undone
    /// [`crate::mutate::add_method`]).
    ///
    /// # Panics
    /// Panics if `method` is not the last method.
    pub(crate) fn drop_last_method(&mut self, method: MethodId) {
        assert_eq!(
            method.index() as usize + 1,
            self.method_hash.len(),
            "{method} is not the last method"
        );
        self.method_hash.pop();
        self.calls.pop();
        self.method_classes.pop();
        if let Some(methods) = self
            .class_methods
            .iter_mut()
            .find(|methods| methods.last() == Some(&method))
        {
            methods.pop();
        }
    }

    /// The dependency closure of a set of seed classes (a cluster).
    pub fn closure_of(&self, seed: &[ClassId]) -> Closure {
        let mut closure = Closure::default();
        let mut class_work: Vec<ClassId> = seed.to_vec();
        let mut method_work: Vec<MethodId> = Vec::new();
        while !class_work.is_empty() || !method_work.is_empty() {
            while let Some(class) = class_work.pop() {
                if !closure.classes.insert(class) {
                    continue;
                }
                class_work.extend(&self.class_refs[class.index() as usize]);
                method_work.extend(&self.class_methods[class.index() as usize]);
            }
            while let Some(method) = method_work.pop() {
                if !closure.methods.insert(method) {
                    continue;
                }
                method_work.extend(&self.calls[method.index() as usize]);
                class_work.extend(&self.method_classes[method.index() as usize]);
            }
        }
        closure
    }

    /// The content fingerprint of a cluster's dependency closure: the
    /// sorted content hashes of every closure class and method, folded in
    /// order.  Two programs agree on a cluster's fingerprint iff the whole
    /// closure is content-identical — the invariant incremental re-analysis
    /// keys on.
    pub fn closure_fingerprint(&self, seed: &[ClassId]) -> u64 {
        self.fingerprint_of(&self.closure_of(seed))
    }

    /// The fingerprint of an already-computed closure (see
    /// [`DepGraph::closure_fingerprint`]).
    pub fn fingerprint_of(&self, closure: &Closure) -> u64 {
        let mut class_hashes: Vec<u64> = closure
            .classes
            .iter()
            .map(|c| self.class_hash[c.index() as usize])
            .collect();
        class_hashes.sort_unstable();
        let mut method_hashes: Vec<u64> = closure
            .methods
            .iter()
            .map(|m| self.method_hash[m.index() as usize])
            .collect();
        method_hashes.sort_unstable();
        let mut h = Fnv::new(0xdec);
        h.write_u64(class_hashes.len() as u64);
        for v in class_hashes {
            h.write_u64(v);
        }
        h.write_u64(method_hashes.len() as u64);
        for v in method_hashes {
            h.write_u64(v);
        }
        h.finish()
    }

    /// The methods that call `method` directly (reverse call edges) — used
    /// by mutation generators to find methods whose signature can change
    /// without patching call sites.
    pub fn callers_of(&self, method: MethodId) -> Vec<MethodId> {
        self.calls
            .iter()
            .enumerate()
            .filter(|(_, targets)| targets.contains(&method))
            .map(|(i, _)| MethodId::from_index(i as u32))
            .collect()
    }
}

/// Deep content hash of one method: declaring-class name, method name,
/// receiver/constructor/visibility flags, parameter and return types, and
/// the pretty-printed body.  Unlike `atlas_ir::hash::method_content_hash`
/// (which covers only interface methods), this is defined for *every*
/// method, so closures can reach through private helpers.
pub fn deep_method_hash(program: &Program, method: MethodId) -> u64 {
    let m = program.method(method);
    deep_hash_of(program, m, &pretty::method_to_string(program, m))
}

/// [`deep_method_hash`] of `m`, whose pretty-printed form
/// (`pretty::method_to_string`) is `printed`.
pub(crate) fn deep_hash_of(program: &Program, m: &Method, printed: &str) -> u64 {
    let mut h = Fnv::new(0xdee9);
    h.write_str(program.class(m.class()).name());
    h.write_str(m.name());
    h.write(&[
        m.has_this() as u8,
        m.is_constructor() as u8,
        m.is_public() as u8,
        m.is_native() as u8,
    ]);
    for i in 0..m.num_params() {
        h.write_str(&m.var_data(m.param_var(i)).ty.to_string());
    }
    h.write_str(&m.return_type().to_string());
    h.write_str(printed);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    /// Two independent library "islands" plus a bridge class whose field
    /// type reaches into the second island.
    fn island_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        // Island A: Box stores into its own field and calls a helper.
        let mut a = pb.class("Box");
        a.library(true);
        a.field("f", Type::object());
        let mut set = a.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        set.store(this, "f", ob);
        let helper = set.mref("Box", "touch");
        set.call(None, helper, Some(this), &[]);
        set.finish();
        let mut touch = a.method("touch");
        touch.public(false);
        touch.this();
        touch.finish();
        a.build();
        // Island B: Sink, untouched by Box.
        let mut b = pb.class("Sink");
        b.library(true);
        b.field("g", Type::object());
        let mut put = b.method("put");
        let this = put.this();
        let ob = put.param("ob", Type::object());
        put.store(this, "g", ob);
        put.finish();
        b.build();
        // Bridge: references Sink through a field type.
        let mut c = pb.class("Bridge");
        c.library(true);
        c.field("sink", Type::class("Sink"));
        let mut noop = c.method("noop");
        noop.this();
        noop.finish();
        c.build();
        pb.build()
    }

    #[test]
    fn closures_follow_calls_and_field_types_but_not_strangers() {
        let p = island_program();
        let dg = DepGraph::build(&p);
        let boxc = p.class_named("Box").unwrap();
        let sink = p.class_named("Sink").unwrap();
        let bridge = p.class_named("Bridge").unwrap();

        let box_closure = dg.closure_of(&[boxc]);
        // Private helpers reached via calls are in the closure.
        assert!(box_closure.contains_method(p.method_qualified("Box.touch").unwrap()));
        // Object is reached via the field/parameter types.
        assert!(box_closure
            .classes
            .contains(&p.class_named("Object").unwrap()));
        // The other island is not.
        assert!(!box_closure.classes.contains(&sink));
        assert!(!box_closure.contains_method(p.method_qualified("Sink.put").unwrap()));

        // The bridge reaches Sink through its field type.
        let bridge_closure = dg.closure_of(&[bridge]);
        assert!(bridge_closure.classes.contains(&sink));
        assert!(bridge_closure.contains_method(p.method_qualified("Sink.put").unwrap()));

        // Reverse call edges.
        let touch = p.method_qualified("Box.touch").unwrap();
        let set = p.method_qualified("Box.set").unwrap();
        assert_eq!(dg.callers_of(touch), vec![set]);
        assert!(dg.callers_of(set).is_empty());
    }

    #[test]
    fn closure_fingerprints_are_stable_and_content_sensitive() {
        let p1 = island_program();
        let p2 = island_program();
        let dg1 = DepGraph::build(&p1);
        let dg2 = DepGraph::build(&p2);
        let boxc = p1.class_named("Box").unwrap();
        let sink = p1.class_named("Sink").unwrap();
        // Freshly built identical programs agree on every fingerprint.
        assert_eq!(
            dg1.closure_fingerprint(&[boxc]),
            dg2.closure_fingerprint(&[boxc])
        );
        // Distinct closures have distinct fingerprints.
        assert_ne!(
            dg1.closure_fingerprint(&[boxc]),
            dg1.closure_fingerprint(&[sink])
        );

        // Editing a method inside the closure changes the fingerprint;
        // editing one outside does not.
        let mut edited = island_program();
        let touch = edited.method_qualified("Box.touch").unwrap();
        crate::mutate::edit_body(&mut edited, touch, 7);
        let dg_edited = DepGraph::build(&edited);
        assert_ne!(
            dg1.closure_fingerprint(&[boxc]),
            dg_edited.closure_fingerprint(&[boxc]),
            "closure member edited -> dirty"
        );
        assert_eq!(
            dg1.closure_fingerprint(&[sink]),
            dg_edited.closure_fingerprint(&[sink]),
            "edit outside the closure -> clean"
        );
    }
}
