//! # atlas-javalib
//!
//! An executable model of the parts of the Java standard library (and a thin
//! Android-flavoured framework layer) that the paper's evaluation exercises.
//!
//! The classes are written in the mini-Java IR of [`atlas_ir`] and are both
//! *executable* (by `atlas-interp`, providing the blackbox access Atlas
//! needs) and *analyzable* (by `atlas-pointsto`, providing the
//! implementation-analysis baseline of Figure 9c).  The modeled classes
//! deliberately reproduce the characteristics that make library code hard
//! for points-to analysis:
//!
//! * deep call hierarchies (`Vector.add → addElement → ensureCapacityHelper
//!   → grow → System.arraycopy`),
//! * native methods (`System.arraycopy`, `Arrays.copyOf`, hash codes),
//! * shared ghost state across methods (backing arrays, node chains),
//! * container/iterator pairs whose points-to effects span classes.
//!
//! Two specification corpora accompany the implementation:
//! [`handwritten_specs`] (partial, the stand-in for the paper's two-year
//! handwritten corpus) and [`ground_truth_specs`] (complete, the `S*`
//! reference of the evaluation).

pub mod android;
pub mod lang;
pub mod list;
pub mod map;
pub mod other;
pub mod specs;
pub mod variants;

pub use android::{SINK_METHODS, SOURCE_METHODS};
pub use specs::{android_model_specs, ground_truth_specs, handwritten_specs, SpecsBuilder};
pub use variants::{variant_named, LibraryVariant, Module, VARIANTS};

use atlas_ir::builder::ProgramBuilder;
use atlas_ir::{ClassId, LibraryInterface, Program};

/// Installs every modeled library class into the given program builder.
/// Client (app) classes can then be added to the same builder.
pub fn install_library(pb: &mut ProgramBuilder) {
    lang::install(pb);
    list::install(pb);
    map::install(pb);
    other::install(pb);
    android::install(pb);
}

/// Builds a program containing only the modeled library (no client code).
/// This is the program handed to the specification-inference pipeline.
pub fn library_program() -> Program {
    let mut pb = ProgramBuilder::new();
    install_library(&mut pb);
    pb.build()
}

/// The library interface (public methods and the `V_path` alphabet) of a
/// program that contains the modeled library.
pub fn library_interface(program: &Program) -> LibraryInterface {
    LibraryInterface::from_program(program)
}

/// The names of the "Collections API" classes used for the ground-truth
/// comparison of Section 6.2.
pub const COLLECTION_CLASSES: &[&str] = &[
    "ArrayList",
    "ArrayListIterator",
    "Vector",
    "Stack",
    "LinkedList",
    "LinkedListIterator",
    "HashMap",
    "Hashtable",
    "TreeMap",
    "HashSet",
    "ArrayDeque",
    "PriorityQueue",
];

/// Groups of closely related classes whose specifications are inferred
/// together (one inference run per cluster keeps the sampling alphabet
/// small, mirroring the paper's package-by-package treatment).
pub const CLASS_CLUSTERS: &[&[&str]] = &[
    &["ArrayList", "ArrayListIterator", "Collections", "Arrays"],
    &["Vector", "Stack"],
    &["LinkedList", "LinkedListIterator"],
    &["HashMap", "Entry"],
    &["Hashtable", "Entry"],
    &["TreeMap"],
    &["HashSet", "ArrayListIterator"],
    &["ArrayDeque"],
    &["PriorityQueue"],
    &["StringBuilder", "String"],
    &["Optional", "Integer"],
];

/// Resolves a list of class names to ids.
///
/// # Panics
/// Panics naming the first class the program lacks: every name list is a
/// compile-time constant, so a missing class is a bug in the list, and
/// skipping it would silently shrink the cluster.
pub fn class_ids(program: &Program, names: &[&str]) -> Vec<ClassId> {
    names
        .iter()
        .map(|n| {
            program
                .class_named(n)
                .unwrap_or_else(|| panic!("class '{n}' is not in the program"))
        })
        .collect()
}

/// Installs the `Box` class of the paper's running example (Figure 1) into
/// the builder.  It is not part of [`install_library`]; tests and examples
/// add it explicitly.
pub fn install_box_example(pb: &mut ProgramBuilder) {
    use atlas_ir::Type;
    let mut c = pb.class("Box");
    c.library(true);
    c.field("f", Type::object());
    let mut init = c.constructor();
    init.this();
    init.finish();
    let mut set = c.method("set");
    let this = set.this();
    let ob = set.param("ob", Type::object());
    set.store(this, "f", ob);
    set.finish();
    let mut get = c.method("get");
    get.returns(Type::object());
    let this = get.this();
    let r = get.local("r", Type::object());
    get.load(r, this, "f");
    get.ret(Some(r));
    get.finish();
    let mut clone = c.method("clone");
    clone.returns(Type::class("Box"));
    let this = clone.this();
    let b = clone.local("b", Type::class("Box"));
    let tmp = clone.local("tmp", Type::object());
    let box_class = clone.cref("Box");
    clone.new_object(b, box_class);
    clone.load(tmp, this, "f");
    clone.store(b, "f", tmp);
    clone.ret(Some(b));
    clone.finish();
    c.build();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_builds_and_has_expected_classes() {
        let p = library_program();
        for class in COLLECTION_CLASSES {
            assert!(p.class_named(class).is_some(), "missing class {class}");
        }
        assert!(p.class_named("StringBuilder").is_some());
        assert!(p.class_named("TelephonyManager").is_some());
        // Everything installed is a library class.
        assert_eq!(p.classes().count(), p.library_classes().count());
        // A healthy number of public methods form the interface.
        let iface = library_interface(&p);
        assert!(
            iface.num_methods() >= 80,
            "only {} methods",
            iface.num_methods()
        );
        assert!(
            iface.slots().len() >= 150,
            "only {} slots",
            iface.slots().len()
        );
    }

    #[test]
    fn ground_truth_covers_more_than_handwritten() {
        let p = library_program();
        let gt = ground_truth_specs(&p);
        let hw = handwritten_specs(&p);
        assert!(gt.len() >= 60, "ground truth covers {} methods", gt.len());
        assert!(
            hw.len() <= gt.len() / 2,
            "handwritten should be much smaller"
        );
        // Handwritten specs are a subset of the methods covered by ground
        // truth (they are precise, just incomplete).
        for m in hw.keys() {
            assert!(
                gt.contains_key(m),
                "handwritten spec for uncovered method {}",
                p.qualified_name(*m)
            );
        }
    }

    #[test]
    fn clusters_and_class_ids_resolve() {
        let p = library_program();
        let ids = class_ids(&p, COLLECTION_CLASSES);
        assert_eq!(ids.len(), COLLECTION_CLASSES.len());
        for cluster in CLASS_CLUSTERS {
            assert_eq!(class_ids(&p, cluster).len(), cluster.len());
        }
        assert!(!CLASS_CLUSTERS.is_empty());
        assert!(!SOURCE_METHODS.is_empty() && !SINK_METHODS.is_empty());
        for m in SOURCE_METHODS.iter().chain(SINK_METHODS.iter()) {
            assert!(p.method_qualified(m).is_some(), "missing source/sink {m}");
        }
    }

    #[test]
    #[should_panic(expected = "class 'Box' is not in the program")]
    fn class_ids_name_a_class_the_program_lacks() {
        // Box is not installed by default (see `install_box_example`).
        class_ids(&library_program(), &["ArrayList", "Box"]);
    }

    #[test]
    fn box_example_installs() {
        let mut pb = ProgramBuilder::new();
        install_library(&mut pb);
        install_box_example(&mut pb);
        let p = pb.build();
        assert!(p.method_qualified("Box.set").is_some());
        assert!(p.method_qualified("Box.clone").is_some());
    }
}
