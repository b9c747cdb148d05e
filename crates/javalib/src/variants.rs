//! The library-variant registry: named subsets of the modeled Java library
//! that the fleet pipeline treats as *distinct libraries*.
//!
//! Each [`LibraryVariant`] names a set of installed modules and a cluster
//! list.  Because a variant installs a different set of classes, it has a
//! different content fingerprint (`atlas_ir::hash::library_fingerprint`),
//! so verdicts can never bleed between variants (content-addressed cache
//! keys), and the fleet gives every variant its own store root.
//!
//! Module subsets must be closed under cross-module references —
//! `ProgramBuilder::build` panics on classes that are declared (via
//! `cref`/`mref`) but never defined.  The dependency facts, encoded in the
//! registry below:
//!
//! * every module needs `lang` (`System.arraycopy`, `String`, …);
//! * `lang` needs `list` (`Arrays.asList` builds an `ArrayList`);
//! * `map`, `other`, and `android` need `list` (buckets, backing arrays,
//!   result lists).
//!
//! So `lang + list` is the minimal base and every variant includes it.

use crate::specs::{
    android_ground_truth, lang_ground_truth, list_ground_truth, map_ground_truth,
    other_ground_truth, SpecsBuilder,
};
use atlas_ir::builder::ProgramBuilder;
use atlas_ir::{ClassId, MethodId, Program, Stmt};
use std::collections::BTreeMap;

/// One installable module of the modeled library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// `Object`, `System`, `String(Builder)`, `Integer`, `Arrays`,
    /// `Optional`, `Entry`.
    Lang,
    /// `ArrayList`, `Vector`, `Stack`, `LinkedList` and their iterators.
    List,
    /// `HashMap`, `Hashtable`, `HashSet`, `TreeMap`.
    Map,
    /// `ArrayDeque`, `PriorityQueue`, `Collections`.
    Other,
    /// The Android-flavoured framework layer (sources and sinks).
    Android,
}

impl Module {
    fn install(self, pb: &mut ProgramBuilder) {
        match self {
            Module::Lang => crate::lang::install(pb),
            Module::List => crate::list::install(pb),
            Module::Map => crate::map::install(pb),
            Module::Other => crate::other::install(pb),
            Module::Android => crate::android::install(pb),
        }
    }

    fn ground_truth(self, sb: &mut SpecsBuilder<'_>) {
        match self {
            Module::Lang => lang_ground_truth(sb),
            Module::List => list_ground_truth(sb),
            Module::Map => map_ground_truth(sb),
            Module::Other => other_ground_truth(sb),
            Module::Android => android_ground_truth(sb),
        }
    }
}

/// A named library variant: which modules it installs and which class
/// clusters its specifications are inferred over.
#[derive(Debug, Clone, Copy)]
pub struct LibraryVariant {
    /// Registry name (`javalib`, `javalib-collections`, …).
    pub name: &'static str,
    /// One-line description for registry listings.
    pub description: &'static str,
    /// The modules this variant installs, in canonical install order.
    pub modules: &'static [Module],
    /// Cluster definitions by class name; every name must be a class the
    /// variant installs ([`crate::class_ids`] panics otherwise).
    pub clusters: &'static [&'static [&'static str]],
}

/// Every registered javalib variant.  The fleet pipeline composes these
/// with the synthetic libraries of `atlas-apps`.
pub const VARIANTS: &[LibraryVariant] = &[
    LibraryVariant {
        name: "javalib",
        description: "the full modeled library, every cluster",
        modules: &[
            Module::Lang,
            Module::List,
            Module::Map,
            Module::Other,
            Module::Android,
        ],
        clusters: crate::CLASS_CLUSTERS,
    },
    LibraryVariant {
        name: "javalib-collections",
        description: "collections only (no Android layer), container clusters",
        modules: &[Module::Lang, Module::List, Module::Map, Module::Other],
        clusters: &[
            &["ArrayList", "ArrayListIterator", "Collections", "Arrays"],
            &["Vector", "Stack"],
            &["LinkedList", "LinkedListIterator"],
            &["HashMap", "Entry"],
            &["Hashtable", "Entry"],
            &["TreeMap"],
            &["HashSet", "ArrayListIterator"],
            &["ArrayDeque"],
            &["PriorityQueue"],
        ],
    },
    LibraryVariant {
        name: "javalib-lang",
        description: "lang-focused subset (plus the list base it depends on)",
        modules: &[Module::Lang, Module::List],
        clusters: &[&["StringBuilder", "String"], &["Optional", "Integer"]],
    },
    LibraryVariant {
        name: "javalib-android",
        description: "Android layer over the list base",
        modules: &[Module::Lang, Module::List, Module::Android],
        clusters: &[
            &["ArrayList", "ArrayListIterator"],
            &["Vector", "Stack"],
            &["SmsInbox", "ContactsProvider", "TelephonyManager"],
        ],
    },
];

/// Looks a variant up by registry name.
pub fn variant_named(name: &str) -> Option<&'static LibraryVariant> {
    VARIANTS.iter().find(|v| v.name == name)
}

impl LibraryVariant {
    /// Builds the variant's library program (its modules, nothing else).
    pub fn build_program(&self) -> Program {
        let mut pb = ProgramBuilder::new();
        for module in self.modules {
            module.install(&mut pb);
        }
        pb.build()
    }

    /// Resolves the variant's cluster definitions against a program built by
    /// [`LibraryVariant::build_program`].
    pub fn cluster_ids(&self, program: &Program) -> Vec<Vec<ClassId>> {
        self.clusters
            .iter()
            .map(|names| crate::class_ids(program, names))
            .collect()
    }

    /// The ground-truth specification corpus restricted to this variant's
    /// installed modules (the full-library [`crate::ground_truth_specs`]
    /// would panic resolving methods of modules the variant does not
    /// install).
    pub fn ground_truth(&self, program: &Program) -> BTreeMap<MethodId, Vec<Stmt>> {
        let mut sb = SpecsBuilder::new(program);
        for module in self.modules {
            module.ground_truth(&mut sb);
        }
        sb.build()
    }

    /// The dependency-closure fingerprint of each resolved cluster (in
    /// [`LibraryVariant::cluster_ids`] order) — the identities the
    /// incremental store keys this variant's shards on.  Built from one
    /// shared [`atlas_ir::DepGraph`] over the variant's program.
    pub fn cluster_closures(&self, program: &Program) -> Vec<u64> {
        let dep_graph = atlas_ir::DepGraph::build(program);
        self.cluster_ids(program)
            .iter()
            .map(|classes| dep_graph.closure_fingerprint(classes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::hash::library_fingerprint;
    use atlas_ir::LibraryInterface;

    #[test]
    fn every_variant_builds_with_clusters_and_ground_truth() {
        for variant in VARIANTS {
            let program = variant.build_program();
            let clusters = variant.cluster_ids(&program);
            assert!(!clusters.is_empty(), "{} has no clusters", variant.name);
            let truth = variant.ground_truth(&program);
            assert!(!truth.is_empty(), "{} has no ground truth", variant.name);
            // Every cluster class exists, and at least one ground-truth
            // method belongs to a cluster class (the fleet's precision/
            // recall comparison would otherwise be vacuous).
            let cluster_classes: Vec<ClassId> = clusters.iter().flatten().copied().collect();
            assert!(
                truth
                    .keys()
                    .any(|m| cluster_classes.contains(&program.method(*m).class())),
                "{}: no ground truth inside its clusters",
                variant.name
            );
        }
    }

    #[test]
    fn every_variant_resolves_every_cluster_name() {
        for variant in VARIANTS {
            let program = variant.build_program();
            for name in variant.clusters.iter().copied().flatten() {
                assert!(
                    program.class_named(name).is_some(),
                    "{}: cluster class '{name}' is not installed",
                    variant.name
                );
            }
        }
    }

    #[test]
    fn variants_have_distinct_fingerprints() {
        let mut fingerprints = Vec::new();
        for variant in VARIANTS {
            let program = variant.build_program();
            let interface = LibraryInterface::from_program(&program);
            fingerprints.push(library_fingerprint(&program, &interface));
        }
        let mut unique = fingerprints.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            fingerprints.len(),
            "variants must be distinct libraries: {fingerprints:x?}"
        );
    }

    #[test]
    fn variant_cluster_closures_are_stable_distinct_and_edit_sensitive() {
        for variant in VARIANTS {
            let program = variant.build_program();
            let closures = variant.cluster_closures(&program);
            assert_eq!(closures.len(), variant.cluster_ids(&program).len());
            // Distinct clusters close over distinct content.
            let mut unique = closures.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(
                unique.len(),
                closures.len(),
                "{}: cluster closures must be distinct",
                variant.name
            );
            // A freshly built program reproduces every closure fingerprint
            // (content addressing, not id addressing).
            let rebuilt = variant.build_program();
            assert_eq!(
                closures,
                variant.cluster_closures(&rebuilt),
                "{}: closures must be rebuild-stable",
                variant.name
            );
        }

        // Editing one android-layer method leaves the list-layer cluster
        // closures of the full variant untouched, and vice versa — the
        // invariant that makes incremental re-analysis worthwhile.
        let variant = variant_named("javalib-android").expect("registered");
        let base = variant.build_program();
        let before = variant.cluster_closures(&base);
        let mut edited = variant.build_program();
        let sms = edited.method_qualified("SmsInbox.getMessages").unwrap();
        atlas_ir::mutate::edit_body(&mut edited, sms, 1);
        let after = variant.cluster_closures(&edited);
        let changed: Vec<usize> = (0..before.len())
            .filter(|&i| before[i] != after[i])
            .collect();
        assert!(!changed.is_empty(), "the android cluster must dirty");
        assert!(
            changed.len() < before.len(),
            "an android edit must not dirty every cluster: {changed:?}"
        );
    }

    #[test]
    fn full_variant_matches_the_historical_library() {
        let variant = variant_named("javalib").expect("registered");
        let program = variant.build_program();
        let historical = crate::library_program();
        assert_eq!(program.num_methods(), historical.num_methods());
        assert_eq!(program.num_classes(), historical.num_classes());
        let a = LibraryInterface::from_program(&program);
        let b = LibraryInterface::from_program(&historical);
        assert_eq!(
            library_fingerprint(&program, &a),
            library_fingerprint(&historical, &b)
        );
        assert!(variant_named("nope").is_none());
    }
}
