//! The *library interface*: the information Atlas is allowed to see about the
//! library (Section 5.1 of the paper) — the type signature of each public
//! library function — together with the alphabet `V_path` of interface
//! variables (parameters, receivers and return values) over which path
//! specifications are written.

use crate::method::Method;
use crate::program::{ClassId, MethodId, Program};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// Which variable of a method a [`ParamSlot`] denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotKind {
    /// The receiver (`this`).
    Receiver,
    /// The `i`-th declared parameter (0-based).
    Param(u16),
    /// The return value.
    Return,
}

impl SlotKind {
    /// Whether this slot is an input to the method (receiver or parameter).
    pub fn is_input(self) -> bool {
        !matches!(self, SlotKind::Return)
    }

    /// Whether this slot is the return value.
    pub fn is_return(self) -> bool {
        matches!(self, SlotKind::Return)
    }
}

/// One symbol of the path-specification alphabet `V_path`: a reference-typed
/// interface variable (receiver, parameter or return value) of a public
/// library method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamSlot {
    /// The library method.
    pub method: MethodId,
    /// Which variable of that method.
    pub kind: SlotKind,
}

impl ParamSlot {
    /// Convenience constructor for the receiver slot.
    pub fn receiver(method: MethodId) -> ParamSlot {
        ParamSlot {
            method,
            kind: SlotKind::Receiver,
        }
    }

    /// Convenience constructor for a parameter slot.
    pub fn param(method: MethodId, i: u16) -> ParamSlot {
        ParamSlot {
            method,
            kind: SlotKind::Param(i),
        }
    }

    /// Convenience constructor for the return slot.
    pub fn ret(method: MethodId) -> ParamSlot {
        ParamSlot {
            method,
            kind: SlotKind::Return,
        }
    }

    /// Whether the slot is an input (receiver/parameter).
    pub fn is_input(&self) -> bool {
        self.kind.is_input()
    }

    /// Whether the slot is the return value.
    pub fn is_return(&self) -> bool {
        self.kind.is_return()
    }
}

/// The signature of one public library method, as visible to Atlas.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    /// Id of the method in the underlying program.
    pub method: MethodId,
    /// Declaring class.
    pub class: ClassId,
    /// Declaring class name.
    pub class_name: String,
    /// Simple method name.
    pub name: String,
    /// Whether the method has a receiver.
    pub has_this: bool,
    /// Whether the method is a constructor.
    pub is_constructor: bool,
    /// Declared parameter types (excluding the receiver).
    pub param_types: Vec<Type>,
    /// Declared return type.
    pub return_type: Type,
}

impl MethodSig {
    /// Qualified `Class.method` name.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.class_name, self.name)
    }

    /// The reference-typed interface slots of this method, in a canonical
    /// order: receiver, parameters, return.
    pub fn reference_slots(&self) -> Vec<ParamSlot> {
        let mut out = Vec::new();
        if self.has_this {
            out.push(ParamSlot::receiver(self.method));
        }
        for (i, ty) in self.param_types.iter().enumerate() {
            if ty.is_reference() {
                out.push(ParamSlot::param(self.method, i as u16));
            }
        }
        if self.return_type.is_reference() {
            out.push(ParamSlot::ret(self.method));
        }
        out
    }

    /// Whether the method returns a reference value.
    pub fn returns_reference(&self) -> bool {
        self.return_type.is_reference()
    }
}

/// The library interface handed to the specification-inference algorithm:
/// the signatures of all public library methods and the alphabet `V_path`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LibraryInterface {
    sigs: Vec<MethodSig>,
    by_method: HashMap<MethodId, usize>,
    by_class: HashMap<ClassId, Vec<usize>>,
    slots: Vec<ParamSlot>,
}

impl LibraryInterface {
    /// Extracts the interface of all public methods of library classes in
    /// `program`.  Constructors are included (they are needed by the
    /// instantiation strategy of the unit-test synthesizer) but their return
    /// slots are not part of `V_path`.
    pub fn from_program(program: &Program) -> LibraryInterface {
        Self::from_sigs(
            program
                .library_methods()
                .map(|m| sig_of(program, m))
                .collect(),
        )
    }

    /// Brings the interface in step with `program` for one method after an
    /// `atlas_ir::mutate` edit or its [`Undo`](crate::mutate::Undo):
    /// re-reads `method`'s signature, adds it when the edit appended it,
    /// or drops it when `program` no longer has it (an undone append).
    /// Those edits touch no other method and append only the largest id,
    /// so the result equals [`LibraryInterface::from_program`] over
    /// `program`.
    ///
    /// # Panics
    /// Panics if `method` would be added or dropped anywhere but at the
    /// end of the interface.
    pub fn sync_method(&mut self, program: &Program, method: MethodId) {
        let sig = ((method.index() as usize) < program.num_methods())
            .then(|| program.method(method))
            .filter(|m| program.class(m.class()).is_library() && m.is_public())
            .map(|m| sig_of(program, m));
        match (self.by_method.get(&method).copied(), sig) {
            (Some(i), Some(sig)) => {
                let reslot = path_slots(&sig) != path_slots(&self.sigs[i]);
                self.sigs[i] = sig;
                if reslot {
                    self.slots = self.sigs.iter().flat_map(path_slots).collect();
                }
            }
            (None, Some(sig)) => {
                assert!(
                    self.sigs.last().is_none_or(|last| last.method < method),
                    "{method} is not past every interface method"
                );
                let i = self.sigs.len();
                self.by_method.insert(method, i);
                self.by_class.entry(sig.class).or_default().push(i);
                self.slots.extend(path_slots(&sig));
                self.sigs.push(sig);
            }
            (Some(i), None) => {
                assert_eq!(i + 1, self.sigs.len(), "{method} is not the last method");
                let sig = self.sigs.pop().expect("the last signature");
                self.by_method.remove(&method);
                if let Some(class) = self.by_class.get_mut(&sig.class) {
                    class.pop();
                    if class.is_empty() {
                        self.by_class.remove(&sig.class);
                    }
                }
                let kept = self.slots.len() - path_slots(&sig).len();
                self.slots.truncate(kept);
            }
            (None, None) => {}
        }
    }

    /// Builds an interface directly from a list of signatures.
    pub fn from_sigs(sigs: Vec<MethodSig>) -> LibraryInterface {
        let mut by_method = HashMap::new();
        let mut by_class: HashMap<ClassId, Vec<usize>> = HashMap::new();
        let mut slots = Vec::new();
        for (i, sig) in sigs.iter().enumerate() {
            by_method.insert(sig.method, i);
            by_class.entry(sig.class).or_default().push(i);
            slots.extend(path_slots(sig));
        }
        LibraryInterface {
            sigs,
            by_method,
            by_class,
            slots,
        }
    }

    /// All method signatures.
    pub fn methods(&self) -> &[MethodSig] {
        &self.sigs
    }

    /// Number of (non-constructor) methods in the interface.
    pub fn num_methods(&self) -> usize {
        self.sigs.iter().filter(|s| !s.is_constructor).count()
    }

    /// The signature of the given method, if it is part of the interface.
    pub fn sig(&self, method: MethodId) -> Option<&MethodSig> {
        self.by_method.get(&method).map(|&i| &self.sigs[i])
    }

    /// Signatures of the given class's interface methods.
    pub fn sigs_of_class(&self, class: ClassId) -> Vec<&MethodSig> {
        self.by_class
            .get(&class)
            .map(|v| v.iter().map(|&i| &self.sigs[i]).collect())
            .unwrap_or_default()
    }

    /// Constructors of the given class that are part of the interface.
    pub fn constructors_of(&self, class: ClassId) -> Vec<&MethodSig> {
        self.sigs_of_class(class)
            .into_iter()
            .filter(|s| s.is_constructor)
            .collect()
    }

    /// The full alphabet `V_path` (reference-typed interface slots of
    /// non-constructor methods), in a canonical order.
    pub fn slots(&self) -> &[ParamSlot] {
        &self.slots
    }

    /// Whether any method of `classes` contributes a slot to `V_path` —
    /// whether `restrict_to_classes(classes).slots()` is non-empty —
    /// without building the restriction.
    pub fn has_slots_in(&self, classes: &[ClassId]) -> bool {
        classes
            .iter()
            .filter_map(|class| self.by_class.get(class))
            .flatten()
            .any(|&i| {
                let sig = &self.sigs[i];
                !sig.is_constructor
                    && (sig.has_this
                        || sig.param_types.iter().any(Type::is_reference)
                        || sig.returns_reference())
            })
    }

    /// The reference-typed slots of a single method.
    pub fn slots_of(&self, method: MethodId) -> Vec<ParamSlot> {
        self.sig(method)
            .map(|s| s.reference_slots())
            .unwrap_or_default()
    }

    /// Restricts the interface to methods of the given classes (used to
    /// infer specifications package-by-package, as in the evaluation).
    pub fn restrict_to_classes(&self, classes: &[ClassId]) -> LibraryInterface {
        let sigs = self
            .sigs
            .iter()
            .filter(|s| classes.contains(&s.class))
            .cloned()
            .collect();
        Self::from_sigs(sigs)
    }

    /// A human-readable name for a slot, e.g. `this_add`, `ob_set`, `r_get`.
    pub fn slot_name(&self, slot: ParamSlot) -> String {
        let sig = match self.sig(slot.method) {
            Some(s) => s,
            None => return format!("{:?}", slot),
        };
        match slot.kind {
            SlotKind::Receiver => format!("this_{}", sig.name),
            SlotKind::Param(i) => format!("p{}_{}", i, sig.name),
            SlotKind::Return => format!("r_{}", sig.name),
        }
    }

    /// A human-readable qualified name for a slot, e.g. `ArrayList.add#this`.
    pub fn slot_qualified(&self, slot: ParamSlot) -> String {
        let sig = match self.sig(slot.method) {
            Some(s) => s,
            None => return format!("{:?}", slot),
        };
        let kind = match slot.kind {
            SlotKind::Receiver => "this".to_string(),
            SlotKind::Param(i) => format!("p{i}"),
            SlotKind::Return => "ret".to_string(),
        };
        format!("{}.{}#{}", sig.class_name, sig.name, kind)
    }
}

/// The signature of `m` as the interface records it.
fn sig_of(program: &Program, m: &Method) -> MethodSig {
    MethodSig {
        method: m.id(),
        class: m.class(),
        class_name: program.class(m.class()).name().to_string(),
        name: m.name().to_string(),
        has_this: m.has_this(),
        is_constructor: m.is_constructor(),
        param_types: (0..m.num_params())
            .map(|i| m.var_data(m.param_var(i)).ty.clone())
            .collect(),
        return_type: m.return_type().clone(),
    }
}

/// The slots `sig` contributes to `V_path`: its reference slots, none for
/// a constructor.
fn path_slots(sig: &MethodSig) -> Vec<ParamSlot> {
    if sig.is_constructor {
        Vec::new()
    } else {
        sig.reference_slots()
    }
}

impl fmt::Display for LibraryInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for sig in &self.sigs {
            let params: Vec<String> = sig.param_types.iter().map(|t| t.to_string()).collect();
            writeln!(
                f,
                "{} {}({})",
                sig.return_type,
                sig.qualified_name(),
                params.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn box_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut init = c.constructor();
        init.this();
        init.finish();
        let mut set = c.method("set");
        set.this();
        set.param("ob", Type::object());
        set.param("flag", Type::Bool);
        set.finish();
        let mut get = c.method("get");
        get.this();
        get.returns(Type::object());
        get.finish();
        let mut helper = c.method("internalHelper");
        helper.public(false);
        helper.this();
        helper.finish();
        c.build();
        pb.build()
    }

    #[test]
    fn extracts_public_library_methods_only() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let names: Vec<String> = iface.methods().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"set".to_string()));
        assert!(names.contains(&"get".to_string()));
        assert!(names.contains(&"<init>".to_string()));
        assert!(!names.contains(&"internalHelper".to_string()));
        assert_eq!(iface.num_methods(), 2); // constructors excluded from count
    }

    #[test]
    fn slot_alphabet_excludes_primitives_and_constructors() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        // set: receiver + ob (reference) but not flag (bool), no return.
        let set_slots = iface.slots_of(set);
        assert_eq!(set_slots.len(), 2);
        assert!(set_slots.contains(&ParamSlot::receiver(set)));
        assert!(set_slots.contains(&ParamSlot::param(set, 0)));
        // get: receiver + return.
        let get_slots = iface.slots_of(get);
        assert_eq!(get_slots.len(), 2);
        assert!(get_slots.contains(&ParamSlot::ret(get)));
        // V_path only contains slots of non-constructor methods.
        assert_eq!(iface.slots().len(), 4);
        // naming
        assert_eq!(iface.slot_name(ParamSlot::receiver(set)), "this_set");
        assert_eq!(iface.slot_name(ParamSlot::param(set, 0)), "p0_set");
        assert_eq!(iface.slot_name(ParamSlot::ret(get)), "r_get");
        assert_eq!(iface.slot_qualified(ParamSlot::ret(get)), "Box.get#ret");
    }

    #[test]
    fn restrict_to_classes_filters() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let box_id = p.class_named("Box").unwrap();
        let restricted = iface.restrict_to_classes(&[box_id]);
        assert_eq!(restricted.methods().len(), iface.methods().len());
        let none = iface.restrict_to_classes(&[]);
        assert_eq!(none.methods().len(), 0);
        assert!(none.slots().is_empty());
    }

    #[test]
    fn sync_method_tracks_edits_appends_and_undone_appends() {
        let mut p = box_program();
        let mut iface = LibraryInterface::from_program(&p);
        // A parameter turned into a reference adds a slot mid-alphabet.
        let set = p.method_qualified("Box.set").unwrap();
        let flag = p.method(set).param_var(1);
        p.methods[set.index() as usize].vars[flag.index() as usize].ty = Type::object();
        iface.sync_method(&p, set);
        assert_eq!(iface, LibraryInterface::from_program(&p));
        assert!(iface.slots().contains(&ParamSlot::param(set, 1)));
        // An appended method joins the end; undoing the append drops it.
        let before = iface.clone();
        let boxc = p.class_named("Box").unwrap();
        let undo = crate::mutate::Undo::before_append(&p);
        let probe = crate::mutate::add_method(&mut p, boxc, 7).method;
        iface.sync_method(&p, probe);
        assert_eq!(iface, LibraryInterface::from_program(&p));
        undo.apply(&mut p);
        iface.sync_method(&p, probe);
        assert_eq!(iface, before);
        assert!(iface.has_slots_in(&[boxc]) && !iface.has_slots_in(&[]));
    }

    #[test]
    fn constructors_of_lists_inits() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let box_id = p.class_named("Box").unwrap();
        assert_eq!(iface.constructors_of(box_id).len(), 1);
        assert_eq!(iface.sigs_of_class(box_id).len(), 3);
        let display = iface.to_string();
        assert!(display.contains("Box.set"));
    }
}
