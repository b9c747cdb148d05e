//! The concrete heap, backed by a pair of arenas.
//!
//! Objects are never allocated individually: an [`ObjRef`] is an index into
//! a descriptor table, instance fields live as `(FieldId, Value)` pairs in
//! one shared `Vec`, and array elements live in another.  Allocating an
//! object is a descriptor push; the common case of a freshly allocated
//! object writing its fields grows the tail of the field arena in place.
//! A field block that must grow while buried under later allocations is
//! relocated to the arena tail and its old slots abandoned (arena garbage
//! is reclaimed wholesale when the heap is dropped, which for oracle unit
//! tests is after a handful of statements).
//!
//! Invariants:
//! * a descriptor's field block `[fstart, fstart+flen)` never overlaps
//!   another *live* field block, and element blocks never overlap at all;
//! * within a field block, each `FieldId` appears at most once;
//! * element blocks are fixed-length: they never grow or relocate;
//! * every object owns a field block — arrays included, preserving the
//!   historical field-map semantics where field access on an array is
//!   legal (reads default to `null`);
//! * [`Heap::len`] counts descriptors (live objects), not arena slots —
//!   the `max_heap_objects` limit is unaffected by relocation garbage.

use crate::value::Value;
use atlas_ir::{ClassId, FieldId};
use std::fmt;

/// A reference to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(pub usize);

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Descriptor of one object: which arena blocks hold its payload.
///
/// Every object — arrays included, matching the historical field-map
/// semantics where even arrays accept field reads and writes — owns a
/// (possibly empty) block in the field arena; arrays additionally own a
/// fixed-length block in the element arena.
#[derive(Debug, Clone, Copy)]
struct ObjDesc {
    /// The allocated class; `None` marks an array.
    class: Option<ClassId>,
    /// Field block start in the field arena.
    fstart: usize,
    /// Number of populated fields.
    flen: usize,
    /// Element block start in the element arena (arrays only).
    estart: usize,
    /// Array length (arrays only).
    elen: usize,
}

/// The concrete heap.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<ObjDesc>,
    fields: Vec<(FieldId, Value)>,
    elems: Vec<Value>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Allocates a new instance of `class` (no fields populated yet).
    pub fn alloc(&mut self, class: ClassId) -> ObjRef {
        let r = ObjRef(self.objects.len());
        self.objects.push(ObjDesc {
            class: Some(class),
            fstart: self.fields.len(),
            flen: 0,
            estart: 0,
            elen: 0,
        });
        r
    }

    /// Allocates a new array of length `len`, elements initialized to `null`.
    pub fn alloc_array(&mut self, len: usize) -> ObjRef {
        let r = ObjRef(self.objects.len());
        let estart = self.elems.len();
        self.elems.resize(estart + len, Value::Null);
        self.objects.push(ObjDesc {
            class: None,
            fstart: self.fields.len(),
            flen: 0,
            estart,
            elen: len,
        });
        r
    }

    /// The class of an instance object (`None` for arrays).
    pub fn class_of(&self, r: ObjRef) -> Option<ClassId> {
        self.objects[r.0].class
    }

    /// Whether the object is an array.
    pub fn is_array(&self, r: ObjRef) -> bool {
        self.objects[r.0].class.is_none()
    }

    /// Reads a field (absent fields read as `null`).
    pub fn read_field(&self, r: ObjRef, field: FieldId) -> Value {
        let d = self.objects[r.0];
        self.fields[d.fstart..d.fstart + d.flen]
            .iter()
            .find(|(f, _)| *f == field)
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    }

    /// Writes a field, creating it on first write.
    pub fn write_field(&mut self, r: ObjRef, field: FieldId, value: Value) {
        let d = self.objects[r.0];
        for slot in &mut self.fields[d.fstart..d.fstart + d.flen] {
            if slot.0 == field {
                slot.1 = value;
                return;
            }
        }
        if d.fstart + d.flen == self.fields.len() {
            // The block is the arena tail: grow in place.
            self.fields.push((field, value));
        } else {
            // Relocate the block to the tail, abandoning the old slots.
            let new_start = self.fields.len();
            for i in d.fstart..d.fstart + d.flen {
                let moved = std::mem::replace(&mut self.fields[i].1, Value::Null);
                let fid = self.fields[i].0;
                self.fields.push((fid, moved));
            }
            self.fields.push((field, value));
            self.objects[r.0].fstart = new_start;
        }
        self.objects[r.0].flen += 1;
    }

    /// Reads an array element, if `r` is an array and the index is in range.
    pub fn read_element(&self, r: ObjRef, index: i64) -> Option<Value> {
        let d = self.objects[r.0];
        if d.class.is_some() || index < 0 || index as usize >= d.elen {
            return None;
        }
        Some(self.elems[d.estart + index as usize].clone())
    }

    /// Writes an array element.  Returns `false` if `r` is not an array or
    /// the index is out of range.
    pub fn write_element(&mut self, r: ObjRef, index: i64, value: Value) -> bool {
        let d = self.objects[r.0];
        if d.class.is_some() || index < 0 || index as usize >= d.elen {
            return false;
        }
        self.elems[d.estart + index as usize] = value;
        true
    }

    /// The length of an array object, if `r` is an array.
    pub fn array_len(&self, r: ObjRef) -> Option<usize> {
        let d = self.objects[r.0];
        d.class.is_none().then_some(d.elen)
    }

    /// Removes every object, keeping the allocated arena capacity.  A
    /// long-running oracle clears one heap between unit tests instead of
    /// constructing a fresh one, so the arenas reach their high-water mark
    /// once and steady-state execution allocates nothing.
    pub fn clear(&mut self) {
        self.objects.clear();
        self.fields.clear();
        self.elems.clear();
    }

    /// The allocated capacity of the three arenas `(objects, fields,
    /// elems)` — the zero-allocation audit snapshots this before and
    /// after a round to prove steady-state execution never grows them.
    pub fn capacities(&self) -> (usize, usize, usize) {
        (
            self.objects.capacity(),
            self.fields.capacity(),
            self.elems.capacity(),
        )
    }

    /// Number of objects allocated so far.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_default_to_null() {
        let mut heap = Heap::new();
        assert!(heap.is_empty());
        let r = heap.alloc(ClassId::from_index(0));
        assert_eq!(heap.read_field(r, FieldId::from_index(3)), Value::Null);
        heap.write_field(r, FieldId::from_index(3), Value::Int(9));
        assert_eq!(heap.read_field(r, FieldId::from_index(3)), Value::Int(9));
        heap.write_field(r, FieldId::from_index(3), Value::Int(10));
        assert_eq!(heap.read_field(r, FieldId::from_index(3)), Value::Int(10));
        assert!(!heap.is_array(r));
        assert_eq!(heap.class_of(r), Some(ClassId::from_index(0)));
        assert_eq!(heap.len(), 1);
    }

    #[test]
    fn array_bounds() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(2);
        assert!(heap.is_array(a));
        assert_eq!(heap.class_of(a), None);
        assert_eq!(heap.array_len(a), Some(2));
        assert_eq!(heap.read_element(a, 0), Some(Value::Null));
        assert!(heap.write_element(a, 1, Value::Int(5)));
        assert_eq!(heap.read_element(a, 1), Some(Value::Int(5)));
        assert_eq!(heap.read_element(a, 2), None);
        assert_eq!(heap.read_element(a, -1), None);
        assert!(!heap.write_element(a, 9, Value::Int(1)));
        // Non-array object rejects element access.
        let o = heap.alloc(ClassId::from_index(0));
        assert_eq!(heap.read_element(o, 0), None);
        assert!(!heap.write_element(o, 0, Value::Null));
        assert_eq!(heap.array_len(o), None);
    }

    #[test]
    fn buried_field_block_relocates_without_corruption() {
        let mut heap = Heap::new();
        let a = heap.alloc(ClassId::from_index(0));
        let f0 = FieldId::from_index(0);
        let f1 = FieldId::from_index(1);
        let f2 = FieldId::from_index(2);
        heap.write_field(a, f0, Value::Int(1));
        // Bury `a`'s block under another object's fields, then force `a`
        // to grow: its block must relocate, preserving existing fields.
        let b = heap.alloc(ClassId::from_index(1));
        heap.write_field(b, f0, Value::Int(100));
        heap.write_field(a, f1, Value::Int(2));
        heap.write_field(a, f2, Value::Int(3));
        assert_eq!(heap.read_field(a, f0), Value::Int(1));
        assert_eq!(heap.read_field(a, f1), Value::Int(2));
        assert_eq!(heap.read_field(a, f2), Value::Int(3));
        assert_eq!(heap.read_field(b, f0), Value::Int(100));
        // Updates after relocation land in the new block.
        heap.write_field(a, f0, Value::Int(7));
        assert_eq!(heap.read_field(a, f0), Value::Int(7));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn arrays_accept_field_access_like_instances() {
        // The historical heap gave every object a field map, arrays
        // included; the arena heap must preserve that (regression: an
        // array's element block must never be misread as a field block).
        let mut heap = Heap::new();
        let o = heap.alloc(ClassId::from_index(0));
        heap.write_field(o, FieldId::from_index(0), Value::Int(1));
        let a = heap.alloc_array(3);
        let f = FieldId::from_index(7);
        assert_eq!(heap.read_field(a, f), Value::Null);
        heap.write_field(a, f, Value::Int(42));
        assert_eq!(heap.read_field(a, f), Value::Int(42));
        // Elements are untouched by field writes and vice versa.
        assert_eq!(heap.read_element(a, 0), Some(Value::Null));
        assert!(heap.write_element(a, 2, Value::Int(9)));
        assert_eq!(heap.read_element(a, 2), Some(Value::Int(9)));
        assert_eq!(heap.read_field(a, f), Value::Int(42));
        assert_eq!(heap.array_len(a), Some(3));
        assert_eq!(heap.read_field(o, FieldId::from_index(0)), Value::Int(1));
    }

    #[test]
    fn interleaved_arrays_keep_disjoint_blocks() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(3);
        let b = heap.alloc_array(2);
        for i in 0..3 {
            assert!(heap.write_element(a, i, Value::Int(i)));
        }
        assert!(heap.write_element(b, 0, Value::Int(40)));
        assert!(heap.write_element(b, 1, Value::Int(41)));
        for i in 0..3 {
            assert_eq!(heap.read_element(a, i), Some(Value::Int(i)));
        }
        assert_eq!(heap.read_element(b, 0), Some(Value::Int(40)));
        assert_eq!(heap.read_element(b, 1), Some(Value::Int(41)));
    }
}
