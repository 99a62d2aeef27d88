//! Congruence classes (§2.2–2.3, §3).
//!
//! A congruence class is a set of values with a *leader* (its
//! representative: a constant or a member value) and a *defining
//! expression* (used by forward propagation). Following §3, classes are
//! implemented as intrusive doubly-linked lists over value indices, so
//! membership moves are O(1) and no sets are allocated per class.
//!
//! Class 0 is the `INITIAL` class: every value starts there with the
//! undetermined leader ⊥; values still in `INITIAL` when the algorithm
//! finishes are unreachable.

use crate::expr::ExprId;
use pgvn_ir::{EntityRef, Value};

/// A congruence class reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(u32);

/// Class ids are dense per-run indices (slot order of creation), so they
/// key the dense entity maps used by the session context.
impl EntityRef for ClassId {
    #[inline]
    fn new(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize);
        ClassId(index as u32)
    }
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl ClassId {
    /// The `INITIAL` class holding all values at the start.
    pub const INITIAL: ClassId = ClassId(0);

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a class id from a raw index. Only meaningful together
    /// with the [`Classes`] store that produced it.
    #[doc(hidden)]
    pub fn from_raw(raw: u32) -> Self {
        ClassId(raw)
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The representative of a congruence class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Leader {
    /// ⊥ — the class's value is not (yet) determined.
    #[default]
    Undetermined,
    /// The class is a known constant.
    Const(i64),
    /// A member value represents the class.
    Value(Value),
}

#[derive(Clone, Debug, Default)]
struct ClassData {
    head: Option<Value>,
    size: u32,
    leader: Leader,
    expression: Option<ExprId>,
}

/// The congruence class store: `CLASS`, `LEADER`, `EXPRESSION` and `TABLE`
/// from the paper, in one structure.
#[derive(Debug, Default)]
pub struct Classes {
    class_of: Vec<ClassId>,
    next: Vec<Option<Value>>,
    prev: Vec<Option<Value>>,
    classes: Vec<ClassData>,
    /// `TABLE`, keyed by dense expression index (`None` = absent).
    /// Expression ids are interned per run starting at 0, so a flat
    /// vector replaces the former `HashMap<ExprId, ClassId>`.
    table: Vec<Option<ClassId>>,
}

impl Classes {
    /// Creates the store with `num_values` values, all in `INITIAL`.
    pub fn new(num_values: usize) -> Self {
        let mut c = Classes::default();
        c.reset(num_values);
        c
    }

    /// Resets the store to the initial state for `num_values` values —
    /// all in `INITIAL` with leader ⊥, `TABLE` empty — keeping every
    /// allocation so a session context can reuse it across runs.
    pub fn reset(&mut self, num_values: usize) {
        self.class_of.clear();
        self.class_of.resize(num_values, ClassId::INITIAL);
        self.next.clear();
        self.next.resize(num_values, None);
        self.prev.clear();
        self.prev.resize(num_values, None);
        self.classes.clear();
        self.classes.push(ClassData::default());
        self.table.clear();
        // Link all values into INITIAL.
        let mut prev: Option<Value> = None;
        for i in 0..num_values {
            let v = Value::new(i);
            self.prev[i] = prev;
            if let Some(p) = prev {
                self.next[p.index()] = Some(v);
            } else {
                self.classes[0].head = Some(v);
            }
            prev = Some(v);
        }
        self.classes[0].size = num_values as u32;
    }

    /// The class of `v`.
    pub fn class_of(&self, v: Value) -> ClassId {
        self.class_of[v.index()]
    }

    /// The leader of `c`.
    pub fn leader(&self, c: ClassId) -> Leader {
        self.classes[c.index()].leader
    }

    /// Sets the leader of `c`.
    pub fn set_leader(&mut self, c: ClassId, leader: Leader) {
        self.classes[c.index()].leader = leader;
    }

    /// The defining expression of `c`.
    pub fn expression(&self, c: ClassId) -> Option<ExprId> {
        self.classes[c.index()].expression
    }

    /// The number of members of `c`.
    pub fn size(&self, c: ClassId) -> u32 {
        self.classes[c.index()].size
    }

    /// Looks up the class of an expression in `TABLE`.
    pub fn lookup(&self, e: ExprId) -> Option<ClassId> {
        self.table.get(e.index()).copied().flatten()
    }

    /// Iterates over the members of `c`.
    pub fn members(&self, c: ClassId) -> Members<'_> {
        Members { classes: self, cur: self.classes[c.index()].head }
    }

    /// Creates a fresh empty class keyed by `e` with the given leader, and
    /// registers it in `TABLE`.
    pub fn create_class(&mut self, leader: Leader, e: ExprId) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassData { head: None, size: 0, leader, expression: Some(e) });
        if e.index() >= self.table.len() {
            self.table.resize(e.index() + 1, None);
        }
        self.table[e.index()] = Some(id);
        id
    }

    fn unlink(&mut self, v: Value) {
        let i = v.index();
        let c = self.class_of[i];
        let (p, n) = (self.prev[i], self.next[i]);
        if let Some(p) = p {
            self.next[p.index()] = n;
        } else {
            self.classes[c.index()].head = n;
        }
        if let Some(n) = n {
            self.prev[n.index()] = p;
        }
        self.prev[i] = None;
        self.next[i] = None;
        self.classes[c.index()].size -= 1;
    }

    fn link(&mut self, v: Value, c: ClassId) {
        let i = v.index();
        let head = self.classes[c.index()].head;
        self.next[i] = head;
        self.prev[i] = None;
        if let Some(h) = head {
            self.prev[h.index()] = Some(v);
        }
        self.classes[c.index()].head = Some(v);
        self.classes[c.index()].size += 1;
        self.class_of[i] = c;
    }

    /// Moves `v` from its current class into `to`. Returns the vacated
    /// class. If the vacated class became empty, its `TABLE` entry,
    /// leader and expression are cleared (paper Figure 4, lines 48–51).
    /// The caller handles the leader-departure case.
    pub fn move_value(&mut self, v: Value, to: ClassId) -> ClassId {
        let from = self.class_of(v);
        debug_assert_ne!(from, to);
        self.unlink(v);
        self.link(v, to);
        if from != ClassId::INITIAL && self.classes[from.index()].size == 0 {
            if let Some(e) = self.classes[from.index()].expression.take() {
                // Only remove if the table still points at this class (it
                // may have been re-keyed meanwhile).
                if self.table.get(e.index()).copied().flatten() == Some(from) {
                    self.table[e.index()] = None;
                }
            }
            self.classes[from.index()].leader = Leader::Undetermined;
        }
        from
    }

    /// Number of classes ever created (including `INITIAL` and emptied
    /// classes).
    pub fn num_class_slots(&self) -> usize {
        self.classes.len()
    }

    /// Number of currently non-empty classes, excluding `INITIAL`.
    pub fn num_live_classes(&self) -> usize {
        self.classes.iter().skip(1).filter(|c| c.size > 0).count()
    }

    /// Grows the class arena, `TABLE` and the per-value arrays to at
    /// least `slots`, `table` and `values` entries, keeping the
    /// partition as it is.
    pub(crate) fn reserve(&mut self, slots: usize, table: usize, values: usize) {
        self.classes.reserve_exact(slots.saturating_sub(self.classes.len()));
        self.table.reserve_exact(table.saturating_sub(self.table.len()));
        for v in [&mut self.next, &mut self.prev] {
            v.reserve_exact(values.saturating_sub(v.len()));
        }
        self.class_of.reserve_exact(values.saturating_sub(self.class_of.len()));
    }

    /// Capacity of the class arena (allocation-amortization metric).
    pub fn slot_capacity(&self) -> usize {
        self.classes.capacity()
    }

    /// Capacity of the dense `TABLE` (allocation-amortization metric).
    pub fn table_capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Capacity of the per-value arrays (allocation-amortization metric).
    pub fn value_capacity(&self) -> usize {
        self.class_of.capacity()
    }
}

/// Iterator over the members of a class.
#[derive(Debug)]
pub struct Members<'a> {
    classes: &'a Classes,
    cur: Option<Value>,
}

impl Iterator for Members<'_> {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        let v = self.cur?;
        self.cur = self.classes.next[v.index()];
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Value {
        Value::new(i)
    }

    #[test]
    fn all_values_start_in_initial() {
        let c = Classes::new(4);
        for i in 0..4 {
            assert_eq!(c.class_of(v(i)), ClassId::INITIAL);
        }
        assert_eq!(c.size(ClassId::INITIAL), 4);
        assert_eq!(c.leader(ClassId::INITIAL), Leader::Undetermined);
        let members: Vec<Value> = c.members(ClassId::INITIAL).collect();
        assert_eq!(members.len(), 4);
        assert_eq!(c.num_live_classes(), 0);
    }

    #[test]
    fn create_and_move() {
        let mut c = Classes::new(3);
        let e = ExprId::from_raw(7);
        let k = c.create_class(Leader::Const(5), e);
        assert_eq!(c.lookup(e), Some(k));
        assert_eq!(c.size(k), 0);
        let from = c.move_value(v(1), k);
        assert_eq!(from, ClassId::INITIAL);
        assert_eq!(c.class_of(v(1)), k);
        assert_eq!(c.size(k), 1);
        assert_eq!(c.size(ClassId::INITIAL), 2);
        assert_eq!(c.members(k).collect::<Vec<_>>(), vec![v(1)]);
        assert_eq!(c.num_live_classes(), 1);
    }

    #[test]
    fn emptied_class_is_scrubbed() {
        let mut c = Classes::new(2);
        let e1 = ExprId::from_raw(1);
        let e2 = ExprId::from_raw(2);
        let k1 = c.create_class(Leader::Value(v(0)), e1);
        let k2 = c.create_class(Leader::Value(v(0)), e2);
        c.move_value(v(0), k1);
        c.move_value(v(0), k2);
        assert_eq!(c.size(k1), 0);
        assert_eq!(c.lookup(e1), None, "vacated class leaves TABLE");
        assert_eq!(c.leader(k1), Leader::Undetermined);
        assert_eq!(c.expression(k1), None);
        assert_eq!(c.lookup(e2), Some(k2));
    }

    #[test]
    fn reset_restores_initial_state_keeping_capacity() {
        let mut c = Classes::new(6);
        let e = ExprId::from_raw(3);
        let k = c.create_class(Leader::Const(9), e);
        for i in 0..6 {
            c.move_value(v(i), k);
        }
        let slots = c.slot_capacity();
        let table = c.table_capacity();
        let values = c.value_capacity();
        c.reset(6);
        assert_eq!(c.size(ClassId::INITIAL), 6);
        assert_eq!(c.num_live_classes(), 0);
        assert_eq!(c.lookup(e), None, "reset empties TABLE");
        for i in 0..6 {
            assert_eq!(c.class_of(v(i)), ClassId::INITIAL);
        }
        assert_eq!(c.members(ClassId::INITIAL).count(), 6);
        assert!(c.slot_capacity() >= slots);
        assert!(c.table_capacity() >= table);
        assert!(c.value_capacity() >= values);
        // Shrinking the value count keeps the larger allocation too.
        c.reset(2);
        assert_eq!(c.size(ClassId::INITIAL), 2);
        assert_eq!(c.value_capacity(), values);
    }

    #[test]
    fn member_list_survives_interior_removal() {
        let mut c = Classes::new(5);
        let e = ExprId::from_raw(1);
        let k = c.create_class(Leader::Value(v(0)), e);
        for i in 0..5 {
            c.move_value(v(i), k);
        }
        assert_eq!(c.size(k), 5);
        // Remove an interior member (v2) by moving it to a new class.
        let e2 = ExprId::from_raw(2);
        let k2 = c.create_class(Leader::Value(v(2)), e2);
        c.move_value(v(2), k2);
        let mut members: Vec<Value> = c.members(k).collect();
        members.sort();
        assert_eq!(members, vec![v(0), v(1), v(3), v(4)]);
        assert_eq!(c.size(ClassId::INITIAL), 0);
    }
}
