//! Flat storage for a [`Function`](crate::Function)'s variable-length
//! lists.
//!
//! A function keeps each kind of list — block instruction lists, edge
//! lists, φ arguments, switch cases — in one pool: a single `Vec`
//! that every list of that kind is a [`Span`] of. A list that outgrows
//! its span moves to the end of the pool with doubled capacity, leaving
//! a hole behind; the pool counts its holes so a clone can copy a
//! hole-free pool with one `memcpy` and compact the others.

use crate::entities::EntityRef;

/// A list stored in a pool: `len` items from `start`, with room for
/// `cap` before it must move.
///
/// A span is only meaningful together with the function that made it;
/// [`InstKind::Phi`](crate::InstKind::Phi) and
/// [`InstKind::Switch`](crate::InstKind::Switch) carry one, and
/// [`Function::phi_args`](crate::Function::phi_args) and
/// [`Function::switch_cases`](crate::Function::switch_cases) read it.
/// The only span code outside a function can make is the empty one,
/// [`Span::EMPTY`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// The empty list.
    pub const EMPTY: Span = Span { start: 0, len: 0, cap: 0 };

    /// The number of items in the list.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the list has no items.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One pool: the items of every span, plus a count of the slots no span
/// owns any more.
#[derive(Clone, Debug)]
pub(crate) struct Pool<T> {
    items: Vec<T>,
    /// Slots left behind by relocated or released spans.
    holes: usize,
}

/// A pool item: a plain value, with a placeholder for spare capacity.
pub(crate) trait Item: Copy {
    /// What a slot holds before a span writes it.
    fn filler() -> Self;
}

impl<K: EntityRef + Copy> Item for K {
    fn filler() -> Self {
        K::new(0)
    }
}

impl Item for i64 {
    fn filler() -> Self {
        0
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool { items: Vec::new(), holes: 0 }
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("pool exceeds u32 slots")
}

impl<T: Item> Pool<T> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Pool { items: Vec::with_capacity(n), holes: 0 }
    }

    /// The items of `s`.
    pub(crate) fn get(&self, s: Span) -> &[T] {
        &self.items[s.range()]
    }

    /// The items of `s`, writable in place.
    pub(crate) fn get_mut(&mut self, s: Span) -> &mut [T] {
        &mut self.items[s.range()]
    }

    /// A new span at the end of the pool holding exactly `items`.
    pub(crate) fn alloc(&mut self, items: &[T]) -> Span {
        let start = to_u32(self.items.len());
        self.items.extend_from_slice(items);
        let len = to_u32(items.len());
        Span { start, len, cap: len }
    }

    /// Gives `s` room for at least `cap` items. A span at the end of the
    /// pool grows in place; any other moves to the end, and its old
    /// slots become a hole.
    fn grow(&mut self, s: &mut Span, cap: usize) {
        if cap <= s.cap as usize {
            return;
        }
        let end = (s.start + s.cap) as usize;
        if end != self.items.len() {
            let start = self.items.len();
            self.items.extend_from_within(s.range());
            self.holes += s.cap as usize;
            s.start = to_u32(start);
        }
        self.items.resize(s.start as usize + cap, T::filler());
        s.cap = to_u32(cap);
    }

    /// Makes room in `s` for `extra` more items, exactly.
    pub(crate) fn reserve(&mut self, s: &mut Span, extra: usize) {
        self.grow(s, s.len as usize + extra);
    }

    /// Inserts `v` at position `at` of `s`, doubling the span's capacity
    /// when it is full.
    pub(crate) fn insert(&mut self, s: &mut Span, at: usize, v: T) {
        assert!(at <= s.len as usize, "insert position out of range");
        if s.len == s.cap {
            self.grow(s, (2 * s.cap as usize).max(4));
        }
        s.len += 1;
        let items = self.get_mut(*s);
        items.copy_within(at..items.len() - 1, at + 1);
        items[at] = v;
    }

    /// Appends `v` to `s`.
    pub(crate) fn push(&mut self, s: &mut Span, v: T) {
        self.insert(s, s.len as usize, v);
    }

    /// Removes and returns the item at position `at` of `s`.
    pub(crate) fn remove(&mut self, s: &mut Span, at: usize) -> T {
        let items = self.get_mut(*s);
        let v = items[at];
        items.copy_within(at + 1.., at);
        s.len -= 1;
        v
    }

    /// Keeps the items of `s` for which `keep` holds, in order, in one
    /// pass.
    pub(crate) fn retain(&mut self, s: &mut Span, mut keep: impl FnMut(T) -> bool) {
        let items = self.get_mut(*s);
        let mut kept = 0;
        for i in 0..items.len() {
            if keep(items[i]) {
                items[kept] = items[i];
                kept += 1;
            }
        }
        s.len = to_u32(kept);
    }

    /// Replaces the items of `s` by `items`, moving the span when they do
    /// not fit.
    pub(crate) fn set(&mut self, s: &mut Span, items: &[T]) {
        if items.len() > s.cap as usize {
            self.release(*s);
            *s = self.alloc(items);
        } else {
            s.len = to_u32(items.len());
            self.get_mut(*s).copy_from_slice(items);
        }
    }

    /// Gives up `s`'s slots: they become a hole.
    pub(crate) fn release(&mut self, s: Span) {
        self.holes += s.cap as usize;
    }

    /// A copy of this pool holding exactly the spans `spans` yields,
    /// which it rewrites to their new positions. Without holes that is
    /// one `memcpy` and every span keeps its place; otherwise the spans
    /// are packed in the order given, each with no spare capacity.
    pub(crate) fn clone_compacted<'a>(&self, spans: impl Iterator<Item = &'a mut Span>) -> Pool<T> {
        if self.holes == 0 {
            return self.clone();
        }
        let mut out = Pool::with_capacity(self.items.len() - self.holes);
        for s in spans {
            *s = out.alloc(self.get(*s));
        }
        out
    }

    /// Slots in the pool, holes included.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.items.len()
    }

    /// Slots no span owns.
    #[cfg(test)]
    pub(crate) fn holes(&self) -> usize {
        self.holes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_span_moves_to_the_end_and_keeps_its_order() {
        let mut pool: Pool<i64> = Pool::default();
        let mut a = pool.alloc(&[1, 2]);
        let b = pool.alloc(&[9]);
        pool.push(&mut a, 3);
        assert_eq!(pool.get(a), &[1, 2, 3]);
        assert_eq!(pool.get(b), &[9], "the relocation leaves other spans alone");
        assert_eq!(pool.holes(), 2);
        // The tail span grows in place.
        let before = pool.slots();
        for v in 4..=8 {
            pool.push(&mut a, v);
        }
        assert_eq!(pool.get(a), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(pool.holes(), 2);
        assert!(pool.slots() > before);
    }

    #[test]
    fn insert_remove_and_retain_shift_in_place() {
        let mut pool: Pool<i64> = Pool::default();
        let mut s = pool.alloc(&[1, 2, 4]);
        pool.insert(&mut s, 2, 3);
        pool.insert(&mut s, 0, 0);
        assert_eq!(pool.get(s), &[0, 1, 2, 3, 4]);
        assert_eq!(pool.remove(&mut s, 1), 1);
        assert_eq!(pool.get(s), &[0, 2, 3, 4]);
        pool.retain(&mut s, |v| v % 2 == 0);
        assert_eq!(pool.get(s), &[0, 2, 4]);
    }

    #[test]
    fn compaction_drops_holes_and_rewrites_spans() {
        let mut pool: Pool<i64> = Pool::default();
        let mut a = pool.alloc(&[1]);
        let mut b = pool.alloc(&[2, 3]);
        pool.push(&mut a, 4);
        pool.set(&mut b, &[5, 6, 7]);
        let (mut a2, mut b2) = (a, b);
        let copy = pool.clone_compacted([&mut b2, &mut a2].into_iter());
        assert_eq!(copy.holes(), 0);
        assert_eq!(copy.slots(), 5);
        assert_eq!(copy.get(a2), &[1, 4]);
        assert_eq!(copy.get(b2), &[5, 6, 7]);
        assert_eq!(pool.get(a), &[1, 4], "the original is untouched");
    }
}
