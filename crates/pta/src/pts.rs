//! Points-to sets.
//!
//! A [`PtsSet`] is a hybrid set of node ids: sets of up to [`SMALL_MAX`]
//! elements live in an inline sorted array (no heap allocation at all —
//! the overwhelmingly common case for points-to sets), and larger sets
//! promote to the sparse word-indexed bitmap in [`crate::bitvec`], where
//! union/difference/subset run as word-level popcount loops. The threshold
//! is adaptive in both directions: a promoted set that shrinks back to
//! [`DEMOTE_AT`] elements or fewer (via `remove`/`retain`) demotes to the
//! inline array and frees its bitmap, so large-then-shrinking sets — SCC
//! merge losers, retained filters — stop pinning peak heap bytes. The
//! demotion threshold sits at half of [`SMALL_MAX`] so a set oscillating
//! around the promotion boundary does not thrash representations.
//!
//! Every operation observes the set as sorted ascending — the iterator,
//! `Display`, and the delta slices handed to the solver all yield ids in
//! the same order the old sorted-vec representation did, so printed
//! artifacts and cache fingerprints are unchanged. The solver relies on
//! `union_from`/`union_slice_from` appending exactly the newly added
//! elements so it can do difference ("delta") propagation without
//! allocating per step.

use std::fmt;

use crate::bitvec::{BitBlocks, BlocksIter};
use crate::node::NodeId;

/// Largest cardinality stored inline before promoting to bitmap blocks.
pub const SMALL_MAX: usize = 16;

/// Cardinality at or below which a bitmap representation demotes back to
/// the inline array after shrinking. Half of [`SMALL_MAX`] gives hysteresis:
/// a set bouncing around the promotion boundary never thrashes between
/// representations.
pub const DEMOTE_AT: usize = SMALL_MAX / 2;

/// Cost model for the deterministic `union_words` counter: one 64-bit word
/// per two inline u32 slots touched, so small-array merges and bitmap OR
/// loops report in the same unit.
#[inline]
fn small_words(elems: usize) -> u64 {
    elems.div_ceil(2) as u64
}

#[derive(Debug, Clone)]
enum Repr {
    /// Inline sorted array; only `buf[..len]` is meaningful.
    Small { len: u8, buf: [NodeId; SMALL_MAX] },
    /// Sparse bitmap blocks (demotes back to `Small` when shrinking to
    /// [`DEMOTE_AT`] elements or fewer).
    Bits(BitBlocks),
}

/// A set of node ids (object nodes, in practice), observed sorted ascending.
#[derive(Debug)]
pub struct PtsSet {
    repr: Repr,
}

impl Default for PtsSet {
    fn default() -> Self {
        PtsSet {
            repr: Repr::Small {
                len: 0,
                buf: [NodeId(0); SMALL_MAX],
            },
        }
    }
}

impl Clone for PtsSet {
    fn clone(&self) -> Self {
        PtsSet {
            repr: self.repr.clone(),
        }
    }

    fn clone_from(&mut self, other: &Self) {
        match (&mut self.repr, &other.repr) {
            // Bitmap→bitmap reuses the destination vectors.
            (Repr::Bits(dst), Repr::Bits(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Equality is on contents, independent of representation (a promoted set
/// that shrank below [`SMALL_MAX`] via `remove`/`retain` still compares
/// equal to an inline one).
impl PartialEq for PtsSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PtsSet {}

impl PtsSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash of the *raw representation* (inline slots or bitmap words, not
    /// members). Two content-equal sets in different representations may
    /// hash differently — callers use this as a cheap pre-dedup for sets
    /// built by identical propagation, with an exact fallback behind it.
    pub(crate) fn repr_hash(&self) -> u64 {
        const FNV: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        match &self.repr {
            Repr::Small { len, buf } => {
                let mut h = (FNV ^ 1).wrapping_mul(PRIME);
                for m in &buf[..*len as usize] {
                    h = (h ^ m.0 as u64).wrapping_mul(PRIME);
                }
                h
            }
            Repr::Bits(b) => b.repr_hash((FNV ^ 2).wrapping_mul(PRIME)),
        }
    }

    /// Raw-representation equality (same inline slots / same bitmap
    /// words). `false` across representations even for equal contents —
    /// exact where `repr_hash` matches, cheap everywhere.
    pub(crate) fn repr_eq(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small { len: l1, buf: b1 }, Repr::Small { len: l2, buf: b2 }) => {
                l1 == l2 && b1[..*l1 as usize] == b2[..*l2 as usize]
            }
            (Repr::Bits(a), Repr::Bits(b)) => a.repr_eq(b),
            _ => false,
        }
    }

    /// Fold this set's raw representation into a rolling digest: inline
    /// slots or bitmap words, never decoded members, so it costs one pass
    /// over the backing words (~64x cheaper than member iteration for
    /// bitmap sets). Deterministic for a given in-memory set, but
    /// **representation-sensitive**: two content-equal sets in different
    /// representations digest differently. Suitable for re-verifying an
    /// immutable artifact against a digest recorded from the same object,
    /// not for cross-run content addressing.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        match &self.repr {
            Repr::Small { len, buf } => {
                h = (h ^ (*len as u64 | 1 << 32)).wrapping_mul(PRIME);
                for m in &buf[..*len as usize] {
                    h = (h ^ m.0 as u64).wrapping_mul(PRIME);
                }
                h
            }
            Repr::Bits(b) => b.repr_hash((h ^ (2 << 32)).wrapping_mul(PRIME)),
        }
    }

    /// Create a set from an iterator (sorted and deduplicated).
    pub fn from_iter_unsorted(iter: impl IntoIterator<Item = NodeId>) -> Self {
        let mut items: Vec<NodeId> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        Self::from_sorted(&items)
    }

    fn from_sorted(items: &[NodeId]) -> Self {
        if items.len() <= SMALL_MAX {
            let mut buf = [NodeId(0); SMALL_MAX];
            buf[..items.len()].copy_from_slice(items);
            PtsSet {
                repr: Repr::Small {
                    len: items.len() as u8,
                    buf,
                },
            }
        } else {
            let raw: Vec<u32> = items.iter().map(|n| n.0).collect();
            PtsSet {
                repr: Repr::Bits(BitBlocks::from_sorted_slice(&raw)),
            }
        }
    }

    /// Promote the inline array to bitmap blocks.
    fn promote(&mut self) -> &mut BitBlocks {
        if let Repr::Small { len, buf } = &self.repr {
            let raw: Vec<u32> = buf[..*len as usize].iter().map(|n| n.0).collect();
            self.repr = Repr::Bits(BitBlocks::from_sorted_slice(&raw));
        }
        match &mut self.repr {
            Repr::Bits(b) => b,
            Repr::Small { .. } => unreachable!("just promoted"),
        }
    }

    /// Demote a bitmap that shrank to [`DEMOTE_AT`] elements or fewer back
    /// to the inline array, freeing the bitmap's heap blocks.
    fn maybe_demote(&mut self) {
        if let Repr::Bits(b) = &self.repr {
            if b.len() <= DEMOTE_AT {
                let mut buf = [NodeId(0); SMALL_MAX];
                let mut len = 0u8;
                for v in b.iter() {
                    buf[len as usize] = NodeId(v);
                    len += 1;
                }
                self.repr = Repr::Small { len, buf };
            }
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { len, .. } => *len as usize,
            Repr::Bits(b) => b.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the set (0 while inline).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small { .. } => 0,
            Repr::Bits(b) => b.heap_bytes(),
        }
    }

    /// Membership test.
    pub fn contains(&self, n: NodeId) -> bool {
        match &self.repr {
            Repr::Small { len, buf } => buf[..*len as usize].binary_search(&n).is_ok(),
            Repr::Bits(b) => b.contains(n.0),
        }
    }

    /// Insert one element; returns `true` if it was not already present.
    pub fn insert(&mut self, n: NodeId) -> bool {
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                match buf[..l].binary_search(&n) {
                    Ok(_) => false,
                    Err(pos) => {
                        if l < SMALL_MAX {
                            buf.copy_within(pos..l, pos + 1);
                            buf[pos] = n;
                            *len += 1;
                        } else {
                            self.promote().insert(n.0);
                        }
                        true
                    }
                }
            }
            Repr::Bits(b) => b.insert(n.0),
        }
    }

    /// Remove one element; returns `true` if it was present.
    pub fn remove(&mut self, n: NodeId) -> bool {
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                match buf[..l].binary_search(&n) {
                    Ok(pos) => {
                        buf.copy_within(pos + 1..l, pos);
                        *len -= 1;
                        true
                    }
                    Err(_) => false,
                }
            }
            Repr::Bits(b) => {
                let hit = b.remove(n.0);
                if hit {
                    self.maybe_demote();
                }
                hit
            }
        }
    }

    /// Union `other` into `self`, appending exactly the newly added elements
    /// (ascending) to `added`. Returns the number of 64-bit words touched.
    pub fn union_from(&mut self, other: &PtsSet, added: &mut Vec<NodeId>) -> u64 {
        match &other.repr {
            Repr::Small { len, buf } => self.union_slice_from(&buf[..*len as usize], added),
            Repr::Bits(ob) => {
                // `other` holds > SMALL_MAX ids in practice (or was promoted
                // and shrank); the result won't stay inline, so promote.
                let sb = self.promote();
                let start = added.len();
                let raw: &mut Vec<u32> = unsafe { transmute_ids(added) };
                let words = sb.union_from(ob, raw);
                debug_assert!(added[start..].windows(2).all(|w| w[0] < w[1]));
                words
            }
        }
    }

    /// Union a sorted deduplicated slice into `self`, appending the newly
    /// added elements to `added`. Returns the number of words touched.
    pub fn union_slice_from(&mut self, other: &[NodeId], added: &mut Vec<NodeId>) -> u64 {
        debug_assert!(
            other.windows(2).all(|w| w[0] < w[1]),
            "input must be sorted"
        );
        if other.is_empty() {
            return 0;
        }
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                let words = small_words(l + other.len());
                // Merge into a stack buffer; spill to promotion on overflow.
                let mut merged = [NodeId(0); SMALL_MAX];
                let mut m = 0usize;
                let (mut i, mut j) = (0usize, 0usize);
                let added_start = added.len();
                let mut overflow = false;
                loop {
                    let pick = if i < l && j < other.len() {
                        use std::cmp::Ordering::*;
                        match buf[i].cmp(&other[j]) {
                            Less => {
                                let v = buf[i];
                                i += 1;
                                v
                            }
                            Greater => {
                                let v = other[j];
                                j += 1;
                                added.push(v);
                                v
                            }
                            Equal => {
                                let v = buf[i];
                                i += 1;
                                j += 1;
                                v
                            }
                        }
                    } else if i < l {
                        let v = buf[i];
                        i += 1;
                        v
                    } else if j < other.len() {
                        let v = other[j];
                        j += 1;
                        added.push(v);
                        v
                    } else {
                        break;
                    };
                    if m == SMALL_MAX {
                        overflow = true;
                        break;
                    }
                    merged[m] = pick;
                    m += 1;
                }
                if !overflow {
                    *buf = merged;
                    *len = m as u8;
                    return words;
                }
                // Result exceeds the inline capacity: promote and replay the
                // remaining slice elements through the bitmap.
                added.truncate(added_start);
                let b = self.promote();
                for &v in other {
                    if b.insert(v.0) {
                        added.push(v);
                    }
                }
                words + other.len() as u64
            }
            Repr::Bits(b) => {
                let mut words = small_words(other.len());
                for &v in other {
                    if b.insert(v.0) {
                        added.push(v);
                    }
                }
                words += b.word_count() as u64 / 8;
                words
            }
        }
    }

    /// Union `other` into `self`, returning the elements that were new.
    pub fn union_into(&mut self, other: &PtsSet) -> Vec<NodeId> {
        let mut added = Vec::new();
        self.union_from(other, &mut added);
        added
    }

    /// Append `self \ other` (ascending) to `out`. Returns words touched.
    pub fn diff_into(&self, other: &PtsSet, out: &mut Vec<NodeId>) -> u64 {
        match (&self.repr, &other.repr) {
            (Repr::Bits(sb), Repr::Bits(ob)) => {
                let raw: &mut Vec<u32> = unsafe { transmute_ids(out) };
                sb.diff_into(ob, raw)
            }
            _ => {
                let words = small_words(self.len().min(SMALL_MAX) + other.len().min(SMALL_MAX));
                for n in self.iter() {
                    if !other.contains(n) {
                        out.push(n);
                    }
                }
                words
            }
        }
    }

    /// Elements of `self` that are not in `other` (set difference).
    pub fn difference(&self, other: &PtsSet) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.diff_into(other, &mut out);
        out
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &PtsSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Bits(sb), Repr::Bits(ob)) => sb.is_subset(ob),
            _ => self.len() <= other.len() && self.iter().all(|n| other.contains(n)),
        }
    }

    /// Iterate over elements in ascending order.
    pub fn iter(&self) -> PtsIter<'_> {
        match &self.repr {
            Repr::Small { len, buf } => PtsIter::Small(buf[..*len as usize].iter()),
            Repr::Bits(b) => PtsIter::Bits(b.iter()),
        }
    }

    /// Retain only elements matching the predicate; returns removed elements.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) -> Vec<NodeId> {
        let mut removed = Vec::new();
        match &mut self.repr {
            Repr::Small { len, buf } => {
                let l = *len as usize;
                let mut w = 0usize;
                for i in 0..l {
                    let n = buf[i];
                    if keep(n) {
                        buf[w] = n;
                        w += 1;
                    } else {
                        removed.push(n);
                    }
                }
                *len = w as u8;
            }
            Repr::Bits(b) => {
                let raw: &mut Vec<u32> = unsafe { transmute_ids(&mut removed) };
                b.retain(|v| keep(NodeId(v)), raw);
                if !removed.is_empty() {
                    self.maybe_demote();
                }
            }
        }
        removed
    }

    /// Remove all elements, keeping any bitmap allocation.
    ///
    /// This deliberately does *not* demote: the solver clears and refills
    /// its propagated-frontier sets every visit, and reusing the warm
    /// bitmap there is the hot path. Sets that are dead for good should
    /// use [`PtsSet::release`] instead.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Small { len, .. } => *len = 0,
            Repr::Bits(b) => b.clear(),
        }
    }

    /// Remove all elements *and* drop any bitmap allocation, resetting to
    /// the inline representation. For sets that will never grow again —
    /// SCC merge losers, collapsed field nodes — where `clear`'s
    /// allocation reuse would pin `peak_pts_bytes` for the rest of the
    /// solve.
    pub fn release(&mut self) {
        *self = PtsSet::default();
    }
}

/// View a `Vec<NodeId>` as a `Vec<u32>` for the bitvec APIs.
///
/// Sound because `NodeId` is `#[repr(transparent)]` over `u32` — same size,
/// alignment, and bit validity — and the borrow keeps the vec exclusive.
#[inline]
unsafe fn transmute_ids(v: &mut Vec<NodeId>) -> &mut Vec<u32> {
    &mut *(v as *mut Vec<NodeId> as *mut Vec<u32>)
}

/// Sorted-order iterator over a [`PtsSet`].
pub enum PtsIter<'a> {
    Small(std::slice::Iter<'a, NodeId>),
    Bits(BlocksIter<'a>),
}

impl Iterator for PtsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            PtsIter::Small(it) => it.next().copied(),
            PtsIter::Bits(it) => it.next().map(NodeId),
        }
    }
}

impl FromIterator<NodeId> for PtsSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        PtsSet::from_iter_unsorted(iter)
    }
}

impl Extend<NodeId> for PtsSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

impl fmt::Display for PtsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "n{}", n.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn to_vec(s: &PtsSet) -> Vec<NodeId> {
        s.iter().collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut s = PtsSet::new();
        assert!(s.insert(n(5)));
        assert!(s.insert(n(1)));
        assert!(!s.insert(n(5)));
        assert!(s.contains(n(1)));
        assert!(!s.contains(n(2)));
        assert_eq!(to_vec(&s), vec![n(1), n(5)]);
        assert_eq!(s.heap_bytes(), 0, "small sets stay inline");
    }

    #[test]
    fn union_reports_exactly_new_elements() {
        let mut a: PtsSet = [n(1), n(3), n(5)].into_iter().collect();
        let b: PtsSet = [n(2), n(3), n(6)].into_iter().collect();
        let added = a.union_into(&b);
        assert_eq!(added, vec![n(2), n(6)]);
        assert_eq!(to_vec(&a), vec![n(1), n(2), n(3), n(5), n(6)]);
        // Second union adds nothing.
        assert!(a.union_into(&b).is_empty());
    }

    #[test]
    fn union_with_empty() {
        let mut a: PtsSet = [n(1)].into_iter().collect();
        assert!(a.union_into(&PtsSet::new()).is_empty());
        let mut e = PtsSet::new();
        assert_eq!(e.union_into(&a), vec![n(1)]);
    }

    #[test]
    fn difference_and_subset() {
        let a: PtsSet = [n(1), n(2), n(3)].into_iter().collect();
        let b: PtsSet = [n(2)].into_iter().collect();
        assert_eq!(a.difference(&b), vec![n(1), n(3)]);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn retain_returns_removed() {
        let mut a: PtsSet = [n(1), n(2), n(3), n(4)].into_iter().collect();
        let removed = a.retain(|x| x.0 % 2 == 0);
        assert_eq!(removed, vec![n(1), n(3)]);
        assert_eq!(to_vec(&a), vec![n(2), n(4)]);
    }

    #[test]
    fn from_iter_dedups_and_sorts() {
        let s = PtsSet::from_iter_unsorted(vec![n(4), n(1), n(4), n(2)]);
        assert_eq!(to_vec(&s), vec![n(1), n(2), n(4)]);
        assert_eq!(s.to_string(), "{n1, n2, n4}");
    }

    #[test]
    fn promotion_preserves_semantics() {
        let mut s = PtsSet::new();
        for v in 0..SMALL_MAX as u32 {
            assert!(s.insert(n(v * 7)));
        }
        assert_eq!(s.heap_bytes(), 0);
        // One more element crosses the boundary.
        assert!(s.insert(n(3)));
        assert!(s.heap_bytes() > 0, "promoted to bitmap");
        assert_eq!(s.len(), SMALL_MAX + 1);
        let got = to_vec(&s);
        let mut want: Vec<NodeId> = (0..SMALL_MAX as u32).map(|v| n(v * 7)).collect();
        want.push(n(3));
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(s.contains(n(3)) && s.contains(n(7 * 15)));
    }

    #[test]
    fn union_slice_overflow_promotes_and_reports_added_once() {
        let mut a: PtsSet = (0..14u32).map(n).collect();
        let slice: Vec<NodeId> = (10..30u32).map(n).collect();
        let mut added = Vec::new();
        a.union_slice_from(&slice, &mut added);
        assert_eq!(added, (14..30u32).map(n).collect::<Vec<_>>());
        assert_eq!(a.len(), 30);
        assert_eq!(to_vec(&a), (0..30u32).map(n).collect::<Vec<_>>());
    }

    #[test]
    fn eq_across_representations() {
        // Promote then shrink back under the boundary: still equal to an
        // inline set with the same contents.
        let mut big: PtsSet = (0..20u32).map(n).collect();
        assert!(big.heap_bytes() > 0);
        for v in 3..20u32 {
            big.remove(n(v));
        }
        let small: PtsSet = (0..3u32).map(n).collect();
        assert_eq!(big, small);
        assert_eq!(small, big);
        assert!(big.is_subset(&small) && small.is_subset(&big));
    }

    #[test]
    fn shrinking_below_demote_threshold_frees_the_bitmap() {
        let mut s: PtsSet = (0..30u32).map(n).collect();
        assert!(s.heap_bytes() > 0);
        // Stay above DEMOTE_AT: still a bitmap (hysteresis).
        for v in (DEMOTE_AT as u32 + 1)..30 {
            assert!(s.remove(n(v)));
        }
        assert!(s.heap_bytes() > 0, "at DEMOTE_AT+1 the bitmap is kept");
        // One more removal crosses the threshold and demotes.
        assert!(s.remove(n(DEMOTE_AT as u32)));
        assert_eq!(s.heap_bytes(), 0, "demoted to inline");
        assert_eq!(to_vec(&s), (0..DEMOTE_AT as u32).map(n).collect::<Vec<_>>());
        // The demoted set can promote again and keeps working.
        for v in 100..130u32 {
            assert!(s.insert(n(v)));
        }
        assert!(s.heap_bytes() > 0);
        assert_eq!(s.len(), DEMOTE_AT + 30);
    }

    #[test]
    fn retain_demotes_and_release_frees() {
        let mut s: PtsSet = (0..40u32).map(n).collect();
        let removed = s.retain(|x| x.0 < 4);
        assert_eq!(removed.len(), 36);
        assert_eq!(s.heap_bytes(), 0, "retain shrank it below DEMOTE_AT");
        assert_eq!(to_vec(&s), (0..4u32).map(n).collect::<Vec<_>>());
        let mut big: PtsSet = (0..40u32).map(n).collect();
        big.clear();
        assert!(big.heap_bytes() > 0, "clear keeps the warm bitmap");
        big.release();
        assert_eq!(big.heap_bytes(), 0, "release drops it");
        assert!(big.is_empty());
    }

    #[test]
    fn mixed_repr_union_and_diff() {
        let big: PtsSet = (0..40u32).map(n).collect();
        let mut small: PtsSet = [n(1), n(100)].into_iter().collect();
        let mut added = Vec::new();
        small.union_from(&big, &mut added);
        assert_eq!(added.len(), 39);
        assert!(added.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(small.len(), 41);
        let mut out = Vec::new();
        small.diff_into(&big, &mut out);
        assert_eq!(out, vec![n(100)]);
    }

    #[test]
    fn clone_from_reuses_bits() {
        let big: PtsSet = (0..100u32).map(n).collect();
        let mut dst = PtsSet::new();
        dst.clone_from(&big);
        assert_eq!(dst, big);
        let small: PtsSet = [n(1)].into_iter().collect();
        dst.clone_from(&small);
        assert_eq!(dst, small);
    }
}
