//! The label scheduler: a Dial-style bucket queue that pops route
//! [`Label`]s in global preference order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aspp_obs::counters::{self, Counter};
use aspp_types::RouteClass;

/// Labels with effective length at or beyond this spill from the per-length
/// `Vec` buckets into a per-class binary heap. Only extreme prepending
/// configurations produce such labels; everything paper-shaped stays in the
/// O(1) buckets.
const BUCKET_SPILL_LEN: usize = 256;

/// Dial-style bucket priority queue over route [`Label`]s.
///
/// Route preference is `(class, effective length, exporter ASN)` with only
/// three receiver classes and small lengths, and every export step strictly
/// increases `(class, length)` lexicographically. So instead of a binary
/// heap the scheduler keeps one bucket per `(class, length)` and scans them
/// class-major, length-minor. Strict progress means a bucket can no longer
/// receive pushes once the scan reaches it, so it is sorted exactly once
/// (full `Label` order, all labels distinct) and drained back-to-front —
/// the pop sequence is identical to `BinaryHeap<Reverse<Label>>`, without
/// the per-operation `log n` sift.
///
/// A stored label's `(class, len)` are the bucket coordinates themselves,
/// and the rest of its `Ord` key — exporter ASN, node, parent, via flag —
/// packs into one [`pack_bucket_rank`] integer, so buckets hold bare
/// `u128`s: the sort compares native integers with no key recomputation, and
/// [`pop`](Self::pop) reconstructs the [`Label`]. Buckets are reused across
/// computations ([`clear`](Self::clear) retains every allocation).
#[derive(Debug, Default)]
pub(super) struct BucketQueue {
    /// `buckets[class][len]` for `len < BUCKET_SPILL_LEN`, holding
    /// [`pack_bucket_rank`]-packed labels.
    buckets: [Vec<Vec<u128>>; 3],
    /// Per-class overflow for `len >= BUCKET_SPILL_LEN`; `(len, rank)`
    /// tuple order equals `Label` order within one class.
    spill: [BinaryHeap<Reverse<(u32, u128)>>; 3],
    cur_class: usize,
    cur_len: usize,
    cur_sorted: bool,
    in_spill: bool,
    len: usize,
}

impl BucketQueue {
    /// Class scan rank. `Origin` labels never enter the queue (the victim is
    /// finalized before propagation starts), so the rank is invertible — see
    /// [`class_of_rank`](Self::class_of_rank).
    fn class_rank(class: RouteClass) -> usize {
        match class {
            RouteClass::Origin | RouteClass::FromCustomer => 0,
            RouteClass::FromPeer => 1,
            RouteClass::FromProvider => 2,
        }
    }

    /// Inverse of [`class_rank`](Self::class_rank) over queued labels.
    fn class_of_rank(rank: usize) -> RouteClass {
        match rank {
            0 => RouteClass::FromCustomer,
            1 => RouteClass::FromPeer,
            _ => RouteClass::FromProvider,
        }
    }

    /// Empties the queue, retaining every bucket/heap allocation.
    pub(super) fn clear(&mut self) {
        for class in &mut self.buckets {
            for bucket in class.iter_mut() {
                bucket.clear();
            }
        }
        for heap in &mut self.spill {
            heap.clear();
        }
        self.cur_class = 0;
        self.cur_len = 0;
        self.cur_sorted = false;
        self.in_spill = false;
        self.len = 0;
    }

    /// Enqueues the label with class `class`, effective length `len` and
    /// [`pack_bucket_rank`] key `bucket_rank`.
    pub(super) fn push(&mut self, class: RouteClass, len: u32, bucket_rank: u128) {
        debug_assert_ne!(class, RouteClass::Origin, "Origin is never exported");
        counters::incr(Counter::QueuePush);
        let rank = Self::class_rank(class);
        let idx = len as usize;
        if idx >= BUCKET_SPILL_LEN {
            counters::incr(Counter::QueueSpill);
            self.spill[rank].push(Reverse((len, bucket_rank)));
        } else {
            // Strict (class, len) progress: a push can never land behind the
            // scan cursor, so sorted-then-drained buckets stay exact.
            debug_assert!(
                rank > self.cur_class
                    || (rank == self.cur_class && (self.in_spill || idx >= self.cur_len)),
                "bucket push behind scan cursor breaks pop order"
            );
            let class_buckets = &mut self.buckets[rank];
            if class_buckets.len() <= idx {
                class_buckets.resize_with(idx + 1, Vec::new);
            }
            class_buckets[idx].push(bucket_rank);
        }
        self.len += 1;
    }

    /// Rebuilds the [`Label`] whose [`pack_bucket_rank`] key is
    /// `rank` in the bucket at (`class_rank`, `len`).
    fn unpack(class_rank: usize, len: u32, rank: u128) -> Label {
        Label {
            class: Self::class_of_rank(class_rank),
            len,
            tie_asn: (rank >> 65) as u32,
            node: (rank >> 33) as u32,
            parent: (rank >> 1) as u32,
            via_attacker: (rank & 1) != 0,
        }
    }

    pub(super) fn pop(&mut self) -> Option<Label> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.cur_class == 3 {
                debug_assert_eq!(self.len, 0, "labels stranded behind the cursor");
                return None;
            }
            if self.in_spill {
                if let Some(Reverse((len, rank))) = self.spill[self.cur_class].pop() {
                    self.len -= 1;
                    return Some(Self::unpack(self.cur_class, len, rank));
                }
                self.cur_class += 1;
                self.cur_len = 0;
                self.cur_sorted = false;
                self.in_spill = false;
                continue;
            }
            if self.cur_len >= self.buckets[self.cur_class].len() {
                self.in_spill = true;
                continue;
            }
            let bucket = &mut self.buckets[self.cur_class][self.cur_len];
            if bucket.is_empty() {
                self.cur_len += 1;
                self.cur_sorted = false;
                continue;
            }
            if !self.cur_sorted {
                // Descending sort + back-to-front drain = ascending pops.
                bucket.sort_unstable_by(|a, b| b.cmp(a));
                self.cur_sorted = true;
            }
            self.len -= 1;
            let rank = bucket.pop().expect("bucket checked non-empty");
            return Some(Self::unpack(self.cur_class, self.cur_len as u32, rank));
        }
    }
}

/// One queued route offer, as [`BucketQueue::pop`] hands it to the
/// propagation loop. The derived order — preference `(class, len, tie_asn)`
/// first, then the remaining fields to make it total — is the order labels
/// pop in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Label {
    pub(super) class: RouteClass,
    pub(super) len: u32,
    pub(super) tie_asn: u32,
    pub(super) node: u32,
    pub(super) parent: u32,
    pub(super) via_attacker: bool,
}

/// The full `Ord` key of a label packed into one integer, minus `class` and
/// `len` — the two bucket coordinates, constant within a bucket.
/// Sorting by this integer reproduces the derived [`Label`] order exactly;
/// [`BucketQueue::unpack`] is its inverse given the bucket coordinates.
pub(super) fn pack_bucket_rank(tie_asn: u32, node: u32, parent: u32, via_attacker: bool) -> u128 {
    ((tie_asn as u128) << 65)
        | ((node as u128) << 33)
        | ((parent as u128) << 1)
        | u128::from(via_attacker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_queue_pops_in_heap_order_across_the_spill_boundary() {
        let mut queue = BucketQueue::default();
        let mut heap = BinaryHeap::new();
        let mut node = 0u32;
        let mut push = |queue: &mut BucketQueue, heap: &mut BinaryHeap<_>, class, len| {
            for tie_asn in [9u32, 4] {
                node += 1;
                let (parent, via_attacker) = (node + 100, node.is_multiple_of(2));
                queue.push(
                    class,
                    len,
                    pack_bucket_rank(tie_asn, node, parent, via_attacker),
                );
                heap.push(Reverse(Label {
                    class,
                    len,
                    tie_asn,
                    node,
                    parent,
                    via_attacker,
                }));
            }
        };
        for class in [
            RouteClass::FromProvider,
            RouteClass::FromCustomer,
            RouteClass::FromPeer,
        ] {
            for len in [1_000_000, BUCKET_SPILL_LEN as u32, 255, 3, 256, 255] {
                push(&mut queue, &mut heap, class, len);
            }
        }
        // A re-export of the first pop lands in the spill heap mid-scan.
        let Reverse(first) = heap.pop().unwrap();
        assert_eq!(queue.pop(), Some(first));
        push(&mut queue, &mut heap, first.class, first.len + 297);
        while let Some(Reverse(expected)) = heap.pop() {
            assert_eq!(queue.pop(), Some(expected));
        }
        assert_eq!(queue.pop(), None);
    }
}
