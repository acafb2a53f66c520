//! The delta pass's node scheduler: a Dial-style bucket queue that pops the
//! nodes holding an offer one `(class, length)` bucket at a time, in
//! preference order. Full passes do not use it: they sweep the graph's
//! propagation order ([`super::sweep`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aspp_obs::counters::{self, Counter};
use aspp_types::RouteClass;

/// Offers with effective length at or beyond this spill from the per-length
/// `Vec` buckets into a per-class binary heap. Only extreme prepending
/// configurations produce such offers — an attacker that keeps 256 or more
/// origin copies of a victim padding at least as many; everything
/// paper-shaped stays in the O(1) buckets.
const BUCKET_SPILL_LEN: usize = 256;

/// Dial-style bucket priority queue over the nodes that received an offer.
///
/// Route preference is `(class, effective length, exporter ASN)` with only
/// three receiver classes and small lengths, and every export step strictly
/// increases `(class, length)` lexicographically. So the scheduler keeps one
/// bucket of bare `u32` node ids per `(class, length)` and scans them
/// class-major, length-minor. A push names only the bucket of the offer and
/// its receiver; the offer itself is the receiver's lazy decrease-key (the
/// route word in `NodeScratch::offer_rank`), read back on pop.
///
/// **Bucket closure + minimum offer.** Strict progress means a bucket can no
/// longer receive pushes once the scan opens it, so by then every node in it
/// already holds the best offer it will ever get, and the order within the
/// bucket changes no route. The scan therefore sorts each bucket once, by
/// node index, when it opens it, and drains it back-to-front — settling
/// nodes in memory order, so the per-node arrays are walked forward. A node
/// may sit in one bucket twice and in several buckets; every entry after its
/// first pop finds it settled. Buckets are reused across computations
/// ([`clear`](Self::clear) retains every allocation).
#[derive(Debug, Default)]
pub(super) struct BucketQueue {
    /// `buckets[class][len]` for `len < BUCKET_SPILL_LEN`, holding node ids.
    buckets: [Vec<Vec<u32>>; 3],
    /// Per-class overflow for `len >= BUCKET_SPILL_LEN`, `(len, node)`.
    spill: [BinaryHeap<Reverse<(u32, u32)>>; 3],
    cur_class: usize,
    cur_len: usize,
    cur_sorted: bool,
    in_spill: bool,
    len: usize,
}

impl BucketQueue {
    /// Class scan rank. `Origin` offers never enter the queue (the victim is
    /// finalized before propagation starts), so the rank is invertible — see
    /// [`class_of_rank`](Self::class_of_rank).
    fn class_rank(class: RouteClass) -> usize {
        match class {
            RouteClass::Origin | RouteClass::FromCustomer => 0,
            RouteClass::FromPeer => 1,
            RouteClass::FromProvider => 2,
        }
    }

    /// Inverse of [`class_rank`](Self::class_rank) over queued offers.
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

    /// Enqueues `node` in the bucket of an offer with class `class` and
    /// effective length `len`.
    pub(super) fn push(&mut self, class: RouteClass, len: u32, node: u32) {
        debug_assert_ne!(class, RouteClass::Origin, "Origin is never exported");
        counters::incr(Counter::QueuePush);
        let rank = Self::class_rank(class);
        let idx = len as usize;
        if idx >= BUCKET_SPILL_LEN {
            counters::incr(Counter::QueueSpill);
            self.spill[rank].push(Reverse((len, node)));
        } else {
            // Strict (class, len) progress: a push can never land behind the
            // scan cursor, so an opened bucket is closed.
            debug_assert!(
                rank > self.cur_class
                    || (rank == self.cur_class && (self.in_spill || idx >= self.cur_len)),
                "bucket push behind scan cursor breaks pop order"
            );
            let class_buckets = &mut self.buckets[rank];
            if class_buckets.len() <= idx {
                class_buckets.resize_with(idx + 1, Vec::new);
            }
            class_buckets[idx].push(node);
        }
        self.len += 1;
    }

    /// The next `(class, len, node)` entry: buckets in `(class, len)` order,
    /// nodes ascending within one.
    pub(super) fn pop(&mut self) -> Option<(RouteClass, u32, u32)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.cur_class == 3 {
                debug_assert_eq!(self.len, 0, "nodes stranded behind the cursor");
                return None;
            }
            let class = Self::class_of_rank(self.cur_class);
            if self.in_spill {
                if let Some(Reverse((len, node))) = self.spill[self.cur_class].pop() {
                    self.len -= 1;
                    return Some((class, len, node));
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
            let node = bucket.pop().expect("bucket checked non-empty");
            return Some((class, self.cur_len as u32, node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_queue_pops_ascending_by_class_len_node_across_the_spill_boundary() {
        let mut queue = BucketQueue::default();
        let mut expected = Vec::new();
        let mut push = |queue: &mut BucketQueue, class, len, node| {
            queue.push(class, len, node);
            expected.push((BucketQueue::class_rank(class), len, node));
        };
        for class in [
            RouteClass::FromProvider,
            RouteClass::FromCustomer,
            RouteClass::FromPeer,
        ] {
            for len in [1_000_000, BUCKET_SPILL_LEN as u32, 255, 3, 256, 255] {
                for node in [9u32, 4, 700] {
                    push(&mut queue, class, len, node);
                }
            }
        }
        // The same node twice in one bucket, and one node in two buckets.
        push(&mut queue, RouteClass::FromPeer, 3, 4);
        push(&mut queue, RouteClass::FromPeer, 300, 4);
        expected.sort_unstable();

        let mut popped = Vec::new();
        let mut pop = |queue: &mut BucketQueue| {
            queue.pop().map(|(class, len, node)| {
                let entry = (BucketQueue::class_rank(class), len, node);
                popped.push(entry);
                entry
            })
        };
        // A push into the open bucket's spill row lands mid-scan.
        assert_eq!(pop(&mut queue), Some(expected[0]));
        let (rank, len, _) = expected[0];
        queue.push(BucketQueue::class_of_rank(rank), len + 297, 5);
        expected.push((rank, len + 297, 5));
        expected.sort_unstable();
        while pop(&mut queue).is_some() {}
        assert_eq!(popped, expected);
        assert_eq!(queue.pop(), None);
    }
}
