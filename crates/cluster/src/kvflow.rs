//! KV-cache transfer geometry: Eq. 15 striping across parallel TP pairs.
//!
//! A prefill instance holds the KV cache sharded across its tensor-parallel
//! ranks; the decode instance wants it sharded across *its* ranks. Eq. 15
//! models the shipment as parallel point-to-point streams between rank
//! pairs, so the effective bandwidth is the sum over pairs rather than one
//! NIC's worth. This module computes the stripe plan — which GPU pair
//! carries which share of the bytes — and the engine launches one simnet
//! flow per stripe; the transfer completes when the *slowest* stripe
//! drains.

use hs_topology::NodeId;

/// One rank-pair's share of a KV-cache shipment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvStripe {
    /// Source GPU (a prefill-instance rank).
    pub src: NodeId,
    /// Destination GPU (a decode-instance rank).
    pub dst: NodeId,
    /// Bytes carried by this stripe.
    pub bytes: u64,
}

/// Split `bytes` across the Eq. 15 parallel TP pairs.
///
/// With `s` source ranks and `d` destination ranks, `max(s, d)` pairs are
/// formed, pairing rank `i % s` with rank `i % d` — every GPU on the wider
/// side participates, and the narrower side fans in/out round-robin.
/// `src == dst` self-pairs (an interleaved deployment can place prefill
/// and decode shards on the same GPU) are local copies that never touch
/// the fabric, so they are removed *before* the byte split: the shipped
/// payload divides over the stripes that actually carry traffic, with the
/// integer-division remainder landing in the last stripe. The surviving
/// stripes therefore conserve the payload exactly —
/// `Σ stripe.bytes == bytes` whenever the plan is non-empty; the plan is
/// empty only for degenerate inputs (no ranks, zero bytes, or a fully
/// co-located placement where nothing crosses the fabric). Stripes that
/// would carry zero bytes (payload smaller than the stripe count) are
/// dropped from the front, never from the byte total.
pub fn stripe_plan(src_gpus: &[NodeId], dst_gpus: &[NodeId], bytes: u64) -> Vec<KvStripe> {
    stripes(src_gpus, dst_gpus, bytes).collect()
}

/// The stripes of [`stripe_plan`], in plan order, without allocating —
/// for estimators that only fold over the plan. The rank pairs are walked
/// twice: once to count the fabric-crossing pairs the payload divides
/// over, once to emit them.
pub fn stripes<'a>(
    src_gpus: &'a [NodeId],
    dst_gpus: &'a [NodeId],
    bytes: u64,
) -> impl Iterator<Item = KvStripe> + 'a {
    let left = if src_gpus.is_empty() || dst_gpus.is_empty() || bytes == 0 {
        0
    } else {
        src_gpus.len().max(dst_gpus.len())
    };
    let pairs = CrossingPairs {
        src: src_gpus,
        dst: dst_gpus,
        left,
        si: 0,
        di: 0,
    };
    let k = pairs.clone().count() as u64;
    let (base, rem) = match k {
        0 => (0, 0),
        // The common TP1 → TP1 shipment: one stripe, no 64-bit division.
        1 => (bytes, 0),
        k => (bytes / k, bytes % k),
    };
    pairs
        .enumerate()
        .map(move |(i, (src, dst))| KvStripe {
            src,
            dst,
            bytes: base + if i as u64 + 1 == k { rem } else { 0 },
        })
        .filter(|s| s.bytes > 0)
}

/// The Eq. 15 rank pairs `(src[i % s], dst[i % d])` for `i < left`, minus
/// the self-pairs. Wrapping cursors stand in for the two remainders.
#[derive(Clone)]
struct CrossingPairs<'a> {
    src: &'a [NodeId],
    dst: &'a [NodeId],
    left: usize,
    si: usize,
    di: usize,
}

impl Iterator for CrossingPairs<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.left > 0 {
            self.left -= 1;
            let pair = (self.src[self.si], self.dst[self.di]);
            self.si = if self.si + 1 == self.src.len() {
                0
            } else {
                self.si + 1
            };
            self.di = if self.di + 1 == self.dst.len() {
                0
            } else {
                self.di + 1
            };
            if pair.0 != pair.1 {
                return Some(pair);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn bytes_are_conserved_across_stripes() {
        let src = nodes(&[0, 1, 2, 3]);
        let dst = nodes(&[10, 11, 12, 13]);
        let plan = stripe_plan(&src, &dst, 1_000_003);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), 1_000_003);
        // The integer-division remainder lands in the last stripe.
        assert_eq!(plan[0].bytes, 250_000);
        assert_eq!(plan[1].bytes, 250_000);
        assert_eq!(plan[2].bytes, 250_000);
        assert_eq!(plan[3].bytes, 250_003);
    }

    #[test]
    fn unequal_tp_widths_rotate_the_narrow_side() {
        let src = nodes(&[0, 1]);
        let dst = nodes(&[10, 11, 12, 13]);
        let plan = stripe_plan(&src, &dst, 400);
        assert_eq!(plan.len(), 4, "wider side sets the stripe count");
        let pairs: Vec<(NodeId, NodeId)> = plan.iter().map(|s| (s.src, s.dst)).collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), NodeId(10)),
                (NodeId(1), NodeId(11)),
                (NodeId(0), NodeId(12)),
                (NodeId(1), NodeId(13)),
            ]
        );
    }

    #[test]
    fn tiny_transfers_drop_zero_byte_stripes() {
        let src = nodes(&[0, 1, 2, 3]);
        let dst = nodes(&[10, 11, 12, 13]);
        let plan = stripe_plan(&src, &dst, 3);
        // base = 0, so only the remainder-carrying last stripe survives.
        assert_eq!(plan.len(), 1, "only stripes with bytes survive");
        assert_eq!(
            plan[0],
            KvStripe {
                src: NodeId(3),
                dst: NodeId(13),
                bytes: 3
            }
        );
    }

    #[test]
    fn degenerate_inputs_yield_empty_plans() {
        assert!(stripe_plan(&[], &nodes(&[1]), 100).is_empty());
        assert!(stripe_plan(&nodes(&[1]), &[], 100).is_empty());
        assert!(stripe_plan(&nodes(&[1]), &nodes(&[2]), 0).is_empty());
        // Self-pairs (co-located prefill/decode shards) carry no traffic.
        assert!(stripe_plan(&nodes(&[5]), &nodes(&[5]), 100).is_empty());
    }

    #[test]
    fn co_located_ranks_do_not_leak_bytes() {
        // Rank pair 1 is a self-pair (GPU 1 hosts both a prefill and a
        // decode shard); the payload must still arrive in full over the
        // stripes that cross the fabric.
        let src = nodes(&[0, 1, 2, 3]);
        let dst = nodes(&[10, 1, 12, 13]);
        let plan = stripe_plan(&src, &dst, 1_000);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), 1_000);
        assert_eq!(plan[2].bytes, 333 + 1, "remainder rides the last stripe");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Σ stripe.bytes == payload for arbitrary rank counts, overlap,
        /// and payload sizes — unless *every* pair is co-located, in which
        /// case nothing crosses the fabric and the plan is empty.
        #[test]
        fn stripes_conserve_payload(
            src in proptest::collection::vec(0u32..24, 1..16),
            dst in proptest::collection::vec(0u32..24, 1..16),
            bytes in 1u64..1 << 33,
        ) {
            let src: Vec<NodeId> = src.into_iter().map(NodeId).collect();
            let dst: Vec<NodeId> = dst.into_iter().map(NodeId).collect();
            let n = src.len().max(dst.len());
            let all_self = (0..n).all(|i| src[i % src.len()] == dst[i % dst.len()]);
            let plan = stripe_plan(&src, &dst, bytes);
            if all_self {
                prop_assert!(plan.is_empty());
            } else {
                prop_assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), bytes);
                prop_assert!(plan.iter().all(|s| s.bytes > 0 && s.src != s.dst));
            }
        }
    }
}
