//! ext-TSP basic block reordering (Newell & Pupyrev, *Improved Basic
//! Block Reordering*, PAPERS.md).
//!
//! Where [`crate::chain_proc`] greedily maximizes fall-through *counts*,
//! ext-TSP maximizes a distance-weighted score over three branch classes:
//! a fall-through earns its full edge weight, a short forward jump earns
//! `0.1 * w * (1 - d / 1024)` for distances under 1 KiB, and a short
//! backward jump earns `0.1 * w * (1 - d / 640)` for distances under 640
//! bytes (the paper's weights). The optimizer merges block chains
//! greedily, but instead of only appending it evaluates score-driven
//! merge points — splitting the growing chain and nesting the other chain
//! at the most profitable seam.
//!
//! # Scoring
//!
//! `edge_score` is the one kernel of the objective, and every score is a
//! sum of it: [`span_score_with`] over the edges inside one span,
//! [`exttsp_score_with`] as the span score of a whole layout, and the
//! merge loop over the edges a candidate merge moves. The pass maximizes
//! that sum, the comparison table reports it, and the property suite
//! checks the pass against the paper trio with it. All arithmetic is
//! integer fixed-point (scale [`SCORE_SCALE`]) so scores are
//! bit-identical across platforms and thread counts.
//!
//! # Data structures and cost
//!
//! The merge loop is the practical form of Newell–Pupyrev's algorithm
//! (BOLT and LLVM's `CodeLayout` use the same one):
//!
//! - each live chain keeps its internal edges, and each pair of adjacent
//!   chains its cross edges; the lists are concatenated on merge, so
//!   re-scoring a pair touches only the edges it owns;
//! - pairs with a positive gain wait in a lazy max-heap keyed by (gain,
//!   smallest pair). A popped entry whose pair has since been merged away
//!   or re-scored to another gain is skipped, which keeps the greedy
//!   order of a full rescan: highest gain, then smallest pair;
//! - a merge candidate is a seam, not an order. Positions follow from
//!   per-block byte offsets inside the chain, and only the winning
//!   arrangement is built;
//! - the span scorer keeps addresses for the span's own block-id range
//!   only, and one layout build reuses its buffers across procedures.
//!
//! On the sim scenario (1,325 procedures, 25,099 blocks), one default
//! build of the pass takes 31–40 ms, down from 140–220 ms with
//! whole-program address vectors and full rescans (traced `tune`
//! workload on a shared 2-vCPU Linux host; the ranges are load noise).

use crate::chain::chain_proc_with;
use crate::graph::pettis_hansen_order;
use crate::params::{ExtTspParams, LayoutParams};
use codelayout_ir::{BlockId, Layout, ProcId, Program, Terminator, INSTR_BYTES};
use codelayout_profile::Profile;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Fixed-point scale: a fall-through of weight `w` scores `w * SCORE_SCALE`.
pub const SCORE_SCALE: u64 = 1_000;
/// Forward-jump scoring window in bytes (the paper's 1024). This is the
/// default of [`ExtTspParams::forward_window`].
pub const FORWARD_WINDOW: u64 = 1024;
/// Backward-jump scoring window in bytes (the paper's 640). This is the
/// default of [`ExtTspParams::backward_window`].
pub const BACKWARD_WINDOW: u64 = 640;

/// Layout-independent byte-size estimate of a lowered block: its body
/// instructions plus one slot for the terminator, two for a conditional
/// branch (whose not-taken arm may need a trailing jump). The linker can
/// do better — it erases jumps to the next block — but the estimate must
/// not depend on the layout being scored, or the objective would shift
/// under the optimizer.
pub fn block_bytes(program: &Program, b: BlockId) -> u64 {
    let blk = program.block(b);
    let slots = blk.instrs.len() as u64
        + match blk.term {
            Terminator::Branch { .. } => 2,
            _ => 1,
        };
    slots * INSTR_BYTES
}

/// Score contribution of one edge of weight `w` whose source block ends at
/// byte `src_end` and whose destination starts at byte `dst`, under the
/// objective's parameters.
fn edge_score(ep: &ExtTspParams, w: u64, src_end: u64, dst: u64) -> u64 {
    if w == 0 {
        return 0;
    }
    if dst == src_end {
        w * SCORE_SCALE
    } else if dst > src_end {
        let d = dst - src_end;
        if d < ep.forward_window {
            w * ep.jump_weight * (ep.forward_window - d) / ep.forward_window
        } else {
            0
        }
    } else {
        let d = src_end - dst;
        if d < ep.backward_window {
            w * ep.jump_weight * (ep.backward_window - d) / ep.backward_window
        } else {
            0
        }
    }
}

/// The distinct successors of a terminator, in terminator order: a jump
/// table may name one target several times, but the edge counts once.
fn distinct_successors(term: &Terminator) -> impl Iterator<Item = BlockId> + '_ {
    term.successors()
        .enumerate()
        .filter(move |&(j, t)| !term.successors().take(j).any(|s| s == t))
        .map(|(_, t)| t)
}

/// The ext-TSP objective of a whole layout under the paper's fixed-point
/// weights (the default [`ExtTspParams`]).
///
/// The comparison table reports this score and the property tests
/// compare series with it. The reported score always uses the defaults,
/// even when the pass was tuned, so scores stay comparable across
/// parameterizations.
pub fn exttsp_score(program: &Program, profile: &Profile, layout: &Layout) -> u64 {
    exttsp_score_with(program, profile, &ExtTspParams::default(), layout)
}

/// The ext-TSP objective of a whole layout under explicit weights: the
/// span score of the whole order.
pub fn exttsp_score_with(
    program: &Program,
    profile: &Profile,
    ep: &ExtTspParams,
    layout: &Layout,
) -> u64 {
    span_score_with(program, profile, ep, &layout.order)
}

/// The ext-TSP objective of one contiguous span placed in isolation,
/// under the default [`ExtTspParams`].
///
/// Every control-flow edge is intra-procedural, so the whole-layout score
/// of any procedure-contiguous layout is the sum of its per-procedure
/// span scores — which is what lets the pass optimize procedures
/// independently.
pub fn span_score(program: &Program, profile: &Profile, order: &[BlockId]) -> u64 {
    span_score_with(program, profile, &ExtTspParams::default(), order)
}

/// The ext-TSP objective of one contiguous span under explicit weights:
/// the sum of `edge_score` over every profiled edge whose endpoints both
/// lie in the span.
pub fn span_score_with(
    program: &Program,
    profile: &Profile,
    ep: &ExtTspParams,
    order: &[BlockId],
) -> u64 {
    span_score_in(program, profile, ep, order, &mut Vec::new())
}

/// [`span_score_with`] over a caller-owned address buffer. Addresses are
/// kept for the block-id range the span covers only, so scoring one
/// procedure costs O(its blocks), not O(program).
fn span_score_in(
    program: &Program,
    profile: &Profile,
    ep: &ExtTspParams,
    order: &[BlockId],
    addr: &mut Vec<u64>,
) -> u64 {
    let Some(lo) = order.iter().map(|b| b.index()).min() else {
        return 0;
    };
    let hi = order.iter().map(|b| b.index()).max().unwrap_or(lo);
    addr.clear();
    addr.resize(hi - lo + 1, u64::MAX);
    let mut cur = 0u64;
    for &b in order {
        addr[b.index() - lo] = cur;
        cur += block_bytes(program, b);
    }
    // `u64::MAX` marks ids in the range that the span does not hold.
    let addr_of = |t: BlockId| {
        t.index()
            .checked_sub(lo)
            .and_then(|i| addr.get(i))
            .copied()
            .filter(|&a| a != u64::MAX)
    };
    let mut total = 0u64;
    for (i, &src) in addr.iter().enumerate() {
        if src == u64::MAX {
            continue;
        }
        let b = BlockId((lo + i) as u32);
        let src_end = src + block_bytes(program, b);
        for t in distinct_successors(&program.block(b).term) {
            if let Some(dst) = addr_of(t) {
                total += edge_score(ep, profile.edge_count(b, t), src_end, dst);
            }
        }
    }
    total
}

/// A weighted directed edge between local block indices.
type Edge = (u32, u32, u64);

/// One live chain of local block indices during merging, stored at its
/// root: the smallest root of the chains merged into it.
struct Chain {
    blocks: Vec<u32>,
    /// Byte size of the whole chain.
    bytes: u64,
    /// Score of the chain's internal edges in its current arrangement.
    score: u64,
    /// Edges with both endpoints in the chain.
    internal: Vec<Edge>,
    /// Roots of the live chains sharing at least one edge with this one.
    nbrs: Vec<u32>,
}

/// The best way to merge a pair of chains: chain `x` (one of the pair)
/// cut before its `seam`-th block with the other chain nested there. A
/// seam at the end of `x` is a plain concatenation.
#[derive(Clone, Copy, Default)]
struct Merge {
    gain: u64,
    score: u64,
    x: u32,
    seam: usize,
}

/// Two adjacent live chains, keyed `(a, b)` with `a < b`.
struct Pair {
    /// Edges running between the two chains, in either direction.
    cross: Vec<Edge>,
    /// The cached best merge of the pair.
    merge: Merge,
}

/// Buffers reused across the procedures of one layout build.
#[derive(Default)]
struct Scratch {
    /// Local index of each block in the procedure's block-id range
    /// (`u32::MAX` for ids the procedure does not own).
    local: Vec<u32>,
    /// Address buffer of the span scorer.
    addr: Vec<u64>,
}

/// Computes the ext-TSP block order for one procedure.
///
/// The procedure's entry block is always placed first (the image address
/// of a procedure is its entry), unlike [`crate::chain_proc`], which may front a
/// hot predecessor. The merged order competes under [`span_score`] against
/// the greedy chain order (rotated to entry-first when chaining fronted a
/// predecessor), so the pass never scores below the paper's chaining on
/// the same profile.
pub fn exttsp_proc_order(program: &Program, profile: &Profile, proc: ProcId) -> Vec<BlockId> {
    exttsp_proc_order_with(program, profile, proc, &LayoutParams::default())
}

/// Computes the ext-TSP block order for one procedure under explicit
/// parameters: the objective's weights from `params.exttsp`, the
/// competing chain candidate from `params.chain`.
pub fn exttsp_proc_order_with(
    program: &Program,
    profile: &Profile,
    proc: ProcId,
    params: &LayoutParams,
) -> Vec<BlockId> {
    proc_order(program, profile, proc, params, &mut Scratch::default())
}

/// [`exttsp_proc_order_with`] over caller-owned buffers.
fn proc_order(
    program: &Program,
    profile: &Profile,
    proc: ProcId,
    params: &LayoutParams,
    scratch: &mut Scratch,
) -> Vec<BlockId> {
    let ep = &params.exttsp;
    let blocks = &program.proc(proc).blocks;
    let entry = program.proc(proc).entry;
    if blocks.len() <= 1 {
        return blocks.clone();
    }

    let lo = blocks.iter().map(|b| b.index()).min().unwrap_or(0);
    let hi = blocks.iter().map(|b| b.index()).max().unwrap_or(0);
    scratch.local.clear();
    scratch.local.resize(hi - lo + 1, u32::MAX);
    for (i, &b) in blocks.iter().enumerate() {
        scratch.local[b.index() - lo] = i as u32;
    }
    let local = &scratch.local;
    let local_of = |t: BlockId| {
        t.index()
            .checked_sub(lo)
            .and_then(|i| local.get(i))
            .copied()
            .filter(|&i| i != u32::MAX)
    };
    let sizes: Vec<u64> = blocks.iter().map(|&b| block_bytes(program, b)).collect();
    let weights: Vec<u64> = blocks.iter().map(|&b| profile.block_count(b)).collect();
    let entry_local = local_of(entry).expect("entry block belongs to its procedure");

    // Weighted intra-procedure edges in local indices, deduplicated.
    // Self edges contribute a layout-independent constant and are dropped.
    let mut edges: Vec<Edge> = Vec::new();
    for (i, &b) in blocks.iter().enumerate() {
        for t in distinct_successors(&program.block(b).term) {
            if t == b {
                continue;
            }
            if let Some(j) = local_of(t) {
                let w = profile.edge_count(b, t);
                if w > 0 {
                    edges.push((i as u32, j, w));
                }
            }
        }
    }

    let merged = merge_chains(&sizes, &edges, entry_local, &weights, ep);
    let merged_blocks: Vec<BlockId> = merged.iter().map(|&i| blocks[i as usize]).collect();
    if edges.is_empty() {
        // Only self edges can score, the same in every order, so the chain
        // candidate could only tie, and ties go to the merged order.
        return merged_blocks;
    }

    // Candidate selection under the shared scorer; the merged order wins
    // ties so the pass's own structure is preferred. Most procedures end
    // with both candidates equal, and then there is nothing to score.
    let chain = chain_proc_with(program, profile, proc, &params.chain);
    let chain_candidate = if chain[0] == entry {
        chain
    } else {
        // Chaining fronted a hot predecessor of the entry; rotate the
        // pre-entry prefix to the back so the entry leads.
        let at = chain
            .iter()
            .position(|&b| b == entry)
            .expect("entry present");
        let mut rot = chain[at..].to_vec();
        rot.extend_from_slice(&chain[..at]);
        rot
    };
    let addr = &mut scratch.addr;
    if chain_candidate != merged_blocks
        && span_score_in(program, profile, ep, &chain_candidate, addr)
            > span_score_in(program, profile, ep, &merged_blocks, addr)
    {
        chain_candidate
    } else {
        merged_blocks
    }
}

/// Greedy chain merging with score-driven merge-point selection. Returns
/// a permutation of the local indices `0..sizes.len()` with `entry_local`
/// first; `weights` are the blocks' profile counts, which order the
/// chains after the entry chain.
fn merge_chains(
    sizes: &[u64],
    edges: &[Edge],
    entry_local: u32,
    weights: &[u64],
    ep: &ExtTspParams,
) -> Vec<u32> {
    let mut m = Merger::new(sizes, edges, entry_local, ep);
    while let Some((gain, Reverse(key))) = m.heap.pop() {
        if m.pairs.get(&key).is_some_and(|p| p.merge.gain == gain) {
            m.merge(key);
        }
    }

    // Emit: entry chain first, the rest by decreasing profile weight with
    // a deterministic root tie-break.
    let entry_root = m.chain_of[entry_local as usize];
    let mut rest: Vec<(u64, u32, &Chain)> = Vec::new();
    let mut out: Vec<u32> = Vec::with_capacity(sizes.len());
    for (root, c) in m.chains.iter().enumerate() {
        let Some(c) = c else { continue };
        if root as u32 == entry_root {
            out.extend_from_slice(&c.blocks);
        } else {
            let w = c.blocks.iter().map(|&i| weights[i as usize]).sum();
            rest.push((w, root as u32, c));
        }
    }
    rest.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    for (_, _, c) in rest {
        out.extend_from_slice(&c.blocks);
    }
    debug_assert_eq!(out.len(), sizes.len());
    debug_assert_eq!(out[0], entry_local);
    out
}

/// The chain-merging state of one procedure (the module docs describe
/// the data structures). A heap entry is live only while its pair exists
/// and still caches the entry's gain; [`merge_chains`] skips the rest.
struct Merger<'a> {
    sizes: &'a [u64],
    ep: &'a ExtTspParams,
    entry_local: u32,
    /// Live chains at their roots; `None` once merged away.
    chains: Vec<Option<Chain>>,
    /// The root of the live chain holding each block.
    chain_of: Vec<u32>,
    /// Each block's byte offset inside its chain.
    offset: Vec<u64>,
    /// Each block's index inside its chain.
    rank: Vec<u32>,
    /// Adjacent pairs by key. Only ever looked up, never iterated, so the
    /// map's order cannot reach the layout.
    pairs: HashMap<(u32, u32), Pair>,
    heap: BinaryHeap<(u64, Reverse<(u32, u32)>)>,
    /// Per-seam difference arrays of [`Merger::best_merge`].
    dropped: Vec<u64>,
    added: Vec<u64>,
}

impl<'a> Merger<'a> {
    /// One chain per block, one pair per pair of blocks sharing an edge,
    /// every pair scored.
    fn new(sizes: &'a [u64], edges: &[Edge], entry_local: u32, ep: &'a ExtTspParams) -> Self {
        let n = sizes.len();
        let mut m = Merger {
            sizes,
            ep,
            entry_local,
            chains: (0..n)
                .map(|i| {
                    Some(Chain {
                        blocks: vec![i as u32],
                        bytes: sizes[i],
                        score: 0,
                        internal: Vec::new(),
                        nbrs: Vec::new(),
                    })
                })
                .collect(),
            chain_of: (0..n as u32).collect(),
            offset: vec![0; n],
            rank: vec![0; n],
            pairs: HashMap::new(),
            heap: BinaryHeap::new(),
            dropped: Vec::new(),
            added: Vec::new(),
        };
        let mut keys: Vec<(u32, u32)> = Vec::new();
        for &e in edges {
            let key = (e.0.min(e.1), e.0.max(e.1));
            let pair = m.pairs.entry(key).or_insert_with(|| {
                keys.push(key);
                Pair {
                    cross: Vec::new(),
                    merge: Merge::default(),
                }
            });
            pair.cross.push(e);
        }
        for &(a, b) in &keys {
            m.chain_mut(a).nbrs.push(b);
            m.chain_mut(b).nbrs.push(a);
            m.rescore((a, b));
        }
        m
    }

    fn chain_mut(&mut self, root: u32) -> &mut Chain {
        self.chains[root as usize].as_mut().expect("live chain")
    }

    /// Recomputes a pair's best merge and queues it when it gains.
    fn rescore(&mut self, key: (u32, u32)) {
        let m = self.best_merge(key);
        self.pairs.get_mut(&key).expect("adjacent pair").merge = m;
        if m.gain > 0 {
            self.heap.push((m.gain, Reverse(key)));
        }
    }

    /// Applies pair `(a, b)`'s cached merge: the merged chain lives on at
    /// `a`, `b`'s pairs move onto `a`, and every pair of `a` is re-scored.
    fn merge(&mut self, (a, b): (u32, u32)) {
        let Pair { cross, merge: m } = self.pairs.remove(&(a, b)).expect("adjacent pair");
        let ca = self.chains[a as usize].take().expect("live chain");
        let cb = self.chains[b as usize].take().expect("live chain");

        let (x, y) = if m.x == a { (&ca, &cb) } else { (&cb, &ca) };
        let mut blocks = Vec::with_capacity(x.blocks.len() + y.blocks.len());
        blocks.extend_from_slice(&x.blocks[..m.seam]);
        blocks.extend_from_slice(&y.blocks);
        blocks.extend_from_slice(&x.blocks[m.seam..]);
        let mut cur = 0u64;
        for (i, &v) in blocks.iter().enumerate() {
            self.chain_of[v as usize] = a;
            self.offset[v as usize] = cur;
            self.rank[v as usize] = i as u32;
            cur += self.sizes[v as usize];
        }
        let mut internal = ca.internal;
        internal.extend(cb.internal);
        internal.extend(cross);

        // Move b's pairs onto a, folding cross edges into existing pairs.
        let mut nbrs = ca.nbrs;
        nbrs.retain(|&c| c != b);
        for c in cb.nbrs {
            if c == a {
                continue;
            }
            let moved = self
                .pairs
                .remove(&(b.min(c), b.max(c)))
                .expect("adjacent pair")
                .cross;
            let cc = self.chains[c as usize].as_mut().expect("live chain");
            cc.nbrs.retain(|&d| d != b);
            let pair = self.pairs.entry((a.min(c), a.max(c))).or_insert_with(|| {
                nbrs.push(c);
                cc.nbrs.push(a);
                Pair {
                    cross: Vec::new(),
                    merge: Merge::default(),
                }
            });
            pair.cross.extend(moved);
        }
        self.chains[a as usize] = Some(Chain {
            blocks,
            bytes: ca.bytes + cb.bytes,
            score: m.score,
            internal,
            nbrs: Vec::new(),
        });
        for &c in &nbrs {
            self.rescore((a.min(c), a.max(c)));
        }
        self.chain_mut(a).nbrs = nbrs;
    }

    /// The best-scoring way to merge the live chains of pair `(a, b)`. The
    /// entry must stay at the head of its chain.
    ///
    /// Candidates, in tie-break order (the first of equal scores wins): `a`
    /// then `b`, `b` then `a`, `b` nested at each inner seam of `a`, `a`
    /// nested at each inner seam of `b` — the nestings only for chains of
    /// at most `split_cap` blocks. No candidate is materialized: block
    /// positions follow from the chains' byte offsets and the seam.
    ///
    /// A chain moved whole keeps its internal score. When `y` is nested in
    /// `x`, an internal edge of `x` changes score only if it spans the
    /// seam, and then by the same amount at every seam it spans (its ends
    /// move `y.bytes` apart). Each internal edge is therefore scored twice
    /// per cut chain, its change spread over its seams through difference
    /// arrays; only the pair's cross edges are scored per candidate.
    fn best_merge(&mut self, (a, b): (u32, u32)) -> Merge {
        let Merger {
            sizes,
            ep,
            entry_local,
            chains,
            chain_of,
            offset,
            rank,
            pairs,
            dropped,
            added,
            ..
        } = self;
        let (sizes, ep, entry_local) = (*sizes, *ep, *entry_local);
        let cross = &pairs[&(a, b)].cross;
        let ca = chains[a as usize].as_ref().expect("live chain");
        let cb = chains[b as usize].as_ref().expect("live chain");
        let entry_root = chain_of[entry_local as usize];
        let has_entry = a == entry_root || b == entry_root;
        let admissible = |x: &Chain| !has_entry || x.blocks[0] == entry_local;

        // Score of the cross edges with `y` inserted at byte `cut` of `x`.
        let cross_score = |x_root: u32, y: &Chain, cut: u64| -> u64 {
            let pos = |v: u32| {
                let off = offset[v as usize];
                if chain_of[v as usize] != x_root {
                    cut + off
                } else if off >= cut {
                    off + y.bytes
                } else {
                    off
                }
            };
            cross
                .iter()
                .map(|&(f, t, w)| edge_score(ep, w, pos(f) + sizes[f as usize], pos(t)))
                .sum()
        };

        let mut best: Option<Merge> = None;
        let mut offer = |score: u64, x: u32, seam: usize| {
            if best.is_none_or(|m| score > m.score) {
                best = Some(Merge {
                    gain: 0,
                    score,
                    x,
                    seam,
                });
            }
        };
        for (x_root, x, y) in [(a, ca, cb), (b, cb, ca)] {
            if admissible(x) {
                let score = x.score + y.score + cross_score(x_root, y, x.bytes);
                offer(score, x_root, x.blocks.len());
            }
        }
        for (x_root, x, y) in [(a, ca, cb), (b, cb, ca)] {
            let len = x.blocks.len();
            if len as u64 > ep.split_cap || !admissible(x) {
                continue;
            }
            dropped.clear();
            dropped.resize(len + 1, 0);
            added.clear();
            added.resize(len + 1, 0);
            for &(f, t, w) in &x.internal {
                let (fo, to) = (offset[f as usize], offset[t as usize]);
                let f_end = fo + sizes[f as usize];
                let (rf, rt) = (rank[f as usize], rank[t as usize]);
                let old = edge_score(ep, w, f_end, to);
                let new = if rf > rt {
                    edge_score(ep, w, f_end + y.bytes, to)
                } else {
                    edge_score(ep, w, f_end, to + y.bytes)
                };
                // The edge spans seams rf.min(rt) + 1 ..= rf.max(rt).
                let (lo, hi) = (rf.min(rt) as usize + 1, rf.max(rt) as usize + 1);
                dropped[lo] = dropped[lo].wrapping_add(old);
                dropped[hi] = dropped[hi].wrapping_sub(old);
                added[lo] = added[lo].wrapping_add(new);
                added[hi] = added[hi].wrapping_sub(new);
            }
            let (mut lost, mut won) = (0u64, 0u64);
            for seam in 1..len {
                lost = lost.wrapping_add(dropped[seam]);
                won = won.wrapping_add(added[seam]);
                let cut = offset[x.blocks[seam] as usize];
                let score = x.score - lost + won + y.score + cross_score(x_root, y, cut);
                offer(score, x_root, seam);
            }
        }

        let mut m = best.expect("the entry chain leads at least one candidate");
        m.gain = m.score.saturating_sub(ca.score + cb.score);
        m
    }
}

/// Builds the whole-program ext-TSP layout: per-procedure ext-TSP block
/// orders, procedures kept contiguous and arranged by Pettis–Hansen call
/// ordering (the same procedure placement the paper's `chain+porder`
/// series uses, so series differ only in the intra-procedure objective).
pub fn exttsp_layout(program: &Program, profile: &Profile) -> Layout {
    exttsp_layout_with(program, profile, &LayoutParams::default())
}

/// Builds the whole-program ext-TSP layout under explicit parameters.
pub fn exttsp_layout_with(program: &Program, profile: &Profile, params: &LayoutParams) -> Layout {
    let _span = codelayout_obs::span("exttsp");
    let mut scratch = Scratch::default();
    let orders: Vec<Vec<BlockId>> = (0..program.procs.len())
        .map(|p| proc_order(program, profile, ProcId(p as u32), params, &mut scratch))
        .collect();
    let w = profile.proc_call_weights(program);
    let proc_order = pettis_hansen_order(
        program.procs.len(),
        w.into_iter().map(|((a, b), c)| (a, b, c)),
    );
    let order = proc_order
        .into_iter()
        .flat_map(|p| orders[p as usize].iter().copied())
        .collect();
    Layout { order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::chain_proc;
    use codelayout_ir::testgen::{random_program, GenConfig};
    use codelayout_ir::{verify_layout, Cond, Operand, ProcBuilder, ProgramBuilder, Reg};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The chaining fixture: entry(b0) -> hot(b1)/cold(b2); both join at
    /// b3; b3 loops to b0 or exits to b4.
    fn fig1_program() -> Program {
        let mut pb = ProgramBuilder::new("fig1");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let b0 = f.entry();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let b4 = f.new_block();
        f.select(b0);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), b1, b2);
        f.select(b1);
        f.nop();
        f.jump(b3);
        f.select(b2);
        f.nop();
        f.jump(b3);
        f.select(b3);
        f.branch(Cond::Gt, Reg(2), Operand::Imm(0), b0, b4);
        f.select(b4);
        f.halt();
        pb.define_proc(main, f).unwrap();
        pb.finish(main).unwrap()
    }

    fn fig1_profile() -> Profile {
        let mut p = Profile::new(5);
        p.block_counts = vec![100, 90, 10, 100, 50];
        p.edge_counts.insert((0, 1), 90);
        p.edge_counts.insert((0, 2), 10);
        p.edge_counts.insert((1, 3), 90);
        p.edge_counts.insert((2, 3), 10);
        p.edge_counts.insert((3, 0), 50);
        p.edge_counts.insert((3, 4), 50);
        p
    }

    #[test]
    fn fallthrough_outscores_short_jumps() {
        let ep = ExtTspParams::default();
        assert_eq!(edge_score(&ep, 10, 100, 100), 10 * SCORE_SCALE);
        // Forward jump inside the window scores a fraction of 0.1 * w.
        let fwd = edge_score(&ep, 10, 100, 200);
        assert!(fwd > 0 && fwd < 10 * ep.jump_weight);
        // Backward jumps have the tighter window.
        assert_eq!(edge_score(&ep, 10, 100 + BACKWARD_WINDOW, 100), 0);
        assert!(edge_score(&ep, 10, 100 + BACKWARD_WINDOW - 4, 100) > 0);
        // Outside both windows: nothing.
        assert_eq!(edge_score(&ep, 10, 100, 100 + FORWARD_WINDOW), 0);
    }

    #[test]
    fn parameterized_windows_move_the_score() {
        let ep = ExtTspParams {
            forward_window: 64,
            ..ExtTspParams::default()
        };
        // A 100-byte forward jump scores under the default window but not
        // under the shrunk one.
        assert!(edge_score(&ExtTspParams::default(), 10, 100, 200) > 0);
        assert_eq!(edge_score(&ep, 10, 100, 200), 0);
        // Defaults keep the legacy order bit-identical.
        let prog = fig1_program();
        let prof = fig1_profile();
        assert_eq!(
            exttsp_proc_order_with(&prog, &prof, ProcId(0), &LayoutParams::default()),
            exttsp_proc_order(&prog, &prof, ProcId(0))
        );
    }

    #[test]
    fn hot_path_is_sequential_and_entry_leads() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let order = exttsp_proc_order(&prog, &prof, ProcId(0));
        let mut sorted: Vec<u32> = order.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], BlockId(0), "entry first: {order:?}");
        let pos: Vec<usize> = {
            let mut v = vec![0; 5];
            for (i, b) in order.iter().enumerate() {
                v[b.index()] = i;
            }
            v
        };
        assert_eq!(pos[1], pos[0] + 1, "hot arm falls through: {order:?}");
        assert_eq!(pos[3], pos[1] + 1, "join follows hot arm: {order:?}");
    }

    #[test]
    fn scores_at_least_the_chain_order() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let ours = exttsp_proc_order(&prog, &prof, ProcId(0));
        let chain = chain_proc(&prog, &prof, ProcId(0));
        assert!(
            span_score(&prog, &prof, &ours) >= span_score(&prog, &prof, &chain),
            "ext-TSP {ours:?} scored below chaining {chain:?}"
        );
    }

    #[test]
    fn layout_is_valid_and_score_sums_over_procs() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let layout = exttsp_layout(&prog, &prof);
        verify_layout(&prog, &layout).unwrap();
        assert_eq!(
            exttsp_score(&prog, &prof, &layout),
            span_score(&prog, &prof, &layout.order)
        );
    }

    #[test]
    fn zero_profile_is_still_an_entry_first_permutation() {
        let prog = fig1_program();
        let prof = Profile::new(5);
        let order = exttsp_proc_order(&prog, &prof, ProcId(0));
        let mut sorted: Vec<u32> = order.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], BlockId(0));
    }

    /// Programs with procedures long enough to grow multi-block chains.
    fn gen_config() -> GenConfig {
        GenConfig {
            procs: 6,
            max_blocks: 24,
            ..GenConfig::default()
        }
    }

    /// A random (not necessarily flow-consistent) profile; about a fifth
    /// of the edges stay unprofiled.
    fn random_profile(program: &Program, seed: u64) -> Profile {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Profile::new(program.blocks.len());
        for c in &mut p.block_counts {
            *c = rng.gen_range(0..1000);
        }
        for (bi, b) in program.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if rng.gen_range(0..5) > 0 {
                    p.edge_counts
                        .insert((bi as u32, s.0), rng.gen_range(1..500));
                }
            }
        }
        p
    }

    /// The objective by its whole-program definition: an address vector
    /// over every block of the program, in which each placed block scores
    /// its distinct out-edges to placed blocks.
    fn whole_program_score(
        program: &Program,
        profile: &Profile,
        ep: &ExtTspParams,
        order: &[BlockId],
    ) -> u64 {
        let mut addr = vec![u64::MAX; program.blocks.len()];
        let mut cur = 0u64;
        for &b in order {
            addr[b.index()] = cur;
            cur += block_bytes(program, b);
        }
        let mut total = 0u64;
        for (bi, blk) in program.blocks.iter().enumerate() {
            if addr[bi] == u64::MAX {
                continue;
            }
            let b = BlockId(bi as u32);
            let src_end = addr[bi] + block_bytes(program, b);
            let mut seen: Vec<BlockId> = Vec::new();
            for t in blk.term.successors() {
                if seen.contains(&t) || addr[t.index()] == u64::MAX {
                    continue;
                }
                seen.push(t);
                total += edge_score(ep, profile.edge_count(b, t), src_end, addr[t.index()]);
            }
        }
        total
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The span-local scorer agrees with the whole-program definition
        /// on every procedure's natural and ext-TSP orders, on the whole
        /// layout, and on arbitrary sub-spans of the layout and of a
        /// random permutation of all blocks.
        #[test]
        fn span_score_matches_whole_program_definition(
            seed in 0u64..10_000,
            pseed in 0u64..1_000,
            jump_weight in 0u64..400,
            forward_window in 1u64..3_000,
            backward_window in 1u64..3_000,
            cut_seed in 0u64..1_000,
        ) {
            let program = random_program(seed, &gen_config());
            let profile = random_profile(&program, pseed);
            let ep = ExtTspParams {
                jump_weight,
                forward_window,
                backward_window,
                ..ExtTspParams::default()
            };
            let check = |order: &[BlockId]| {
                assert_eq!(
                    span_score_with(&program, &profile, &ep, order),
                    whole_program_score(&program, &profile, &ep, order),
                    "seed {seed}/{pseed}, span {order:?}"
                );
            };
            for (pi, proc) in program.procs.iter().enumerate() {
                check(&proc.blocks);
                check(&exttsp_proc_order(&program, &profile, ProcId(pi as u32)));
            }
            let layout = exttsp_layout(&program, &profile);
            prop_assert_eq!(
                exttsp_score_with(&program, &profile, &ep, &layout),
                whole_program_score(&program, &profile, &ep, &layout.order)
            );
            let mut shuffled = layout.order.clone();
            let mut rng = StdRng::seed_from_u64(cut_seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            for order in [&layout.order, &shuffled] {
                for _ in 0..8 {
                    let a = rng.gen_range(0..=order.len());
                    let b = rng.gen_range(0..=order.len());
                    check(&order[a.min(b)..a.max(b)]);
                }
            }
        }

        /// The whole-layout score of a procedure-contiguous layout is the
        /// sum of its procedures' span scores.
        #[test]
        fn proc_span_scores_sum_to_the_layout_score(seed in 0u64..10_000, pseed in 0u64..1_000) {
            let program = random_program(seed, &gen_config());
            let profile = random_profile(&program, pseed);
            let layout = exttsp_layout(&program, &profile);
            let per_proc: u64 = (0..program.procs.len())
                .map(|p| span_score(&program, &profile, &exttsp_proc_order(&program, &profile, ProcId(p as u32))))
                .sum();
            prop_assert_eq!(per_proc, exttsp_score(&program, &profile, &layout));
        }
    }

    #[test]
    fn equal_gain_merges_go_to_the_smallest_pair() {
        // Entry 0 branches to 1, 2 and 3 with equal weight and equal block
        // sizes, so every pair (0, k) gains one fall-through. The smallest
        // pair merges first, and each later merge again ties on gain and
        // goes to the smallest remaining pair: 0 1 2 3. Listing the edges
        // in the opposite order must not change that.
        let ep = ExtTspParams::default();
        let sizes = [8u64; 4];
        let weights = [0u64; 4];
        let fwd = vec![(0, 1, 10), (0, 2, 10), (0, 3, 10)];
        let rev: Vec<Edge> = fwd.iter().rev().copied().collect();
        for edges in [fwd, rev] {
            assert_eq!(
                merge_chains(&sizes, &edges, 0, &weights, &ep),
                vec![0, 1, 2, 3]
            );
        }

        // The same fan-out away from the entry: block 1 branches to 2 and
        // 3. Merging (1, 2) first ends 1 2 3; merging (1, 3) first would
        // end 1 3 2.
        let edges = vec![(1, 3, 10), (1, 2, 10)];
        assert_eq!(
            merge_chains(&sizes, &edges, 0, &weights, &ep),
            vec![0, 1, 2, 3]
        );
    }
}
