//! Multilevel nested-dissection fill-reducing ordering.
//!
//! [`nd_order`] computes a nested-dissection elimination order of the
//! symmetrized pattern: recursively split the graph by a small vertex
//! separator, order the two halves first and the separator last. On
//! the 2-D/3-D meshed patterns this stack factors, the separator tree
//! yields asymptotically lower fill than minimum degree and — more
//! importantly at n ≈ 10⁵–10⁶ — costs O(|E| log n) to compute, far
//! below AMD's quotient-graph elimination, which dominates cold
//! factors past n ≈ 5·10⁴.
//!
//! Per dissection level this is the classical multilevel scheme:
//! heavy-edge-matching coarsening until the graph is small, a BFS
//! level-structure bisection of the coarsest graph seeded from a
//! pseudo-peripheral vertex, Fiduccia–Mattheyses-style boundary
//! refinement while projecting back up, then a greedy vertex cover of
//! the refined edge cut as the separator. Subgraphs below
//! [`ND_LEAF`] vertices are ordered with [`amd_order`] (minimum
//! degree is better on small irregular blocks). Every loop is
//! index-ordered with deterministic tie-breaks, so the result is a
//! pure function of the pattern — the property the pattern-keyed
//! ordering cache and the bit-identical differential tests rely on.

use super::{amd_order, is_permutation};

/// Subgraphs at or below this size are ordered with AMD instead of
/// being dissected further.
pub const ND_LEAF: usize = 128;

/// Coarsest-graph size: heavy-edge matching stops here and the level
/// bisection runs directly.
const COARSE_TARGET: usize = 192;

/// Coarsening that shrinks the vertex count by less than this factor
/// has stalled (matchings collapse on star-like graphs); bisect at
/// the current size instead of looping.
const COARSE_STALL: f64 = 0.95;

/// Each bisection side must keep at least this fraction of the total
/// vertex weight during refinement.
const BALANCE_MIN: f64 = 0.42;

/// Computes a nested-dissection elimination order for the pattern of
/// a square CSC matrix (values irrelevant; the pattern is symmetrized
/// and the diagonal ignored). Same contract as
/// [`amd_order`]: `perm[k]` is the original column
/// eliminated at step `k`, always a valid permutation of `0..n`;
/// out-of-range row indices are ignored.
pub fn nd_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let (ptr, adj) = symmetrized_csr(n, col_ptr, row_idx);
    let mut out = Vec::with_capacity(n);
    let (cptr, cadj, cids) = peel(&ptr, &adj, &mut out);
    dissect(&cptr, &cadj, &cids, &mut out);
    debug_assert!(is_permutation(&out, n));
    out
}

/// Eliminates vertices of (dynamic) degree ≤ 2 up front: degree-0/1
/// vertices add no fill at all, and a degree-2 vertex adds at most
/// one edge (its neighbors get connected) — exactly the openings
/// minimum degree would take, at O(|E|) total cost. On the MNA
/// patterns this strips the per-edge velocity/force branch chains,
/// leaving the clean mesh core (typically 5–7× smaller) for
/// dissection — which makes the ordering both faster and better: the
/// separators then cut the mesh, not the chains. Peeled vertices are
/// appended to `out` in elimination order; returns the core subgraph
/// (CSR + global ids) that remains.
fn peel(
    ptr: &[usize],
    adj: &[usize],
    out: &mut Vec<usize>,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let nv = ptr.len() - 1;
    let mut nbrs: Vec<Vec<usize>> = (0..nv).map(|v| adj[ptr[v]..ptr[v + 1]].to_vec()).collect();
    let mut alive = vec![true; nv];
    let mut inq = vec![false; nv];
    let mut queue = std::collections::VecDeque::new();
    for v in 0..nv {
        if nbrs[v].len() <= 2 {
            queue.push_back(v);
            inq[v] = true;
        }
    }
    while let Some(v) = queue.pop_front() {
        inq[v] = false;
        if !alive[v] || nbrs[v].len() > 2 {
            continue;
        }
        alive[v] = false;
        out.push(v);
        let ns = std::mem::take(&mut nbrs[v]);
        for &u in &ns {
            if alive[u] {
                nbrs[u].retain(|&x| x != v);
            }
        }
        let live: Vec<usize> = ns.into_iter().filter(|&u| alive[u]).collect();
        if let [a, b] = live[..] {
            // Degree-2 elimination connects the two neighbors.
            if !nbrs[a].contains(&b) {
                nbrs[a].push(b);
                nbrs[b].push(a);
            }
        }
        for &u in &live {
            if nbrs[u].len() <= 2 && !inq[u] {
                queue.push_back(u);
                inq[u] = true;
            }
        }
    }
    let mut local = vec![usize::MAX; nv];
    let mut cids = Vec::new();
    for v in 0..nv {
        if alive[v] {
            local[v] = cids.len();
            cids.push(v);
        }
    }
    let mut cptr = Vec::with_capacity(cids.len() + 1);
    cptr.push(0usize);
    let mut cadj = Vec::new();
    for &v in &cids {
        let start = cadj.len();
        cadj.extend(nbrs[v].iter().map(|&u| local[u]));
        cadj[start..].sort_unstable();
        cptr.push(cadj.len());
    }
    (cptr, cadj, cids)
}

/// Symmetrized adjacency (A + Aᵀ, no diagonal, deduplicated) in CSR
/// form, built with two counting passes — no per-vertex allocations,
/// which matters at n ≈ 10⁶.
fn symmetrized_csr(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let ncols = n.min(col_ptr.len().saturating_sub(1));
    let mut deg = vec![0usize; n];
    for j in 0..ncols {
        for p in col_ptr[j]..col_ptr[j + 1].min(row_idx.len()) {
            let i = row_idx[p];
            if i < n && i != j {
                deg[i] += 1;
                deg[j] += 1;
            }
        }
    }
    let mut ptr = vec![0usize; n + 1];
    for v in 0..n {
        ptr[v + 1] = ptr[v] + deg[v];
    }
    let mut adj = vec![0usize; ptr[n]];
    let mut next = ptr.clone();
    for j in 0..ncols {
        for p in col_ptr[j]..col_ptr[j + 1].min(row_idx.len()) {
            let i = row_idx[p];
            if i < n && i != j {
                adj[next[i]] = j;
                next[i] += 1;
                adj[next[j]] = i;
                next[j] += 1;
            }
        }
    }
    // Sort + dedup each list in place (duplicate stamps and the
    // A/Aᵀ overlap both produce repeats).
    let mut w = 0usize;
    let mut new_ptr = vec![0usize; n + 1];
    for v in 0..n {
        let (lo, hi) = (ptr[v], ptr[v + 1]);
        adj[lo..hi].sort_unstable();
        let mut r = lo;
        let start = w;
        while r < hi {
            if r == lo || adj[r] != adj[r - 1] {
                adj[w] = adj[r];
                w += 1;
            }
            r += 1;
        }
        new_ptr[v] = start;
        new_ptr[v + 1] = w;
    }
    adj.truncate(w);
    (new_ptr, adj)
}

/// Recursive dissection of the subgraph `(ptr, adj)` whose local
/// vertex `v` is global vertex `ids[v]`; appends the elimination
/// order (global ids) to `out`.
fn dissect(ptr: &[usize], adj: &[usize], ids: &[usize], out: &mut Vec<usize>) {
    let nv = ids.len();
    if nv <= ND_LEAF {
        leaf_amd(ptr, adj, ids, out);
        return;
    }
    let part = bisect(ptr, adj);
    let sep = vertex_separator(ptr, adj, &part);
    let mut counts = [0usize; 3]; // [part 0, part 1, separator]
    for v in 0..nv {
        counts[if sep[v] { 2 } else { part[v] as usize }] += 1;
    }
    // A degenerate split (empty side, or a separator that swallowed
    // most of the graph) would recurse without progress — minimum
    // degree handles whatever shape caused it.
    if counts[0] == 0 || counts[1] == 0 || counts[2] * 2 >= nv {
        leaf_amd(ptr, adj, ids, out);
        return;
    }
    for side in 0..2u8 {
        let (sptr, sadj, sids) = subgraph(ptr, adj, ids, |v| !sep[v] && part[v] == side);
        dissect(&sptr, &sadj, &sids, out);
    }
    // Separator vertices eliminate last, in ascending id order.
    for v in 0..nv {
        if sep[v] {
            out.push(ids[v]);
        }
    }
}

/// Orders a small subgraph with AMD; the subgraph CSR doubles as a
/// (symmetric) CSC pattern.
fn leaf_amd(ptr: &[usize], adj: &[usize], ids: &[usize], out: &mut Vec<usize>) {
    let perm = amd_order(ids.len(), ptr, adj);
    out.extend(perm.into_iter().map(|k| ids[k]));
}

/// Extracts the vertex-induced subgraph of local vertices satisfying
/// `keep`, renumbered compactly (ascending), dropping edges that
/// leave the subset.
fn subgraph(
    ptr: &[usize],
    adj: &[usize],
    ids: &[usize],
    keep: impl Fn(usize) -> bool,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let nv = ids.len();
    let mut local = vec![usize::MAX; nv];
    let mut sids = Vec::new();
    for v in 0..nv {
        if keep(v) {
            local[v] = sids.len();
            sids.push(ids[v]);
        }
    }
    let mut sptr = Vec::with_capacity(sids.len() + 1);
    sptr.push(0usize);
    let mut sadj = Vec::new();
    for v in 0..nv {
        if local[v] == usize::MAX {
            continue;
        }
        for &u in &adj[ptr[v]..ptr[v + 1]] {
            if local[u] != usize::MAX {
                sadj.push(local[u]);
            }
        }
        sptr.push(sadj.len());
    }
    (sptr, sadj, sids)
}

/// Greedy vertex cover of the bisection's cut edges: every cut edge
/// gets the endpoint with more cut incidences (ties to the smaller
/// index), giving a vertex separator whose removal disconnects the
/// two sides.
fn vertex_separator(ptr: &[usize], adj: &[usize], part: &[u8]) -> Vec<bool> {
    let nv = part.len();
    let mut cutdeg = vec![0u32; nv];
    for v in 0..nv {
        for &u in &adj[ptr[v]..ptr[v + 1]] {
            if part[u] != part[v] {
                cutdeg[v] += 1;
            }
        }
    }
    let mut sep = vec![false; nv];
    for v in 0..nv {
        for &u in &adj[ptr[v]..ptr[v + 1]] {
            if u <= v || part[u] == part[v] || sep[v] || sep[u] {
                continue;
            }
            let pick = match cutdeg[v].cmp(&cutdeg[u]) {
                std::cmp::Ordering::Greater => v,
                std::cmp::Ordering::Less => u,
                std::cmp::Ordering::Equal => v.min(u),
            };
            sep[pick] = true;
        }
    }
    // Trim: a separator vertex with no non-separator neighbor on the
    // opposite side is not needed to disconnect the parts — return it
    // to its own side. Two passes catch cascades from the first.
    for _ in 0..2 {
        let mut trimmed = false;
        for v in 0..nv {
            if !sep[v] {
                continue;
            }
            let needed = adj[ptr[v]..ptr[v + 1]]
                .iter()
                .any(|&u| !sep[u] && part[u] != part[v]);
            if !needed {
                sep[v] = false;
                trimmed = true;
            }
        }
        if !trimmed {
            break;
        }
    }
    sep
}

/// Edge bisection of the (unit-weight) subgraph: multilevel coarsen /
/// bisect / refine. Returns a side label per vertex.
fn bisect(ptr: &[usize], adj: &[usize]) -> Vec<u8> {
    let nv = ptr.len() - 1;
    let vwgt = vec![1usize; nv];
    let ewgt = vec![1usize; adj.len()];
    multilevel_bisect(ptr, adj, &vwgt, &ewgt)
}

fn multilevel_bisect(ptr: &[usize], adj: &[usize], vwgt: &[usize], ewgt: &[usize]) -> Vec<u8> {
    let nv = ptr.len() - 1;
    if nv > COARSE_TARGET {
        let (cmap, ncoarse) = hem_match(ptr, adj, ewgt);
        if (ncoarse as f64) < COARSE_STALL * nv as f64 {
            let (cptr, cadj, cvw, cew) = coarsen(ptr, adj, vwgt, ewgt, &cmap, ncoarse);
            let cpart = multilevel_bisect(&cptr, &cadj, &cvw, &cew);
            let mut part: Vec<u8> = (0..nv).map(|v| cpart[cmap[v]]).collect();
            fm_refine(ptr, adj, vwgt, ewgt, &mut part, 3);
            return part;
        }
    }
    let mut part = level_bisect(ptr, adj, vwgt);
    fm_refine(ptr, adj, vwgt, ewgt, &mut part, 4);
    part
}

/// Heavy-edge matching: visit vertices in index order, matching each
/// unmatched vertex with its unmatched neighbor of maximum edge
/// weight (ties to the smaller index). Returns the fine→coarse map
/// and the coarse vertex count.
fn hem_match(ptr: &[usize], adj: &[usize], ewgt: &[usize]) -> (Vec<usize>, usize) {
    let nv = ptr.len() - 1;
    let mut cmap = vec![usize::MAX; nv];
    let mut ncoarse = 0usize;
    for v in 0..nv {
        if cmap[v] != usize::MAX {
            continue;
        }
        let mut best = usize::MAX;
        let mut best_w = 0usize;
        for (p, &u) in adj[ptr[v]..ptr[v + 1]].iter().enumerate() {
            let w = ewgt[ptr[v] + p];
            if cmap[u] == usize::MAX && u != v && (w > best_w || (w == best_w && u < best)) {
                best = u;
                best_w = w;
            }
        }
        cmap[v] = ncoarse;
        if best != usize::MAX {
            cmap[best] = ncoarse;
        }
        ncoarse += 1;
    }
    (cmap, ncoarse)
}

/// Contracts matched pairs into the coarse graph, summing vertex and
/// parallel-edge weights.
#[allow(clippy::type_complexity)]
fn coarsen(
    ptr: &[usize],
    adj: &[usize],
    vwgt: &[usize],
    ewgt: &[usize],
    cmap: &[usize],
    ncoarse: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) {
    let nv = ptr.len() - 1;
    let mut cvw = vec![0usize; ncoarse];
    for v in 0..nv {
        cvw[cmap[v]] += vwgt[v];
    }
    // Members of each coarse vertex, in fine-index order.
    let mut head = vec![0usize; ncoarse + 1];
    for v in 0..nv {
        head[cmap[v] + 1] += 1;
    }
    for c in 0..ncoarse {
        head[c + 1] += head[c];
    }
    let mut members = vec![0usize; nv];
    let mut cursor = head.clone();
    for v in 0..nv {
        members[cursor[cmap[v]]] = v;
        cursor[cmap[v]] += 1;
    }

    let mut cptr = Vec::with_capacity(ncoarse + 1);
    cptr.push(0usize);
    let mut cadj = Vec::new();
    let mut cew = Vec::new();
    // Dense scratch: where[c] = position of coarse neighbor c in the
    // current row, valid when stamped.
    let mut slot = vec![usize::MAX; ncoarse];
    let mut stamp = vec![usize::MAX; ncoarse];
    for c in 0..ncoarse {
        let row_start = cadj.len();
        for &v in &members[head[c]..head[c + 1]] {
            for (p, &u) in adj[ptr[v]..ptr[v + 1]].iter().enumerate() {
                let cu = cmap[u];
                if cu == c {
                    continue;
                }
                let w = ewgt[ptr[v] + p];
                if stamp[cu] == c {
                    cew[slot[cu]] += w;
                } else {
                    stamp[cu] = c;
                    slot[cu] = cadj.len();
                    cadj.push(cu);
                    cew.push(w);
                }
            }
        }
        // Deterministic neighbor order regardless of member order.
        let mut row: Vec<(usize, usize)> = cadj[row_start..]
            .iter()
            .zip(&cew[row_start..])
            .map(|(&a, &w)| (a, w))
            .collect();
        row.sort_unstable();
        for (k, (a, w)) in row.into_iter().enumerate() {
            cadj[row_start + k] = a;
            cew[row_start + k] = w;
        }
        cptr.push(cadj.len());
    }
    (cptr, cadj, cvw, cew)
}

/// Initial bisection from a BFS level structure: find a
/// pseudo-peripheral start (two BFS sweeps from the minimum-degree
/// vertex), then assign vertices to side 0 in BFS order until half
/// the total weight is covered. Unreachable vertices (disconnected
/// components) append after the reachable ones in index order.
fn level_bisect(ptr: &[usize], adj: &[usize], vwgt: &[usize]) -> Vec<u8> {
    let nv = ptr.len() - 1;
    let start = (0..nv)
        .min_by_key(|&v| (ptr[v + 1] - ptr[v], v))
        .unwrap_or(0);
    let order0 = bfs_order(ptr, adj, start);
    let far = *order0.last().expect("nonempty graph");
    let order = bfs_order(ptr, adj, far);
    let total: usize = vwgt.iter().sum();
    let mut part = vec![1u8; nv];
    let mut acc = 0usize;
    for &v in &order {
        if acc * 2 >= total {
            break;
        }
        part[v] = 0;
        acc += vwgt[v];
    }
    part
}

/// BFS visit order from `start`, with unreached vertices appended in
/// index order (each starts a fresh component sweep).
fn bfs_order(ptr: &[usize], adj: &[usize], start: usize) -> Vec<usize> {
    let nv = ptr.len() - 1;
    let mut seen = vec![false; nv];
    let mut order = Vec::with_capacity(nv);
    let mut queue = std::collections::VecDeque::new();
    let mut next_unseen = 0usize;
    let mut seed = start;
    loop {
        if !seen[seed] {
            seen[seed] = true;
            queue.push_back(seed);
        }
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in &adj[ptr[v]..ptr[v + 1]] {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        while next_unseen < nv && seen[next_unseen] {
            next_unseen += 1;
        }
        if next_unseen == nv {
            return order;
        }
        seed = next_unseen;
    }
}

/// Fiduccia–Mattheyses-style boundary refinement: up to `passes`
/// sweeps moving positive-gain boundary vertices (zero-gain moves
/// allowed off the heavier side), each vertex at most once per sweep,
/// respecting the [`BALANCE_MIN`] weight floor. Gains are tracked
/// exactly; the lazy heap skips stale entries.
fn fm_refine(
    ptr: &[usize],
    adj: &[usize],
    vwgt: &[usize],
    ewgt: &[usize],
    part: &mut [u8],
    passes: usize,
) {
    let nv = part.len();
    let total: usize = vwgt.iter().sum();
    let min_side = ((total as f64) * BALANCE_MIN) as usize;
    let mut side_w = [0usize; 2];
    for v in 0..nv {
        side_w[part[v] as usize] += vwgt[v];
    }
    let mut gain = vec![0i64; nv];
    let mut locked = vec![false; nv];
    for _ in 0..passes {
        let mut heap: std::collections::BinaryHeap<(i64, std::cmp::Reverse<usize>)> =
            std::collections::BinaryHeap::new();
        for v in 0..nv {
            locked[v] = false;
            let mut g = 0i64;
            let mut boundary = false;
            for (p, &u) in adj[ptr[v]..ptr[v + 1]].iter().enumerate() {
                let w = ewgt[ptr[v] + p] as i64;
                if part[u] == part[v] {
                    g -= w;
                } else {
                    g += w;
                    boundary = true;
                }
            }
            gain[v] = g;
            if boundary {
                heap.push((g, std::cmp::Reverse(v)));
            }
        }
        let mut moved = 0usize;
        while let Some((g, std::cmp::Reverse(v))) = heap.pop() {
            if locked[v] || g != gain[v] {
                continue; // stale
            }
            let from = part[v] as usize;
            let improves = g > 0 || (g == 0 && side_w[from] > side_w[1 - from]);
            if !improves || side_w[from] < min_side + vwgt[v] {
                continue;
            }
            part[v] = 1 - part[v];
            side_w[from] -= vwgt[v];
            side_w[1 - from] += vwgt[v];
            locked[v] = true;
            moved += 1;
            gain[v] = -g;
            for (p, &u) in adj[ptr[v]..ptr[v + 1]].iter().enumerate() {
                if locked[u] {
                    continue;
                }
                let w = ewgt[ptr[v] + p] as i64;
                // v switched sides: edges to v flip contribution.
                gain[u] += if part[u] == part[v] { -2 * w } else { 2 * w };
                heap.push((gain[u], std::cmp::Reverse(u)));
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CSC pattern from (row, col) coordinate pairs.
    fn csc_pattern(n: usize, coords: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in coords {
            cols[c].push(r);
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::new();
        for (c, mut rows) in cols.into_iter().enumerate() {
            rows.sort_unstable();
            rows.dedup();
            col_ptr[c + 1] = col_ptr[c] + rows.len();
            row_idx.extend(rows);
        }
        (col_ptr, row_idx)
    }

    /// 5-point-stencil grid pattern (rows × cols nodes).
    fn grid_pattern(rows: usize, cols: usize) -> (usize, Vec<usize>, Vec<usize>) {
        let n = rows * cols;
        let id = |r: usize, c: usize| r * cols + c;
        let mut coords = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                coords.push((id(r, c), id(r, c)));
                if c + 1 < cols {
                    coords.push((id(r, c), id(r, c + 1)));
                    coords.push((id(r, c + 1), id(r, c)));
                }
                if r + 1 < rows {
                    coords.push((id(r, c), id(r + 1, c)));
                    coords.push((id(r + 1, c), id(r, c)));
                }
            }
        }
        let (cp, ri) = csc_pattern(n, &coords);
        (n, cp, ri)
    }

    #[test]
    fn empty_singleton_and_tiny() {
        assert!(nd_order(0, &[0], &[]).is_empty());
        assert_eq!(nd_order(1, &[0, 1], &[0]), vec![0]);
        let (cp, ri) = csc_pattern(3, &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)]);
        assert!(is_permutation(&nd_order(3, &cp, &ri), 3));
    }

    #[test]
    fn grid_order_is_a_permutation_and_deterministic() {
        let (n, cp, ri) = grid_pattern(40, 37);
        let a = nd_order(n, &cp, &ri);
        let b = nd_order(n, &cp, &ri);
        assert!(is_permutation(&a, n));
        assert_eq!(a, b);
    }

    #[test]
    fn disconnected_graph_survives() {
        // Two components, one of them edgeless.
        let mut coords = vec![(0, 1), (1, 0)];
        for i in 0..300 {
            coords.push((i, i));
            if i > 2 && i < 200 {
                coords.push((i, i - 1));
                coords.push((i - 1, i));
            }
        }
        let (cp, ri) = csc_pattern(300, &coords);
        assert!(is_permutation(&nd_order(300, &cp, &ri), 300));
    }

    #[test]
    fn grid_fill_is_comparable_to_amd() {
        // Nested dissection should land within a modest factor of AMD
        // fill on a mesh (and far below natural order).
        let (n, cp, ri) = grid_pattern(32, 32);
        let nd = nd_order(n, &cp, &ri);
        let amd = amd_order(n, &cp, &ri);
        let fill = |perm: &[usize]| {
            let mut pinv = vec![0usize; n];
            for (k, &p) in perm.iter().enumerate() {
                pinv[p] = k;
            }
            let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
            for j in 0..n {
                for p in cp[j]..cp[j + 1] {
                    let i = ri[p];
                    if i != j {
                        adj[pinv[i]].insert(pinv[j]);
                        adj[pinv[j]].insert(pinv[i]);
                    }
                }
            }
            let mut fill = 0usize;
            for k in 0..n {
                let nbrs: Vec<usize> = adj[k].iter().copied().filter(|&v| v > k).collect();
                fill += nbrs.len();
                for (a, &i) in nbrs.iter().enumerate() {
                    for &j in &nbrs[a + 1..] {
                        adj[i].insert(j);
                        adj[j].insert(i);
                    }
                }
            }
            fill
        };
        let nd_fill = fill(&nd);
        let amd_fill = fill(&amd);
        assert!(
            (nd_fill as f64) < 1.35 * amd_fill as f64,
            "nd fill {nd_fill} vs amd fill {amd_fill}"
        );
    }

    #[test]
    fn unsymmetric_and_out_of_range_inputs_are_tolerated() {
        // Strictly lower-triangular pattern plus a bogus row index.
        let n = 50;
        let mut coords = vec![];
        for i in 0..n {
            coords.push((i, i));
            if i > 0 {
                coords.push((i, i - 1));
            }
        }
        let (cp, mut ri) = csc_pattern(n, &coords);
        ri[3] = 10_000; // out of range, must be ignored
        assert!(is_permutation(&nd_order(n, &cp, &ri), n));
    }
}
