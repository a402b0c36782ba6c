"""Word-by-word reference walks over tuples, and helpers that feed tuples to the code walks.

The package runs on integer word codes; these are the depth-first and
breadth-first walks over word and cylinder-pair tuples that the code walks
must reproduce bit for bit.
"""

import math

import numpy as np

import carpetquant as cq
from carpetquant import CylinderPair, Word, codes
from carpetquant.codes import Block, WordCodes


def reference_build_upsilon(spec, consts, j, cap=cq.antichain.DEFAULT_CAP):
    """Depth-first threshold walk over word tuples: (words, log weights) sorted canonically."""
    threshold = j * math.log(consts.eta_lo)
    rows, upgrades = cq.words.step_table(spec)
    shift = -consts.r * math.log(spec.m)
    flat = tuple((jj, lq + shift) for jj, lq in rows)
    out_words, out_logw = [], []
    stack = [((), (), 0.0)]
    while stack:
        a, b, lw = stack.pop()
        if lw < threshold:
            out_words.append(Word(a, b))
            out_logw.append(lw)
            if len(out_words) > cap:
                raise cq.CapExceeded(cap, len(out_words), "weight-threshold antichain")
            continue
        if cq.words.ell_steps(spec, len(a) + len(b)):
            j_head, tail = b[0], b[1:]
            for i, up in upgrades[j_head]:
                a2 = a + ((i, j_head),)
                for jj, step in flat:
                    stack.append((a2, tail + (jj,), lw + up + step))
        else:
            for jj, step in flat:
                stack.append((a, b + (jj,), lw + step))
    paired = sorted(zip(out_words, out_logw), key=lambda t: (cq.order(t[0]), t[0].a, t[0].b))
    return tuple(w for w, _ in paired), tuple(lw for _, lw in paired)


def reference_all_words(spec, k):
    level = [cq.ROOT]
    for _ in range(k):
        level = [c for w in level for c in cq.children(spec, w)]
    return level


def reference_s2_family(spec, consts, sigma):
    """Depth-first walk of sigma's descendants whose log energy clears the H2 cut, canonical."""
    t = consts.t_r
    base = cq.log_energy(spec, consts, sigma)
    cut = base - math.log(consts.H2)
    out = []
    stack = [(sigma, base)]
    shift = -consts.r * math.log(spec.m)
    rows, upgrades = cq.words.step_table(spec)
    while stack:
        w, le = stack.pop()
        if le < cut:
            continue
        out.append(w)
        if cq.words.ell_steps(spec, cq.order(w)):
            j_head = w.b[0]
            tail = w.b[1:]
            for i, up in upgrades[j_head]:
                a = w.a + ((i, j_head),)
                for jj, lq in rows:
                    stack.append((Word(a, tail + (jj,)), le + t * ((up + lq) + shift)))
        else:
            for jj, lq in rows:
                stack.append((Word(w.a, w.b + (jj,)), le + t * (lq + shift)))
    out.sort(key=lambda w: (cq.order(w), w.a, w.b))
    return out


EMPTY_PAIR = CylinderPair((), ())


def pair_order(c):
    return len(c.sigma) + len(c.omega)


def is_aligned(spec, c, offset=0):
    """ell-alignment: the cell block is exactly as long as an order offset+|c|
    location code demands beyond the offset's own cell count."""
    return len(c.sigma) + cq.ell(spec, offset) == cq.ell(spec, pair_order(c) + offset)


def aligned_children(spec, c, offset=0):
    """One aligned step: every cell when ell steps, else every row digit."""
    if cq.words.ell_steps(spec, pair_order(c) + offset):
        return [CylinderPair(c.sigma + ((i, j),), c.omega) for i, j, _ in spec.entries]
    return [CylinderPair(c.sigma, c.omega + (j,)) for j, _ in cq.words.step_table(spec).rows]


def paired_flatten(spec, c, offset=0):
    """Parent of an aligned pair: drops the symbol the last aligned step added."""
    if not cq.words.ell_steps(spec, offset + pair_order(c) - 1):
        return CylinderPair(c.sigma, c.omega[:-1])
    return CylinderPair(c.sigma[:-1], c.omega)


def log_pair_energy(spec, consts, c):
    """Energy of the pair read as a free concatenation of its symbols."""
    log_p_cell, log_q_row = cq.words.log_tables(spec)
    log_mu = math.fsum(log_p_cell[cell] for cell in c.sigma) + math.fsum(
        log_q_row[j] for j in c.omega
    )
    return consts.t_r * (log_mu - pair_order(c) * consts.r * math.log(spec.m))


def reference_gamma_pairs(spec, pw, k1, log_eps, cap):
    """Depth-first pair walk (offset k1): pairs collected below epsilon, with their log W."""
    pairs, logs = [], []
    rows = cq.words.step_table(spec).rows
    cells = tuple((i, jj) for i, jj, _ in spec.entries)
    stack = [(EMPTY_PAIR, 0.0)]
    while stack:
        c, lw = stack.pop()
        if lw < log_eps:
            pairs.append(c)
            logs.append(lw)
            if len(pairs) > cap:
                raise cq.CapExceeded(cap, len(pairs), "per-anchor threshold family")
            continue
        if cq.words.ell_steps(spec, k1 + len(c.sigma) + len(c.omega)):
            for cell in cells:
                stack.append(
                    (CylinderPair(c.sigma + (cell,), c.omega), lw + pw.log_p_tilde[cell])
                )
        else:
            for jj, _ in rows:
                stack.append(
                    (CylinderPair(c.sigma, c.omega + (jj,)), lw + pw.log_q_tilde[jj])
                )
    return pairs, logs


def s1_family(spec, consts, words, sigma):
    """Members of the family whose *both* blocks extend sigma's blocks."""
    la, lb = len(sigma.a), len(sigma.b)
    return [
        tau
        for tau in words
        if len(tau.a) >= la
        and len(tau.b) >= lb
        and tau.a[:la] == sigma.a
        and tau.b[:lb] == sigma.b
    ]


def reference_l1_l2(spec, consts, ups, cap=cq.antichain.DEFAULT_CAP):
    """Glued level and core built word by word: (l1, l2, gamma sizes)."""
    k1 = ups.codes.blocks[0].k
    lam = [w for w in ups.words if cq.order(w) == k1]
    pw = cq.product_weights(spec, consts)
    l1, sizes = list(lam), []
    for tau in reference_all_words(spec, k1):
        if tau in lam:
            continue
        log_eps = cq.antichain._log_epsilon(spec, consts, ups.j, tau)
        pairs, _ = reference_gamma_pairs(spec, pw, k1, log_eps, cap)
        sizes.append(len(pairs))
        l1.extend(cq.glue(tau, pair) for pair in pairs)
        if len(l1) > cap:
            raise cq.CapExceeded(cap, len(l1), "glued level")
    member = set(l1)
    core = set()
    for rho in l1:
        best = w = rho
        while cq.order(w) > k1:
            w = cq.flatten(spec, w)
            if w in member:
                best = w
        core.add(best)
    l2 = tuple(sorted(core, key=lambda w: (cq.order(w), w.a, w.b)))
    return tuple(l1), l2, tuple(sizes)


def encode(spec, words):
    """The (a, b) codes of words or cylinder pairs, as object arrays."""
    rank = {c: r for r, c in enumerate(codes.tables(spec).cells)}
    a, b = [], []
    for cells, rows in words:
        ca = cb = 0
        for c in cells:
            ca = ca * len(rank) + rank[c]
        for j in rows:
            cb = cb * spec.m + j
        a.append(ca)
        b.append(cb)
    return np.array(a, dtype=object), np.array(b, dtype=object)


def word_codes(spec, words):
    """The words, in the given order, as a WordCodes sequence."""
    by_order = {}
    for i, w in enumerate(words):
        by_order.setdefault(cq.order(w), []).append(i)
    blocks, pos = [], []
    for k in sorted(by_order):
        dt = codes.code_dtype(spec, k)
        a, b = encode(spec, [words[i] for i in by_order[k]])
        blocks.append(Block(k, a.astype(dt), b.astype(dt)))
        pos.append(np.array(by_order[k]))
    return WordCodes(spec, tuple(blocks), tuple(pos))


def s2_families(spec, consts, anchors):
    """The shipped s2 family of each anchor word, canonical."""
    fam, owner = cq.s2_family(spec, consts, word_codes(spec, anchors))
    out = [[] for _ in anchors]
    for w, i in zip(fam.words, owner.tolist()):
        out[i].append(w)
    return out


def gamma_families(spec, pw, k1, log_eps, cap=cq.antichain.DEFAULT_CAP):
    """The shipped pair walk, decoded: per quota, (pairs, log W) in walk order."""
    pairs = cq.antichain._gamma_pairs(spec, pw, k1, np.asarray(log_eps, dtype=float), cap)
    out = [([], []) for _ in log_eps]
    for i, u in enumerate(pairs.family.tolist()):
        blk = Block(int(pairs.depth[i]), pairs.a[i : i + 1], pairs.b[i : i + 1])
        out[u][0].append(CylinderPair(*codes.decode(spec, blk, int(pairs.cells[i]))[0]))
        out[u][1].append(float(pairs.log_w[i]))
    return out


def pair_levels(spec, pw, offset, depth):
    """Levels 0..depth of the shipped pair step from the empty pair: (parent, pairs, log W)."""
    a = b = np.zeros(1, dtype=np.int64)
    lw = np.zeros(1)
    levels = [(np.zeros(0, dtype=np.int64), [EMPTY_PAIR], lw)]
    for d in range(depth):
        parent, _, a, b, lw = cq.antichain._pair_step(spec, pw, offset + d, a, b, lw)
        cells = cq.ell(spec, offset + d + 1) - cq.ell(spec, offset)
        pairs = [CylinderPair(*w) for w in codes.decode(spec, Block(d + 1, a, b), cells)]
        levels.append((parent, pairs, lw))
    return levels
