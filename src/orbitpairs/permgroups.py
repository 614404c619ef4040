"""Orbits of a permutation group, given by the element permutations of its
generators, on points {0..n-1} and on pairs of points.

Point orbits are closed to their minima r.  Pairs get one n x n int16 array
F of row labels: a breadth-first witness forest from the minima gives each
point x a group element t_x taking r to x, F[r] labels the points by orbits
of Schreier generators of Stab(r) (Schreier's lemma), and F[x] = F[r] o
t_x^-1.  One pass per generator certifies that F is invariant, so exactness
never rests on which Schreier generators were sampled.  Permutations are
composed and inverted by plain row gathers and scatters, and every gather,
scatter and comparison of the pair path takes a block of at most _CHUNK
entries at a time.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

# Entries per block of the arrays that the pair path gathers, scatters and
# compares, so that the intp copy of an index stays near 8 * _CHUNK bytes.
_CHUNK = 2 ** 14


def closure_labels(perms: List[np.ndarray], n: int) -> np.ndarray:
    """Orbit labels (minimum index per orbit) of {0..n-1} under the element
    permutations, which must be bijections: labels are only pulled forward,
    along g, g^2, g^4, ... (pointer doubling), until constant on each cycle of
    g.  Pointer jumping follows labels to their labels, and whole rounds
    repeat until one changes nothing."""
    labels = np.arange(n)
    while True:
        # Labels only fall, so a round that reassigns them changed them.
        changed = False
        for step in perms:
            while True:
                pulled = labels[step]
                if (pulled >= labels).all():
                    break
                labels, step, changed = np.minimum(labels, pulled), step[step], True
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels, changed = jumped, True
        if not changed:
            return labels


def _blocks(perms: List[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """The permutations of {0..n-1} stacked into int16 arrays of at most
    _CHUNK entries each (one row at least), built one at a time."""
    rows = max(1, _CHUNK // n)
    for i in range(0, len(perms), rows):
        yield np.array(perms[i:i + rows], dtype=np.int16)


def _forest(perms: List[np.ndarray], labels: np.ndarray):
    """Breadth-first forest from the element orbit minima over the generators
    and their powers g^2, g^4, ... below g^n, which keep long cycles at log
    depth: (parent, edge, steps, inverses, levels), where each x off the
    roots is steps[edge[x]][parent[x]], inverses are the steps' inverses,
    scattered a block of rows at a time, and levels lists the elements by
    depth, roots first."""
    n = labels.size
    rows = max(1, _CHUNK // n)
    steps = [np.empty((0, n), np.int16)]
    for P in _blocks(perms, n):
        for _ in range((n - 1).bit_length()):
            steps.append(P[(P != np.arange(n)).any(1)])
            P = P[np.arange(len(P))[:, None], P]
    steps = np.concatenate(steps)
    inverses = np.empty_like(steps)
    for i in range(0, len(steps), rows):
        block = steps[i:i + rows]
        inverses[i:i + rows][np.arange(len(block))[:, None], block] = np.arange(n)
    parent, edge = np.full(n, -1), np.full(n, -1)
    seen = labels == np.arange(n)
    levels = [seen.nonzero()[0]]
    while not seen.all():
        front, found = levels[-1], []
        rows = max(1, _CHUNK // front.size)
        for i in range(0, len(steps), rows):
            # First hit per new element, in (step, front) order.
            new, at = np.unique(steps[i:i + rows, front], return_index=True)
            new, at = new[~seen[new]], at[~seen[new]]
            parent[new], edge[new] = front[at % front.size], i + at // front.size
            seen[new] = True
            found.append(new)
        levels.append(np.concatenate(found))
    return parent, edge, steps, inverses, levels


def _unwind(forest, xs, H: np.ndarray) -> np.ndarray:
    """Rows t_x^-1 o H[i] for x = xs[i], t_x being x's witness: the group
    element, composed along x's forest path, that takes x's root to x."""
    parent, edge, _, inverses, _ = forest
    H, xs = H.copy(), np.array(xs, dtype=np.intp)
    while (live := (parent[xs] >= 0).nonzero()[0]).size:
        H[live] = inverses[edge[xs[live]][:, None], H[live]]
        xs[live] = parent[xs[live]]
    return H


def _schreier(perms: List[np.ndarray], forest, xs) -> np.ndarray:
    """The distinct Schreier generators t_g(x)^-1 o g o t_x of Stab(r), t
    being the witnesses of _unwind, at the elements x of xs, all in r's
    orbit, for every generator g, formed a block of generators at a time."""
    n = len(forest[0])
    out = np.empty((0, n), dtype=np.int16)
    for x in xs:
        tx = np.empty(n, dtype=np.intp)
        tx[_unwind(forest, [x], np.arange(n, dtype=np.int16)[None])[0]] = np.arange(n)
        for P in _blocks(perms, n):
            # Distinct rows are found by sorting each row's bytes as one key.
            rows = np.ascontiguousarray(np.concatenate([out, _unwind(forest, P[:, x], P[:, tx])]))
            _, first = np.unique(rows.view(np.dtype((np.void, 2 * n))), return_index=True)
            out = rows[first]
    return out


def pair_labels(perms: List[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """(n, n) int16 array F with labels[x] * n + F[x, y] the smallest flat
    index in the orbit of (x, y), labels being closure_labels(perms, n).
    Schreier generators are sampled at each orbit's minimum r and largest
    point.  The certificate F[g(x), g(y)] = F[x, y] is checked by one
    reduction per block of rows; in a failing block, the first failing row x
    adds its Schreier generators and relabels r's rows by the coarser labels
    lab', F = lab'[F]."""
    n, rows = labels.size, max(1, _CHUNK // labels.size)
    forest = parent, edge, _, inverses, levels = _forest(perms, labels)
    F, samples = np.empty((n, n), dtype=np.int16), {}
    for r in levels[0].tolist():
        top = (labels == r).nonzero()[0][-1]
        # A fixed point's stabilizer is the whole group.
        samples[r] = _schreier(perms, forest, (r, top)) if r != top else None
        F[r] = labels if r == top else closure_labels(samples[r], n)
    for level in levels[1:]:
        for e in np.bincount(edge[level]).nonzero()[0].tolist():
            kids = level[edge[level] == e]
            for i in range(0, kids.size, rows):
                xs = kids[i:i + rows]
                F[xs] = F[parent[xs]].take(inverses[e], 1)
    for g in perms:
        for i in range(0, n, rows):
            xs = slice(i, i + rows)
            # Only a failing block is compared again, for its first failing row.
            while (F[g[xs]].take(g, 1) != F[xs]).any():
                x = i + int((F[g[xs]].take(g, 1) != F[xs]).argmax()) // n
                r = int(labels[x])
                samples[r] = np.concatenate([samples[r], _schreier(perms, forest, (x,))])
                # int16 labels keep each relabelled block of rows int16.
                lab = closure_labels(samples[r], n).astype(np.int16)
                members = (labels == r).nonzero()[0]
                for j in range(0, members.size, rows):
                    ys = members[j:j + rows]
                    F[ys] = lab[F[ys]]
    return F
