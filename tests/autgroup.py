"""Aut M by brute force, for the tests: every invertible endomorphism of a
small module, the closed form for its order, and a lower bound on the order
of the group that a list of element permutations generates."""

from itertools import product

import numpy as np

from orbitpairs.oracle import ExplicitModule, endo_permutation
from orbitpairs.permgroups import closure_labels, pair_labels

WORDS, LETTERS = 20, 100


def invertible_endomorphisms(module: ExplicitModule) -> list[np.ndarray]:
    """Every invertible endomorphism, as an element-index permutation: entry
    (i, j) of the coordinate matrix runs over the multiples of
    p**max(0, k_i - k_j) below p**k_i, and a matrix is kept iff the zero
    element (index 0) is its only preimage of 0."""
    p, ks = module.p, module.exponents
    n = len(ks)
    elements = module.elements()
    entries = [range(0, p ** ks[i], p ** max(0, ks[i] - ks[j]))
               for i in range(n) for j in range(n)]
    perms = []
    for values in product(*entries):
        perm = endo_permutation(module, np.array(values, dtype=np.int64).reshape(n, n),
                                elements)
        if np.count_nonzero(perm == 0) == 1:
            perms.append(perm)
    return perms


def aut_order(module: ExplicitModule) -> int:
    """|Aut M| by the closed form of Hillar and Rhea (Automorphisms of finite
    abelian groups, 2007): with exponents e_1 <= ... <= e_n and c_k, d_k the
    first and last index of e_k's block, the product over k of
    (p^d_k - p^(k-1)) p^(e_k (n - d_k)) p^((e_k - 1)(n - c_k + 1))."""
    p, es = module.p, sorted(module.exponents)
    n, total = len(es), 1
    for k, e in enumerate(es, 1):
        c, d = es.index(e) + 1, n - es[::-1].index(e)
        total *= (p ** d - p ** (k - 1)) * p ** (e * (n - d) + (e - 1) * (n - c + 1))
    return total


def pair_orbit_sizes(perms, n: int) -> list[int]:
    """Sorted sizes of the pair orbits of the group the permutations
    generate, from the pair path."""
    labels = closure_labels(perms, n)
    counts = np.bincount((labels[:, None] * n + pair_labels(perms, labels)).ravel())
    return sorted(counts[counts > 0].tolist())


def chain_order_bound(perms, n: int, rng: np.random.Generator) -> int:
    """A lower bound on the order of the group G the permutations of
    range(n) generate: the product of the orbit lengths down a stabilizer
    chain (Seress, Permutation Group Algorithms).  At each level, b is the
    first point the level's generators move, O its orbit with transversal
    u (u[y] takes b to y), and the next level's generators are WORDS random
    words h of LETTERS letters in this level's, sifted to u[h(b)]^-1 h,
    which fixes b; the chain ends when every sifted word is the identity.  Level i's generators fix the
    base points above it, so |O_i| is at most the index of the next point
    stabilizer in G, and the product is at most |G| whatever words are
    drawn: a short sample can only lower the bound."""
    identity = np.arange(n)
    gens = [g for g in perms if (g != identity).any()]
    bound = 1
    while gens:
        b = min(int(np.flatnonzero(g != identity)[0]) for g in gens)
        u, queue = {b: identity}, [b]
        for y in queue:
            for g in gens:
                z = int(g[y])
                if z not in u:
                    u[z] = g[u[y]]
                    queue.append(z)
        bound *= len(u)
        sifted = []
        for _ in range(WORDS):
            h = identity
            for i in rng.integers(len(gens), size=LETTERS).tolist():
                h = gens[i][h]
            inverse = np.empty_like(h)
            inverse[u[int(h[b])]] = identity
            h = inverse[h]
            if (h != identity).any():
                sifted.append(h)
        gens = sifted
    return bound
