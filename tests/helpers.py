"""Shared independent oracles for the test suite.

These deliberately avoid the library's own lockstep-morphism and normal-form
code paths: transport replays an explicit lowering word, and the truncation
oracle realizes shift monomials as finite 0/1 matrices.
"""

from collections import deque
from itertools import product as iter_product


def transport(src, src_hw, dst, dst_hw, x):
    """Replay a lowering word from src_hw to x starting at dst_hw."""
    prev = {src_hw: None}
    queue = deque([src_hw])
    while queue:
        cur = queue.popleft()
        for i in src.datum.colours:
            nxt = src.f(i, cur)
            if nxt is not None and nxt not in prev:
                prev[nxt] = (cur, i)
                queue.append(nxt)
    word = []
    cur = x
    while prev[cur] is not None:
        cur, i = prev[cur]
        word.append(i)
    y = dst_hw
    for i in reversed(word):
        y = dst.f(i, y)
        assert y is not None
    return y


def component_sizes(tc):
    """Connected components via union-find, as sorted (highest weight, size,
    highest-weight element) triples."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for t in tc.elements():
        parent[t] = t
    for t in tc.elements():
        for i in tc.datum.colours:
            nxt = tc.f(i, t)
            if nxt is not None:
                union(t, nxt)
    groups = {}
    for t in tc.elements():
        groups.setdefault(find(t), []).append(t)
    out = []
    for members in groups.values():
        tops = [
            x
            for x in members
            if all(tc.eps(i, x) == 0 for i in tc.datum.colours)
        ]
        assert len(tops) == 1
        out.append((tc.weight(tops[0]), len(members), tops[0]))
    return sorted(out)


def monomial_matrix(mono, cutoff):
    """The truncated matrix of T^a T*^b on basis vectors e_0..e_{cutoff-1}."""
    a, b = mono
    matrix = [[0] * cutoff for _ in range(cutoff)]
    for n in range(b, cutoff):
        m = n - b + a
        if m < cutoff:
            matrix[m][n] = 1
    return matrix


def operator_matrix(op, cutoff):
    """Truncated matrix of an OperatorElement on the l-fold tensor basis,
    ignoring the torus label; indices are tuples of basis positions."""
    slots = op.slots
    size = cutoff**slots
    matrix = [[0] * size for _ in range(size)]

    def flat(index):
        out = 0
        for x in index:
            out = out * cutoff + x
        return out

    for key, coeff in op.terms.items():
        monos = [(key[2 * s], key[2 * s + 1]) for s in range(slots)]
        for col in iter_product(range(cutoff), repeat=slots):
            row = []
            ok = True
            for (a, b), n in zip(monos, col):
                if n < b or n - b + a >= cutoff:
                    ok = False
                    break
                row.append(n - b + a)
            if ok:
                matrix[flat(row)][flat(col)] += coeff
    return matrix
