"""Exact rank of the equality systems that interchange conditions reduce to."""

from __future__ import annotations


def rank_of_links(count: int, links: list[tuple[int, int]]) -> int:
    """Rank over the rationals of the rows e_u - e_v, one per link (u, v),
    on unknowns 0..count-1, where -1 stands for zero (e_{-1} = 0).

    The rows form a signed incidence matrix of a graph on the unknowns plus
    a zero node, with that node's column dropped; its rank is the number of
    edges in a spanning forest, counted here as the merges of a union-find.
    """
    # the extra slot ``count`` is the zero node
    parent = list(range(count + 1))

    def find(u: int) -> int:
        root = u if u != -1 else count
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    rank = 0
    for u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank
