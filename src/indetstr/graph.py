"""Prefix graph of a feasible array.

Every feasible array forces certain position pairs to match (positive edges)
and certain pairs to mismatch (negative edges).  Positive edge sets come in
staircases: entry y[i] contributes (h, i+h-1) for h = 1..y[i]; the negative
edge (1+y[i], i+y[i]) exists exactly when i+y[i] <= n.  Any string realizes
the array iff it matches along every positive edge and mismatches along every
negative edge, which is what both builders below exploit.

The array is the graph's one stored fact; every other fact is a view read
off it once, on first use, and cached on the graph.  The PrefixGraph
docstring lists the views and what reads each.  The regularity verdict is
one of them: _regular_labels decides it in O(n) and is the one labeller of
a regular array, and regular_string_from_components, infer's answer for a
regular array, colours its labels from the negative edges that end at a
component's first position.  Only a non-regular array reaches the range
union, _range_union.  The edges of each sign are read off the array level
by level, grouped by the smaller end and already in (u, v) order:
_positive_levels and _negative_levels, the one statement of the
negative-edge rule that every reader of a negative edge goes through.

build_prefix_graph is the one feasibility check on the graph's paths: infer,
is_regular and the graph command build the graph from the array here, so
each raises FeasibleArrayError for an infeasible array.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import FeasibleArray, IndetString, validate_feasible

Edge = tuple[int, int]
Level = tuple[int, list[int]]  # (u, vs): the edges (u, v), v in vs, ascending


def _positive_levels(y: FeasibleArray) -> Iterator[Level]:
    """The positive edges (h, v) level by level: (h, vs) for h = 1, 2, ...,
    vs the ascending i+h-1 over the i >= 2 with y[i] >= h.

    Levels ascend and so does each vs, so the edges come in (u, v) order
    without a sort.  Each level is filtered from the one before it, so the
    cost is O(|E+| + n).
    """
    vs = [i for i in range(2, len(y) + 1) if y[i - 1]]
    h = 1
    while vs:
        yield h, vs
        # v = i+h-1 carries on to level h+1 when y[i] > h; y[i] is y[v-h]
        vs = [v + 1 for v in vs if y[v - h] > h]
        h += 1


def _negative_levels(y: FeasibleArray) -> list[Level]:
    """The negative edges (u, v) grouped by u: (u, vs) for u ascending, vs
    the ascending i+y[i] over the i with i+y[i] <= n and 1+y[i] = u.

    One pass over y files each v under its u; for a fixed u, v = i+u-1
    grows with i, so each vs ascends and only the at most n distinct u are
    sorted, never the edges.  A zero entry i always gives the edge (1, i),
    since i <= n, so it is appended to level 1 without a lookup; on a
    random string most entries are zero.  Every reader of G- reads it in
    this order: neg_edges, neg_adj, the export, the regular witness and
    bench.
    """
    n = len(y)
    zeros: list[int] = []
    by_u: dict[int, list[int]] = {}
    for i, v in enumerate(y, 1):
        if not v:
            zeros.append(i)
        elif i + v <= n:
            by_u.setdefault(v + 1, []).append(i + v)
    levels = sorted(by_u.items())
    return [(1, zeros), *levels] if zeros else levels


def _level_lines(
    levels: Iterable[Level], names: list[str], head: str, tail: str, sep: str
) -> Iterator[str]:
    """One text per level (h, vs) of either sign: each edge (h, v) rendered
    as head.format(names[h]) + names[v] + tail, joined by sep.  names[v] is
    str(v), built once per export, so no vertex id is rendered per edge."""
    for h, vs in levels:
        hs = head.format(names[h])
        yield hs + (tail + sep + hs).join(map(names.__getitem__, vs)) + tail


def _read_only(self, name: str, *value: object) -> None:
    """__setattr__ and __delattr__ of the immutable PrefixGraph and
    BenchConfig: every field is set once, in __init__, through __dict__."""
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")


class PrefixGraph:
    """Vertices 1..n of the feasible array y, the one stored field.

    Four views are read off y on first use and then cached, so only their
    readers pay, and no view is built from another:
    - neg_edges, the at most n-1 negative edges (u, v), u < v, ascending:
      the levels of _negative_levels concatenated, with no sort.  Nothing
      in the library reads it; it serves callers that want the negative
      edges as tuples.
    - neg_adj, each vertex's negative neighbours, ascending, with vertex 1
      kept apart: row 1 is level 1 of _negative_levels, the zero entries,
      and no other row lists vertex 1.  Only the walk reads it.
    - pos_edges, the up to n(n-1)/2 positive edges (u, v), u < v, ascending.
      Only the walk reads it.
    - regular_labels, the O(n) regularity verdict (_regular_labels).
      positive_components, and so is_regular, take its labels; infer and
      regular_string_from_components take regularity from it.
    The export reads no view: it renders the levels of either sign,
    _positive_levels and _negative_levels, through _level_lines and one
    table of vertex names.  edge_label_string reads the positive levels.

    A graph is immutable: setting or deleting any attribute raises
    AttributeError, and a view is cached in the instance __dict__ past
    that check.  Two graphs are equal, and hash alike, when their arrays
    are; the views play no part.  The repr is PrefixGraph(y=(3, 0, 0)).
    """

    __match_args__ = ("y",)
    __setattr__ = __delattr__ = _read_only
    y: FeasibleArray

    def __init__(self, y: FeasibleArray) -> None:
        self.__dict__["y"] = y

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.y == other.y

    def __hash__(self) -> int:
        return hash((self.y,))

    def __repr__(self) -> str:
        return f"PrefixGraph(y={self.y!r})"

    @property
    def n(self) -> int:
        return len(self.y)

    @cached_property
    def neg_edges(self) -> tuple[Edge, ...]:
        return tuple((u, v) for u, vs in _negative_levels(self.y) for v in vs)

    @cached_property
    def neg_adj(self) -> tuple[tuple[int, ...], ...]:
        """Negative neighbours of each vertex, ascending; index 0 unused.

        Vertex 1 is kept apart: row 1 is level 1, the zero entries, and no
        other row lists 1, so a zero entry with no other neighbour has the
        shared empty row ().  The walk adds 1 back where it needs it.

        Read off _negative_levels, with no sort.  A level's vs wait in a
        dict under v, as v's smaller neighbours, until v's own level is
        read.  Levels ascend by u, so by then every smaller neighbour of u
        has been filed, in ascending order; the level's own vs, ascending
        too, are u's larger neighbours.  Most vertices have few smaller
        neighbours, so each waits in a tuple grown by one per neighbour.
        That costs O(n + |E+|): the k entries i that give v a smaller
        neighbour u > 1 have the distinct y[i] = v-i >= 1, so the k(k+1)/2
        copies are at most the sum of those y[i].
        """
        adj: list[tuple[int, ...]] = [()] * (self.n + 1)
        smaller: dict[int, tuple[int, ...]] = {}
        for u, vs in _negative_levels(self.y):
            adj[u] = smaller.pop(u, ()) + tuple(vs)
            if u > 1:
                for v in vs:
                    smaller[v] = smaller.get(v, ()) + (u,)
        for v, row in smaller.items():
            adj[v] = row
        return tuple(adj)

    @cached_property
    def pos_edges(self) -> tuple[Edge, ...]:
        y = self.y
        pos: list[Edge] = []
        for i, length in enumerate(y[1:], 2):
            if length:
                for h in range(1, length + 1):
                    pos.append((h, i + h - 1))
        pos.sort()
        return tuple(pos)

    @cached_property
    def regular_labels(self) -> tuple[int, ...] | None:
        return _regular_labels(self.y)


def build_prefix_graph(y: Sequence[int]) -> PrefixGraph:
    """The prefix graph of y; no edge is built until it is read.

    Raises FeasibleArrayError when y is infeasible.
    """
    return PrefixGraph(validate_feasible(y))


def positive_components(g: PrefixGraph) -> tuple[int, ...]:
    """labels[v] = smallest vertex in v's component of the positive subgraph.

    Indexed by vertex, so index 0 is unused (it stays 0).  Reads g.y, not
    g.pos_edges: a regular y takes the verdict's labels, g.regular_labels,
    in O(n), any other y is labelled by _range_union, in O(n log n) at
    worst; the union stops at the first level that holds one class.
    """
    return g.regular_labels or _range_union(g.y)


def _range_union(y: FeasibleArray) -> tuple[int, ...]:
    """positive_components' labels for any feasible y, in O(n log n).

    Entry y[i] = L > 0 equates the ranges [1..L] and [i..i+L-1] position by
    position.  With k = floor(log2 L) and d = L - 2^k, that is the same as
    equating the blocks of length 2^k that start at 1 and i, and those that
    start at 1+d and i+d, since each pair of blocks overlaps and covers its
    range.  Level k keeps a union-find over block starts.  From the top
    level down, every block that stopped being a root at level k unions both
    of its halves with the halves of its root at level k-1; level 0 then
    holds the components of positions, and only its ex-roots, ascending,
    need flattening: every other position is its own root.

    The union stops at the first level k, from the top, whose blocks are
    all in one class, and returns one component.  Level k covers the
    n-2^k+1 blocks that fit in 1..n, and each successful union appends one
    ex-root, so all are in one class exactly when moved[k] holds n-2^k.
    Blocks s and s+1 being equal forces position p to equal p+1 for every
    p in 1..n-1.  Every entry after the first is at most n-1, so 2^k <= n-1
    and every level built has at least two blocks; n <= 1 builds no level
    above 0.
    """
    n = len(y)
    levels = max(max(y[1:], default=0).bit_length(), 1)
    starts = list(range(n + 1))
    parent = [starts[:] for _ in range(levels)]  # parent[k][s]: block [s, s+2^k)
    moved: list[list[int]] = [[] for _ in range(levels)]  # ex-roots per level

    def union(p: list[int], ex_roots: list[int], a: int, b: int) -> None:
        # the smaller root wins, so every pointer leads to a smaller start
        while p[a] != a:
            p[a] = a = p[p[a]]
        while p[b] != b:
            p[b] = b = p[p[b]]
        if a != b:
            if b < a:
                a, b = b, a
            p[b] = a
            ex_roots.append(b)

    for i, length in enumerate(y[1:], 2):
        if length:
            k = length.bit_length() - 1
            union(parent[k], moved[k], 1, i)
            d = length - (1 << k)
            if d:
                union(parent[k], moved[k], 1 + d, i + d)
    for k in range(levels - 1, 0, -1):
        if len(moved[k]) == n - (1 << k):
            return (0,) + (1,) * n  # level k holds one class
        p, below, ex_roots = parent[k], parent[k - 1], moved[k - 1]
        half = 1 << (k - 1)
        for s in moved[k]:
            r = p[s]
            while p[r] != r:
                p[r] = r = p[p[r]]
            union(below, ex_roots, s, r)
            union(below, ex_roots, s + half, r + half)
    labels = parent[0]
    # labels[v] < v, and every smaller ex-root already names its root
    for v in sorted(moved[0]):
        labels[v] = labels[labels[v]]
    return tuple(labels)


def _regular_labels(y: FeasibleArray) -> tuple[int, ...] | None:
    """The positive components' labels when y is regular, else None, in O(n).

    y is feasible.  Builds the canonical regular string x left to right,
    0-based: a box is [k, k+y[k]) for k >= 1, and position j copies x[j-l]
    when the box [l, r) reaching farthest over k <= j has j < r, else it
    takes the fresh id j+1.  Copies follow positive edges (j-l, j), so an id
    is the smallest 1-based member of its class.  A Z-scan checks that x has
    prefix table y.  Inside its Z-box [zl, zr) it takes y[i-zl] as the Z
    value of i-zl, since every earlier entry has matched; it builds x only
    as far as it reads, and stops at the first mismatch.

    A returned x realizes y, so y is regular, and its classes are the
    positive components: they hold every positive edge and grow only along
    them.  Conversely, let a regular string realize y.  Then y obeys the
    Z-box lemma, and every positive edge (j-k, j) holds in x, by induction
    on j.  Boxes k and l both cover j.  If k > l, box k-l covers j-l; if
    k < l, box l-k covers j-k.  Either way x[j-k] = x[j-l] = x[j].  Equal
    ids come only from positive edges, so x also mismatches where every
    realization does, and x realizes y.
    """
    n = len(y)
    if n == 0:
        return (0,)
    x = [1]
    bl = br = 0  # farthest box [bl, br) over the positions built so far
    zl = zr = 0  # Z-box: x[zl:zr] == x[:zr-zl]
    for i in range(1, n):
        if i < zr:
            z = y[i - zl]
            if z < zr - i:
                if y[i] != z:
                    return None
                continue
            k = zr
        else:
            k = i
        while k < n:
            while len(x) <= k:
                j = len(x)
                if j + y[j] > br:
                    bl, br = j, j + y[j]
                x.append(x[j - bl] if j < br else j + 1)
            if x[k] != x[k - i]:
                break
            k += 1
        if k - i != y[i]:
            return None
        if k > zr:
            zl, zr = i, k
    return (0, *x)


def is_regular(y: Sequence[int]) -> tuple[bool, tuple[int, ...]]:
    """Whether some regular string realizes y, plus the component labeling.

    Positive edges force equality of regular letters, so each positive
    component carries one symbol; y is regular exactly when no negative edge
    has both ends in the same component.  That is what the verdict
    g.regular_labels decides, in O(n) and without reading an edge (the proof
    is in _regular_labels), so no edge is scanned here.  The labels come
    from positive_components, which reads the verdict first.
    Raises FeasibleArrayError (from build_prefix_graph) when y is infeasible.
    """
    g = build_prefix_graph(y)
    labels = positive_components(g)
    return g.regular_labels is not None, labels


def regular_string_from_components(
    g: PrefixGraph, labels: Sequence[int]
) -> IndetString:
    """Regular witness, with one-symbol letters; infer's answer for a
    regular y, and the lex-least regular string realizing y.

    Regularity is the graph's verdict, g.regular_labels; nothing here
    decides it again.  labels must equal positive_components(g), each
    component's smallest member, its first position; any other labelling
    raises ValueError.  Components are coloured in that order: the one
    whose first position is v gets the smallest symbol held by none of the
    components labels[u] over the negative edges (u, v), which the one
    pass over _negative_levels files under v.  An edge whose larger end is
    not a first position is never filed; it needs no test of its own.

    Proof that the colouring separates the ends of every negative edge
    (u, v), by induction on v, where entry i gives u = 1+y[i] and
    v = i+y[i].  If v is a first position, it does by construction
    (labels[u] <= u < v).  Otherwise v copies an earlier position in
    _regular_labels: some box l >= 2, [l, l+y[l]), covers v, so the
    positive edge (v-l+1, v) holds; l != i, since box i ends at v-1.  Some
    regular string z realizes y, so y obeys the Z-box lemma, which gives a
    negative edge between the same two components with both ends below v:
    - l < i: box l covers [i, v], so entry i-l+1 equals y[i] and gives
      (u, v-l+1);
    - i < l < v: box l reaches past box i, so entry l-i+1 is v-l and gives
      (v-l+1, u);
    - l = v: z[u] != z[v] = z[1], so y[u] = 0 and entry u gives (1, u).
    That edge's colours differ by induction.  Positive edges stay inside a
    component, so the result realizes y.

    The induction uses no greedy choice, so a regular string realizes y
    exactly when it is constant on each component and each first position
    v mismatches the smaller ends u of its negative edges (u, v).  Read
    left to right, a position that is not first is forced by an earlier
    one, and at a first position every symbol not excluded by earlier ones
    extends to a realization.  So taking the smallest such symbol at each
    first position gives the lex-least regular string.  Only the at most n-1
    negative edges are read, so the table of a^n costs O(n).  When y is not
    regular, raises ValueError naming the least negative edge that stays
    inside a component (no regular witness exists).
    """
    if tuple(labels) != positive_components(g):
        raise ValueError("labels are not the positive components of the graph")
    if g.regular_labels is None:
        # the levels come in (u, v) order, so the first edge inside is the least
        edges = ((u, v) for u, vs in _negative_levels(g.y) for v in vs)
        u, v = next((u, v) for u, v in edges if labels[u] == labels[v])
        raise ValueError(
            f"array is not regular: positions {u} and {v} must mismatch "
            "but lie in one forced-match component"
        )
    earlier: dict[int, list[int]] = {}  # first position v -> labels[u]
    for u, vs in _negative_levels(g.y):
        for v in vs:
            if labels[v] == v:
                earlier.setdefault(v, []).append(labels[u])
    colour = [0] * len(labels)
    for c in range(1, len(labels)):
        if labels[c] == c:
            taken = 1
            for a in earlier.get(c, ()):
                taken |= 1 << colour[a]
            colour[c] = ((taken + 1) & ~taken).bit_length() - 1
    letters = [()] + [(s,) for s in range(1, max(colour, default=0) + 1)]
    return tuple(letters[colour[c]] for c in labels[1:])


def edge_label_string(g: PrefixGraph) -> IndetString:
    """Indeterminate witness: each position's letter is the set of its
    incident positive edges, one symbol per edge.

    Two positions share a symbol iff a positive edge joins them, so positive
    pairs match and negative pairs cannot.  Positions with no incident edge
    get a private fresh symbol.  Edge symbols are ranked by the edge's (u, v)
    order, which _positive_levels gives, the private symbols after all edges.
    """
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    r = 0
    for u, vs in _positive_levels(g.y):
        for v in vs:
            r += 1
            incident[u].append(r)
            incident[v].append(r)
    for row in incident[1:]:
        if not row:
            r += 1
            row.append(r)
    return tuple(map(tuple, incident[1:]))


def isolated_positive_vertices(y: Sequence[int]) -> tuple[int, ...]:
    """Positions with no incident positive edge, read off the array in O(n).

    Position i is isolated iff (a) i = 1 or y[i] = 0, (b) y[j] < i for every
    j in 2..n, and (c) j + y[j] <= i for every j in 2..i-1.  The j = 1 term
    would only ever pair i with itself, so the scan in (c) starts at 2.
    """
    y = validate_feasible(y)
    top = max(y[1:], default=0)  # (b) holds iff top < i
    reach = 0  # max of j + y[j] over j in 2..i-1
    iso: list[int] = []
    for i in range(1, len(y) + 1):
        if (i == 1 or y[i - 1] == 0) and top < i and reach <= i:
            iso.append(i)
        if i > 1:
            reach = max(reach, i + y[i - 1])
    return tuple(iso)


def export_graph(g: PrefixGraph, fmt: str = "dot", sign: str = "both") -> str:
    """Render the graph as DOT or compact JSON.

    DOT declares every vertex (isolated ones stay visible) and draws negative
    edges dashed.  JSON is {"n": ..., "pos": [[u,v],...], "neg": [[u,v],...]}
    with only the requested sign lists present.  Both list the edges of each
    sign in (u, v) order, written level by level from the array
    (_positive_levels, _negative_levels) through _level_lines, never as edge
    tuples: every vertex id is rendered once, into one name table.
    """
    if sign not in ("positive", "negative", "both"):
        raise ValueError(f"unknown sign {sign!r}")
    if fmt not in ("json", "dot"):
        raise ValueError(f"unknown format {fmt!r}")
    pos = _positive_levels(g.y) if sign in ("positive", "both") else None
    neg = _negative_levels(g.y) if sign in ("negative", "both") else None
    names = list(map(str, range(g.n + 1)))
    if fmt == "json":
        text = f'{{"n":{g.n}'
        for key, levels in (("pos", pos), ("neg", neg)):
            if levels is not None:
                edges = _level_lines(levels, names, "[{},", "]", ",")
                text += f',"{key}":[' + ",".join(edges) + "]"
        return text + "}"
    lines = ["graph prefix_graph {"]
    lines.extend(f"  {v};" for v in names[1:])
    for levels, tail in ((pos, ";"), (neg, " [style=dashed];")):
        if levels is not None:
            lines.extend(_level_lines(levels, names, "  {} -- ", tail, "\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"
