"""Construct a least indeterminate string realizing a feasible array.

Letters are int bitmasks while the walk runs (bit s is symbol s), and so is
ban[p], the symbols forbidden at p.  One writer keeps the invariant that
ban[p] is the OR of the letters of p's negative neighbours: every symbol
that lands at a position is banned at once at each of its negative
neighbours, which keeps all forced mismatches intact.

Vertex 1 is the one exception, and ban[1] stays 0.  Its negative
neighbours are the zero entries of the array, most positions of a random
string, and PrefixGraph.neg_adj lists 1 in no row but its own, so a symbol
put at a zero entry is not banned at 1.  ban[1] is read only where no zero
entry holds a symbol, so 0 is the true OR there: at the positive edges
(1, j), which come first and whose j are nonzero entries, and when vertex 1
is filled, which happens only when there is no positive edge.  The
completion pass skips vertex 1, since its letter is already a, b, ..., k:
at each edge (1, j) the letter of j is still empty and every symbol so far
is at 1, so the edge either gives j a symbol of 1 or, with all of them
banned at j, has none to reuse and opens the next fresh symbol at both;
no later edge reaches 1.

The positive edges of the prefix graph are walked in ascending order.  At
each edge the two endpoint letters must come to share a symbol: if they
already do the edge is skipped; otherwise the candidate symbols (those
present at exactly one endpoint, smallest first) are tried against ban at
the other endpoint.  When every candidate is blocked, the smallest existing
symbol banned at neither endpoint is placed on both, and only when there is
none is a fresh symbol opened.  Positions never touched by a positive edge
are then filled, each with the smallest symbol not banned there.  A last
pass visits positions in ascending order and gives each letter every symbol
below its largest one that is not banned there, since under the letter
order each such symbol makes the letter smaller; this never changes the
alphabet and breaks no edge.  A filled letter gains nothing, because every
smaller symbol was banned at it when it was filled and bans only grow.
Each distinct final mask becomes a tuple once, so equal letters of the
result are one shared object.

What the result guarantees: it realizes the array on symbols 1..sigma
densely; no fresh symbol is opened while an existing one is admissible at
both endpoints of the edge; and no letter can be made smaller by adding a
symbol to it.  Dropping a symbol occasionally still can (position 4 of
6 1 4 3 0 0 holds {a,b,c,d} where {a,b,c} also works).  The result is the
lex-least string on a minimum alphabet for every array up to length 4, but
not in general: for 5 2 3 1 1 the walk uses four symbols where
{a,b} {a,c} {b,c} a b uses three.  A minimum alphabet is a clique cover
problem, so the walk stays greedy and polynomial rather than exact.  On
every regular array up to length 11 sigma is still minimum among all
indeterminate strings: positions of a clique of negative edges need
pairwise disjoint letters, so the largest such clique bounds sigma from
below, and sigma meets that bound on each of them.

infer chooses between two paths on the graph's regularity verdict,
PrefixGraph.regular_labels, and _walk is only the walk.  A regular array
skips it: the O(n) verdict yields its positive components, and the one
regular witness, graph.regular_string_from_components, colours them
greedily in O(n), with one-symbol letters.  Its docstring proves that the
colouring realizes the array and is the lex-least regular string that
does.  That it is also the walk's string, and that its sigma equals the
largest clique of negative edges, are not proven; both are checked on
every regular array up to length 11 and on hypothesis draws up to length
200, and the first also on every feasible array up to length 8 and the
benchmark pools.  infer_with_trace always walks, so its trace describes
the walk.
"""

from __future__ import annotations

from typing import Sequence

from .core import IndetString, _map_once, render_symbol
from .graph import PrefixGraph, build_prefix_graph, regular_string_from_components

Trace = list[str]


def _symbols(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _name(bit: int) -> str:
    return render_symbol(bit.bit_length() - 1)


def _walk(g: PrefixGraph, trace: Trace | None) -> IndetString:
    """The walk of the module docstring over g, logging to trace if given."""
    y, neg_adj = g.y, g.neg_adj
    letters = [0] * (g.n + 1)  # index 0 unused
    # ban[p] == OR of letters[q], q a negative neighbour, but ban[1] stays 0
    # (see the module docstring)
    ban = [0] * (g.n + 1)

    def put(p: int, bits: int) -> None:
        letters[p] |= bits
        for q in neg_adj[p]:
            ban[q] |= bits

    def forbid_line(p: int, bit: int) -> None:
        # a zero entry's row leaves out its neighbour 1; y[0] = n is not zero
        row = neg_adj[p] if y[p - 1] else (1, *neg_adj[p])
        if row:
            trace.append(f"forbid {_name(bit)} at {','.join(map(str, row))}")

    def accept(p: int, bit: int) -> None:
        put(p, bit)
        if trace is not None:
            trace.append(f"accept {_name(bit)} at {p}")
            forbid_line(p, bit)

    sigma = 0
    for i, j in g.pos_edges:
        if trace is not None:
            trace.append(f"edge ({i},{j})")
        li, lj = letters[i], letters[j]
        if li & lj:
            if trace is not None:
                trace.append("skip")
            continue
        # a symbol at one endpoint is a candidate for the other
        fits = (lj & ~ban[i]) | (li & ~ban[j])
        bit = fits & -fits
        if trace is not None:
            for sym in _symbols((li | lj) & (bit - 1)):
                trace.append(f"reject {render_symbol(sym)} at {j if li >> sym & 1 else i}")
        if bit:
            accept(j if bit & li else i, bit)
            continue
        # reuse the smallest existing symbol admissible at both endpoints
        free = ((2 << sigma) - 2) & ~(ban[i] | ban[j])
        if free:
            bit = free & -free
            accept(i, bit)
            accept(j, bit)
            continue
        sigma += 1
        bit = 1 << sigma
        put(i, bit)
        put(j, bit)
        if trace is not None:
            trace.append(f"new {_name(bit)} at {i},{j}")
            forbid_line(i, bit)
            forbid_line(j, bit)
    for p in range(1, g.n + 1):
        if not letters[p]:
            taken = ban[p] | 1
            bit = (taken + 1) & ~taken
            put(p, bit)
            if trace is not None:
                trace.append(f"fill {_name(bit)} at {p}")
    # complete each letter in the letter order: any symbol below its largest
    # one makes it smaller, so add every such symbol that is not banned;
    # letter 1 lacks none
    for p in range(2, g.n + 1):
        lp = letters[p]
        add = ((1 << (lp.bit_length() - 1)) - 2) & ~lp & ~ban[p]
        if add:
            put(p, add)
            if trace is not None:
                for sym in _symbols(add):
                    trace.append(f"fill {render_symbol(sym)} at {p}")
    return tuple(_map_once(_symbols, letters[1:]))


def infer(y: Sequence[int]) -> IndetString:
    """Indeterminate string with prefix table y, least as far as the walk reaches.

    Exact (lex-least on a minimum alphabet) for every y of length <= 4; see
    the module docstring for what holds beyond that.  The graph's
    regularity verdict chooses the path: a regular y is answered in O(n) by
    regular_string_from_components, and any other y is walked.
    """
    g = build_prefix_graph(y)
    if g.regular_labels is not None:
        return regular_string_from_components(g, g.regular_labels)
    return _walk(g, None)


def infer_with_trace(y: Sequence[int]) -> tuple[IndetString, Trace]:
    """Like infer, also returning the event log (trace format v1).

    Always walks, regular y included, so the log has every edge; it never
    reads the regularity verdict.

    One line per event: 'edge (i,j)', 'skip', 'accept s at p', 'reject s at
    p', 'new s at i,j', 'forbid s at p1,p2,...', 'fill s at p'.
    """
    trace: Trace = []
    x = _walk(build_prefix_graph(y), trace)
    return x, trace
