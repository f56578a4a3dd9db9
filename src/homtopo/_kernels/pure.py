"""Pure-Python kernels: multihomomorphism cell enumeration and GF(2) rank.

Cells of the multihomomorphism complex from G (n_g vertices) to H (n_h
vertices) are packed into single ints: the mask chosen for G-vertex x
occupies bit field ``(n_g-1-x)*n_h .. (n_g-x)*n_h - 1``, so vertex 0 sits
in the highest field and numeric order on keys equals lexicographic order
on mask tuples.  The 0-cells, the homomorphisms G -> H, are the keys whose
every field holds one bit.
"""

from __future__ import annotations

from homtopo.errors import BudgetError


def enumerate_hom_cells(adj_g, adj_h, budget: int) -> list[int]:
    """All packed cells eta with eta(x) x eta(y) <= E(H) for each G-edge (x,y).

    Backtracks over the G-vertices, highest degree first, narrowing the
    masks allowed at later vertices.  The last vertex is not a level of the
    search: once the others are fixed, every nonempty subset of its allowed
    mask is a cell (a looped last vertex keeps only subsets inside their
    own common neighborhood), and the whole batch is emitted in one inner
    loop.

    Raises BudgetError (with .found) as soon as more than `budget` cells
    exist.  A batch without a loop is checked once, before it is emitted:
    if it would take the count past `budget`, the error reports
    found = budget + 1, the count at which a cell-by-cell check stops.  A
    looped batch is checked cell by cell.
    """
    return _walk(adj_g, adj_h, budget, False)


def enumerate_zero_cells(adj_g, adj_h, budget: int) -> list[int]:
    """The 0-cells of Hom(G,H), the homomorphisms G -> H, as ascending keys.

    The walk of enumerate_hom_cells with one target per vertex: each level
    takes the single bits of its allowed mask from the top down, a looped
    vertex is allowed only H's looped vertices, and the last vertex emits
    one key per bit of its allowed mask.  BudgetError reports
    found = budget + 1 as soon as more than `budget` maps exist.
    """
    return _walk(adj_g, adj_h, budget, True)


def _walk(adj_g, adj_h, budget: int, zero: bool) -> list[int]:
    """The search behind both entries; `zero` keeps single bits only.

    sub[d] is level d's candidate; a 0-cell level replaces the subset
    step's next mask by its top bit.  Reached only through the two names
    above, so that a wrapper on one name (perfbench's tracer wraps
    enumerate_hom_cells) never sees the other's calls.
    """
    n_g = len(adj_g)
    n_h = len(adj_h)
    full_h = (1 << n_h) - 1
    if n_g == 0:
        return [0]

    # common H-neighbors of a mask; the empty mask imposes nothing
    def cn(mask: int) -> int:
        out = full_h
        while mask:
            low = mask & -mask
            out &= adj_h[low.bit_length() - 1]
            mask ^= low
        return out

    # assign high-degree G-vertices first so constraints bite early
    order = sorted(range(n_g), key=lambda v: (-adj_g[v].bit_count(), v))
    shift = [(n_g - 1 - x) * n_h for x in order]
    looped = [adj_g[x] >> x & 1 for x in order]
    # later[d] = positions after d in `order` that are G-adjacent to order[d]
    later = []
    for d, x in enumerate(order):
        later.append([e for e in range(d + 1, n_g) if adj_g[x] >> order[e] & 1])

    out: list[int] = []
    last = n_g - 1
    allowed = [full_h] * n_g
    if zero:
        h_looped = sum(1 << y for y in range(n_h) if adj_h[y] >> y & 1)
        allowed = [h_looped if lp else full_h for lp in looped]
    saved: list[list[tuple[int, int]]] = [[] for _ in range(n_g)]
    sub = [0] * n_g
    key = [0] * n_g
    d = 0
    sub[0] = allowed[0]
    while True:
        if d == last:
            a = allowed[d]
            base = key[d]
            if zero:
                if len(out) + a.bit_count() > budget:
                    raise BudgetError(f"homomorphism budget {budget} exceeded",
                                      found=budget + 1)
                a <<= shift[d]
                while a:
                    low = a & -a
                    out.append(base | low)
                    a ^= low
            elif looped[d]:
                s = a
                while s:
                    if not s & ~cn(s):
                        out.append(base | s << shift[d])
                        if len(out) > budget:
                            raise BudgetError(f"cell budget {budget} exceeded",
                                              found=len(out))
                    s = (s - 1) & a
            else:
                if len(out) + (1 << a.bit_count()) - 1 > budget:
                    raise BudgetError(f"cell budget {budget} exceeded",
                                      found=budget + 1)
                a <<= shift[d]
                s = a
                while s:
                    out.append(base | s)
                    s = (s - 1) & a
            s = 0
        else:
            s = sub[d]
            if zero:
                s = sub[d] = 1 << s.bit_length() >> 1
        if s == 0:
            d -= 1
            if d < 0:
                break
            for e, old in saved[d]:
                allowed[e] = old
            saved[d].clear()
            sub[d] = (sub[d] - 1) & allowed[d]
            continue
        if looped[d] and s & ~cn(s):
            sub[d] = (s - 1) & allowed[d]
            continue
        c = cn(s)
        ok = True
        for e in later[d]:
            old = allowed[e]
            new = old & c
            if new != old:
                saved[d].append((e, old))
                allowed[e] = new
            if new == 0:
                ok = False
                break
        if ok:
            key[d + 1] = key[d] | (s << shift[d])
            d += 1
            sub[d] = allowed[d]
        else:
            for e, old in saved[d]:
                allowed[e] = old
            saved[d].clear()
            sub[d] = (s - 1) & allowed[d]
    out.sort()
    return out


def _pivots(cols) -> dict[int, int]:
    """Reduce the columns in turn; each survivor is keyed by the index of its
    lowest bit (a small int hashes in constant time, a power of two does not)."""
    pivots: dict[int, int] = {}
    for col in cols:
        while col:
            low = (col & -col).bit_length()
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            col ^= other
    return pivots


def gf2_rank(cols, pivot_rows: set[int] | None = None) -> int:
    """Rank over GF(2) of the int-bitmask columns.

    If `pivot_rows` is given, the row index of each reduced column's lowest
    bit is added to it: one row per unit of rank.
    """
    pivots = _pivots(cols)
    if pivot_rows is not None:
        pivot_rows.update(low - 1 for low in pivots)
    return len(pivots)


def gf2_in_span(cols, target: int) -> bool:
    """Is `target` an XOR combination of `cols`?"""
    pivots = _pivots(cols)
    while target:
        other = pivots.get((target & -target).bit_length())
        if other is None:
            return False
        target ^= other
    return True
