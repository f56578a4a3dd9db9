"""The bitmask kernels: multihomomorphism cell enumeration and GF(2) rank.

Cells of the multihomomorphism complex from G (n_g vertices) to H (n_h
vertices) are packed into single ints: the mask chosen for G-vertex x
occupies bit field ``(n_g-1-x)*n_h .. (n_g-x)*n_h - 1``, so vertex 0 sits
in the highest field and numeric order on keys equals lexicographic order
on mask tuples.  The 0-cells, the homomorphisms G -> H, are the cells
whose every field holds one bit, but enumerate_zero_cells packs them as
digits: vertex x's field is zero_cell_width(n_h) bits wide and holds f(x)
itself, vertex 0 again highest, so ascending keys are the maps in
lexicographic order.  An int hashes to itself, and digit keys are dense in
the low bits that pick a dict slot, where one-hot keys take only a few
values there.

The enumeration is one backtracking walk, a recursion with one level per
G-vertex before the last two: each candidate narrows a fresh copy of the
later vertices' allowed masks, so a level that returns leaves nothing to
restore.  Each node needs the common H-neighbourhood of a mask, and reads
it from a table that the call builds once by doubling over H's rows and
drops when it returns: one entry per mask of up to 12 bits, so at most
4,096 entries, and a target wider than 12 vertices gets one table per
12-bit chunk of the mask, the lookups ANDed.  A walk over 0-cells has
single-bit masks only, so it reads H's rows from a lookup with one entry
per vertex and builds no table.  The last two G-vertices are one loop:
each candidate of the penultimate vertex emits the last vertex's cells as
a batch.
"""

from __future__ import annotations

from homtopo.errors import BudgetError

BACKEND = "pure"  # read only by perfbench/worker.py; drop when it stops
_core = None  # read only by perfbench/tracing.py; drop when it stops


def enumerate_hom_cells(adj_g, adj_h, budget: int) -> list[int]:
    """All packed cells eta with eta(x) x eta(y) <= E(H) for each G-edge (x,y).

    Backtracks over the G-vertices, highest degree first, narrowing the
    masks allowed at later vertices by common H-neighbourhoods, read from a
    per-call table (_common_neighbours).  The last two vertices are one
    loop, not two levels of the search: for each candidate s of the
    penultimate vertex, every nonempty subset of the last vertex's allowed
    mask (cut to the common neighbourhood of s when the two are adjacent)
    is a cell (a looped last vertex keeps only subsets inside their own
    common neighbourhood), and that batch is emitted at once.

    Raises BudgetError (with .found) as soon as more than `budget` cells
    exist.  A batch without a loop is checked once, before it is emitted:
    if it would take the count past `budget`, the error reports
    found = budget + 1, the count at which a cell-by-cell check stops.  A
    looped batch is checked cell by cell.
    """
    return _walk(adj_g, adj_h, budget, False)


def enumerate_zero_cells(adj_g, adj_h, budget: int) -> list[int]:
    """The 0-cells of Hom(G,H), the homomorphisms G -> H, as ascending keys
    of digits: f(x) in vertex x's zero_cell_width(n_h)-bit field.

    The walk of enumerate_hom_cells with one target per vertex: each level
    takes the single bits of its allowed mask from the top down and writes
    the chosen vertex's number into its field, a looped vertex is allowed
    only H's looped vertices, and the last vertex emits one key per bit of
    its allowed mask.  A single bit's common neighbourhood is one row of H,
    read from a lookup with one entry per H-vertex, not from a table over
    every mask.  BudgetError reports found = budget + 1 as soon as more
    than `budget` maps exist.
    """
    return _walk(adj_g, adj_h, budget, True)


def zero_cell_width(n_h: int) -> int:
    """Bits in a vertex's field of a 0-cell key: enough for the digit
    n_h - 1, and at least one."""
    return max(1, (n_h - 1).bit_length())


CHUNK = 12  # mask bits per common-neighbour table: 4,096 entries at most


def _common_neighbours(adj_h):
    """mask -> the H-vertices adjacent to every vertex of mask (all of H for
    the empty mask), by table lookup.

    table[m] for every m below 2^CHUNK is built by doubling over the rows:
    the entry of a mask holding bit y is the entry without it, ANDed with
    row y.  A target wider than CHUNK vertices gets one table per CHUNK
    bits of the mask, and the lookups are ANDed; with one table (every
    target of at most CHUNK vertices) the lookup is the list's own
    __getitem__, with no Python call per node.
    """
    full = (1 << len(adj_h)) - 1
    tables = []
    for lo in range(0, len(adj_h), CHUNK):
        table = [full]
        for row in adj_h[lo:lo + CHUNK]:
            table += [c & row for c in table]
        tables.append((lo, table))
    if len(tables) == 1:
        return tables[0][1].__getitem__
    chunk = (1 << CHUNK) - 1

    def cn(mask: int) -> int:
        out = full
        for lo, table in tables:
            out &= table[mask >> lo & chunk]
        return out
    return cn


def _walk(adj_g, adj_h, budget: int, zero: bool) -> list[int]:
    """The search behind both entries; `zero` keeps single bits only and
    packs digits.

    search(d, pre, allowed) takes level d's candidates s in turn (a 0-cell
    level takes the single bits of its allowed mask from the top down),
    narrows a fresh copy of `allowed` at d's later neighbours by cn(s), and
    recurses only when no mask has emptied, so the recursion holds the
    search's state and nothing is restored; it is at most n_g - 1 <= 63
    calls deep, far inside Python's recursion limit.  At the penultimate
    level it is the final loop instead: each candidate s of the penultimate
    vertex, then the last vertex's batch; n_g = 1 is that loop's one batch
    with an empty prefix.  Reached only through the two names above, so
    that a wrapper on one name (perfbench's tracer wraps
    enumerate_hom_cells) never sees the other's calls.
    """
    n_g = len(adj_g)
    n_h = len(adj_h)
    full_h = (1 << n_h) - 1
    if n_g == 0:
        return [0]

    # assign high-degree G-vertices first so constraints bite early
    order = sorted(range(n_g), key=lambda v: (-adj_g[v].bit_count(), v))
    # a cell's field holds a mask over H; a 0-cell's holds the digit f(x)
    width = zero_cell_width(n_h) if zero else n_h
    shift = [(n_g - 1 - x) * width for x in order]
    put = shift  # where a level's `pre | s << sd` puts its candidate
    looped = [adj_g[x] >> x & 1 for x in order]
    # later[d] = positions after d in `order` that are G-adjacent to order[d]
    later = []
    for d, x in enumerate(order):
        later.append([e for e in range(d + 1, n_g) if adj_g[x] >> order[e] & 1])

    allowed = [full_h] * n_g
    if zero:
        h_looped = sum(1 << y for y in range(n_h) if adj_h[y] >> y & 1)
        allowed = [h_looped if lp else full_h for lp in looped]
        # a 0-cell level writes its digit into `pre` itself, keep[d]
        # clearing the field first; the shared `pre | s << sd` then puts
        # the single bit s above every field, where the final loop masks
        # it off with `fields`
        fields = (1 << n_g * width) - 1
        keep = [~((1 << width) - 1 << t) for t in shift]
        put = [n_g * width] * n_g
    # a vertex allowed nothing admits no cell; past here every allowed mask
    # is nonempty, so the final loop's empty candidate means n_g == 1 only
    if not all(allowed):
        return []
    if zero:
        # a 0-cell walk looks up single bits only: one entry per H-vertex
        cn = {1 << y: row for y, row in enumerate(adj_h)}.__getitem__
    else:
        cn = _common_neighbours(adj_h)

    out: list[int] = []
    last = n_g - 1
    pen = n_g - 2  # the penultimate position; -1 when n_g == 1
    sl, l_looped = shift[last], looped[last]
    # n_g == 1: one candidate s = 0 (the empty prefix), with no constraint
    sp, p_looped, adj = 0, 0, False
    if pen >= 0:
        sp, p_looped, adj = shift[pen], looped[pen], last in later[pen]

    def search(d, pre, allowed):
        if d < pen:
            lp, sd, ahead = looped[d], put[d], later[d]
            top = allowed[d]
            s = top
            while s:
                if zero:
                    y = s.bit_length() - 1
                    s = 1 << y
                    pre = pre & keep[d] | y << shift[d]
                if not (lp and s & ~cn(s)):
                    c = cn(s)
                    narrowed = allowed[:]
                    for e in ahead:
                        narrowed[e] &= c
                        if not narrowed[e]:
                            break
                    else:
                        search(d + 1, pre | s << sd, narrowed)
                s = (s - 1) & top
            return
        # the final loop: each candidate s of the penultimate vertex, then
        # the last vertex's batch
        top = allowed[pen] if pen >= 0 else 0
        a_last = allowed[last]
        s = top
        while True:
            if zero:
                s = 1 << s.bit_length() >> 1
            if not (p_looped and s & ~cn(s)):
                a = a_last & cn(s) if adj else a_last
                if a:
                    base = pre | s << sp
                    if zero:
                        if len(out) + a.bit_count() > budget:
                            raise BudgetError(
                                f"homomorphism budget {budget} exceeded",
                                found=budget + 1)
                        # the digit prefix: s >> 1 has f(x) bits for
                        # s = 1 << f(x), and none for n_g == 1's empty
                        # prefix s = 0
                        base = pre & fields | (s >> 1).bit_length() << sp
                        while a:
                            y = a.bit_length() - 1
                            out.append(base | y << sl)
                            a ^= 1 << y
                    elif l_looped:
                        t = a
                        while t:
                            if not t & ~cn(t):
                                out.append(base | t << sl)
                                if len(out) > budget:
                                    raise BudgetError(
                                        f"cell budget {budget} exceeded",
                                        found=len(out))
                            t = (t - 1) & a
                    else:
                        if len(out) + (1 << a.bit_count()) - 1 > budget:
                            raise BudgetError(f"cell budget {budget} exceeded",
                                              found=budget + 1)
                        a <<= sl
                        t = a
                        while t:
                            out.append(base | t)
                            t = (t - 1) & a
            s = (s - 1) & top
            if not s:
                break

    search(0, 0, allowed)
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


def gf2_rank(cols, pivot_rows: set[int]) -> int:
    """Rank over GF(2) of the int-bitmask columns.  The row index of each
    reduced column's lowest bit is added to `pivot_rows`: one row per unit
    of rank.
    """
    pivots = _pivots(cols)
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
