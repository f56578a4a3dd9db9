"""Wedge counts f(m,n) for Hom(K_m,K_n), Euler characteristics, cycle
component counts, Stirling machinery, and the cube-plus-diagonal zonotope M_n.

f(m,n) = number of (n-m)-spheres in the wedge Hom(K_m,K_n) is computed three
independent ways (recurrence, alternating binomial sum, Stirling sum).  Each
way is a stream over n for fixed m.  One walk per m reads the three together
with the chi(m,n) stream and checks on every row that they agree and that
chi = 1 + (-1)^(m-n) f; f_wedge, chi_hom and f_table all read that walk, so
every checked f and chi comes from it.  All arithmetic is exact big-integer.

M_n = [0,1]^n + [0, (1,...,1)] (Minkowski sum).  Its proper faces are
realized by their vertex sets in digit coordinates {0,1,2}^n, so the face
relation is plain set containment and isomorphism checks against the cell
poset of Hom(K_2,K_{n+1}) do not presuppose the labeling map rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import comb, factorial

from .errors import ConsistencyError, DomainError, ResourceError
from .graphs import complete
from .homcx import build_hom
from .topology import Poset

STAR_PLUS = "star+"
STAR_MINUS = "star-"
MIDDLE = "middle"

MN_MAX = 6
# largest n for f, chi and the generating identity; `formulas f|chi` at
# m = 512, n = 1024 take 0.8-1.2 s as a command on 2 vCPUs
FORMULA_N_MAX = 1024
# a table checks f and chi on every (m, n), so it stops sooner
TABLE_N_MAX = 128

_DIGITS_PLUS = {1: (2,), 0: (1,), "*": (1, 2)}
_DIGITS_MINUS = {-1: (0,), 0: (1,), "*": (0, 1)}


def _check_size(n: int) -> None:
    if n > FORMULA_N_MAX:
        raise ResourceError(f"formulas capped at n={FORMULA_N_MAX}")


def _sign(k: int) -> int:
    """(-1)^k as an exact int, for negative k too."""
    return -1 if k & 1 else 1


def _stirling_column(k: int):
    """Yield S(0,k), S(1,k), ... from the rows of the triangle cut at
    column k."""
    row = [1] + [0] * k
    while True:
        yield row[k]
        for j in range(k, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0


def _kmn_diagonals(m: int, corner: int, sign: int):
    """Yield g(m,m), g(m,m+1), ... for the Hom(K_m,K_n) recurrence
    g(j,k) = j g(j-1,k-1) + sign (j-1) g(j,k-1) with g(k,k) = k! + corner
    and g(1,k) = 1 + corner, one diagonal k - j at a time."""
    diag, fact = [], 1
    for j in range(1, m + 1):
        fact *= j
        diag.append(fact + corner)
    while True:
        yield diag[-1]
        nxt = [diag[0]]
        for j in range(2, m + 1):
            nxt.append(j * nxt[-1] + sign * (j - 1) * diag[j - 1])
        diag = nxt


def _f_closed_values(m: int, n: int):
    """Yield f(m,n), f(m,n+1), ... by the alternating binomial sum
    f(m,n) = sum over k = 1..m-1 of (-1)^(m+k+1) C(m,k+1) k^n."""
    terms = [_sign(m + k + 1) * comb(m, k + 1) * k ** n for k in range(1, m)]
    while True:
        yield sum(terms)
        terms = [t * k for k, t in enumerate(terms, start=1)]


def _f_stirling_values(m: int):
    """Yield f(m,m), f(m,m+1), ... by the Stirling sum
    f(m,n) = (-1)^(m+n+1) + m! (-1)^n s(n), s(n) = sum over k = m..n of
    (-1)^k S(k-1, m-1)."""
    fm, s = factorial(m), 0
    column = islice(_stirling_column(m - 1), m - 1, None)
    for n, v in enumerate(column, start=m):
        s += _sign(n) * v
        yield _sign(m + n + 1) + fm * _sign(n) * s


def _rows(m: int, top: int):
    """Yield (n, f(m,n), chi(m,n)) for n = m..top from one pass of the
    recurrence, closed-form, Stirling and chi streams, checking on every
    row that the three f values agree and that chi = 1 + (-1)^(m-n) f."""
    streams = zip(range(m, top + 1), _kmn_diagonals(m, -1, 1),
                  _f_closed_values(m, m), _f_stirling_values(m),
                  _kmn_diagonals(m, 0, -1))
    for n, rec, closed, stirling, chi in streams:
        if not rec == closed == stirling:
            raise ConsistencyError(
                f"f({m},{n}) methods disagree: recurrence {rec}, "
                f"closed {closed}, stirling {stirling}")
        if chi != 1 + _sign(m - n) * rec:
            raise ConsistencyError(
                f"chi({m},{n}) = {chi} != 1 + (-1)^(m-n) f({m},{n})")
        yield n, rec, chi


def f_wedge(m: int, n: int) -> int:
    """Sphere count of the wedge Hom(K_m,K_n); 0 when m > n."""
    if m < 1 or n < 1:
        raise DomainError("f(m,n) needs m, n >= 1")
    _check_size(n)
    if m > n:
        return 0
    for _, f, _ in _rows(m, n):
        pass
    return f


def chi_hom(m: int, n: int) -> int:
    """Non-reduced Euler characteristic of Hom(K_m,K_n)."""
    if m < 1 or n < m:
        raise DomainError("chi(m,n) needs n >= m >= 1")
    _check_size(n)
    for _, _, chi in _rows(m, n):
        pass
    return chi


def kmn_cells(m: int, n: int) -> int:
    """Number of cells of Hom(K_m,K_n): maps from the n target vertices
    to {unused, 1..m} that hit every source vertex,
    sum over i = 0..m of (-1)^i C(m,i) (m+1-i)^n; 0 when m > n."""
    if m < 1 or n < 0:
        raise DomainError("cell count needs m >= 1 and n >= 0")
    _check_size(n)
    if m > n:
        return 0
    return sum(_sign(i) * comb(m, i) * (m + 1 - i) ** n for i in range(m + 1))


def verify_generating_identity(m: int, upto: int) -> bool:
    """Termwise to degree `upto`: sum f(m,n)x^n == (m!x·SF_{m-1}(x)-x^m)/(1+x).

    Both sides are expanded as coefficient streams: the left from the f
    recurrence, the right by dividing the numerator series by (1+x).
    """
    if m < 1 or upto < 1:
        raise DomainError("need m >= 1 and upto >= 1")
    _check_size(max(m, upto))
    lhs = _kmn_diagonals(m, -1, 1)  # f(m,n) for n >= m
    fm = factorial(m)
    rhs = 0
    for n, s in zip(range(1, upto + 1), _stirling_column(m - 1)):
        rhs = fm * s - int(n == m) - rhs  # s = S(n-1, m-1)
        if rhs != (next(lhs) if n >= m else 0):
            return False
    return True


def cycle_components(t: int) -> int:
    """Components of Hom(C_t,K_3): floor((t+1)/3) unless 3|t, then t/3+5."""
    if t < 3:
        raise DomainError("cycles need t >= 3")
    return t // 3 + 5 if t % 3 == 0 else (t + 1) // 3


@dataclass(frozen=True)
class MnFaceLabel:
    """A proper face of M_n: a star label over {0,1,*}/{0,-1,*}, or for the
    middle band the cube face f over {0,1,*} whose top copy and that copy
    one digit lower span it."""

    kind: str
    f: tuple

    def __post_init__(self):
        if self.kind == STAR_PLUS:
            ok = all(e in (0, 1, "*") for e in self.f) and 1 in self.f
        elif self.kind == STAR_MINUS:
            ok = all(e in (0, -1, "*") for e in self.f) and -1 in self.f
        elif self.kind == MIDDLE:
            ok = (all(e in (0, 1, "*") for e in self.f)
                  and 1 in self.f and 0 in self.f)
        else:
            ok = False
        if not ok:
            raise DomainError(f"bad face label {self.kind} {self.f}")

    @property
    def n(self) -> int:
        return len(self.f)

    @property
    def dim(self) -> int:
        free = sum(1 for e in self.f if e == "*")
        return free + 1 if self.kind == MIDDLE else free

    def vertices(self) -> frozenset:
        """Vertex set in digit coordinates {0,1,2}^n."""
        if self.kind == STAR_MINUS:
            return frozenset(product(*[_DIGITS_MINUS[e] for e in self.f]))
        top = frozenset(product(*[_DIGITS_PLUS[e] for e in self.f]))
        if self.kind == STAR_PLUS:
            return top
        return top | {tuple(d - 1 for d in v) for v in top}


def mn_faces(n: int) -> list[MnFaceLabel]:
    """All proper faces of M_n, sorted by (dim, kind, label)."""
    if n < 1:
        raise DomainError("mn_faces needs n >= 1")
    if n > MN_MAX:
        raise ResourceError(f"M_n enumeration capped at n={MN_MAX}")
    out = []
    for f in product((1, 0, "*"), repeat=n):
        if 1 in f:
            out.append(MnFaceLabel(STAR_PLUS, f))
    for f in product((-1, 0, "*"), repeat=n):
        if -1 in f:
            out.append(MnFaceLabel(STAR_MINUS, f))
    for f in product((1, 0, "*"), repeat=n):
        if 1 in f and 0 in f:
            out.append(MnFaceLabel(MIDDLE, f))
    out.sort(key=lambda l: (l.dim, l.kind, tuple(map(str, l.f))))
    return out


def _vertex_masks(faces: list[MnFaceLabel]) -> list[int]:
    ids: dict[tuple, int] = {}
    masks = []
    for lab in faces:
        m = 0
        for v in lab.vertices():
            if v not in ids:
                ids[v] = len(ids)
            m |= 1 << ids[v]
        masks.append(m)
    return masks


def mn_face_poset(n: int) -> Poset:
    """Face poset of the zonotope M_n; covers from vertex-set containment."""
    faces = mn_faces(n)
    masks = _vertex_masks(faces)
    dims = [lab.dim for lab in faces]
    by_dim: dict[int, list[int]] = {}
    for i, d in enumerate(dims):
        by_dim.setdefault(d, []).append(i)
    covers = [[j for j in by_dim.get(dims[i] - 1, ())
               if masks[j] & ~masks[i] == 0] for i in range(len(faces))]
    return Poset(dims, covers)


def mn_symmetry(faces: list[MnFaceLabel]) -> tuple[int, ...]:
    """Central symmetry (digit d -> 2-d) as a permutation of the face list."""
    where = {}
    for i, lab in enumerate(faces):
        where[lab.vertices()] = i
    perm = []
    for lab in faces:
        flipped = frozenset(tuple(2 - d for d in v) for v in lab.vertices())
        perm.append(where[flipped])
    return tuple(perm)


def rho_cell(lab: MnFaceLabel) -> tuple[int, int]:
    """The cell (A,B) of Hom(K_2,K_{n+1}) matched to an M_n face: stars pick
    up the extra vertex n on the side without their sign, the middle band
    maps to (supp(f,1), supp(f,0))."""
    n = lab.n
    sup = {v: 0 for v in (1, 0, -1)}
    for i, e in enumerate(lab.f):
        if e in sup:
            sup[e] |= 1 << i
    if lab.kind == STAR_PLUS:
        return sup[1], sup[0] | 1 << n
    if lab.kind == STAR_MINUS:
        return sup[0] | 1 << n, sup[-1]
    return sup[1], sup[0]


def rho_isomorphism_check(n: int) -> bool:
    """rho is a containment-reversing bijection of M_n faces onto the cells
    of Hom(K_2,K_{n+1}) and intertwines central symmetry with the flip."""
    faces = mn_faces(n)
    masks = _vertex_masks(faces)
    x = build_hom(complete(2), complete(n + 1))
    cells = [rho_cell(lab) for lab in faces]
    keys = [x.key_of(c) for c in cells]
    if sorted(keys) != sorted(x.keys):
        return False
    # key_of checked each mask, so a face's key bits lie in its coface's
    for i in range(len(faces)):
        for j in range(len(faces)):
            contained = masks[i] & ~masks[j] == 0
            if contained != (keys[j] & ~keys[i] == 0):
                return False
    sym = mn_symmetry(faces)
    return all(rho_cell(faces[sym[i]]) == (b, a)
               for i, (a, b) in enumerate(cells))


def f_table(max_m: int, max_n: int) -> list[dict]:
    """Triangle of f(m,n) and chi(m,n) values as a list of row objects,
    checked as f_wedge and chi_hom check them, one walk per m."""
    if max_m < 1 or max_n < 1:
        raise DomainError("a table of f(m,n) needs max m, max n >= 1")
    if max_n > TABLE_N_MAX:
        raise ResourceError(f"formula tables capped at n={TABLE_N_MAX}")
    return [{"m": m, "n": n, "f": f, "chi": chi}
            for m in range(1, min(max_m, max_n) + 1)
            for n, f, chi in _rows(m, max_n)]
