"""Brute-force references for the self-test and the tests, coded apart from
the engine: the module imports only the standard library and reads plain
data.  `rank_det` eliminates over Q or Q(sqrt(d)), `PredimOracle` takes
delta and dim of a configuration record by exhaustion over coordinate
subsets, and `totient_count` counts rationals by height."""

from fractions import Fraction


class _Quad:
    """x + y sqrt(d) for a squarefree d < 0, so that only 0 has norm 0."""

    def __init__(self, x, y, d):
        self.x, self.y, self.d = Fraction(x), Fraction(y), d

    def __bool__(self):
        return bool(self.x or self.y)

    def __sub__(self, o):
        return _Quad(self.x - o.x, self.y - o.y, self.d)

    def __mul__(self, o):
        return _Quad(self.x * o.x + self.d * self.y * o.y, self.x * o.y + self.y * o.x, self.d)

    def __truediv__(self, o):
        norm = o.x * o.x - self.d * o.y * o.y
        return self * _Quad(o.x / norm, -o.y / norm, self.d)


def rank_det(rows, d=None):
    """(rank, det) of the matrix `rows` by Gaussian elimination over Q, or
    over Q(sqrt(d)) when d is given, with entries x or (x, y) = x + y sqrt(d)
    for any x, y that Fraction reads.  det is None unless the matrix is
    square; over Q(sqrt(d)) it is an (x, y) pair."""
    def lift(x):
        return _Quad(*x, d) if isinstance(x, (tuple, list)) else _Quad(x, 0, d)

    mat = [[Fraction(x) if d is None else lift(x) for x in r] for r in rows]
    det, sign = Fraction(1) if d is None else lift(1), 1
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            sign = -sign
        top = mat[rank]
        det = det * top[col]
        for r in mat[rank + 1:]:
            if r[col]:
                f = r[col] / top[col]
                r[:] = [a - f * b for a, b in zip(r, top)]
        rank += 1
    if len(mat) != ncols:
        return rank, None
    sign *= rank == ncols  # a singular matrix has det 0
    return rank, sign * det if d is None else (sign * det.x, sign * det.y)


class PredimOracle:
    """td, group ranks, delta(S/C) and dim(A/C) of a configuration record,
    as `serialize.configuration_record` writes it.  Coordinate subsets are
    bitmasks over its coordinate list; a slot's points are numbered in their
    listed order."""

    def __init__(self, record):
        self.coordinates = record["coordinates"]
        self.index = {c: i for i, c in enumerate(self.coordinates)}
        self.matroid = record["matroid"]["rows"]
        self.slots = record["slots"]
        self.points = [[p for p in record["points"] if p["slot"] == i]
                       for i in range(len(self.slots))]
        self.relations = {r["slot"]: r["rows"] for r in record["relations"]}
        self._ranks = {}

    def td(self, mask) -> int:
        """The rank of the matroid columns in mask."""
        if mask not in self._ranks:
            cols = [i for i in range(len(self.coordinates)) if mask >> i & 1]
            self._ranks[mask] = rank_det([[row[i] for row in self.matroid] for i in cols])[0]
        return self._ranks[mask]

    def gamma_rank(self, slot, chosen) -> int:
        """The rank over the slot's field of its relation rows plus a unit
        row for each point position in `chosen`."""
        key = (slot, frozenset(chosen))
        if key not in self._ranks:
            units = [[int(k == pos) for k in range(len(self.points[slot]))] for pos in key[1]]
            self._ranks[key] = rank_det(self.relations.get(slot, []) + units,
                                        self.slots[slot].get("d"))[0]
        return self._ranks[key]

    def inside(self, slot, mask) -> frozenset:
        """The positions of the slot's points with both coordinates in mask."""
        return frozenset(pos for pos, p in enumerate(self.points[slot])
                         if mask >> self.index[p["b"]] & 1 and mask >> self.index[p["e"]] & 1)

    def grk(self, slot, mask) -> int:
        return self.gamma_rank(slot, self.inside(slot, mask)) - self.gamma_rank(slot, ())

    def delta(self, s_mask, c_mask=0) -> int:
        """delta(S/C) over every slot."""
        s_mask |= c_mask
        return self.td(s_mask) - self.td(c_mask) - sum(
            self.grk(i, s_mask) - self.grk(i, c_mask) for i in range(len(self.slots)))

    def dim(self, a_mask, c_mask=0) -> int:
        """The least delta(S/C) over every S that holds A and C."""
        base = a_mask | c_mask
        return min(self.delta(s, c_mask) for s in range(1 << len(self.coordinates))
                   if s & base == base)


def totient_count(height: int) -> int:
    """Positive rationals of height <= H: 2 * sum(phi(k)) - 1, via a sieve."""
    phi = list(range(height + 1))
    for i in range(2, height + 1):
        if phi[i] == i:  # i prime
            for j in range(i, height + 1, i):
                phi[j] -= phi[j] // i
    return 2 * sum(phi[1:]) - 1
