"""Finite symbolic models of field configurations and the predimension
calculus over them.

A Configuration holds named coordinates, a rational matroid whose column
rank plays the role of transcendence degree, and graph points (b, e) for
function slots (an exponential, or a wp-map with or without complex
multiplication).  Each slot carries a multiplier field k_i (Q, or Q(sqrt(d))
in the CM case) and a matrix of k_i-linear relations among its points.

On top of that sit td, the group ranks grk_i, the predimension
delta = td - sum grk_i, strongness, strong hulls, dimension as a minimum of
delta over extensions, greedy chain decomposition, the semimodularity
inequalities, and the independence certificate replaying the main
inequality chain d3 <= min(d1, d2), delta0(A/C) <= d1 + d2 - d3.

Every rank is one fraction-free elimination (`quadfield._bareiss`) of a
column subset of primitive integer rows built once per configuration; a CM
slot is ranked over Q on the basis (1, sqrt(d)), two columns per point, and
the rank halved.

Subsets are bitmasks over the coordinate list.  td ranks are memoized per
coordinate mask and group ranks per set of slot points, so every superset
query is one scan: `_min_delta` (strong hull = its first minimizer,
dimension = its minimum) or the first-violator scan of `is_strong`.
Intersection-compatibility compares the distinct per-slot point sets, so it
is decided at every size up to the cap of 20 coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BaseNotStrong,
    Frozen,
    GroundSetTooLarge,
    IncompatibleConfiguration,
    InvalidConfiguration,
    NotStrong,
)
from .quadfield import _bareiss, _checked_d, _primitive_row

GROUND_SET_CAP = 20


class FunctionSlot(Frozen):
    """A coordinate-graph slot: exponential or a wp-map, with its multiplier
    field (Q, or Q(sqrt(d)) for the CM case)."""

    __slots__ = ("index",
                 "kind",  # "exp" | "wp_cm" | "wp_generic"
                 "d",  # CM discriminant kernel for "wp_cm"
                 "label")

    def __init__(self, index: int, kind: str, d: Optional[int] = None,
                 label: Optional[str] = None):
        if kind not in ("exp", "wp_cm", "wp_generic"):
            raise InvalidConfiguration(f"unknown slot kind {kind!r}")
        if kind == "wp_cm":
            _checked_d(d, InvalidConfiguration)
        elif d is not None:
            raise InvalidConfiguration(f"slot kind {kind} takes no d")
        for name, value in zip(self.__slots__, (index, kind, d, label)):
            object.__setattr__(self, name, value)


class GroupPoint(NamedTuple):
    slot: int
    b: str
    e: str


class PredimReport(NamedTuple):
    td: int
    grk_per_slot: tuple
    delta: int

    @property
    def grk_total(self) -> int:
        return sum(self.grk_per_slot)


class ChainStep(NamedTuple):
    subset: frozenset
    tag: str  # "delta_zero" | "generic_singleton"
    delta: int


class Chain(NamedTuple):
    base: frozenset
    steps: tuple


# -- Configuration -----------------------------------------------------------

class Configuration:
    """Immutable finite model; all predimension queries live here.

    matroid columns are indexed like `coordinates`; relations[i] rows are
    k_i-linear dependencies among the slot-i points in their listed order."""

    def __init__(self, coordinates: Sequence[str], matroid_rows: Sequence[Sequence],
                 slots: Sequence[FunctionSlot], points: Sequence[GroupPoint],
                 relations=None, base: Sequence[str] = ()):
        self.coordinates = tuple(coordinates)
        if len(set(self.coordinates)) != len(self.coordinates):
            raise InvalidConfiguration("duplicate coordinate names")
        if len(self.coordinates) > GROUND_SET_CAP:
            raise GroundSetTooLarge(
                f"{len(self.coordinates)} coordinates exceed cap {GROUND_SET_CAP}"
            )
        self.index = {c: i for i, c in enumerate(self.coordinates)}
        self.matroid = tuple(
            tuple(Fraction(x) for x in row) for row in matroid_rows
        )
        for row in self.matroid:
            if len(row) != len(self.coordinates):
                raise InvalidConfiguration("matroid row width != #coordinates")
        self._matroid_rows = tuple(_primitive_row(row) for row in self.matroid)
        self.slots = tuple(slots)
        if [s.index for s in self.slots] != list(range(len(self.slots))):
            raise InvalidConfiguration("slot indices must be 0..n-1 in order")
        self.points = tuple(points)
        self.points_by_slot = tuple(
            tuple(j for j, p in enumerate(self.points) if p.slot == s.index)
            for s in self.slots
        )
        self.relations = tuple(
            tuple(tuple(row) for row in (relations or {}).get(i, ()))
            for i in range(len(self.slots))
        )
        self.base = frozenset(base)
        self._td_cache = {}
        self._grk_cache = {}
        self._compat_cache = None
        self._validate_basic()
        # per slot, each point's coordinate pair as a mask
        self._point_pairs = tuple(
            tuple(self.mask((self.points[j].b, self.points[j].e)) for j in pts)
            for pts in self.points_by_slot
        )

    # -- invariant checks ----------------------------------------------------

    def _validate_basic(self):
        for p in self.points:
            if p.slot < 0 or p.slot >= len(self.slots):
                raise InvalidConfiguration(f"point {p} names a missing slot")
            if p.b == p.e:
                raise InvalidConfiguration(f"point {p} has b == e")
            for c in (p.b, p.e):
                if c not in self.index:
                    raise InvalidConfiguration(f"point {p} names unknown {c!r}")
        for c in self.base:
            if c not in self.index:
                raise InvalidConfiguration(f"base names unknown {c!r}")
        self._relation_rows = []
        for i, rel in enumerate(self.relations):
            d, rows = self.slots[i].d, []
            for row in rel:
                if len(row) != len(self.points_by_slot[i]):
                    raise InvalidConfiguration(
                        f"slot {i} relation row width != #points"
                    )
                if d is not None and not all(
                        isinstance(e, (tuple, list)) and len(e) == 2 for e in row):
                    raise InvalidConfiguration(
                        f"slot {i} CM relation entry is not an (x, y) pair"
                    )
                # x + y sqrt(d) on the columns (1, sqrt(d)): rows (x, d y), (y, x)
                block = [row] if d is None else [
                    [v for x, y in row for v in (x, d * Fraction(y))],
                    [v for x, y in row for v in (y, x)]]
                block = [_primitive_row(r) for r in block]
                w = len(block)  # columns per point
                if sum(1 for j in range(len(row)) if any(block[0][j * w:j * w + w])) < 2:
                    raise InvalidConfiguration(
                        f"slot {i} relation row has < 2 nonzero entries"
                    )
                rows += block
            if _bareiss(rows)[0] != len(rows):
                raise InvalidConfiguration(
                    f"slot {i} relation matrix is not of full row rank"
                )
            self._relation_rows.append(tuple(rows))

    # -- subsets as bitmasks --------------------------------------------------

    def mask(self, names) -> int:
        m = 0
        for c in names:
            if c not in self.index:
                raise InvalidConfiguration(f"unknown coordinate {c!r}")
            m |= 1 << self.index[c]
        return m

    def names(self, mask: int) -> frozenset:
        return frozenset(
            c for i, c in enumerate(self.coordinates) if mask >> i & 1
        )

    @property
    def full_mask(self) -> int:
        return (1 << len(self.coordinates)) - 1

    # -- td -------------------------------------------------------------------

    def _matroid_rank(self, mask: int) -> int:
        hit = self._td_cache.get(mask)
        if hit is not None:
            return hit
        cols = [i for i in range(len(self.coordinates)) if mask >> i & 1]
        rank = _bareiss([[row[i] for i in cols] for row in self._matroid_rows])[0]
        self._td_cache[mask] = rank
        return rank

    def td_mask(self, b_mask: int, a_mask: int = 0) -> int:
        return self._matroid_rank(b_mask | a_mask) - self._matroid_rank(a_mask)

    # -- grk ------------------------------------------------------------------

    def _points_in(self, slot_i: int, mask: int) -> int:
        """Bitmask over the slot's points of those with both coordinates in
        mask; the points in A ^ B are those in A and in B."""
        included = 0
        for pos, pair in enumerate(self._point_pairs[slot_i]):
            if mask & pair == pair:
                included |= 1 << pos
        return included

    def _points_rank(self, slot_i: int, included: int) -> int:
        """Rank over k_i of the relations plus the unit rows of the points in
        the `included` bitmask.  The unit rows span their points' columns, so
        it is |P| + rank(relations on the other points' columns)."""
        rows = self._relation_rows[slot_i]
        size = included.bit_count()
        if not rows:
            return size
        key = (slot_i, included)
        hit = self._grk_cache.get(key)
        if hit is not None:
            return hit
        w = len(rows[0]) // len(self.points_by_slot[slot_i])
        cols = [k for k in range(len(rows[0])) if not included >> k // w & 1]
        rank = size + _bareiss([[row[k] for k in cols] for row in rows])[0] // w
        self._grk_cache[key] = rank
        return rank

    def _gamma_rank(self, slot_i: int, mask: int) -> int:
        """Rank of relations + the points with both coordinates in mask."""
        return self._points_rank(slot_i, self._points_in(slot_i, mask))

    def grk_mask(self, slot_i: int, b_mask: int, a_mask: int = 0) -> int:
        """dim over k_i of (Gamma(B) + Gamma(A)) / Gamma(A) in the quotient
        by the relation rows: a rank difference with relations as base rows."""
        return (self._gamma_rank(slot_i, b_mask | a_mask)
                - self._gamma_rank(slot_i, a_mask))


# -- public operations --------------------------------------------------------

def _mask_of(cfg: Configuration, subset) -> int:
    if isinstance(subset, int):
        return subset
    return cfg.mask(subset)


def all_slots(cfg: Configuration) -> tuple:
    return tuple(range(len(cfg.slots)))


def delta(cfg: Configuration, slots_subset, b_subset, a_subset=()) -> PredimReport:
    b_mask = _mask_of(cfg, b_subset)
    a_mask = _mask_of(cfg, a_subset)
    t = cfg.td_mask(b_mask, a_mask)
    per = tuple(cfg.grk_mask(i, b_mask, a_mask) for i in slots_subset)
    return PredimReport(t, per, t - sum(per))


def _delta_int(cfg, slots_subset, b_mask, a_mask) -> int:
    t = cfg.td_mask(b_mask, a_mask)
    return t - sum(cfg.grk_mask(i, b_mask, a_mask) for i in slots_subset)


def _supersets_of(cfg, base_mask, within=None):
    """Masks S with base_mask <= S <= within (default: every coordinate),
    by popcount then lexicographic order of the added coordinates."""
    if within is None:
        within = cfg.full_mask
    free = [i for i in range(len(cfg.coordinates))
            if within >> i & 1 and not base_mask >> i & 1]
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            m = base_mask
            for i in combo:
                m |= 1 << i
            yield m


def _min_delta(cfg, slots_subset, base_mask, rel_mask, within=None):
    """(least delta(S / rel), first S attaining it) over the supersets S of
    base_mask inside within, in the order of _supersets_of."""
    best = best_mask = None
    for s_mask in _supersets_of(cfg, base_mask, within):
        d = _delta_int(cfg, slots_subset, s_mask, rel_mask)
        if best is None or d < best:
            best, best_mask = d, s_mask
    return best, best_mask


def is_intersection_compatible(cfg: Configuration) -> bool:
    """span(points in A) ^ span(points in B) = span(points in A^B) inside
    V_i / relations, for all subset pairs; via the rank identity
    rank(A) + rank(B) - rank(A u B) == rank(A ^ B) with relation rows as the
    common base (intersection can only be larger, never smaller).

    Both sides depend on A and B only through the point sets P = points in A
    and Q = points in B: Gamma(A) + Gamma(B) is spanned by P | Q, and the
    points in A ^ B are P & Q.  So the test runs over pairs of the distinct
    point sets of each slot: the sets of points lying in some union of
    point coordinate pairs."""
    if cfg._compat_cache is None:
        cfg._compat_cache = all(_slot_compatible(cfg, i)
                                for i in range(len(cfg.slots))
                                if cfg.relations[i])
    return cfg._compat_cache


def _slot_compatible(cfg, slot_i) -> bool:
    unions = {0}
    for pair in cfg._point_pairs[slot_i]:
        unions |= {u | pair for u in unions}
    sets = sorted({cfg._points_in(slot_i, u) for u in unions})
    rank = cfg._points_rank
    return all(rank(slot_i, p) + rank(slot_i, q) - rank(slot_i, p | q)
               == rank(slot_i, p & q)
               for p, q in combinations(sets, 2))


def is_strong(cfg: Configuration, a_subset, slots_subset=None):
    """(True, None) iff delta(S/A) >= 0 for every S containing A; otherwise
    (False, minimal violating subset) with minimality by cardinality then
    lexicographic coordinate order."""
    if slots_subset is None:
        slots_subset = all_slots(cfg)
    a_mask = _mask_of(cfg, a_subset)
    for s_mask in _supersets_of(cfg, a_mask):
        if _delta_int(cfg, slots_subset, s_mask, a_mask) < 0:
            return False, cfg.names(s_mask)
    return True, None


def strong_hull(cfg: Configuration, a_subset, slots_subset=None) -> frozenset:
    """The first minimizer S* of delta(S/A) over S >= A, by cardinality then
    lexicographic order.  It is strong for every configuration, since
    delta(T/S*) = delta(T/A) - delta(S*/A) >= 0 for T >= S*, and it is the
    least strong superset of A whenever one exists (always, under
    intersection-compatibility)."""
    if slots_subset is None:
        slots_subset = all_slots(cfg)
    a_mask = _mask_of(cfg, a_subset)
    return cfg.names(_min_delta(cfg, slots_subset, a_mask, a_mask)[1])


def predim_dim(cfg: Configuration, a_subset, c_subset=(), slots_subset=None,
               with_witness: bool = False):
    """dim(A/C) = min over S >= A of delta(S u C / C); C must be strong."""
    if slots_subset is None:
        slots_subset = all_slots(cfg)
    c_mask = _mask_of(cfg, c_subset)
    _require_strong(cfg, c_mask, slots_subset)
    a_mask = _mask_of(cfg, a_subset) | c_mask
    best, best_mask = _min_delta(cfg, slots_subset, a_mask, c_mask)
    if with_witness:
        return best, cfg.names(best_mask)
    return best


def _require_strong(cfg, c_mask, slots_subset):
    if not is_strong(cfg, c_mask, slots_subset)[0]:
        raise BaseNotStrong("the base subset is not strong")


def chain_decompose(cfg: Configuration, a_subset, b_subset,
                    slots_subset=None) -> Chain:
    """Greedy chain from A to B: absorb a smallest delta = 0 extension while
    one exists, otherwise adjoin the lexicographically first coordinate as a
    generic singleton (td = delta = 1 step).  A must be strong in B."""
    if slots_subset is None:
        slots_subset = all_slots(cfg)
    a_mask = _mask_of(cfg, a_subset)
    b_mask = _mask_of(cfg, b_subset) | a_mask
    if _min_delta(cfg, slots_subset, a_mask, a_mask, within=b_mask)[0] < 0:
        raise NotStrong("the chain base is not strong in the target")
    steps = []
    cur = a_mask
    while cur != b_mask:
        found = next((ext for ext in _supersets_of(cfg, cur, within=b_mask)
                      if ext != cur
                      and _delta_int(cfg, slots_subset, ext, cur) == 0), None)
        if found is not None:
            steps.append(ChainStep(cfg.names(found), "delta_zero", 0))
            cur = found
            continue
        rest = b_mask & ~cur
        ext = cur | (rest & -rest)
        d = _delta_int(cfg, slots_subset, ext, cur)
        t = cfg.td_mask(ext, cur)
        if not (d == 1 and t == 1):
            raise NotStrong(
                "no delta = 0 extension and the singleton step is not "
                f"generic (td = {t}, delta = {d})"
            )
        steps.append(ChainStep(cfg.names(ext), "generic_singleton", 1))
        cur = ext
    return Chain(cfg.names(a_mask), tuple(steps))


class SemimodularityReport(NamedTuple):
    grk_upper_semimodular: bool
    td_lower_semimodular: bool
    delta_submodular: bool
    grk_monotone: bool

    @property
    def all_hold(self) -> bool:
        return (self.grk_upper_semimodular and self.td_lower_semimodular
                and self.delta_submodular and self.grk_monotone)


def check_semimodularity(cfg: Configuration, a_subset, b_subset, c_subset=(),
                         slots_subset=None) -> SemimodularityReport:
    """The four lemma inequalities on the triple (A, B, C), C inside both."""
    if slots_subset is None:
        slots_subset = all_slots(cfg)
    c_mask = _mask_of(cfg, c_subset)
    a_mask = _mask_of(cfg, a_subset) | c_mask
    b_mask = _mask_of(cfg, b_subset) | c_mask
    if not is_intersection_compatible(cfg):
        raise IncompatibleConfiguration(
            "the configuration's relation data violates "
            "intersection-compatibility; the lemma does not apply to it"
        )
    ab = a_mask | b_mask
    cap = a_mask & b_mask

    def g(mask):
        return sum(cfg.grk_mask(i, mask, c_mask) for i in slots_subset)

    grk_ok = g(ab) + g(cap) >= g(a_mask) + g(b_mask)
    td_ok = (cfg.td_mask(ab, c_mask) + cfg.td_mask(cap, c_mask)
             <= cfg.td_mask(a_mask, c_mask) + cfg.td_mask(b_mask, c_mask))
    dl_ok = (_delta_int(cfg, slots_subset, ab, c_mask)
             + _delta_int(cfg, slots_subset, cap, c_mask)
             <= _delta_int(cfg, slots_subset, a_mask, c_mask)
             + _delta_int(cfg, slots_subset, b_mask, c_mask))
    mono_ok = True
    for i in slots_subset:
        if cfg.grk_mask(i, cap, c_mask) > cfg.grk_mask(i, ab, c_mask):
            mono_ok = False
    return SemimodularityReport(grk_ok, td_ok, dl_ok, mono_ok)


class IndependenceCertificate(NamedTuple):
    d0: int
    d1: int
    d2: int
    d3: int
    b1_witness: frozenset
    b2_witness: frozenset
    a_intersection: frozenset
    delta0_a: int
    semimodular_bound_holds: bool  # delta0(A/C) <= d1 + d2 - d3
    d3_bound_holds: bool           # d3 <= min(d1, d2)
    hypotheses_hold: bool          # fa closed under F1 and F2 over C u a
    conclusion_holds: Optional[bool]
    note: str = ""

    @property
    def certified(self) -> bool:
        return (self.hypotheses_hold and self.semimodular_bound_holds
                and self.d3_bound_holds and bool(self.conclusion_holds))


def independence_certificate(cfg: Configuration, slots_f1, slots_f2,
                             a_subset, fa_subset, c_subset=()) -> IndependenceCertificate:
    """Replay of the main inequality chain.  With F0 = F1 ^ F2 and
    F3 = F1 u F2, compute d_i = dim_{F_i}(a u fa / C), take minimizing
    witnesses B1, B2 and A = B1 ^ B2, and verify delta0(A/C) <= d1 + d2 - d3
    and d3 <= min(d1, d2).  The hypotheses are that fa adds no F1- or
    F2-dimension over C u a; when they certify, the conclusion is that fa
    adds no F0-dimension either."""
    f1 = tuple(slots_f1)
    f2 = tuple(slots_f2)
    f0 = tuple(i for i in f1 if i in f2)
    f3 = tuple(sorted(set(f1) | set(f2)))
    c_mask = _mask_of(cfg, c_subset)
    a_mask = _mask_of(cfg, a_subset) | c_mask
    fa_mask = _mask_of(cfg, fa_subset)
    target = a_mask | fa_mask

    # every dim below is over the base C: check it once per slot subset
    for slots in dict.fromkeys((f0, f1, f2, f3)):
        _require_strong(cfg, c_mask, slots)
    d0 = _min_delta(cfg, f0, target, c_mask)[0]
    d1, b1_mask = _min_delta(cfg, f1, target, c_mask)
    d2, b2_mask = _min_delta(cfg, f2, target, c_mask)
    d3 = _min_delta(cfg, f3, target, c_mask)[0]

    # hypotheses: dim_{F_i}(fa / C u a) = 0, computed as a dim difference
    h1 = d1 - _min_delta(cfg, f1, a_mask, c_mask)[0]
    h2 = d2 - _min_delta(cfg, f2, a_mask, c_mask)[0]
    hypotheses = h1 == 0 and h2 == 0

    a_int = b1_mask & b2_mask
    delta0_a = _delta_int(cfg, f0, a_int, c_mask)
    semi_ok = delta0_a <= d1 + d2 - d3
    d3_ok = d3 <= min(d1, d2)

    conclusion = None
    note = ""
    if hypotheses:
        conclusion = d0 - _min_delta(cfg, f0, a_mask, c_mask)[0] == 0
    else:
        note = ("certificate withheld: the local-closure hypotheses fail "
                f"(dim_F1(fa/Ca) = {h1}, dim_F2(fa/Ca) = {h2})")
    return IndependenceCertificate(
        d0, d1, d2, d3, cfg.names(b1_mask), cfg.names(b2_mask),
        cfg.names(a_int), delta0_a,
        semi_ok, d3_ok, hypotheses, conclusion, note,
    )
