"""Predimension calculus: micro-examples, invariants, and brute oracles,
among them the field-generic rank over Fraction and QuadNum that checks the
engine's integer elimination."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wplab.cli import run
from wplab.errors import (
    BaseNotStrong,
    GroundSetTooLarge,
    IncompatibleConfiguration,
    InvalidConfiguration,
)
from wplab.predim_engine import (
    Configuration,
    FunctionSlot,
    GroupPoint,
    chain_decompose,
    check_semimodularity,
    delta,
    grk,
    independence_certificate,
    is_intersection_compatible,
    is_strong,
    predim_dim,
    strong_hull,
    td,
)
from wplab.quadfield import QuadNum, _bareiss, _primitive_row
from wplab.serialize import parse_configuration

F = Fraction


def free_matroid(n):
    return [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]


def one_exp_point(matroid=None):
    """Coordinates {b, e} with one exponential graph point."""
    return Configuration(
        ("b", "e"), matroid or free_matroid(2),
        [FunctionSlot(0, "exp")], [GroupPoint(0, "b", "e")],
    )


def test_td_examples():
    cfg = one_exp_point()
    assert td(cfg, ("b", "e"), ("b", "e")) == 0
    assert td(cfg, ("b", "e")) == 2
    dep = one_exp_point(matroid=[[F(1), F(1)]])  # equal columns
    assert td(dep, ("b", "e")) == 1


def test_grk_examples():
    cfg = one_exp_point()
    assert grk(cfg, 0, ("b", "e")) == 1
    assert grk(cfg, 0, ("b", "e"), ("b",)) == 1
    assert grk(cfg, 0, ("b", "e"), ("b", "e")) == 0


def test_grk_cm_relation():
    # sqrt(d) * p1 - p2 = 0: two CM points, one dimension
    cfg = Configuration(
        ("b1", "e1", "b2", "e2"), free_matroid(4),
        [FunctionSlot(0, "wp_cm", -1)],
        [GroupPoint(0, "b1", "e1"), GroupPoint(0, "b2", "e2")],
        {0: [[(F(0), F(1)), (F(-1), F(0))]]},
    )
    assert grk(cfg, 0, ("b1", "e1", "b2", "e2")) == 1


def test_delta_examples():
    cfg = one_exp_point()
    rep = delta(cfg, (0,), ("b", "e"))
    assert (rep.td, rep.grk_total, rep.delta) == (2, 1, 1)
    dep = one_exp_point(matroid=[[F(1), F(1)]])
    assert delta(dep, (0,), ("b", "e")).delta == 0
    assert delta(cfg, (), ("b", "e")).delta == 2  # no slots: delta = td


def test_compatibility_and_relation_row_invariants():
    assert is_intersection_compatible(one_exp_point())
    with pytest.raises(InvalidConfiguration):
        Configuration(
            ("b", "e"), free_matroid(2), [FunctionSlot(0, "exp")],
            [GroupPoint(0, "b", "e")], {0: [[F(1)]]},  # single nonzero entry
        )
    with pytest.raises(InvalidConfiguration, match="not an \\(x, y\\) pair"):
        Configuration(
            ("b", "e"), free_matroid(2), [FunctionSlot(0, "wp_cm", -1)],
            [GroupPoint(0, "b", "e"), GroupPoint(0, "b", "e")],
            {0: [[F(1), (F(-1), F(0))]]},
        )


def test_incompatible_relation_detected():
    # sqrt(d)-relation across points on disjoint coordinate pairs violates
    # intersection compatibility: Gamma({p1 coords}) ^ Gamma({p2 coords})
    # is 0 pointwise but the relation identifies the two lines
    cfg = Configuration(
        ("b1", "e1", "b2", "e2"), free_matroid(4),
        [FunctionSlot(0, "wp_cm", -1)],
        [GroupPoint(0, "b1", "e1"), GroupPoint(0, "b2", "e2")],
        {0: [[(F(0), F(1)), (F(-1), F(0))]]},
    )
    assert not is_intersection_compatible(cfg)
    with pytest.raises(IncompatibleConfiguration):
        check_semimodularity(cfg, ("b1", "e1"), ("b2", "e2"))


def test_compatible_relation_on_shared_pair():
    cfg = Configuration(
        ("b", "e"), free_matroid(2), [FunctionSlot(0, "exp")],
        [GroupPoint(0, "b", "e"), GroupPoint(0, "b", "e")],
        {0: [[F(1), F(-2)]]},
    )
    assert is_intersection_compatible(cfg)
    assert grk(cfg, 0, ("b", "e")) == 1  # two points modulo one relation


def test_is_strong_and_hull():
    cfg = one_exp_point(matroid=[[F(1), F(1)]])  # td({b,e}) = 1, delta = 0
    ok, witness = is_strong(cfg, ())
    assert ok and witness is None
    # two unrelated points over a td-1 pair force delta({b,e}) = 1 - 2 = -1
    dep = Configuration(
        ("b", "e", "x"),
        [[F(1), F(1), F(0)], [F(0), F(0), F(1)]],
        [FunctionSlot(0, "exp")],
        [GroupPoint(0, "b", "e"), GroupPoint(0, "b", "e")],
    )
    ok, witness = is_strong(dep, ())
    assert not ok and witness == frozenset(("b", "e"))
    hull = strong_hull(dep, ())
    ok2, _ = is_strong(dep, hull)
    assert ok2
    assert strong_hull(dep, hull) == hull  # idempotent


def test_hull_monotone_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 6)
        coords = [f"c{i}" for i in range(n)]
        matroid = [[F(rng.randint(-1, 1)) for _ in range(n)]
                   for _ in range(n - 1)]
        pts = [GroupPoint(0, *rng.sample(coords, 2)) for _ in range(2)]
        cfg = Configuration(coords, matroid, [FunctionSlot(0, "exp")], pts)
        a = frozenset(c for c in coords if rng.random() < 0.4)
        a2 = a | frozenset(c for c in coords if rng.random() < 0.3)
        h1, h2 = strong_hull(cfg, a), strong_hull(cfg, a2)
        assert h1 <= h2
        assert strong_hull(cfg, h1) == h1


def test_predim_dim_and_witness():
    cfg = one_exp_point()
    dim, witness = predim_dim(cfg, ("b",), with_witness=True)
    assert dim == 1
    assert delta(cfg, (0,), witness).delta == dim
    # dim is a lower bound over every superset
    for k in range(3):
        for extra in combinations(("b", "e"), k):
            s = frozenset(("b",)) | frozenset(extra)
            assert dim <= delta(cfg, (0,), s).delta


def test_predim_dim_base_must_be_strong():
    dep = Configuration(
        ("b", "e"), [[F(1), F(1)]], [FunctionSlot(0, "exp")],
        [GroupPoint(0, "b", "e")],
    )
    # {b} is not strong: delta({b,e}/{b}) = 0 - 1 = -1
    with pytest.raises(BaseNotStrong):
        predim_dim(dep, ("e",), ("b",))


def test_chain_examples():
    cfg = one_exp_point()
    empty = chain_decompose(cfg, ("b", "e"), ("b", "e"))
    assert empty.steps == ()
    chain = chain_decompose(cfg, (), ("b", "e"))
    tags = [s.tag for s in chain.steps]
    assert tags == ["generic_singleton", "delta_zero"]
    assert [sorted(s.subset) for s in chain.steps] == [["b"], ["b", "e"]]
    assert sum(s.delta for s in chain.steps) == delta(cfg, (0,), ("b", "e")).delta


def test_strong_two_code_paths_agree():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(3, 6)
        coords = [f"c{i}" for i in range(n)]
        matroid = [[F(rng.randint(-2, 2)) for _ in range(n)]
                   for _ in range(rng.randint(2, n))]
        pts = [GroupPoint(0, *rng.sample(coords, 2))
               for _ in range(rng.randint(1, 3))]
        cfg = Configuration(coords, matroid, [FunctionSlot(0, "exp")], pts)
        a = frozenset(c for c in coords if rng.random() < 0.4)
        ok, _ = is_strong(cfg, a)
        # independent path: brute minimum of delta over supersets
        free = [c for c in coords if c not in a]
        best = 0
        for k in range(1, len(free) + 1):
            for extra in combinations(free, k):
                d = delta(cfg, (0,), a | frozenset(extra), a).delta
                best = min(best, d)
        assert ok == (best >= 0)


def test_semimodularity_report_fields():
    cfg = one_exp_point()
    rep = check_semimodularity(cfg, ("b",), ("e",))
    assert rep.all_hold
    assert rep.grk_upper_semimodular and rep.td_lower_semimodular
    assert rep.delta_submodular and rep.grk_monotone


def test_ground_set_cap():
    coords = [f"c{i}" for i in range(21)]
    with pytest.raises(GroundSetTooLarge):
        Configuration(coords, free_matroid(21), [], [])


def test_certificate_withheld_when_hypotheses_fail():
    # fa is generic: it does add F1-dimension over C u a
    cfg = Configuration(
        ("a1", "e1", "fa"), free_matroid(3),
        [FunctionSlot(0, "exp"), FunctionSlot(1, "wp_generic")],
        [GroupPoint(0, "a1", "e1")],
    )
    cert = independence_certificate(cfg, (0,), (1,), ("a1", "e1"), ("fa",))
    assert not cert.hypotheses_hold
    assert not cert.certified
    assert "withheld" in cert.note


def test_certificate_checks_the_base_once_per_slot_subset(monkeypatch):
    """F0 = (), F1 = (0,), F2 = (1,), F3 = (0, 1): four strongness checks of
    C, not one per dimension (seven: d0..d3, two hypotheses, conclusion)."""
    from wplab import acceptance, predim_engine

    calls = []
    real = predim_engine.is_strong

    def counted(cfg, a_subset, slots_subset=None):
        calls.append(tuple(slots_subset))
        return real(cfg, a_subset, slots_subset)

    monkeypatch.setattr(predim_engine, "is_strong", counted)
    _, cert = acceptance.worked_certificate()
    assert cert.certified
    assert sorted(calls) == [(), (0,), (0, 1), (1,)]


# -- oracles: field-generic ranks, the absorption hull and the coordinate-pair
#    compatibility scan --------------------------------------------------------

def field_rank(rows) -> int:
    """Row rank by Gaussian elimination over any exact field whose elements
    support != 0, 1 / x, * and - (Fraction, QuadNum); rows are copied."""
    rows = [list(r) for r in rows if any(x != 0 for x in r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < cols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            if ri[col] != 0:
                f = ri[col] * inv
                for j in range(col, cols):
                    ri[j] -= f * pr[j]
        rank += 1
        col += 1
    return rank


def slot_field_rank(cfg, slot_i, rows) -> int:
    """Rank over k_i; wp_cm entries (x, y) mean x + y*sqrt(d)."""
    d = cfg.slots[slot_i].d
    if cfg.slots[slot_i].kind == "wp_cm":
        return field_rank([[QuadNum(F(x), F(y), d) for x, y in row]
                           for row in rows])
    return field_rank([[F(x) for x in row] for row in rows])


def oracle_td(cfg, mask) -> int:
    """Rank of the matroid columns in mask, as the row rank of the
    transposed column subset over Fraction."""
    cols = [i for i in range(len(cfg.coordinates)) if mask >> i & 1]
    return field_rank([[row[c] for row in cfg.matroid] for c in cols])


def oracle_gamma_rank(cfg, slot_i, chosen) -> int:
    """Rank over k_i of the relation rows plus a unit row for each point
    position in `chosen`."""
    npts = len(cfg.points_by_slot[slot_i])
    if cfg.slots[slot_i].kind == "wp_cm":
        zero, one = (F(0), F(0)), (F(1), F(0))
    else:
        zero, one = F(0), F(1)
    rows = [list(r) for r in cfg.relations[slot_i]] + [
        [one if k == pos else zero for k in range(npts)] for pos in chosen]
    return slot_field_rank(cfg, slot_i, rows)


def realified(rows, d):
    """Rows with entries (x, y) = x + y sqrt(d) over Q, two columns per entry
    for the basis (1, sqrt(d)): each row gives (x, d y) and (y, x)."""
    out = []
    for row in rows:
        out.append([v for x, y in row for v in (x, d * y)])
        out.append([v for x, y in row for v in (y, x)])
    return out


def _shaped_matrices(entries, zero=0, add=lambda x, y: x + y):
    """Matrices of up to 7 rows and 6 columns of `entries`, some with a zero
    row, a zero column, a repeated row or a row adding two others."""

    @st.composite
    def build(draw):
        ncols = draw(st.integers(0, 6))
        rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             max_size=4))
        if ncols and draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [zero] * ncols)
        if rows and ncols and draw(st.booleans()):
            col = draw(st.integers(0, ncols - 1))
            for r in rows:
                r[col] = zero
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        if rows and draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([add(x, y) for x, y in zip(r1, r2)])
        return rows

    return build()


small_ints = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
cm_entries = st.tuples(rationals, rationals)


@settings(max_examples=300, deadline=None)
@given(_shaped_matrices(small_ints))
def test_integer_rank_matches_field_rank(rows):
    assert _bareiss(rows)[0] == field_rank([[F(x) for x in r] for r in rows])


@settings(max_examples=100, deadline=None)
@given(_shaped_matrices(rationals))
def test_scaled_rational_rows_keep_their_rank(rows):
    assert _bareiss([_primitive_row(r) for r in rows])[0] == field_rank(rows)


@settings(max_examples=80, deadline=None)
@given(_shaped_matrices(cm_entries, (F(0), F(0)),
                        lambda x, y: (x[0] + y[0], x[1] + y[1])),
       st.sampled_from((-1, -2, -3, -7)))
def test_realified_cm_rows_have_twice_the_quadratic_rank(rows, d):
    # the engine's reading of a CM relation matrix over Q
    quad = field_rank([[QuadNum(x, y, d) for x, y in r] for r in rows])
    assert _bareiss([_primitive_row(r) for r in realified(rows, d)])[0] == 2 * quad


def test_td_and_grk_on_every_mask_match_the_field_formulas():
    """td is the transposed Fraction rank of the column subset, and grk the
    k_i rank of relation plus unit rows less that of the relation rows, on
    every coordinate mask of seeded configurations with exp, generic and CM
    slots carrying relation rows."""
    rng = random.Random(31)
    kinds = set()
    for trial in range(30):
        cfg = random_config(rng, 3 + trial % 6, True)
        for i, slot in enumerate(cfg.slots):
            kinds.add((slot.kind, bool(cfg.relations[i])))
        pairs = [[(pos, cfg.mask((cfg.points[j].b, cfg.points[j].e)))
                  for pos, j in enumerate(pts)] for pts in cfg.points_by_slot]
        relations_only = [oracle_gamma_rank(cfg, i, ())
                          for i in range(len(cfg.slots))]
        for m in range(cfg.full_mask + 1):
            assert cfg.td_mask(m) == oracle_td(cfg, m)
            for i in range(len(cfg.slots)):
                chosen = [pos for pos, pair in pairs[i] if pair & ~m == 0]
                assert cfg.grk_mask(i, m) == \
                    oracle_gamma_rank(cfg, i, chosen) - relations_only[i]
    assert {("exp", True), ("wp_generic", True), ("wp_cm", True)} <= kinds


def absorption_hull(cfg, a_subset):
    """Strong hull by absorbing the first delta-violating witness until the
    set is strong."""
    a_mask = cfg.mask(a_subset)
    while True:
        ok, witness = is_strong(cfg, a_mask)
        if ok:
            return cfg.names(a_mask)
        a_mask |= cfg.mask(witness)


def pair_scan_compatible(cfg):
    """rank(A) + rank(B) - rank(Gamma(A) + Gamma(B)) == rank(A ^ B) for every
    pair of coordinate masks A <= B in value order, each rank taken over the
    relation rows plus the unit rows of the points involved."""
    full = cfg.full_mask
    for i, rel in enumerate(cfg.relations):
        if not rel:
            continue
        pts = [cfg.points[j] for j in cfg.points_by_slot[i]]
        cache = {}

        def rank(chosen):
            if chosen not in cache:
                cache[chosen] = oracle_gamma_rank(cfg, i, chosen)
            return cache[chosen]

        def lying_in(mask):
            return frozenset(
                pos for pos, p in enumerate(pts)
                if mask >> cfg.index[p.b] & 1 and mask >> cfg.index[p.e] & 1)

        inside = [lying_in(m) for m in range(full + 1)]
        for a in range(full + 1):
            for b in range(a, full + 1):
                if rank(inside[a]) + rank(inside[b]) \
                        - rank(inside[a] | inside[b]) != rank(inside[a & b]):
                    return False
    return True


def least_strong_superset(cfg, a_mask):
    """The intersection of all strong supersets of A when it is itself
    strong, else None; strongness from a superset-minimum table of the
    absolute delta (delta(T/S) = delta(T) - delta(S) for S <= T)."""
    n = len(cfg.coordinates)
    slots = tuple(range(len(cfg.slots)))
    d = [delta(cfg, slots, m).delta for m in range(1 << n)]
    sup_min = list(d)
    for i in range(n):
        for m in range(1 << n):
            if not m >> i & 1:
                sup_min[m] = min(sup_min[m], sup_min[m | 1 << i])
    least = cfg.full_mask
    for s in range(1 << n):
        if s & a_mask == a_mask and sup_min[s] >= d[s]:
            least &= s
    return least if sup_min[least] >= d[least] else None


def random_config(rng, n, with_relations):
    """Points on random coordinate pairs of one or two slots (exp, generic
    or CM), with one or two random relation rows on a slot when asked."""
    coords = [f"c{i}" for i in range(n)]
    matroid = [[F(rng.randint(-2, 2)) for _ in range(n)]
               for _ in range(rng.randint(2, n))]
    slots, points, relations = [], [], {}
    for i in range(rng.randint(1, 2)):
        kind = rng.choice(("exp", "wp_generic", "wp_cm"))
        slots.append(FunctionSlot(i, kind, rng.choice((-1, -2, -3))
                                  if kind == "wp_cm" else None))
        pairs = [rng.sample(coords, 2) for _ in range(rng.randint(1, 3))]
        k = rng.randint(2, 4)
        points += [GroupPoint(i, *rng.choice(pairs)) for _ in range(k)]
        if with_relations and (i == 0 or rng.random() < 0.5):

            def entry():
                x = rng.choice((0, 0, -2, -1, 1, 2))
                return (F(x), F(rng.choice((0, 0, 1)))) if kind == "wp_cm" \
                    else F(x)

            relations[i] = [[entry() for _ in range(k)]
                            for _ in range(rng.randint(1, 2))]
    try:
        return Configuration(coords, matroid, slots, points, relations)
    except InvalidConfiguration:  # a degenerate relation matrix: draw again
        return random_config(rng, n, with_relations)


INCOMPATIBLE_HULL_CONFIG = {
    "base": [], "coordinates": ["c0", "c1", "c2", "c3"],
    "matroid": {"rows": [["1", "0", "1", "-2"], ["0", "1", "-1", "-2"]]},
    "points": [{"b": "c3", "e": "c1", "slot": 0},
               {"b": "c2", "e": "c3", "slot": 0},
               {"b": "c2", "e": "c3", "slot": 0}],
    "relations": [{"rows": [[["-2", "1"], ["0", "0"], ["1", "1"]]], "slot": 0}],
    "slots": [{"d": -1, "kind": "wp_cm"}],
}


def test_hull_is_the_least_strong_superset_on_an_incompatible_config(
        tmp_path, capsys):
    cfg = parse_configuration(INCOMPATIBLE_HULL_CONFIG)
    assert not is_intersection_compatible(cfg)
    hull = strong_hull(cfg, ("c0", "c3"))
    assert hull == {"c0", "c2", "c3"}
    assert is_strong(cfg, hull) == (True, None)
    # absorbing the first violator overshoots to every coordinate
    assert absorption_hull(cfg, ("c0", "c3")) == set(cfg.coordinates)
    assert cfg.names(least_strong_superset(cfg, cfg.mask(("c0", "c3")))) == hull
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(INCOMPATIBLE_HULL_CONFIG))
    assert run(["predim", "hull", "--config", str(path), "--set", "c0,c3"]) == 0
    assert capsys.readouterr().out == "hull = ['c0', 'c2', 'c3']\n"


@pytest.mark.parametrize("with_relations", [False, True],
                         ids=["relation-free", "with-relations"])
def test_hull_and_compatibility_against_oracles(with_relations):
    rng = random.Random(7 + with_relations)
    seen = {True: 0, False: 0}
    for _ in range(100):
        n = rng.randint(3, 8)
        cfg = random_config(rng, n, with_relations)
        compatible = is_intersection_compatible(cfg)
        assert compatible == pair_scan_compatible(cfg)
        seen[compatible] += 1
        a_mask = rng.getrandbits(n) & rng.getrandbits(n)
        hull = strong_hull(cfg, a_mask)
        assert is_strong(cfg, hull) == (True, None)
        if compatible:
            assert hull == absorption_hull(cfg, cfg.names(a_mask))
        else:
            least = least_strong_superset(cfg, a_mask)
            if least is not None:
                assert hull == cfg.names(least)
    assert seen[True] > 0 and (seen[False] > 0 or not with_relations)


def test_compatibility_decided_beyond_ten_coordinates():
    pad = [f"x{i}" for i in range(8)]
    coords = ("b1", "e1", "b2", "e2", *pad)
    cm = [FunctionSlot(0, "wp_cm", -1)]
    apart = [GroupPoint(0, "b1", "e1"), GroupPoint(0, "b2", "e2")]
    shared = [GroupPoint(0, "b1", "e1"), GroupPoint(0, "b1", "e1")]
    rel = {0: [[(F(0), F(1)), (F(-1), F(0))]]}
    cfg = Configuration(coords, free_matroid(12), cm, apart, rel)
    assert not is_intersection_compatible(cfg)
    cfg = Configuration(coords, free_matroid(12), cm, shared, rel)
    assert is_intersection_compatible(cfg)
