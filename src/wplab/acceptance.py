"""Self-test criteria: ten end-to-end checks exercised both by the CLI
(`wplab selftest`) and by the test suite.

Each criterion_N function returns (passed, detail).  Where a criterion
compares against an oracle, the oracle is coded independently of the
engine under test: the brute-force references of `oracles`, or subprocess
runs.  All randomness is seeded, so reruns are reproducible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from mpmath import mp

from .cintervals import ComplexBox, _nstr, ri, working_precision
from .counting import (
    CONFIRMED,
    EXCLUDED,
    Domain,
    ExpWpLog,
    Identity,
    _bisect_pairs,
    _farey_pairs,
    _in_domain,
    _trichotomy,
    count_report,
)
from .differentials import (
    GENERIC,
    FieldPresentation,
    der_dimension,
    extend_derivation,
    f_forms,
)
from .lattice_core import Lattice, flt, is_isogenous, isr_equivalent, \
    make_lattice, mat_det, witness_maps
from .oracles import PredimOracle, totient_count
from .predim_engine import (
    Configuration,
    FunctionSlot,
    GroupPoint,
    chain_decompose,
    check_semimodularity,
    delta,
    independence_certificate,
    is_intersection_compatible,
    predim_dim,
    strong_hull,
)
from .quadfield import QuadNum
from .serialize import configuration_record, dumps
from .wp_numerics import (
    addition_residual,
    homogeneity_residual,
    invariants,
    isogeny_residual,
    model_with,
    ode_residual,
    schwarz_residual,
)

PRECISION = 128
RESIDUAL_BOUND = mp.ldexp(1, -100)


# -- shared random generators -------------------------------------------------

TAU_DS = (-1, -2, -3, -5, -7, -11)


def _random_reduced_tau(rng, ds=TAU_DS) -> QuadNum:
    """A tau already inside the fundamental domain: |Re| < 1/2, Im part
    coefficient >= 1 so |tau| >= 1 automatically."""
    d = rng.choice(ds)
    p = Fraction(rng.randint(-1, 1), rng.choice((3, 4)))
    q = Fraction(rng.choice((1, 1, 2, 3)), 1) + Fraction(rng.randint(0, 1), 2)
    return QuadNum(p, q, d)


def _random_lattice(rng, exact: bool) -> Lattice:
    tau = _random_reduced_tau(rng)
    if exact:
        scale = QuadNum(Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                        Fraction(0), tau.d)
        return make_lattice(scale, scale * tau)
    w1 = ComplexBox(ri(Fraction(rng.randint(1, 5), rng.randint(1, 3))),
                    ri(Fraction(rng.randint(-2, 2), 3)))
    return make_lattice(w1, w1 * ComplexBox(tau.p, tau.q * 2))


def _cell_sample(rng, lat: Lattice) -> complex:
    tau = complex(lat.tau_box().mid())
    w1 = complex(lat.omega1_box().mid())
    x = rng.uniform(0.12, 0.45)
    y = rng.uniform(0.12, 0.45)
    return (x + y * tau) * w1


# -- criterion 1: ODE residual on random samples ------------------------------

def criterion_1(seed=0):
    """100 random (lattice, z): |wp'^2 - 4wp^3 + g2 wp + g3| <= 2^-100."""
    rng = random.Random(seed + 1)
    worst = mp.mpf(0)
    checked = 0
    t0 = time.monotonic()
    with working_precision(PRECISION):
        for i in range(25):
            lat = _random_lattice(rng, exact=i % 2 == 0)
            m = invariants(lat, PRECISION)
            for _ in range(4):
                r = ode_residual(m, _cell_sample(rng, lat))
                worst = max(worst, r.value)
                checked += 1
    ok = checked == 100 and worst <= RESIDUAL_BOUND
    return ok, (f"{checked} samples, max ODE residual {_nstr(worst, 5)} "
                f"(bound 2^-100), {time.monotonic() - t0:.1f}s")


# -- criterion 2: special invariant values ------------------------------------

def criterion_2(seed=0):
    """g3 vanishes on the square lattice, g2 on the hexagonal one."""
    sq = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1))
    hexa = make_lattice(QuadNum(1, 0, -3),
                        QuadNum(Fraction(1, 2), Fraction(1, 2), -3))
    m_sq = invariants(sq, PRECISION)
    m_hex = invariants(hexa, PRECISION)
    ok = m_sq.g3.contains_zero() and m_hex.g2.contains_zero()
    return ok, (f"square lattice g3 encloses 0: {m_sq.g3.contains_zero()} "
                f"(rad {_nstr(m_sq.g3.rad(), 3)}); hexagonal g2 encloses 0: "
                f"{m_hex.g2.contains_zero()} (rad {_nstr(m_hex.g2.rad(), 3)})")


# -- criterion 3: functional identities + negative control --------------------

def criterion_3(seed=0):
    rng = random.Random(seed + 3)
    t0 = time.monotonic()
    lat = make_lattice(QuadNum(1, 0, -1),
                       QuadNum(Fraction(1, 4), Fraction(3, 2), -1))
    lat2 = make_lattice(QuadNum(1, 0, -1),
                        QuadNum(Fraction(1, 2), Fraction(3), -1))
    m = invariants(lat, PRECISION)
    worst = {}
    with working_precision(PRECISION):
        for _ in range(50):
            z = _cell_sample(rng, lat)
            alpha = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
            r = homogeneity_residual(m, alpha, z)
            worst["homogeneity"] = max(worst.get("homogeneity", mp.mpf(0)),
                                       r.value)
            r = schwarz_residual(m, z)
            worst["schwarz"] = max(worst.get("schwarz", mp.mpf(0)), r.value)
            r = addition_residual(m, z, 0.61 * z + 0.173)
            worst["addition"] = max(worst.get("addition", mp.mpf(0)), r.value)
        v = is_isogenous(lat, lat2)
        for _ in range(50):
            z = _cell_sample(rng, lat2)
            r = isogeny_residual(m, lat2, v.alpha, z)
            worst["isogeny"] = max(worst.get("isogeny", mp.mpf(0)), r.value)
        # negative control: perturb g3 by 1e-5; the ODE residual must exceed 1e-6
        bad = model_with(lat, m.g2, m.g3 + ComplexBox(Fraction(1, 10 ** 5)),
                         PRECISION)
        control = min(
            ode_residual(bad, _cell_sample(rng, lat)).value for _ in range(5)
        )
    ok = all(v <= RESIDUAL_BOUND for v in worst.values()) and control >= 1e-6
    summary = ", ".join(f"{k} {_nstr(v, 3)}" for k, v in sorted(worst.items()))
    return ok, (f"50 samples each, max residuals: {summary}; negative control "
                f"{_nstr(control, 3)} >= 1e-6, {time.monotonic() - t0:.1f}s")


# -- criterion 4: exact vs numeric isogeny verdicts ---------------------------

def criterion_4(seed=0):
    rng = random.Random(seed + 4)
    t0 = time.monotonic()
    agree = 0
    trials = 50
    failures = []
    small_ds = (-1, -2, -3)
    for i in range(trials):
        tau1 = _random_reduced_tau(rng, small_ds)
        l1 = make_lattice(QuadNum(1, 0, tau1.d), tau1)
        same_field = rng.random() < 0.6
        if same_field:
            while True:
                mtx = ((rng.randint(-1, 1), rng.randint(-1, 1)),
                       (rng.randint(-1, 1), rng.randint(-1, 1)))
                if mat_det(mtx) != 0:
                    break
            tau2 = flt(mtx, l1.tau)
        else:
            while True:
                tau2 = _random_reduced_tau(rng, small_ds)
                if tau2.d != tau1.d:
                    break
        l2 = make_lattice(QuadNum(1, 0, tau2.d), tau2)
        exact_v = is_isogenous(l1, l2)
        with working_precision(PRECISION):
            l1n = make_lattice(ComplexBox(1), l1.tau_box())
            l2n = make_lattice(ComplexBox(1), l2.tau_box())
            num_v = is_isogenous(l1n, l2n, search_bound=10)
        if same_field:
            consistent = (exact_v.is_isogenous and num_v.is_isogenous
                          and witness_maps(l1.tau, l2.tau, num_v.witness))
        else:
            consistent = (exact_v.outcome == "not_isogenous"
                          and not num_v.is_isogenous)
        if consistent:
            agree += 1
        elif len(failures) < 3:
            failures.append((tau1, tau2, exact_v.outcome, num_v.outcome))
    # the square and sqrt(2)-rectangular lattices: not equivalent even
    # allowing reflection
    sq = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 1, -1))
    r2 = make_lattice(QuadNum(1, 0, -2), QuadNum(0, 1, -2))
    isr = isr_equivalent(sq, r2)
    # reflection branch exercised on a generic numeric pair
    with working_precision(PRECISION):
        t = ComplexBox(ri(Fraction(3, 10)), ri(Fraction(17, 10)))
        g1 = make_lattice(ComplexBox(1), t)
        g2 = make_lattice(ComplexBox(1), t.conj() + 1)
        isr_num = isr_equivalent(g1, g2, search_bound=4)
    ok = (agree == trials and isr.outcome == "not_isogenous"
          and isr.used_reflection is None
          and isr_num.is_isogenous and isr_num.used_reflection is True)
    detail = (f"{agree}/{trials} exact/numeric verdicts agree; square vs "
              f"sqrt(2) lattice: {isr.outcome}; numeric reflection branch: "
              f"{isr_num.outcome} (used_reflection={isr_num.used_reflection}), "
              f"{time.monotonic() - t0:.1f}s")
    if failures:
        detail += f"; first disagreements: {failures}"
    return ok, detail


# -- criterion 5: predimension dimension vs oracle, chain additivity ----------

def _random_config(rng, n, with_relations=False) -> Configuration:
    coords = [f"c{i}" for i in range(n)]
    matroid = [
        [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        for _ in range(rng.randint(max(2, n - 2), n))
    ]
    nslots = rng.randint(1, 2)
    slots = [FunctionSlot(i, rng.choice(("exp", "wp_generic")))
             for i in range(nslots)]
    points = []
    relations = {}
    for i in range(nslots):
        if with_relations and i == 0:
            b, e = rng.sample(range(n), 2)
            k = rng.randint(2, 3)
            for _ in range(k):
                points.append(GroupPoint(i, coords[b], coords[e]))
            row = [Fraction(0)] * k
            picks = rng.sample(range(k), 2)
            for j in picks:
                row[j] = Fraction(rng.choice((-2, -1, 1, 2)))
            relations[i] = [row]
        else:
            for _ in range(rng.randint(1, 3)):
                b, e = rng.sample(range(n), 2)
                points.append(GroupPoint(i, coords[b], coords[e]))
    # re-index relation rows to the per-slot point count
    fixed = {}
    for i, rows in relations.items():
        npts = sum(1 for p in points if p.slot == i)
        fixed[i] = [row + [Fraction(0)] * (npts - len(row)) for row in rows]
    return Configuration(coords, matroid, slots, points, fixed)


def criterion_5(seed=0):
    rng = random.Random(seed + 5)
    t0 = time.monotonic()
    checked = 0
    mismatches = []
    for trial in range(200):
        n = rng.randint(4, 7) if trial < 180 else rng.randint(8, 9)
        cfg = _random_config(rng, n)
        hull = strong_hull(cfg, ())
        c_mask = cfg.mask(hull)
        a_mask = 0
        for i in range(n):
            if rng.random() < 0.5:
                a_mask |= 1 << i
        dim, witness = predim_dim(cfg, a_mask, c_mask, with_witness=True)
        orc = PredimOracle(configuration_record(cfg))
        oracle = orc.dim(a_mask, c_mask)
        w_delta = orc.delta(cfg.mask(witness), c_mask)
        if dim != oracle or w_delta != dim:
            if len(mismatches) < 3:
                mismatches.append((trial, dim, oracle, w_delta))
        else:
            checked += 1
    chains_ok = 0
    for _ in range(100):
        cfg = _random_config(rng, rng.randint(4, 6))
        a_mask = 0
        for i in range(len(cfg.coordinates)):
            if rng.random() < 0.4:
                a_mask |= 1 << i
        a = strong_hull(cfg, a_mask)
        chain = chain_decompose(cfg, a, cfg.coordinates)
        total = sum(s.delta for s in chain.steps)
        rel = delta(cfg, range(len(cfg.slots)), cfg.coordinates, a).delta
        if total == rel and (not chain.steps
                             or chain.steps[-1].subset == frozenset(cfg.coordinates)):
            chains_ok += 1
    ok = checked == 200 and chains_ok == 100 and not mismatches
    detail = (f"{checked}/200 dims match the independent oracle (witness "
              f"deltas verified); {chains_ok}/100 chains additive, "
              f"{time.monotonic() - t0:.1f}s")
    if mismatches:
        detail += f"; mismatches {mismatches}"
    return ok, detail


# -- criterion 6: semimodularity, exhaustive + randomized ---------------------

def _corpus_configs():
    """Deterministic relation-free configurations for the exhaustive scan."""
    rng = random.Random(1729)
    out = []
    for n in (6, 6, 7, 7, 8, 8):
        out.append(_random_config(rng, n))
    return out


def _exhaustive_semimodularity(cfg: Configuration) -> bool:
    """All pairs of subsets.  Relative-to-C forms of the inequalities reduce
    to the absolute ones (the C terms cancel), so the pair scan covers every
    triple with C inside A and B."""
    n = len(cfg.coordinates)
    full = (1 << n) - 1
    td_arr = [cfg._matroid_rank(m) for m in range(full + 1)]
    slot_arrs = [
        [cfg._gamma_rank(i, m) for m in range(full + 1)]
        for i in range(len(cfg.slots))
    ]
    g_arr = [sum(arr[m] for arr in slot_arrs) for m in range(full + 1)]
    # per-slot monotonicity along single-bit steps
    for arr in slot_arrs:
        for m in range(full + 1):
            for i in range(n):
                if not m >> i & 1 and arr[m] > arr[m | 1 << i]:
                    return False
    for a in range(full + 1):
        for b in range(a, full + 1):
            u, c = a | b, a & b
            if td_arr[u] + td_arr[c] > td_arr[a] + td_arr[b]:
                return False
            if g_arr[u] + g_arr[c] < g_arr[a] + g_arr[b]:
                return False
            lhs = (td_arr[u] - g_arr[u]) + (td_arr[c] - g_arr[c])
            rhs = (td_arr[a] - g_arr[a]) + (td_arr[b] - g_arr[b])
            if lhs > rhs:
                return False
    return True


def criterion_6(seed=0):
    rng = random.Random(seed + 6)
    t0 = time.monotonic()
    corpus = _corpus_configs()
    exhaustive_ok = sum(1 for cfg in corpus if _exhaustive_semimodularity(cfg))
    api_ok = 0
    api_total = 0
    for cfg in corpus:
        n = len(cfg.coordinates)
        for _ in range(50):
            c = rng.getrandbits(n)
            a = c | rng.getrandbits(n)
            b = c | rng.getrandbits(n)
            api_total += 1
            if check_semimodularity(cfg, a, b, c).all_hold:
                api_ok += 1
    rel_ok = 0
    rel_total = 0
    compat_failures = 0
    while rel_total < 500:
        cfg = _random_config(rng, rng.randint(4, 6), with_relations=True)
        if not is_intersection_compatible(cfg):
            compat_failures += 1
            if compat_failures > 50:
                break
            continue
        rel_total += 1
        n = len(cfg.coordinates)
        good = True
        for _ in range(10):
            c = rng.getrandbits(n)
            a = c | rng.getrandbits(n)
            b = c | rng.getrandbits(n)
            if not check_semimodularity(cfg, a, b, c).all_hold:
                good = False
        if good:
            rel_ok += 1
    ok = (exhaustive_ok == len(corpus) and api_ok == api_total
          and rel_ok == rel_total == 500)
    return ok, (f"exhaustive pair scan holds on {exhaustive_ok}/{len(corpus)} "
                f"relation-free configurations; API triples {api_ok}/{api_total}; "
                f"with-relations configurations {rel_ok}/{rel_total} "
                f"(10 sampled triples each), {time.monotonic() - t0:.1f}s")


# -- criterion 7: derivation dimensions vs predimension -----------------------

def _paired_sample(rng):
    """A generic presentation and the matching configuration: free matroid,
    one exponential slot, graph points on pairwise-distinct generators."""
    m = rng.randint(3, 6)
    gens = tuple(f"g{i}" for i in range(m))
    npts = rng.randint(1, m // 2)
    picked = rng.sample(range(m), 2 * npts)
    pairs = [(picked[2 * j], picked[2 * j + 1]) for j in range(npts)]
    p = FieldPresentation(GENERIC, gens)
    forms = f_forms(p, [(0, b, e, gens[e]) for b, e in pairs])
    matroid = [[Fraction(1 if i == j else 0) for j in range(m)]
               for i in range(m)]
    cfg = Configuration(
        gens, matroid, [FunctionSlot(0, "exp")],
        [GroupPoint(0, gens[b], gens[e]) for b, e in pairs],
    )
    return p, forms, cfg


def criterion_7(seed=0):
    rng = random.Random(seed + 7)
    t0 = time.monotonic()
    dims_ok = 0
    ext_ok = 0
    for _ in range(100):
        p, forms, cfg = _paired_sample(rng)
        d_der = der_dimension(p, forms)
        d_cfg = delta(cfg, (0,), cfg.coordinates).delta
        if d_der == d_cfg:
            dims_ok += 1
        # boundary values are free choices only when the boundary set does
        # not contain a whole graph form (else the form would constrain them)
        while True:
            a = frozenset(g for g in p.generators if rng.random() < 0.5)
            if not any(p.generators[f.b_index] in a
                       and p.generators[f.fb_index] in a for f in forms):
                break
        boundary = {g: Fraction(rng.randint(-3, 3)) for g in a}
        res = extend_derivation(p, forms, boundary)
        rel = delta(cfg, (0,), cfg.coordinates, a).delta
        if rel == 0:
            good = res.kind == "unique"
        else:
            good = res.kind == "family" and res.dimension == rel
        if good:
            ext_ok += 1
    # the three singleton-step shapes
    p2 = FieldPresentation(GENERIC, ("a", "b"))
    generic_step = extend_derivation(p2, [], {"a": 1})
    p3 = FieldPresentation(GENERIC, ("b", "e"))
    forms3 = f_forms(p3, [(0, 0, 1, Fraction(5))])
    closing_step = extend_derivation(p3, forms3, {"b": 1})
    clash = extend_derivation(p3, forms3, {"b": 1, "e": 6})
    shapes = (generic_step.kind == "family" and generic_step.dimension == 1
              and closing_step.kind == "unique"
              and closing_step.assignment["e"] == 5
              and clash.kind == "inconsistent"
              and clash.certificate_row is not None)
    ok = dims_ok == 100 and ext_ok == 100 and shapes
    return ok, (f"{dims_ok}/100 derivation dimensions equal delta; "
                f"{ext_ok}/100 extensions match (unique iff delta = 0, "
                f"family of dim delta otherwise); generic/closing/clash "
                f"singleton shapes {'ok' if shapes else 'FAIL'}, "
                f"{time.monotonic() - t0:.1f}s")


# -- criterion 8: the worked independence certificate -------------------------

def worked_certificate():
    """Two function slots sharing one matroid dependency: fa is matroid-
    dependent on a1, the exponential graph joins (a1, e1), the wp graph
    joins (a2, w2)."""
    coords = ("a1", "e1", "a2", "w2", "fa")
    matroid = [
        [1, 0, 0, 0, 1],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
    ]
    cfg = Configuration(
        coords, matroid,
        [FunctionSlot(0, "exp"), FunctionSlot(1, "wp_generic")],
        [GroupPoint(0, "a1", "e1"), GroupPoint(1, "a2", "w2")],
    )
    cert = independence_certificate(
        cfg, (0,), (1,), ("a1", "e1", "a2", "w2"), ("fa",),
    )
    return cfg, cert


def criterion_8(seed=0):
    _, cert = worked_certificate()
    expected = (cert.d0, cert.d1, cert.d2, cert.d3) == (4, 3, 3, 2)
    ok = (expected and cert.certified and cert.delta0_a == 4
          and cert.semimodular_bound_holds and cert.d3_bound_holds)
    return ok, (f"d0..d3 = ({cert.d0}, {cert.d1}, {cert.d2}, {cert.d3}), "
                f"delta0(A/C) = {cert.delta0_a} <= d1+d2-d3 = "
                f"{cert.d1 + cert.d2 - cert.d3}, certified = {cert.certified}")


# -- criterion 9: counting, oracle and precision stability --------------------

def criterion_9(seed=0):
    t0 = time.monotonic()
    ident = Identity(Domain(Fraction(0), None))
    rep = count_report(ident, (2, 10), precision=PRECISION)
    ident_ok = (rep.counts == (totient_count(2), totient_count(10))
                == (3, 63) and rep.undetermined == (0, 0))

    lat = make_lattice(QuadNum(1, 0, -1), QuadNum(0, 2, -1))
    domain = Domain(Fraction(11, 10), Fraction(5, 2))
    h = ExpWpLog(lat, domain)
    eps = Fraction(1, 2 ** 64)
    height = 50
    qs = _farey_pairs(height)
    ps = _in_domain(qs, domain)
    flips = 0
    confirmed = {128: 0, 256: 0}
    for a, b in ps:
        lo1, hi1 = h.enclosure(Fraction(a, b), 128)
        lo2, hi2 = h.enclosure(Fraction(a, b), 256)
        lo, hi = min(lo1, lo2) - abs(eps), max(hi1, hi2) + abs(eps)
        i0 = _bisect_pairs(qs, lo.numerator, lo.denominator)
        i1 = _bisect_pairs(qs, hi.numerator, hi.denominator, right=True)
        for qa, qb in qs[i0:i1]:
            k1 = _trichotomy(lo1, hi1, qa, qb, eps)
            k2 = _trichotomy(lo2, hi2, qa, qb, eps)
            if {k1, k2} == {CONFIRMED, EXCLUDED}:
                flips += 1
            confirmed[128] += k1 == CONFIRMED
            confirmed[256] += k2 == CONFIRMED
        # outside the window both precisions exclude by construction
    crep = count_report(h, (10, 50), eps, 128)
    ok = ident_ok and flips == 0 and crep.counts[-1] == confirmed[128]
    return ok, (f"identity counts {rep.counts} match the totient oracle; "
                f"{len(ps)} arguments x both precisions at eps = 2^-64: "
                f"{flips} confirmed/excluded flips, confirmed {confirmed[128]} "
                f"@128 vs {confirmed[256]} @256, N(10,50) = {crep.counts}, "
                f"{time.monotonic() - t0:.1f}s")


# -- criterion 10: CLI determinism --------------------------------------------

def criterion_10(seed=0):
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, _ = worked_certificate()
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(dumps(configuration_record(cfg)))
        commands = [
            ["lattice", "isogenous", "--tau1", "0+1i:-1", "--tau2", "0+2i:-1",
             "--format", "record"],
            ["wp", "verify", "--tau", "i", "--identity", "ode",
             "--samples", "3"],
            ["wp", "invariants", "--tau", "0+1i:-3", "--format", "record"],
            ["predim", "report", "--config", str(cfg_path),
             "--set", "a1,e1,fa", "--format", "record"],
            ["count", "--h", "identity", "--heights", "2,10",
             "--format", "record"],
        ]
        stable = 0
        for cmd in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "wplab.cli", *cmd],
                    capture_output=True, timeout=300,
                )
                for _ in range(2)
            ]
            if (runs[0].stdout == runs[1].stdout
                    and runs[0].returncode == runs[1].returncode
                    and runs[0].returncode == 0):
                stable += 1
    ok = stable == len(commands)
    return ok, (f"{stable}/{len(commands)} CLI invocations byte-identical "
                f"across repeated runs, {time.monotonic() - t0:.1f}s")


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(selected=None, seed=0):
    nums = sorted(selected) if selected else sorted(CRITERIA)
    out = []
    for n in nums:
        try:
            ok, detail = CRITERIA[n](seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append((n, ok, detail))
    return out
