"""The five workloads: seeded inputs, sessions of public-API calls, and the
checks of round 1 against the oracles in oracles.py.

Every workload draws its inputs from fixed strata (a fixed multiset of
sizes, precisions and kinds per round) and lets the seed choose only the
values inside each stratum, so the cost mix is the same for every seed.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mp

import oracles
from harness import OK, REFUSED, Session, Task

PRECISIONS = (128, 256, 512)


def _f(x) -> str:
    return str(Fraction(x))


def _box_key(box) -> str:
    return f"{box.re._mpi_}|{box.im._mpi_}"


@contextmanager
def iv_precision(bits):
    """mpmath interval precision for building inputs outside the program."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


class Workload:
    name = ""
    why = ""
    min_rounds = 4  # a task's time is its median run over at least this many rounds

    def __init__(self, api):
        self.api = api  # namespace of wplab modules, looked up at call time

    def generate(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def warmup(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def build(self, inputs: dict) -> list:
        raise NotImplementedError

    def summary(self, record) -> str:
        """Canonical text of an answer, compared across rounds and runs."""
        if record.status != OK:
            return f"{record.status}:{type(record.result).__name__}"
        return self._summary(record.kind, record.result)

    def _summary(self, kind, result) -> str:
        return repr(result)

    def check(self, sessions, records, states) -> dict:
        """Round-1 records against the oracles: {'wrong': [...],
        'cert_bits': [...], 'undetermined': (pairs, classified),
        'known_defects': [...]}"""
        raise NotImplementedError


def _report():
    return {"wrong": [], "cert_bits": [], "undetermined": (0, 0),
            "known_defects": []}


# -- wp_session --------------------------------------------------------------


class WpSession(Workload):
    name = "wp_session"
    why = ("closed loop, one client: lattice sessions at 128/256/512 bits; "
           "time goes to q-series and ComplexBox arithmetic, near-pole and "
           "512-bit calls make the tail")

    # Im(tau) of the lattices of one round: the series length, and so the
    # cost, follows Im(tau), so it is fixed and the seed picks the rest.  Each
    # value comes once exact and once numeric, so two sessions of each kind of
    # cost share the tail.  The last lattice is a rectangular or rhombic one
    # with Im(tau) in [20, 30] that keeps the discriminant-cancellation
    # failure at 128 bits visible.
    IM_TAU = (1.2, 3.0, 9.0) * 2
    min_rounds = 3  # a round is 190 tasks, about 5 s
    LARGE_IM_TAU = (20.0, 30.0)
    DS = (-1, -2, -3, -7)

    def _lattice(self, rng, im, exact, large):
        if large:
            re = rng.choice((Fraction(0), Fraction(1, 2)))
        else:
            re = Fraction(rng.randint(-11, 12), 24)
        if exact:
            d = rng.choice(self.DS)
            q = Fraction(im / math.sqrt(-d)).limit_denominator(16)
            desc = {"exact": True, "d": d, "re": _f(re), "q": _f(q),
                    "scale": _f(Fraction(rng.randint(1, 3), rng.randint(1, 2)))}
        else:
            w1 = [Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                  Fraction(0) if large else Fraction(rng.randint(-2, 2), 3)]
            desc = {"exact": False, "re": _f(re),
                    "im": _f(Fraction(im).limit_denominator(1000)),
                    "w1": [_f(w1[0]), _f(w1[1])]}
        tau, w1 = self.tau_w1(desc)
        while True:
            z1 = [rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)]
            z3 = [rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)]
            if all(self._interior(tau, w1, x, y) for x, y in
                   (z1, z3, (z1[0] + z3[0], z1[1] + z3[1]))):
                break
        desc["points"] = {
            "z1": z1, "z3": z3,
            "zn": [rng.randint(-2, 2), rng.randint(-2, 2),
                   rng.choice((-1, 1)) * rng.uniform(0.01, 0.06),
                   rng.choice((-1, 1)) * rng.uniform(0.01, 0.06)],
            "k": rng.randint(2, 5),
        }
        return desc

    @staticmethod
    def _interior(tau, w1, x, y):
        """Whether (x + y tau) w1 is clearly farther from the lattice than a
        quarter of the cell diameter, where exp_E evaluates the series
        directly (nearer points take the anchored group-law path, whose
        cost is measured by the near-pole task)."""
        z = (x + y * tau) * w1
        dist = min(abs(z - (m + n * tau) * w1) for m in range(-3, 4) for n in range(-3, 4))
        margin = max(abs(w1 * (1 + tau)), abs(w1 * (1 - tau))) / 4
        return dist >= 1.25 * margin

    def generate(self, rng):
        lattices = [self._lattice(rng, im, i % 2 == 0, False)
                    for i, im in enumerate(self.IM_TAU)]
        lattices.append(self._lattice(rng, rng.uniform(*self.LARGE_IM_TAU), False, True))
        order = [[i, p] for i in range(len(lattices)) for p in PRECISIONS]
        rng.shuffle(order)
        return {"lattices": lattices, "order": order}

    def warmup(self, rng):
        lat = self._lattice(rng, 4.0, True, False)
        return {"lattices": [lat], "order": [[0, 128]]}

    @staticmethod
    def tau_w1(desc):
        """Exact tau and omega1 of the generating basis, as Python complex
        pairs of Fractions (re, im) for the oracle."""
        if desc["exact"]:
            root = math.sqrt(-desc["d"])
            return (complex(float(Fraction(desc["re"])), float(Fraction(desc["q"])) * root),
                    complex(float(Fraction(desc["scale"])), 0))
        w1 = desc["w1"]
        return (complex(float(Fraction(desc["re"])), float(Fraction(desc["im"]))),
                complex(float(Fraction(w1[0])), float(Fraction(w1[1]))))

    @staticmethod
    def exact_tau_w1(desc, bits):
        with mp.workprec(bits):
            if desc["exact"]:
                re = Fraction(desc["re"])
                q = Fraction(desc["q"])
                tau = mp.mpc(mp.mpf(re.numerator) / re.denominator,
                             mp.mpf(q.numerator) / q.denominator * mp.sqrt(-desc["d"]))
                s = Fraction(desc["scale"])
                return tau, mp.mpc(mp.mpf(s.numerator) / s.denominator)
            re, im = Fraction(desc["re"]), Fraction(desc["im"])
            a, b = (Fraction(x) for x in desc["w1"])
            return (mp.mpc(mp.mpf(re.numerator) / re.denominator,
                           mp.mpf(im.numerator) / im.denominator),
                    mp.mpc(mp.mpf(a.numerator) / a.denominator,
                           mp.mpf(b.numerator) / b.denominator))

    @classmethod
    def points(cls, desc):
        """The session's arguments as exact Python complex numbers."""
        tau, w1 = cls.tau_w1(desc)
        p = desc["points"]
        z1 = (p["z1"][0] + p["z1"][1] * tau) * w1
        z3 = (p["z3"][0] + p["z3"][1] * tau) * w1
        n1, n2, ex, ey = p["zn"]
        zn = ((n1 + ex) + (n2 + ey) * tau) * w1
        return z1, z3, zn, p["k"]

    def _make_lattice(self, desc, prec):
        a = self.api
        if desc["exact"]:
            d = desc["d"]
            w1 = a.quadfield.QuadNum.rational(Fraction(desc["scale"]), d)
            tau = a.quadfield.QuadNum(Fraction(desc["re"]), Fraction(desc["q"]), d)
            return a.lattice_core.make_lattice(w1, w1 * tau)
        with a.cintervals.working_precision(prec):
            ri = a.cintervals.ri
            w1 = a.cintervals.ComplexBox(ri(Fraction(desc["w1"][0])),
                                         ri(Fraction(desc["w1"][1])))
            tau = a.cintervals.ComplexBox(ri(Fraction(desc["re"])),
                                          ri(Fraction(desc["im"])))
            return a.lattice_core.make_lattice(w1, w1 * tau)

    def build(self, inputs):
        w = self.api.wp_numerics
        sessions = []
        for li, prec in inputs["order"]:
            desc = inputs["lattices"][li]
            lat = self._make_lattice(desc, prec)
            z1, z3, zn, k = self.points(desc)
            tasks = [
                Task("invariants", lambda s, lat=lat, p=prec: w.invariants(lat, p),
                     required=True, store="m"),
                Task("wp", lambda s, z=z1: w.wp(s["m"], z)),
                Task("wp_prime", lambda s, z=z1: w.wp_prime(s["m"], z)),
                Task("exp_E", lambda s, z=z1: w.exp_E(s["m"], z), store="p1"),
                Task("exp_E_near", lambda s, z=zn: w.exp_E(s["m"], z), store="pn"),
                Task("curve_add", lambda s: w.curve_add(s["m"], s["p1"], s["pn"]),
                     needs=("p1", "pn")),
                Task("curve_smul", lambda s, k=k: w.curve_smul(s["m"], k, s["p1"]),
                     needs=("p1",)),
                Task("ode_residual", lambda s, z=z1: w.ode_residual(s["m"], z)),
                Task("addition_residual",
                     lambda s, a=z1, b=z3: w.addition_residual(s["m"], a, b)),
            ]
            sessions.append(Session(f"lattice{li}@{prec}", tasks,
                                    data={"desc": desc, "prec": prec,
                                          "z": (z1, z3, zn, k)}))
        return sessions

    def _summary(self, kind, r):
        if kind == "invariants":
            return _box_key(r.g2) + _box_key(r.g3)
        if kind in ("wp", "wp_prime"):
            return _box_key(r)
        if kind in ("exp_E", "exp_E_near", "curve_add", "curve_smul"):
            return _box_key(r.X) + _box_key(r.Y) + _box_key(r.Z)
        return repr(r.value)

    def check(self, sessions, records, states):
        rep = _report()
        by_session = {}
        for rec in records:
            by_session.setdefault(rec.session, []).append(rec)
        for si, recs in by_session.items():
            sess = sessions[si]
            prec = sess.data["prec"]
            bits = 2 * prec + 32
            tau, w1 = self.exact_tau_w1(sess.data["desc"], bits + 64)
            z1, z3, zn, k = sess.data["z"]
            cache = {}

            def wp_at(key, z):
                if key not in cache:
                    cache[key] = oracles.wp_theta(tau, w1, z, bits + 64)
                return cache[key]

            for rec in recs:
                if rec.status != OK:
                    continue
                tag = f"{sess.key} {rec.kind}"
                r = rec.result
                boxes = []
                if rec.kind == "invariants":
                    g2, g3 = oracles.invariants_theta(tau, w1, bits + 64)
                    boxes = [(r.g2, g2), (r.g3, g3)]
                elif rec.kind in ("wp", "wp_prime"):
                    val = wp_at("z1", z1)[0 if rec.kind == "wp" else 1]
                    boxes = [(r, val)]
                elif rec.kind in ("exp_E", "exp_E_near", "curve_add", "curve_smul"):
                    with mp.workprec(bits + 64):  # exact sums of the double inputs
                        z = {"exp_E": mp.mpc(z1), "exp_E_near": mp.mpc(zn),
                             "curve_add": mp.mpc(z1) + mp.mpc(zn),
                             "curve_smul": k * mp.mpc(z1)}[rec.kind]
                    if not oracles.box_contains(r.Z, 1, bits) or r.Z.re.delta != 0:
                        rep["wrong"].append(f"{tag}: point is not affine with Z = 1")
                        continue
                    val, der = wp_at(rec.kind, z)
                    boxes = [(r.X, val), (r.Y, der)]
                else:
                    with mp.workprec(64):
                        if not (0 <= r.value <= mp.ldexp(1, -prec // 4)):
                            rep["wrong"].append(f"{tag}: residual {r.value}")
                for box, val in boxes:
                    rep["cert_bits"].append(oracles.certified_bits(box))
                    if not oracles.box_contains(box, val, bits):
                        rep["wrong"].append(f"{tag}: enclosure misses the theta-function value")
        return rep


# -- isogeny_search ----------------------------------------------------------


class IsogenySearch(Workload):
    name = "isogeny_search"
    why = ("closed loop, one client: isogeny searches to bound 10 and cm_field; "
           "lattice_core candidate sweeps dominate, negative searches set the "
           "tail, no series")

    BOUND = 10
    # One round: witness heights of the related pairs, the numbers of
    # unrelated and reflected pairs, and the cm_field calls.  Full sweeps of
    # unrelated pairs are six of eleven tasks, so the median and the tail
    # percentile both fall inside that cluster.
    HEIGHTS = (3, 7)
    UNRELATED = 6
    REFLECTED = 1
    CM = ((100, True), (200, False))

    @staticmethod
    def _transcendental(rng, used):
        """tau = (e^s - 2) + i e^r with rationals s, r distinct from all
        exponents used so far: transcendental, with no Mobius relation to
        the other generated values (Lindemann-Weierstrass)."""
        while True:
            s = Fraction(rng.randint(406, 916), 1000)   # e^s - 2 in (-1/2, 1/2)
            r = Fraction(rng.randint(100, 900), 1000)   # Im tau in (1.1, 2.5)
            ex = {s, r, 2 * s, 2 * r, s + r}
            if s != r and not ex & used:
                used |= ex
                return {"s": _f(s), "r": _f(r)}

    @staticmethod
    def tau_box(t):
        s, r = Fraction(t["s"]), Fraction(t["r"])
        re = iv.exp(iv.mpf(s.numerator) / s.denominator) - 2
        im = iv.exp(iv.mpf(r.numerator) / r.denominator)
        return iv.mpc(re, im)

    def _lattice(self, z):
        a = self.api
        with a.cintervals.working_precision(128):
            return a.lattice_core.make_lattice(
                a.cintervals.ComplexBox(1), a.cintervals.ComplexBox(z.real, z.imag))

    @staticmethod
    def _mobius(m, z):
        (a, b), (c, d) = m
        return (z * a + b) / (z * c + d)

    @staticmethod
    def _reflect(z):
        """-conj(z) for an mpmath complex interval."""
        return iv.mpc(-z.real, z.imag)

    @staticmethod
    def _matrix(rng, k):
        while True:
            m = tuple(tuple(rng.randint(-k, k) for _ in range(2)) for _ in range(2))
            if (max(abs(x) for row in m for x in row) == k and oracles.det(m) > 0
                    and math.gcd(*[abs(x) for row in m for x in row]) == 1):
                return m

    def _expected_witness(self, kind, m, l1, l2):
        """The Mobius map (up to scale) that any witness must be, in the
        engine's reduced bases: l2.tau = B2 m tau1 (related), or the
        conjugate lattice's tau = B3 B2 N m tau1 (reflected)."""
        lc = self.api.lattice_core
        inv1 = oracles.unimodular_inverse(l1.basis_change)
        b2 = l2.basis_change
        oracles.unimodular_inverse(b2)
        if kind == "related":
            return oracles.mat_mul(oracles.mat_mul(b2, m), inv1)
        with self.api.cintervals.working_precision(128):
            b3 = lc.conjugate(l2).basis_change
        oracles.unimodular_inverse(b3)
        chain = oracles.mat_mul(b3, oracles.mat_mul(b2, oracles.mat_mul(oracles.NEGATE, m)))
        return oracles.mat_mul(chain, inv1)

    def generate(self, rng):
        used = set()
        items = []
        with iv_precision(160):
            for k in self.HEIGHTS:
                t1 = self._transcendental(rng, used)
                z1 = self.tau_box(t1)
                l1 = self._lattice(z1)
                best = None
                for _ in range(400):
                    m = self._matrix(rng, rng.randint(1, 8))
                    l2 = self._lattice(self._mobius(m, z1))
                    h = oracles.primitive_height(self._expected_witness("related", m, l1, l2))
                    if best is None or abs(h - k) < abs(best[1] - k):
                        best = (m, h)
                    if h == k:
                        break
                items.append({"kind": "related", "tau1": t1, "m": best[0]})
            for _ in range(self.UNRELATED):
                items.append({"kind": "unrelated", "tau1": self._transcendental(rng, used),
                              "tau2": self._transcendental(rng, used)})
            for _ in range(self.REFLECTED):
                t1 = self._transcendental(rng, used)
                z1 = self.tau_box(t1)
                l1 = self._lattice(z1)
                for _ in range(400):
                    m = self._matrix(rng, rng.randint(1, 6))
                    l2 = self._lattice(self._reflect(self._mobius(m, z1)))
                    if oracles.primitive_height(
                            self._expected_witness("reflected", m, l1, l2)) <= self.BOUND:
                        break
                items.append({"kind": "reflected", "tau1": t1, "m": m})
        for bound, cm in self.CM:
            if cm:
                d = rng.choice((-1, -2, -3, -5, -7, -11, -15))
                while True:
                    den = rng.randint(1, 4)
                    x = Fraction(rng.randint(-den // 2, den // 2), den)
                    y = Fraction(rng.randint(1, 3 * den), den)
                    # fundamental domain with margin: |x| <= 1/2, |tau| > 1
                    if x * x - d * y * y > 1 and abs(x) < Fraction(1, 2) and \
                            oracles.cm_expected(x, y, d, bound, ((1, 0), (0, 1))) == d:
                        break
                items.append({"kind": "cm", "bound": bound, "x": _f(x), "y": _f(y), "d": d})
            else:
                items.append({"kind": "noncm", "bound": bound,
                              "tau": self._transcendental(rng, used)})
        rng.shuffle(items)
        return {"items": items}

    def warmup(self, rng):
        used = {Fraction(0)}
        return {"items": [
            {"kind": "related", "tau1": self._transcendental(rng, used),
             "m": ((1, 1), (0, 1))},
            {"kind": "noncm", "bound": 100, "tau": self._transcendental(rng, used)},
        ]}

    def build(self, inputs):
        lc = self.api.lattice_core
        wprec = self.api.cintervals.working_precision
        sessions = []
        with iv_precision(160):
            for i, it in enumerate(inputs["items"]):
                kind = it["kind"]
                data = {"item": it}
                if kind in ("related", "reflected", "unrelated"):
                    z1 = self.tau_box(it["tau1"])
                    if kind == "unrelated":
                        z2 = self.tau_box(it["tau2"])
                    else:
                        z2 = self._mobius(tuple(map(tuple, it["m"])), z1)
                        if kind == "reflected":
                            z2 = self._reflect(z2)
                    l1, l2 = self._lattice(z1), self._lattice(z2)
                    data.update(l1=l1, l2=l2)
                    fn = lc.isr_equivalent if kind == "reflected" else lc.is_isogenous

                    def call(s, fn=fn, l1=l1, l2=l2):
                        with wprec(128):
                            return fn(l1, l2, self.BOUND)
                    task = Task("isr" if kind == "reflected" else "search", call)
                else:
                    if kind == "cm":
                        x, y, d = Fraction(it["x"]), Fraction(it["y"]), it["d"]
                        z = iv.mpc(iv.mpf(x.numerator) / x.denominator,
                                   iv.mpf(y.numerator) / y.denominator * iv.sqrt(-d))
                    else:
                        z = self.tau_box(it["tau"])
                    lat = self._lattice(z)
                    data.update(lattice=lat)

                    def call(s, lat=lat, bound=it["bound"]):
                        with wprec(128):
                            return lc.cm_field(lat, bound)
                    task = Task("cm_field", call)
                sessions.append(Session(f"{kind}{i}", [task], data=data))
        return sessions

    def _summary(self, kind, r):
        if kind == "cm_field":
            return repr(r)
        return f"{r.outcome}|{r.witness}|{r.used_reflection}|{r.bound}"

    def check(self, sessions, records, states):
        rep = _report()
        for rec in records:
            sess = sessions[rec.session]
            it = sess.data["item"]
            tag = f"{sess.key} {rec.kind}"
            if rec.status != OK:
                continue
            r = rec.result
            if it["kind"] == "cm":
                expected = oracles.cm_expected(it["x"], it["y"], it["d"], it["bound"],
                                               sess.data["lattice"].basis_change)
                if r != expected:
                    rep["wrong"].append(f"{tag}: cm_field {r}, expected {expected}")
                continue
            if it["kind"] == "noncm":
                if r is not None:
                    rep["wrong"].append(f"{tag}: transcendental tau reported CM {r}")
                continue
            if isinstance(r, Exception):
                rep["wrong"].append(f"{tag}: unexpected {r}")
                continue
            if r.outcome == "not_isogenous":
                rep["wrong"].append(f"{tag}: numeric pair declared not isogenous")
                continue
            if r.alpha is not None:
                rep["cert_bits"].append(oracles.certified_bits(r.alpha))
            if it["kind"] == "unrelated":
                if r.outcome != "unknown_up_to_bound" or r.bound != self.BOUND:
                    rep["wrong"].append(f"{tag}: unrelated pair gave {r.outcome} {r.witness}")
                continue
            m = tuple(map(tuple, it["m"]))
            want = self._expected_witness(it["kind"], m, sess.data["l1"], sess.data["l2"])
            reachable = oracles.primitive_height(want) <= self.BOUND
            if r.outcome == "isogenous":
                if not oracles.proportional(r.witness, want):
                    rep["wrong"].append(f"{tag}: witness {r.witness} is not a multiple of {want}")
                if it["kind"] == "reflected" and r.used_reflection is not True:
                    rep["wrong"].append(f"{tag}: reflected pair matched without reflection")
            elif reachable:
                rep["wrong"].append(f"{tag}: witness {want} within the bound was missed")
        return rep


# -- predim_hull -------------------------------------------------------------


class PredimHull(Workload):
    name = "predim_hull"
    why = ("closed loop, one client: predimension sessions on 8-11 coordinates "
           "plus derivation spaces; exact elimination and the 2^n superset "
           "scan dominate, no intervals")

    # Four configurations of 10 coordinates put the tail percentile inside
    # their hulls; the one of 8 carries relation rows.  A hull of 12
    # coordinates (about 3 s on a 2-CPU Xeon VM) would leave room for too few rounds.
    SIZES = (8, 10, 10, 10, 10, 11)
    WITH_RELATIONS = (0,)
    ORACLE_MAX = 10      # exhaustive checks up to this many coordinates
    HULL_ORACLE_MAX = 9  # the least-strong-superset check scans 3^n pairs
    RELATIONS_MAX = 10   # the engine checks compatibility up to 10 coordinates

    @staticmethod
    def config(rng, n, with_relations):
        coords = [f"c{i}" for i in range(n)]
        matroid = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 2)]
        kinds = ["exp", "wp_generic", "wp_cm"]
        rng.shuffle(kinds)
        slots = [{"kind": k} if k != "wp_cm" else {"kind": k, "d": rng.choice((-1, -2, -3, -7))}
                 for k in kinds]
        points, relations = [], {}
        for i, slot in enumerate(slots):
            if with_relations and i == 0:
                b, e = rng.sample(coords, 2)
                k = 3
                points += [[i, b, e]] * k
                row = [0] * k
                for j in rng.sample(range(k), 2):
                    if slot["kind"] == "wp_cm":
                        row[j] = [_f(Fraction(rng.randint(-3, 3), rng.randint(1, 2))),
                                  _f(Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)))]
                    else:
                        row[j] = _f(rng.choice((-2, -1, 1, 2)))
                if slot["kind"] == "wp_cm":
                    row = [x if x else ["0", "0"] for x in row]
                relations[str(i)] = [row]
            else:
                for _ in range(2):
                    b, e = rng.sample(coords, 2)
                    points.append([i, b, e])
        return {"coordinates": coords, "matroid": matroid, "slots": slots,
                "points": points, "relations": relations}

    @staticmethod
    def paired(rng):
        m = 5
        gens = [f"g{i}" for i in range(m)]
        npts = 2
        picked = rng.sample(range(m), 2 * npts)
        pairs = [[picked[2 * j], picked[2 * j + 1]] for j in range(npts)]
        while True:
            boundary = sorted(rng.sample(gens, 2))
            if not any(gens[b] in boundary and gens[e] in boundary for b, e in pairs):
                break
        return {"generators": gens, "pairs": pairs, "boundary": boundary,
                "values": [rng.randint(-3, 3) for _ in boundary],
                "hcl": rng.randrange(m)}

    def _session_inputs(self, rng, n, with_relations):
        cfg = self.config(rng, n, with_relations and n <= self.RELATIONS_MAX)
        coords = cfg["coordinates"]
        c = sorted(rng.sample(coords, 1))
        nslots = len(cfg["slots"])
        f1 = sorted(rng.sample(range(nslots), rng.randint(1, nslots)))
        f2 = sorted(rng.sample(range(nslots), rng.randint(1, nslots)))
        rest = [x for x in coords]
        rng.shuffle(rest)
        return {
            "config": cfg,
            "strong": sorted(rng.sample(coords, 2)),
            "dim": sorted(rng.sample(coords, 2)),
            "lemma": {"c": c,
                      "a": sorted(set(c) | set(rng.sample(coords, 3))),
                      "b": sorted(set(c) | set(rng.sample(coords, 3)))},
            "cert": {"f1": f1, "f2": f2, "a": rest[:2], "fa": rest[2:3]},
            "paired": self.paired(rng),
        }

    def generate(self, rng):
        items = [self._session_inputs(rng, n, i in self.WITH_RELATIONS)
                 for i, n in enumerate(self.SIZES)]
        rng.shuffle(items)
        return {"items": items}

    def warmup(self, rng):
        return {"items": [self._session_inputs(rng, 6, False)]}

    def make_config(self, desc):
        pe = self.api.predim_engine
        slots = [pe.FunctionSlot(i, s["kind"], s.get("d")) for i, s in enumerate(desc["slots"])]
        points = [pe.GroupPoint(p[0], p[1], p[2]) for p in desc["points"]]
        relations = {}
        for k, rows in desc["relations"].items():
            if desc["slots"][int(k)]["kind"] == "wp_cm":
                relations[int(k)] = [[(Fraction(x), Fraction(y)) for x, y in row] for row in rows]
            else:
                relations[int(k)] = [[Fraction(x) for x in row] for row in rows]
        return pe.Configuration(desc["coordinates"], desc["matroid"], slots, points, relations)

    def make_presentation(self, pd):
        df = self.api.differentials
        gens = tuple(pd["generators"])
        p = df.FieldPresentation(df.GENERIC, gens)
        forms = df.f_forms(p, [(0, b, e, gens[e]) for b, e in pd["pairs"]])
        return p, forms

    @staticmethod
    def paired_config(pd):
        gens = pd["generators"]
        m = len(gens)
        return {"coordinates": gens,
                "matroid": [[1 if i == j else 0 for j in range(m)] for i in range(m)],
                "slots": [{"kind": "exp"}], "relations": {},
                "points": [[0, gens[b], gens[e]] for b, e in pd["pairs"]]}

    def build(self, inputs):
        pe = self.api.predim_engine
        df = self.api.differentials
        sessions = []
        for i, it in enumerate(inputs["items"]):
            def prepare(it=it):
                p, forms = self.make_presentation(it["paired"])
                return {"cfg": self.make_config(it["config"]), "p": p, "forms": forms}

            lem, cert, pd = it["lemma"], it["cert"], it["paired"]
            boundary = dict(zip(pd["boundary"], (Fraction(v) for v in pd["values"])))
            coords = it["config"]["coordinates"]
            tasks = [
                Task("strong_hull", lambda s: pe.strong_hull(s["cfg"], ()), store="hull"),
                Task("is_strong", lambda s, a=it["strong"]: pe.is_strong(s["cfg"], a)),
                Task("predim_dim", lambda s, a=it["dim"]: pe.predim_dim(
                    s["cfg"], a, s["hull"], with_witness=True), needs=("hull",)),
                Task("chain_decompose", lambda s, c=coords: pe.chain_decompose(
                    s["cfg"], s["hull"], c), needs=("hull",)),
                Task("check_semimodularity", lambda s, lem=lem: pe.check_semimodularity(
                    s["cfg"], lem["a"], lem["b"], lem["c"])),
                Task("independence_certificate", lambda s, c=cert: pe.independence_certificate(
                    s["cfg"], c["f1"], c["f2"], c["a"], c["fa"], s["hull"]),
                    needs=("hull",)),
                Task("der_dimension", lambda s: df.der_dimension(s["p"], s["forms"])),
                Task("extend_derivation", lambda s, b=boundary: df.extend_derivation(
                    s["p"], s["forms"], b)),
                Task("hcl_witness", lambda s, b=pd["hcl"]: df.hcl_witness(s["p"], s["forms"], b)),
            ]
            sessions.append(Session(f"config{i}:n{len(coords)}", tasks, prepare,
                                    data={"item": it}))
        return sessions

    def _summary(self, kind, r):
        if kind == "strong_hull":
            return repr(sorted(r))
        if kind == "is_strong":
            return repr((r[0], sorted(r[1]) if r[1] else None))
        if kind == "predim_dim":
            return repr((r[0], sorted(r[1])))
        if kind == "chain_decompose":
            return repr((sorted(r.base), [(sorted(s.subset), s.tag, s.delta) for s in r.steps]))
        if kind == "independence_certificate":
            return repr((r.d0, r.d1, r.d2, r.d3, sorted(r.b1_witness), sorted(r.b2_witness),
                         sorted(r.a_intersection), r.delta0_a, r.semimodular_bound_holds,
                         r.d3_bound_holds, r.hypotheses_hold, r.conclusion_holds))
        return repr(r)

    def check(self, sessions, records, states):
        import sympy

        rep = _report()
        for rec in records:
            if rec.status != OK:
                continue
            sess = sessions[rec.session]
            it = sess.data["item"]
            tag = f"{sess.key} {rec.kind}"
            orc = sess.data.setdefault("oracle", oracles.PredimOracle(it["config"]))
            small = orc.n <= self.ORACLE_MAX
            slots = tuple(range(len(it["config"]["slots"])))
            r = rec.result
            state = states[rec.session]
            hull = orc.mask(state.get("hull", ()))
            bad = None
            if rec.kind == "strong_hull" and orc.n <= self.HULL_ORACLE_MAX:
                strong = [s for s in range(1 << orc.n) if orc.is_strong(slots, s)]
                if not orc.is_strong(slots, hull) or any(hull & ~s for s in strong):
                    bad = "hull is not the least strong superset"
            elif rec.kind == "is_strong":
                a = orc.mask(it["strong"])
                ok, witness = r
                if ok and small and not orc.is_strong(slots, a):
                    bad = "declared strong"
                if not ok and orc.delta(slots, orc.mask(witness), a) >= 0:
                    bad = "violating witness has delta >= 0"
            elif rec.kind == "predim_dim":
                dim, witness = r
                a = orc.mask(it["dim"])
                if orc.delta(slots, orc.mask(witness), hull) != dim or \
                        (small and orc.dim(slots, a, hull) != dim):
                    bad = f"dim {dim} disagrees with the exhaustive minimum"
            elif rec.kind == "chain_decompose":
                prev = orc.mask(r.base)
                total = 0
                for step in r.steps:
                    cur = orc.mask(step.subset)
                    if orc.delta(slots, cur, prev) != step.delta:
                        bad = "step delta differs from the oracle"
                    total += step.delta
                    prev = cur
                full = (1 << orc.n) - 1
                if prev != full or total != orc.delta(slots, full, hull):
                    bad = "chain is not additive up to the full set"
            elif rec.kind == "check_semimodularity":
                lem = it["lemma"]
                c = orc.mask(lem["c"])
                a, b = orc.mask(lem["a"]) | c, orc.mask(lem["b"]) | c

                def g(mask):
                    return sum(orc.grk(i, mask) - orc.grk(i, c) for i in slots)

                def t(mask):
                    return orc.td(mask) - orc.td(c)
                mono = all(orc.grk(i, a & b) - orc.grk(i, c) <= orc.grk(i, a | b) - orc.grk(i, c)
                           for i in slots)
                want = (g(a | b) + g(a & b) >= g(a) + g(b),
                        t(a | b) + t(a & b) <= t(a) + t(b),
                        orc.delta(slots, a | b, c) + orc.delta(slots, a & b, c)
                        <= orc.delta(slots, a, c) + orc.delta(slots, b, c),
                        mono)
                got = (r.grk_upper_semimodular, r.td_lower_semimodular,
                       r.delta_submodular, r.grk_monotone)
                if got != want:
                    bad = f"lemma report {got}, oracle {want}"
            elif rec.kind == "independence_certificate":
                cert = it["cert"]
                f1, f2 = tuple(cert["f1"]), tuple(cert["f2"])
                f0 = tuple(i for i in f1 if i in f2)
                f3 = tuple(sorted(set(f1) | set(f2)))
                target = orc.mask(cert["a"]) | orc.mask(cert["fa"]) | hull
                if small:
                    want = tuple(orc.dim(f, target, hull) for f in (f0, f1, f2, f3))
                    if (r.d0, r.d1, r.d2, r.d3) != want:
                        bad = f"dims {(r.d0, r.d1, r.d2, r.d3)}, oracle {want}"
                if r.delta0_a != orc.delta(f0, orc.mask(r.a_intersection), hull) or \
                        r.semimodular_bound_holds != (r.delta0_a <= r.d1 + r.d2 - r.d3):
                    bad = "certificate arithmetic disagrees with the oracle"
            elif rec.kind in ("der_dimension", "extend_derivation", "hcl_witness"):
                pd = it["paired"]
                porc = oracles.PredimOracle(self.paired_config(pd))
                full = (1 << porc.n) - 1
                if rec.kind == "der_dimension":
                    if r != porc.delta((0,), full):
                        bad = f"der_dimension {r} != delta"
                elif rec.kind == "extend_derivation":
                    rel = porc.delta((0,), full, porc.mask(pd["boundary"]))
                    if (rel == 0) != (r.kind == "unique") or \
                            (rel and (r.kind != "family" or r.dimension != rel)):
                        bad = f"extension {r.kind}/{r.dimension}, delta {rel}"
                else:
                    p, forms = state["p"], state["forms"]
                    if r.in_closure or r.witness is None:
                        bad = "generator reported in the closure"
                    else:
                        gens = pd["generators"]
                        d = [sympy.sympify(r.witness[g]) for g in gens]
                        rows_ok = all(sympy.simplify(sum(c * x for c, x in zip(f.vector, d))) == 0
                                      for f in forms)
                        if not rows_ok or sympy.simplify(d[pd["hcl"]] - 1) != 0:
                            bad = "witness derivation does not annihilate the forms"
            if bad:
                rep["wrong"].append(f"{tag}: {bad}")
        return rep


# -- height_count ------------------------------------------------------------


def _upper_end(h, lo, n):
    """hi such that the open interval (lo, hi) holds exactly n rationals of
    height <= h: halfway between the n-th and the next one above lo."""
    above = sorted(oracles.rationals(h, lo))
    return (above[n - 1] + above[n]) / 2


class HeightCount(Workload):
    name = "height_count"
    why = ("closed loop, one client: count_report on Identity to H=24 and on "
           "exp(wp(log t)) to H=12; the O(|ps||qs|) pair loop and per-p wp "
           "enclosures dominate")

    # Blocks of equal tasks hold the median (H = 9) and the tail (H = 12).
    # Tasks stay under about 0.1 s so that a run holds many rounds.
    IDENTITY = (4, 5, 6, 7) + (9,) * 8 + (12,) * 5
    # height -> how many rationals of that height the domain holds, so that
    # the seed moves a domain but not its cost
    BOUNDED = {12: 5, 18: 11, 24: 19}
    EXPWPLOG = {8: 2, 10: 2, 12: 4}
    EPS = Fraction(1, 64)
    ORACLE_H = 8

    def generate(self, rng):
        items = [{"kind": "identity", "h": h} for h in self.IDENTITY]
        for h, n in self.BOUNDED.items():
            lo = 1 + Fraction(rng.randint(0, 8), 8)
            items.append({"kind": "bounded", "h": h, "lo": _f(lo),
                          "hi": _f(_upper_end(h, lo, n))})
        for h, n in self.EXPWPLOG.items():
            t = 2 + Fraction(rng.randint(0, 4), 8)
            lo = Fraction(3, 2) + Fraction(rng.randint(0, 5), 10)
            items.append({"kind": "expwplog", "h": h, "w1": 3, "t": _f(t),
                          "lo": _f(lo), "hi": _f(_upper_end(h, lo, n))})
        rng.shuffle(items)
        return {"items": items}

    def warmup(self, rng):
        return {"items": [{"kind": "identity", "h": 8},
                          {"kind": "expwplog", "h": 6, "w1": 3, "t": "2",
                           "lo": "2", "hi": "21/10"}]}

    def make_target(self, it):
        k = self.api.counting
        if it["kind"] == "identity":
            return k.Identity()
        domain = k.Domain(Fraction(it["lo"]), Fraction(it["hi"]))
        if it["kind"] == "bounded":
            return k.Identity(domain)
        q = self.api.quadfield.QuadNum
        w1 = it["w1"]
        lat = self.api.lattice_core.make_lattice(
            q(w1, 0, -1), q(0, Fraction(it["t"]) * w1, -1))
        return k.ExpWpLog(lat, domain)

    @classmethod
    def schedule(cls, it):
        h = it["h"]
        return tuple(sorted({2, cls.oracle_height(it), h // 2, h}))

    @classmethod
    def oracle_height(cls, it):
        """The schedule height at which the brute-force pair count runs."""
        return min(cls.ORACLE_H, it["h"])

    def build(self, inputs):
        k = self.api.counting
        sessions = []
        for i, it in enumerate(inputs["items"]):
            eps = self.EPS if it["kind"] == "expwplog" else None
            sched = self.schedule(it)
            tasks = [Task(f"count_{it['kind']}",
                          lambda s, sc=sched, e=eps: k.count_report(s["h"], sc, e, 128))]
            sessions.append(Session(f"{it['kind']}{i}:H{it['h']}", tasks,
                                    lambda it=it: {"h": self.make_target(it)},
                                    data={"item": it, "schedule": sched}))
        return sessions

    def _summary(self, kind, r):
        return repr((r.h_schedule, r.counts, r.undetermined))

    def check(self, sessions, records, states):
        rep = _report()
        und, classified = 0, 0
        for rec in records:
            if rec.status != OK:
                continue
            sess = sessions[rec.session]
            it, sched = sess.data["item"], sess.data["schedule"]
            tag = f"{sess.key} {rec.kind}"
            r = rec.result
            lo = Fraction(it["lo"]) if "lo" in it else None
            hi = Fraction(it["hi"]) if "hi" in it else None
            n_ps = len(oracles.rationals(sched[-1], lo if lo is not None else Fraction(0), hi))
            classified += n_ps * oracles.totient_count(sched[-1])
            und += r.undetermined[-1]
            if it["kind"] == "identity":
                want = tuple(oracles.totient_count(h) for h in sched)
                if r.counts != want or any(r.undetermined):
                    rep["wrong"].append(f"{tag}: counts {r.counts}, totient {want}")
            elif it["kind"] == "bounded":
                want = tuple(len(oracles.rationals(h, lo, hi)) for h in sched)
                if r.counts != want or any(r.undetermined):
                    rep["wrong"].append(f"{tag}: counts {r.counts}, brute force {want}")
            else:
                h0 = self.oracle_height(it)
                j = sched.index(h0)
                conf, border = oracles.expwplog_confirmed(it["w1"], Fraction(it["t"]),
                                                          lo, hi, h0, self.EPS)
                n, u = r.counts[j], r.undetermined[j]
                if n > conf + border or n + u < conf or list(r.counts) != sorted(r.counts):
                    rep["wrong"].append(f"{tag}: N({h0}) = {n} (+{u} undetermined), "
                                        f"brute force {conf} (+{border} on the boundary)")
                target = states[rec.session]["h"]
                for p in self.api.counting.enumerate_rationals(sched[-1], target.domain):
                    elo, ehi = target.enclosure(p.value, 128)
                    mid = (elo + ehi) / 2
                    rad = (ehi - elo) / 2
                    if rad:
                        rep["cert_bits"].append(
                            -math.log2(rad / max(abs(mid), 1)))
        rep["undetermined"] = (und, classified)
        return rep



# -- cli_calls ---------------------------------------------------------------


class CliCalls(Workload):
    name = "cli_calls"
    min_rounds = 2  # a round is about 22 process starts, over ten seconds
    why = ("closed loop, one client, one wplab process per call in text and "
           "record format; pays interpreter start, imports, argparse and "
           "serialisation on every call")

    DS = (-1, -2, -3, -7)

    def __init__(self, api, root, workdir):
        super().__init__(api)
        self.root = root
        self.workdir = workdir

    @staticmethod
    def _decimal_tau(rng):
        """A decimal tau strictly inside the fundamental domain."""
        while True:
            x = rng.randint(5, 480) / 1000
            y = rng.randint(1050, 2600) / 1000
            if x * x + y * y > 1.01:
                return f"{x:.3f}+{y:.3f}i"

    def _commands(self, rng, tag):
        d = rng.choice(self.DS)
        p = rng.choice(("0", "1/4", "1/3", "1/2"))
        q = rng.choice(("1", "3/2", "2", "5/2"))
        tau = f"{p}+{q}i:{d}"
        tau_c = complex(float(Fraction(p)), float(Fraction(q)) * math.sqrt(-d))
        a, b = rng.uniform(0.12, 0.45), rng.uniform(0.12, 0.45)
        z = a + b * tau_c
        z_text = f"{z.real:.4f}+{z.imag:.4f}i"
        cfg = PredimHull.config(rng, 8, rng.random() < 0.5)
        subset = ",".join(sorted(rng.sample(cfg["coordinates"], rng.randint(0, 2))))
        pd = PredimHull.paired(rng)
        cfg_path = self.workdir / f"{tag}-config.json"
        pres_path = self.workdir / f"{tag}-presentation.json"
        boundary = ",".join(f"{g}={v}" for g, v in zip(pd["boundary"], pd["values"]))
        cmds = []
        for prec in PRECISIONS:
            cmds.append({"kind": "wp_invariants", "tau": [p, q, d], "prec": prec,
                         "argv": ["wp", "invariants", "--tau", tau, "--precision", str(prec)]})
        for prec in PRECISIONS:
            cmds.append({"kind": "wp_eval", "tau": [p, q, d], "z": z_text, "prec": prec,
                         "argv": ["wp", "eval", "--tau", tau, "--z", z_text,
                                  "--precision", str(prec)]})
        h = rng.randint(8, 12)
        cmds.append({"kind": "count", "heights": [2, 5, h],
                     "argv": ["count", "--h", "identity", "--heights", f"2,5,{h}"]})
        cmds.append({"kind": "isogenous",
                     "argv": ["lattice", "isogenous", "--tau1", self._decimal_tau(rng),
                              "--tau2", self._decimal_tau(rng), "--bound", "10"]})
        cm_tau = self._decimal_tau(rng)
        cmds.append({"kind": "cm", "tau": cm_tau,
                     "argv": ["lattice", "cm", "--tau", cm_tau, "--bound", "100"]})
        cmds.append({"kind": "hull", "config": cfg, "set": subset,
                     "argv": ["predim", "hull", "--config", str(cfg_path), "--set", subset]})
        cmds.append({"kind": "extend", "paired": pd,
                     "argv": ["deriv", "extend", "--presentation", str(pres_path),
                              "--boundary", boundary]})
        files = {cfg_path.name: cfg, pres_path.name: pd}
        out = []
        for c in cmds:
            for fmt in ("text", "record"):
                out.append(dict(c, fmt=fmt, argv=c["argv"] + ["--format", fmt]))
        rng.shuffle(out)
        return out, files

    def generate(self, rng):
        cmds, files = self._commands(rng, "round")
        return {"commands": cmds, "files": files}

    def warmup(self, rng):
        cmds, files = self._commands(rng, "warmup")
        return {"commands": [c for c in cmds if c["kind"] == "wp_invariants"][:1],
                "files": {}}

    def write_files(self, files):
        ser = self.api.serialize
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, desc in files.items():
            path = self.workdir / name
            if "pairs" in desc:
                gens = desc["generators"]
                rec = {"mode": "generic", "generators": gens, "relations": [],
                       "precision": 128,
                       "forms": [{"slot": 0, "b": b, "fb": e, "fprime": gens[e]}
                                 for b, e in desc["pairs"]]}
            else:
                rec = {"coordinates": desc["coordinates"],
                       "matroid": {"rows": [[str(x) for x in row] for row in desc["matroid"]]},
                       "slots": desc["slots"],
                       "points": [{"slot": s, "b": b, "e": e} for s, b, e in desc["points"]],
                       "relations": [{"slot": int(k), "rows": rows}
                                     for k, rows in desc["relations"].items()],
                       "base": []}
            path.write_text(ser.dumps(rec))

    def run_cli(self, argv):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "wplab.cli", *argv],
                              cwd=self.root, env=env, capture_output=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def build(self, inputs):
        self.write_files(inputs["files"])
        return [Session(f"{c['kind']}:{c['fmt']}:{i}",
                        [Task(f"cli_{c['kind']}", lambda s, a=c["argv"]: self.run_cli(a))],
                        data={"cmd": c})
                for i, c in enumerate(inputs["commands"])]

    @staticmethod
    def classify_result(task, result):
        code, out, err = result
        if b"Traceback" in err or code not in (0, 1, 2):
            return "error", err.decode(errors="replace")[-2000:]
        if code == 2 and not out.strip():
            return REFUSED, err.decode(errors="replace").strip()
        return OK, ""

    def summary(self, record):
        if record.status == "error" and isinstance(record.result, Exception):
            return f"error:{type(record.result).__name__}"
        code, out, _ = record.result
        import hashlib
        return f"{code}|{hashlib.sha256(out).hexdigest()}"

    @staticmethod
    def _record_box(rec, bits):
        """An mpmath (mid, err) pair from a box record, parsed here."""
        with mp.workprec(bits + 64):
            return mp.mpc(mp.mpf(rec["re"]), mp.mpf(rec["im"])), mp.mpf(rec["err"])

    def check(self, sessions, records, states):
        import json

        rep = _report()
        twins = {}
        for rec in records:
            sess = sessions[rec.session]
            c = sess.data["cmd"]
            tag = f"{sess.key}"
            if rec.status != OK:
                rep["wrong"].append(f"{tag}: no answer ({rec.detail[:200]})")
                continue
            code, out, _ = rec.result
            text = out.decode()
            twins.setdefault(tuple(c["argv"][:-2]), {})[c["fmt"]] = (code, text)
            if c["fmt"] != "record":
                continue
            try:
                data = json.loads(text)
            except ValueError:
                rep["wrong"].append(f"{tag}: record is not JSON")
                continue
            if self.api.serialize.dumps(self.api.serialize.loads(text)) != text.rstrip("\n"):
                rep["wrong"].append(f"{tag}: record does not round-trip through serialize")
            bad = self._check_record(c, code, data, rep)
            if bad:
                rep["wrong"].append(f"{tag}: {bad}")
        for argv, pair in twins.items():
            if len(pair) == 2 and pair["text"][0] != pair["record"][0]:
                rep["wrong"].append(f"{' '.join(argv[:2])}: text and record exit codes differ")
            if len(pair) == 2 and not self._text_matches(argv, pair["text"][1], pair["record"][1]):
                rep["wrong"].append(f"{' '.join(argv[:2])}: text output disagrees with the record")
        return rep

    def _check_record(self, c, code, data, rep):
        kind = c["kind"]
        if kind in ("wp_invariants", "wp_eval"):
            if code != 0:
                return f"exit {code}"
            p, q, d = c["tau"]
            prec = c["prec"]
            bits = 2 * prec + 32
            with mp.workprec(bits + 64):
                pf, qf = Fraction(p), Fraction(q)
                tau = mp.mpc(mp.mpf(pf.numerator) / pf.denominator,
                             mp.mpf(qf.numerator) / qf.denominator * mp.sqrt(-d))
                if kind == "wp_invariants":
                    want = dict(zip(("g2", "g3"), oracles.invariants_theta(tau, 1, bits + 64)))
                else:
                    re, im = c["z"][:-1].split("+")
                    z = mp.mpc(mp.mpf(re), mp.mpf(im))
                    want = dict(zip(("wp", "wp_prime"), oracles.wp_theta(tau, 1, z, bits + 64)))
                for key, val in want.items():
                    mid, err = self._record_box(data[key], bits)
                    scale = max(abs(val), 1)
                    gap = abs(val - mid)
                    if gap <= err * (1 + mp.ldexp(1, -20)) + mp.ldexp(scale, -prec):
                        rep["cert_bits"].append(float(-mp.log(err / max(abs(mid), 1), 2)))
                    elif gap <= err + mp.ldexp(scale, -48):
                        rep["known_defects"].append(
                            f"{' '.join(c['argv'][:2])} --precision {prec}: the record's "
                            f"{key} midpoint is right to only about "
                            f"{float(-mp.log(gap / scale, 2)):.0f} bits (double precision) "
                            f"while its err claims {float(-mp.log(err / scale, 2)):.0f}")
                    else:
                        return f"{key} record misses the theta-function value"
            return None
        if kind == "count":
            want = [oracles.totient_count(h) for h in c["heights"]]
            if code != 0 or data["counts"] != want or any(data["undetermined"]):
                return f"counts {data.get('counts')}, totient {want}"
            return None
        if kind == "isogenous":
            if data["outcome"] == "not_isogenous" or code == 1:
                return "numeric pair declared not isogenous"
            if data["outcome"] == "unknown_up_to_bound" and code != 2:
                return f"unknown verdict with exit {code}"
            if data["outcome"] == "isogenous":
                t1, t2 = (self._gauss(x) for x in (c["argv"][3], c["argv"][5]))
                (a, b), (cc, dd) = data["witness"]
                lhs = (a * t1[0] + b, a * t1[1])
                den = (cc * t1[0] + dd, cc * t1[1])
                rhs = (t2[0] * den[0] - t2[1] * den[1], t2[0] * den[1] + t2[1] * den[0])
                if lhs != rhs:
                    return f"witness {data['witness']} does not map tau1 to tau2"
            return None
        if kind == "cm":
            x, y = self._gauss(c["tau"])
            want = oracles.cm_expected(x, y, -1, 100, ((1, 0), (0, 1)))
            if data["cm_d"] != want:
                return f"cm_d {data['cm_d']}, expected {want}"
            if want is None and code == 1:
                rep["known_defects"].append(
                    "lattice cm exits 1 (certified negative) when no relation is "
                    "found up to the bound")
            elif code != (0 if want is not None else 2):
                return f"exit {code}"
            return None
        if kind == "hull":
            orc = oracles.PredimOracle(c["config"])
            slots = tuple(range(len(c["config"]["slots"])))
            a = orc.mask([x for x in c["set"].split(",") if x])
            hull = orc.mask(data["hull"])
            strong = [s for s in orc.supersets(a) if orc.is_strong(slots, s)]
            if code != 0 or a & ~hull or not orc.is_strong(slots, hull) or \
                    any(hull & ~s for s in strong):
                return f"hull {data['hull']} is not the least strong superset"
            return None
        if kind == "extend":
            pd = c["paired"]
            orc = oracles.PredimOracle(PredimHull.paired_config(pd))
            rel = orc.delta((0,), (1 << orc.n) - 1, orc.mask(pd["boundary"]))
            want = "unique" if rel == 0 else "family"
            if code != 0 or data["kind"] != want or (rel and data.get("dimension") != rel):
                return f"extension {data['kind']}, delta {rel}"
            return None
        return f"unchecked command kind {kind}"

    @staticmethod
    def _gauss(text):
        re, im = text.rstrip("i").split("+")
        return Fraction(re), Fraction(im)

    @staticmethod
    def _text_matches(argv, text, record):
        import json

        data = json.loads(record)
        kind = argv[:2]
        if kind == ("wp", "invariants"):
            keys = [data["g2"]["re"], data["g3"]["re"]]
        elif kind == ("wp", "eval"):
            keys = [data["wp"]["re"], data["wp_prime"]["re"]]
        elif kind[0] == "count":
            keys = [f"{h}\t{n}\t{u}" for h, n, u in
                    zip(data["heights"], data["counts"], data["undetermined"])]
        elif kind == ("lattice", "isogenous"):
            keys = [f"outcome = {data['outcome']}"]
        elif kind == ("lattice", "cm"):
            keys = [f"cm_d = {data['cm_d']}"]
        elif kind == ("predim", "hull"):
            keys = [f"hull = {data['hull']}"]
        else:
            keys = [f"kind = {data['kind']}"]
        return all(k in text for k in keys)
