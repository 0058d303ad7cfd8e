"""Write one checkout's benchmark rows into a committed BENCH_*.json.

    python3 tools/bench_rows.py --label NAME --out BENCH_16.json \
        [--workloads poisson,algebra,cli] [--seeds 1,2] [--seconds 20]

The rows are measured on the checkout that holds this script:

* micro rows for the lowest layers, each the best of REPEAT timeit runs,
  in microseconds per call, raw (`raw_us`) and scaled to reference
  microseconds (`value`) by `bench/calib.py`'s loop timed before and
  after every run, so that rows taken while the machine ran at another
  speed compare: L0 `GaussianRational` mul, L1 Grassmann
  mul and sum of two 4-term elements, L2 `SuperFunction` mul and sum of
  an 8-term function with itself, `partial` along an even and an odd
  coordinate, a repeated `hash` of a two-part `CFunction`,
  `chart.constant(3)`, and the parity protocol on the 8-term function
  (`involution`, `is_homogeneous`, and `parity()` of its even part);
* L3 rows on the 2|2 form x dx^dy + dx^dxi + dy^deta: its `wedge` with
  itself, its `ext_d`, and its `contract` with a two-component field;
* an L4/L5 row: `liecoh.h2` of the 3|3 extension algebra of the bundled
  pairing, on a freshly built algebra;
* an L4 row: `linalg.kernel` of d on the 2-cochains of that algebra, its
  sparse rows built outside the timed call;
* two DSL rows: `Document.evaluate` of every distinct (chart, expression
  text) pair of a seed-1 `poisson` round, all of them in one timed call;
  the texts come from `bench/inputs.py`, which is only imported.  The
  first row times first evaluations only: each call evaluates on a
  shallow copy of the parsed document with an empty memo (no parse), so
  no memo entry is reused.  The second times the warm path, one document
  whose every evaluation is already memoized;
* L5 scaling rows, in the same units: `hamiltonian_field` of y c0 on the
  variable-rank 2|2 form x dx^dy + dx^dxi + dy^deta at ansatz degree 2
  to 5, and of one member of the 2|1 constant form dx^dy + dx^dxi, each
  call on a `SymplecticData` built afresh inside the timed call (so no
  cached column or field is reused, and the build is part of the row);
* an L4 row: `linalg.solve_sparse` of the one Hamiltonian system of y c0
  on the variable-rank 2|2 form at ansatz degree 3, its rows captured
  from that solve outside the timed call;
* an L5 row: `prequant.rep_check` of a pair of 2|1 members on three
  sections, on a `PrequantChart` built afresh inside the timed call (so
  no Hamiltonian field or operator is reused);
* two L5 Heisenberg rows on the 3|3 pairing of `fixtures/heis33.ssp`,
  each call on a spec built afresh inside the timed call (so no orbit,
  KKS form or Hamiltonian field is reused): `momentum_check` of the orbit
  through (1, 1), its classification and KKS form included; and the
  `orbit`, `kks` and `momentum` operations of the `algebra` workload at
  (1, 1) in turn, each calling `orbit_classify`;
* L5 pairing rows on the seed-1 k|k pairings K1, K2, K3 (k = 1-3) and
  the 3|3 pairing H of `fixtures/heis33.ssp`, each call on a spec built
  afresh inside the timed call (so no pairing column or coadjoint shift
  row is reused), with the two group elements and the base point of the
  spec's first `coad` operation of the seed-1 `algebra` round: their
  `group_mul`, and the three coadjoint actions of that operation,
  coad(g1 g2) mu and coad(g1) coad(g2) mu, with g1 g2 made outside;
* an L4 row per boundary of the 10x10 torus: `smith_normal_form` of d_1
  (100 x 300) and of d_2 (300 x 200), on a nerve built outside the
  timed call;
* Cech stage rows on the 10x10 torus: `load_cover` of its cover text;
  `period_group` and `normalize_to_periods` of its cocycle on a nerve
  whose Smith form of d_2 is already built; and `classify_prequantum`
  with d = 3 on a shallow copy of that nerve holding d_2's Smith form
  and no other, as the classification finds it after the normalization;
* Cech scaling rows on the m x m torus for m = 5, 10, 14 and 20 (50, 200,
  392 and 800 triangles): `load_cover` of the generated cover text, then
  `period_group`, `normalize_to_periods` and `classify_prequantum` with
  d = 3, all in one timed call, so the nerve and its Smith forms are
  built afresh each time;
* cold-start rows, each the median of COLD_REPEATS fresh interpreters
  timed from outside by `bench/run.py`'s `run_child`, with `src/` on the
  path and bytecode caching on, as the `cli` workload runs them: `import
  supersymp.cli`, then one command per group on the bundled fixtures
  (`cech periods`, `symplectic check`, `liecoh h2`, `heisenberg orbit`,
  `verify-paper section7`); the rows take turns, and each is given in
  raw ms (`raw_ms`) and in reference ms (`value`), scaled by the cold
  calibration processes of `bench/calib.child_once` around it;
* end-to-end rows: the last-line JSON of
  `python3 bench/run.py --workload W --seed S --seconds T --trace 0`
  for every workload and seed given;
* the Python version and `git rev-parse HEAD`.

They go under `rows[NAME]` of the output file; the rows of other labels
already in it are kept, so two checkouts (a parent and a change) can write
one file in turn.
"""

from __future__ import annotations

import argparse
import copy
import json
import platform
import random
import statistics
import subprocess
import sys
import timeit
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import calib  # noqa: E402

REPEAT = 7
COLD_REPEATS = 15


def _best_us(stmt) -> tuple:
    """(raw, reference) microseconds per call, each the best of REPEAT runs."""
    timer = timeit.Timer(stmt)
    number, _ = timer.autorange()
    clock = calib.Clock()
    for _ in range(REPEAT):
        clock.sample()
        clock.record(timer.timeit(number) / number * 1e6)
    clock.sample()
    return min(clock.raw), min(clock.calibrated())


def micro_rows() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    calib.warm()
    from supersymp.charts import CFunction, Chart
    from supersymp.forms import contract, ext_d, wedge
    from supersymp.grassmann import GrassmannNumber
    from supersymp import linalg
    from supersymp.heisenberg import algebra_of
    from supersymp.liecoh import _indexed_rows, h2
    from supersymp.reference import d, heisenberg_33
    from supersymp.scalars import GaussianRational

    a = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    b = GaussianRational(Fraction(5, 3), 4)
    g = GrassmannNumber(6, {(): 2, (1,): 3, (2, 3): -1, (1, 4, 5): Fraction(1, 2)})
    h = GrassmannNumber(6, {(): 1, (2,): -1, (4,): 2, (5, 6): 3})
    chart = Chart("M", ("x", "y"), ("xi", "eta"), 6)
    x, y, xi, eta = (chart.var(n) for n in chart.coords)
    f = chart.constant(2) + x.scale(3) - y + xi + eta.scale(Fraction(1, 2)) + x * y + xi * eta.scale(5) + x * xi
    assert len(f.terms) == 8
    cf = CFunction(f, x * xi)
    even = f.parity_part(0)
    omega = wedge(d(chart, "x"), d(chart, "y")).right_multiply(x) + wedge(d(chart, "x"), d(chart, "xi")) + wedge(d(chart, "y"), d(chart, "eta"))
    field = chart.vector_field({"x": f, "eta": x * xi})
    rows = [
        ("L0 scalars GaussianRational mul", lambda: a * b),
        ("L1 grassmann mul of two 4-term elements", lambda: g * h),
        ("L1 grassmann sum of two 4-term elements", lambda: g + h),
        ("L2 charts SuperFunction mul, 8-term f * f on 2|2", lambda: f * f),
        ("L2 charts SuperFunction sum, 8-term f + f on 2|2", lambda: f + f),
        ("L2 charts partial d/dx of the 8-term f", lambda: f.partial("x")),
        ("L2 charts partial d/dxi of the 8-term f", lambda: f.partial("xi")),
        ("L2 charts repeated hash of the CFunction f c0 + x xi c1", lambda: hash(cf)),
        ("L2 charts chart.constant(3) on 2|2", lambda: chart.constant(3)),
        ("L2 charts involution of the 8-term f", lambda: f.involution()),
        ("L2 charts is_homogeneous of the 8-term f", lambda: f.is_homogeneous()),
        ("L2 charts parity() of the even part of the 8-term f", lambda: even.parity()),
        ("L3 forms wedge of the 2|2 form x dx^dy + dx^dxi + dy^deta with itself", lambda: wedge(omega, omega)),
        ("L3 forms ext_d of the 2|2 form", lambda: ext_d(omega)),
        ("L3 forms contract of f d/dx + x xi d/deta with the 2|2 form", lambda: contract(field, omega)),
        ("L5 liecoh h2 of the 3|3 extension algebra, freshly built", lambda: h2(algebra_of(heisenberg_33()))),
    ]
    keys2, d2 = _indexed_rows(algebra_of(heisenberg_33()), 2)
    d2 = list(d2.values())
    shape = f"{len(d2)} x {len(keys2)}, {sum(map(len, d2))} nonzeros"
    rows.append((f"L4 linalg kernel of d on the 2-cochains of the 3|3 extension algebra ({shape})",
                 lambda: linalg.kernel(d2, len(keys2))))
    rows += dsl_rows() + l5_rows() + cech_rows()
    out = []
    for name, fn in rows:
        raw, reference = _best_us(fn)
        out.append({"row": name, "unit": "reference us", "best_of": REPEAT, "value": round(reference, 3), "raw_us": round(raw, 3)})
    return out


def dsl_rows() -> list:
    import inputs
    from supersymp.dsl import parse

    inp = inputs.poisson(1)
    doc = parse(inp["documents"]["poisson"])
    pairs = set()
    for op in inp["ops"]:
        items = [op.get("f"), op.get("g"), op.get("section")] + op.get("fgh", []) + op.get("sections", [])
        for item in filter(None, items):
            pairs.add((op["chart"], item["text"] if isinstance(item, dict) else item))
    calls = [(text, doc.charts[chart]) for chart, text in sorted(pairs)]

    def evaluate_all(on):
        for text, chart in calls:
            on.evaluate(text, chart)

    def unmemoized():
        out = copy.copy(doc)
        out._memo = {}
        return out

    evaluate_all(doc)
    name = f"DSL Document.evaluate of the {len(calls)} distinct expression texts of a seed-1 poisson round"
    return [
        (name, lambda: evaluate_all(unmemoized())),
        (f"{name}, each a repeat on one document", lambda: evaluate_all(doc)),
    ]


def l5_rows() -> list:
    from supersymp import linalg
    from supersymp.charts import CFunction, Chart
    from supersymp.forms import wedge
    from supersymp.prequant import PrequantChart, Section, rep_check
    from supersymp.reference import d, mixed_chart_21, poisson_member_21
    from supersymp.symplectic import SymplecticData, hamiltonian_field

    chart = Chart("V", ("x", "y"), ("xi", "eta"), 6)
    omega = (
        wedge(d(chart, "x"), d(chart, "y")).right_multiply(chart.var("x"))
        + wedge(d(chart, "x"), d(chart, "xi"))
        + wedge(d(chart, "y"), d(chart, "eta"))
    )
    y_c0 = CFunction(chart.var("y"), chart.zero())
    data21 = mixed_chart_21(6)
    member = poisson_member_21(data21, [1, 2, 3], [0, -1, 2], [1, 1])
    assert hamiltonian_field(member, SymplecticData(data21.omega)).status == "member"
    rows = [
        (f"L5 symplectic hamiltonian_field of y c0 on the variable-rank 2|2 form, ansatz degree {k}, fresh SymplecticData",
         lambda k=k: hamiltonian_field(y_c0, SymplecticData(omega), k))
        for k in (2, 3, 4, 5)
    ]
    rows.append(("L5 symplectic hamiltonian_field of a 2|1 constant-form member, fresh SymplecticData",
                 lambda: hamiltonian_field(member, SymplecticData(data21.omega))))

    systems = []
    solve_sparse = linalg.solve_sparse
    linalg.solve_sparse = lambda rows, ncols: systems.append((rows, ncols)) or solve_sparse(rows, ncols)
    try:
        hamiltonian_field(y_c0, SymplecticData(omega), 3)
    finally:
        linalg.solve_sparse = solve_sparse
    (system, ncols), = systems
    shape = f"{len(system)} x {ncols + 1}, {sum(map(len, system))} nonzeros"
    rows.append((f"L4 linalg solve_sparse of the Hamiltonian system of y c0 on the variable-rank 2|2 form, "
                 f"ansatz degree 3 ({shape})", lambda: solve_sparse(system, ncols)))

    x, y, xi = (data21.chart.var(name) for name in data21.chart.coords)
    even, odd = poisson_member_21(data21, [1, 2, 3], [], [1, 1]), poisson_member_21(data21, [], [2, 1], [])
    sections = [Section(s) for s in (data21.chart.one(), x * y + xi, y * y * xi - x.scale(3))]
    assert rep_check(even, odd, PrequantChart(SymplecticData(data21.omega), data21.theta), sections)
    rows.append(("L5 prequant rep_check of an even and an odd 2|1 member on three sections, fresh PrequantChart",
                 lambda: rep_check(even, odd, PrequantChart(SymplecticData(data21.omega), data21.theta), sections)))
    return rows + heisenberg_rows()


def heisenberg_rows() -> list:
    from supersymp.dsl import parse
    from supersymp.heisenberg import HeisenbergSpec, momentum_check, orbit_classify

    (heis,) = parse((ROOT / "fixtures" / "heis33.ssp").read_text()).heisenbergs.values()

    def fresh():
        return HeisenbergSpec(heis.parities, heis.omega0, heis.omega1)

    def orbit_kks_momentum():
        spec = fresh()
        orbit_classify(spec, 1, 1)
        orbit_classify(spec, 1, 1).kks_form()
        return momentum_check(orbit_classify(spec, 1, 1))

    assert momentum_check(orbit_classify(fresh(), 1, 1))["strongly_hamiltonian"]
    return [
        ("L5 heisenberg momentum_check of the 3|3 orbit through (1, 1), fresh spec and orbit",
         lambda: momentum_check(orbit_classify(fresh(), 1, 1))),
        ("L5 heisenberg orbit, kks and momentum operations at (1, 1) on one fresh 3|3 spec", orbit_kks_momentum),
    ] + pairing_rows()


def pairing_rows() -> list:
    import inputs
    from supersymp.dsl import parse
    from supersymp.heisenberg import GroupElement, HeisenbergSpec, OrbitPoint, coad, group_mul

    inp = inputs.make("algebra", 1)
    doc = parse(inp["documents"]["algebra"])
    chart = doc.charts["G"]
    zero = chart.zero().constant_value()
    rows = []
    for name in ("K1", "K2", "K3", "H"):
        spec = doc.heisenbergs[name]
        op = next(op for op in inp["ops"] if op["kind"] == "coad" and op["spec"] == name)
        coords = [[doc.evaluate(c["text"], chart).constant_value() for c in g] for g in op["g"]]
        y0, ybar1 = (Fraction(v) for v in op["point"])

        def fresh(spec=spec):
            return HeisenbergSpec(spec.parities, spec.omega0, spec.omega1)

        def mul(fresh=fresh, coords=coords):
            spec = fresh()  # group_mul pairs on the spec of its elements
            return group_mul(*(GroupElement(spec, a, zero, zero) for a in coords))

        # coad reads the spec of the point and only the coordinates of the elements
        g1, g2 = (GroupElement(spec, a, zero, zero) for a in coords)
        h = group_mul(g1, g2)

        def actions(fresh=fresh, g1=g1, g2=g2, h=h, y0=y0, ybar1=ybar1):
            mu = OrbitPoint.base(fresh(), y0, ybar1, generators=chart.generators)
            return coad(h, mu), coad(g1, coad(g2, mu))

        first, second = actions()
        assert first == second
        size = "|".join(str(spec.parities.count(p)) for p in (0, 1))
        rows.append((f"L5 heisenberg group_mul of the seed-1 coad elements on {name} ({size}), fresh spec", mul))
        rows.append((f"L5 heisenberg three coad of the seed-1 coad operation on {name} ({size}), fresh spec",
                     actions))
    return rows


def cech_rows() -> list:
    import inputs
    from supersymp import cech, linalg

    def torus_text(m):
        return inputs.surface(random.Random(1), "torus", inputs.torus(m, m))["text"]

    def pipeline(text):
        cover = cech.load_cover(text)
        a = cover.cocycle()
        per = cech.period_group(a, cover.nerve)
        cech.normalize_to_periods(a, cover.nerve, per)
        cech.classify_prequantum(cover.nerve, 3)

    text = torus_text(10)
    cover = cech.load_cover(text)
    nerve, a = cover.nerve, cover.cocycle()
    rows = []
    for k, shape in ((1, "100 x 300"), (2, "300 x 200")):
        rows.append((f"L4 linalg smith_normal_form of d_{k} ({shape}) of the 10x10 torus",
                     lambda k=k: linalg.smith_normal_form(nerve.boundary(k), len(nerve.simplices[k]))))

    def periods_and_normalization():
        cech.normalize_to_periods(a, nerve, cech.period_group(a, nerve))

    def classify():
        after_normalization = copy.copy(nerve)
        after_normalization._smith = {2: nerve.smith_form(2)}
        cech.classify_prequantum(after_normalization, 3)

    rows += [
        ("L5 cech load_cover of the 10x10 torus", lambda: cech.load_cover(text)),
        ("L5 cech period_group and normalize_to_periods of the 10x10 torus, Smith form of d_2 built",
         periods_and_normalization),
        ("L5 cech classify_prequantum of the 10x10 torus, Smith form of d_2 built", classify),
    ]
    for m in (5, 10, 14, 20):
        rows.append((f"L5 cech load_cover, period_group, normalize_to_periods and classify_prequantum "
                     f"of the {m}x{m} torus ({2 * m * m} triangles)", lambda text=torus_text(m): pipeline(text)))
    return rows


def cold_rows() -> list:
    import run

    env = run.child_env()
    command = [sys.executable, "-c", run.LAUNCH]
    rows = [("import supersymp.cli", [sys.executable, "-c", "import supersymp.cli"])] + [
        (" ".join(args), command + args)
        for args in (
            ["cech", "periods", "fixtures/sphere.cov"],
            ["symplectic", "check", "fixtures/mixed21.ssp", "--point", "x=0,y=0"],
            ["liecoh", "h2", "fixtures/algebra.ssp"],
            ["heisenberg", "orbit", "fixtures/heis33.ssp", "--y0", "2", "--ybar1", "0"],
            ["verify-paper", "section7"],
        )
    ]
    clocks = {name: calib.Clock(lambda: calib.child_once(env), calib.REFERENCE_CHILD_S, window=2) for name, _ in rows}
    for name, argv in rows:  # untimed: writes the bytecode caches
        run.run_child(argv, env)
    for _ in range(COLD_REPEATS):
        for name, argv in rows:
            run.run_child(argv, env, clocks[name])
    out = []
    for name, _ in rows:
        clock = clocks[name]
        clock.sample()
        out.append({"row": f"cold process: {name}", "unit": "reference ms", "median_of": COLD_REPEATS,
                    "value": round(statistics.median(clock.calibrated()) * 1e3, 2),
                    "raw_ms": round(statistics.median(clock.raw) * 1e3, 2)})
    return out


def end_to_end_rows(workloads, seeds, seconds: float) -> list:
    rows = []
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            last = json.loads(out.strip().splitlines()[-1])
            rows.append({"workload": workload, "seed": seed, "seconds": seconds, **last})
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workloads", default="poisson,algebra,cli")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    # the end-to-end runs go first: Linux keeps a process's peak RSS across
    # fork and exec, so after the micro rows a run would report their peak
    end_to_end = end_to_end_rows(
        [w for w in args.workloads.split(",") if w], [int(s) for s in args.seeds.split(",") if s], args.seconds
    )
    entry = {
        "commit": commit.stdout.strip(),
        "python": platform.python_version(),
        "micro": micro_rows(),
        "cold": cold_rows(),
        "end_to_end": end_to_end,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": {}}
    doc["rows"][args.label] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
