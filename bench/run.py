"""supersymp benchmark.

    python3 bench/run.py --workload {cli,poisson,algebra} --seed N --seconds S --trace {0,1}

Runs whole rounds of one workload's seeded operations, in a closed loop from
one caller, until S seconds have passed and at least 100 operations are
timed; checks every result with the
oracles in oracles.py; prints a report and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, every time in reference
seconds (see calib.py); the raw-clock values and the calibration factor are
printed on the report lines above.  With --trace 1 the run makes untraced
rounds for half the time, then exactly one round with every supersymp
module traced, and reports the per-layer metrics of that round; the spans
go to bench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE]

import calib  # noqa: E402
import inputs  # noqa: E402

SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 120
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
LAUNCH = "import sys; from supersymp.cli import main; sys.exit(main())"


def child_env() -> dict:
    """The caller's environment, with src/ on the path and bytecode caching
    on, as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, env, clock=None):
    """Run one child to completion; returns (completed process, raw seconds)."""
    if clock is not None:
        clock.sample()
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    raw = time.perf_counter() - t0
    if clock is not None:
        clock.record(raw)
    return proc, raw


def measure_setup(workload: str, seed: int, env) -> calib.Clock:
    """Program start-up, timed several times in fresh interpreters.

    For `cli` it is a cold `import supersymp.cli`, timed from here and
    calibrated by cold loop processes; otherwise each child times its own
    set-up and its own calibration loop."""
    if workload == "cli":
        clock = calib.Clock(lambda: calib.child_once(env), calib.REFERENCE_CHILD_S, window=2)
        for _ in range(SETUP_REPEATS):
            proc, _ = run_child([sys.executable, "-c", "import supersymp.cli"], env, clock)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        clock.sample()
        return clock
    clock = calib.Clock(window=0)
    path = os.path.join(OUT, f"inputs-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs.make(workload, seed), fh)
    for _ in range(SETUP_REPEATS):
        proc, _ = run_child([sys.executable, os.path.join(HERE, "child.py"), "setup", workload, path], env)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        clock.samples.append(data["loop_s"])
        clock.record(data["setup_s"])
    return clock


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Run:
    """Timed operations of one run plus everything the checks need."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inp = inputs.make(workload, seed)
        self.ops = self.inp["ops"]
        self.clock = self.new_clock()  # untraced rounds
        self.tclock = self.new_clock()  # the traced round
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # op id -> canonical summary of round 1
        self.summaries = {}  # op id -> summary of round 1
        self.tracer_summary = None
        self.import_s = 0.0

    def new_clock(self) -> calib.Clock:
        return calib.Clock()

    def note(self, op, problems):
        for p in problems:
            self.problems.append(f"op {op['id']} ({op['kind']}): {p}")

    def keep(self, op, summary):
        key = json.dumps(summary, sort_keys=True)
        if op["id"] not in self.first:
            self.first[op["id"]] = key
            self.summaries[op["id"]] = summary
        elif self.first[op["id"]] != key:
            self.note(op, ["result differs from the same operation in round 1"])

    def rounds(self):
        """Untraced rounds until the time is up (half of it when tracing)
        and at least MIN_OPS operations are timed."""
        budget = self.seconds / 2 if self.trace else self.seconds
        t0 = time.perf_counter()
        while True:
            self.round(self.clock, traced=False)
            if time.perf_counter() - t0 >= budget and len(self.clock.raw) >= MIN_OPS:
                break
        if self.trace:
            self.round(self.tclock, traced=True)


class InProcess(Run):
    def __init__(self, *args):
        super().__init__(*args)
        sys.path.insert(0, SRC)
        import inproc

        self.inproc = inproc

    def round(self, clock, traced):
        inproc = self.inproc
        session = inproc.build(self.workload, self.inp)
        tr = None
        if traced:
            import tracer

            tr = tracer.Tracer()
            tr.install()
        pending = []  # traced round: outputs checked once the tracer is out
        try:
            for op in self.ops:
                self.attempted += 1
                if tr is not None:
                    tr.op = op["id"]
                clock.sample()
                t0 = time.perf_counter()
                try:
                    out = inproc.run_op(self.workload, session, op)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    self.failed += 1
                    print(f"op {op['id']} ({op['kind']}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                clock.record(time.perf_counter() - t0)
                if tr is not None:
                    tr.op = None
                    pending.append((op, out))
                else:
                    self.summarize(session, op, out)
            clock.sample()
        finally:
            if tr is not None:
                tr.uninstall()
        for op, out in pending:
            self.summarize(session, op, out)
        if tr is not None:
            self.tracer_summary = tr.summary()
            tr.write(os.path.join(OUT, f"spans-{self.workload}-{self.seed}.jsonl.gz"))

    def summarize(self, session, op, out):
        res = self.inproc.summarize(self.workload, session, op, out)
        self.note(op, res["problems"])
        self.keep(op, res["summary"])

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self):
        import oracles

        cache = {}
        for op in self.ops:
            s = self.summaries.get(op["id"])
            if s is None:
                continue
            if self.workload == "poisson":
                self.note(op, oracles.check_poisson(self.inp, op, s))
            else:
                self.note(op, oracles.check_algebra(self.inp, op, s, cache))


class Cli(Run):
    """Each command is a cold process, so each is calibrated by a cold
    process running the calibration loop, timed the same way."""

    def __init__(self, *args):
        self.env = child_env()
        super().__init__(*args)
        self.results = {}  # op id -> (exit code, stdout) of round 1
        self.child_summaries = []
        self.import_times = []
        # compile the package's bytecode once, as an install would
        run_child([sys.executable, "-c", "import supersymp.cli"], self.env)

    def new_clock(self) -> calib.Clock:
        return calib.Clock(lambda: calib.child_once(self.env), calib.REFERENCE_CHILD_S)

    def round(self, clock, traced):
        for op in self.ops:
            self.attempted += 1
            if traced:
                summ = os.path.join(OUT, f"cli-{self.seed}-op{op['id']}.json")
                spans = os.path.join(OUT, f"spans-cli-{self.seed}-op{op['id']}.jsonl.gz")
                argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", summ, spans, str(op["id"])] + op["args"]
            else:
                argv = [sys.executable, "-c", LAUNCH] + op["args"]
            proc, _ = run_child(argv, self.env, clock)
            if traced:
                with open(summ, encoding="utf-8") as fh:
                    data = json.load(fh)
                self.child_summaries.append(data["summary"])
                self.import_times.append(data["import_s"])
            key = (proc.returncode, proc.stdout)
            if op["id"] not in self.results:
                self.results[op["id"]] = key
            elif self.results[op["id"]][0] != proc.returncode or _report_of(self.results[op["id"]][1]) != _report_of(proc.stdout):
                self.note(op, ["result differs from the same command in round 1"])
        clock.sample()

    def rounds(self):
        super().rounds()
        if self.child_summaries:
            import tracer

            self.tracer_summary = tracer.merge(self.child_summaries)
            self.import_s = statistics.median(self.import_times)

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def check(self):
        import oracles

        heis = oracles.spec_of({"specs": {"H": inputs.paper_spec(_read("fixtures/heis33.ssp"))}}, "H")
        rounds = self.attempted // len(self.ops)
        for op in self.ops:
            code, out = self.results[op["id"]]
            failed, problems = oracles.check_cli(op, code, out, heis)
            self.note(op, problems)
            if failed:
                self.failed += rounds


def _report_of(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return stdout


def _read(rel: str) -> str:
    with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def end_to_end(run: Run, setup: calib.Clock) -> dict:
    lat = run.clock.calibrated()
    raw = run.clock.raw
    n = len(lat)
    metrics = {
        "throughput_ops_s": (n / sum(lat), n / sum(raw), "1/s"),
        "latency_ms.p50": (1000 * statistics.median(lat), 1000 * statistics.median(raw), "ms"),
        "latency_ms.p90": (1000 * percentile(lat, 90), 1000 * percentile(raw, 90), "ms"),
        "setup_s": (statistics.median(setup.calibrated()), statistics.median(setup.raw), "s"),
        "peak_rss_mib": (run.peak_rss_mib(), None, "MiB"),
    }
    print(f"# {run.workload} seed {run.seed}: {n} timed operations in {n // len(run.ops)} rounds of {len(run.ops)}")
    print(f"# calibration factor {run.clock.factor():.4f} (reference loop {run.clock.reference * 1e3:.3f} ms, "
          f"median loop {statistics.median(run.clock.samples) * 1e3:.3f} ms over {len(run.clock.samples)} samples); "
          f"set-up factor {setup.factor():.4f}")
    print(f"# {'metric':<18} {'reference':>14} {'raw':>14}  unit")
    for name, (ref, rawv, unit) in metrics.items():
        rawtext = "-" if rawv is None else f"{rawv:.6g}"
        print(f"# {name:<18} {ref:>14.6g} {rawtext:>14}  {unit}")
    return {name: {"value": ref, "unit": unit} for name, (ref, _, unit) in metrics.items()}


def per_layer(run: Run) -> dict:
    import tracer

    untraced = len(run.clock.raw) / sum(run.clock.calibrated())
    traced = len(run.tclock.raw) / sum(run.tclock.calibrated())
    values = tracer.per_layer(run.tracer_summary, untraced / traced, run.import_s)
    print(f"# {run.workload} seed {run.seed}: traced round of {len(run.ops)} operations, "
          f"{run.tracer_summary['spans']} spans; throughput untraced {untraced:.4g}/s, traced {traced:.4g}/s")
    for name, value in values.items():
        print(f"# {name:<40} {value:>14.6g}  {tracer.PER_LAYER_UNITS[name]}")
    return {name: {"value": values[name], "unit": tracer.PER_LAYER_UNITS[name]} for name in tracer.PER_LAYER_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cli", "poisson", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "supersymp", "__init__.py")):
        print(f"error: no supersymp sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    calib.warm()

    cls = Cli if args.workload == "cli" else InProcess
    run = cls(args.workload, args.seed, args.seconds, bool(args.trace))
    setup = None if args.trace else measure_setup(args.workload, args.seed, child_env())
    run.rounds()
    metrics = per_layer(run) if args.trace else end_to_end(run, setup)
    run.check()

    for p in run.problems[:50]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
