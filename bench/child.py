"""Child processes of the benchmark.

    python bench/child.py setup <workload> <inputs.json>
        Time the program's own start-up in a fresh interpreter: import the
        package and the modules the workload uses, parse the workload's
        documents (generated by the parent into inputs.json) and build its
        SymplecticData and HeisenbergSpec objects.  Nothing but the package
        is imported before the import is timed, so the stdlib modules the
        package needs are timed with it.  Prints {"setup_s": ..., "loop_s":
        ...}, loop_s being this process's own calibration loop time, taken
        after the set-up.

    python bench/child.py cli <summary.json> <spans.jsonl.gz> <op-id> <args...>
        Run one `supersymp` command with every module traced; write the
        tracer summary (and the time `import supersymp.cli` took) and the
        spans, then exit with the command's own exit code.
"""

import os  # loaded by every interpreter before this file runs
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

# the modules each workload's operations use, imported as part of set-up
SETUP_IMPORTS = {
    "poisson": ("supersymp", "supersymp.dsl", "supersymp.symplectic", "supersymp.prequant"),
    "algebra": ("supersymp", "supersymp.dsl", "supersymp.symplectic", "supersymp.heisenberg",
                "supersymp.liecoh", "supersymp.cech"),
}


def setup(workload: str, inputs_path: str) -> None:
    t0 = time.perf_counter()
    for name in SETUP_IMPORTS[workload]:
        __import__(name)
    import_s = time.perf_counter() - t0

    import json
    import statistics

    import calib
    import inproc

    with open(inputs_path, encoding="utf-8") as fh:
        inp = json.load(fh)
    t0 = time.perf_counter()
    inproc.build(workload, inp)
    build_s = time.perf_counter() - t0
    calib.warm(0.1)
    loop_s = statistics.median(calib.loop_once() for _ in range(5))
    print(json.dumps({"setup_s": import_s + build_s, "loop_s": loop_s}))


def traced_cli(summary_path: str, spans_path: str, op_id: int, args) -> None:
    import json

    t0 = time.perf_counter()
    import supersymp.cli

    import_s = time.perf_counter() - t0
    import tracer

    tr = tracer.Tracer()
    tr.install()
    tr.op = op_id
    code = 1
    try:
        code = supersymp.cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tr.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "summary": tr.summary()}, fh)
        tr.write(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif mode == "cli":
        traced_cli(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
