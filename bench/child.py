"""One nilmult process of the benchmark, optionally traced.

    child.py probe                               import nilmult.cli, then exit
    child.py cli [--spans F] [--memory F] -- ARGS  one `nilmult ARGS` call via cli.main
    child.py generic OPS [--spans F] [--memory F]  an in-process round of `report(L, 2)`

A generic round builds the free algebras its ops share, prints `ready`, then
runs each op (`fdlie.loads` of a JSON algebra, then `multiplier.report(L, 2)`)
and prints one JSON line per op with its time and report.  `--spans F` installs
the tracer and writes its spans to F; `--memory F` writes to F the memory that
tracemalloc still sees allocated after the ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nilmult.cli  # noqa: E402
from nilmult import fdlie, freelie, multiplier  # noqa: E402

import tracer as tracing  # noqa: E402


def run_generic(spec: dict, tracer: tracing.Tracer | None, memory: bool) -> None:
    call = tracer.call if tracer else (lambda name, fn: fn())

    def setup():
        for d, c in spec["ambients"]:
            freelie.free_nilpotent(d, c)

    call("bench.setup", setup)
    print("ready", flush=True)
    if memory:
        tracemalloc.start()
    for text in spec["ops"]:
        t0 = time.perf_counter()
        try:
            rep = call("bench.op", lambda: multiplier.report(fdlie.loads(text), 2))
        except Exception as exc:  # an op that raises is counted as failed
            rep = {"error": f"{type(exc).__name__}: {exc}"}
        seconds = time.perf_counter() - t0
        # printed at once, so the benchmark holds no report in the measured memory
        print(json.dumps({"seconds": seconds, "report": rep}))


def main(argv: list[str]) -> int:
    rest: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "cli", "generic"])
    parser.add_argument("ops", nargs="?")
    parser.add_argument("--spans")
    parser.add_argument("--memory")
    args = parser.parse_args(argv)
    if Path(nilmult.cli.__file__).resolve().parent != ROOT / "src" / "nilmult":
        print(f"nilmult imported from {nilmult.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.mode == "probe":
        return 0

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = 0
    if args.mode == "cli":
        if args.memory:
            tracemalloc.start()
        code = nilmult.cli.main(rest)
    else:
        run_generic(json.loads(Path(args.ops).read_text()), tracer, bool(args.memory))
    if args.memory:
        gc.collect()
        Path(args.memory).write_text(json.dumps({"retained_bytes": tracemalloc.get_traced_memory()[0]}))
    if tracer:
        Path(args.spans).write_text(json.dumps(tracer.finish()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
