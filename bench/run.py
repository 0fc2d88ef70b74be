"""Benchmark for nilmult: one workload per call, run by one closed-loop client.

    python3 bench/run.py --workload generic-basis --seed 1 --seconds 25 --trace 0

A run makes its inputs from --seed and runs whole rounds of ops, one op at a
time, until --seconds have passed and at least MIN_OPS ops are done.  Every
answer is checked against bench/oracle.py.  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the fixed minimum
op list three times: traced (spans), untraced (for the tracing overhead) and
under tracemalloc (retained memory).  It reports the per-layer metrics and
writes bench/out/spans-<workload>.jsonl and bench/out/trace-<workload>.txt.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORK = OUT / "work"
MIN_OPS = 40  # the tail percentile needs at least TAIL_BEYOND ops beyond it
TAIL_BEYOND = 10
SETUP_PROBES = 3  # per round of a cold workload
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


@dataclass
class Proc:
    wall: float
    ready: float | None  # time to the child's "ready" line, when it prints one
    rss_mb: float
    stdout: bytes
    code: int


def spawn(args: list[str], ready: bool = False) -> Proc:
    """Run bench/child.py once, timed from spawn to exit; peak RSS from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV,
    )
    t_ready = None
    try:
        if ready and proc.stdout.readline() == b"ready\n":
            t_ready = time.perf_counter() - t0
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(time.perf_counter() - t0, t_ready, usage.ru_maxrss / 1024, out, proc.returncode)


@dataclass
class Outcome:
    seconds: float
    problem: str | None = None  # why the op failed
    wrong: bool = False  # it answered, and the answer is wrong


@dataclass
class RoundResult:
    outcomes: list[Outcome] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    retained_mb: list[float] = field(default_factory=list)


def _judge(seconds: float, problems: list[str]) -> Outcome:
    if problems:
        return Outcome(seconds, "; ".join(problems[:3]), wrong=True)
    return Outcome(seconds)


class Mode:
    """How child processes run: plain, with spans, or under tracemalloc."""

    def __init__(self, kind: str = "plain", sink=None):
        self.kind, self.sink = kind, sink  # sink(spans, wall) takes each traced process

    def flags(self) -> list[str]:
        if self.kind == "spans":
            return ["--spans", str(WORK / "spans.json")]
        if self.kind == "memory":
            return ["--memory", str(WORK / "memory.json")]
        return []

    def collect(self, proc: Proc, result: RoundResult):
        if self.kind == "spans":
            self.sink(json.loads((WORK / "spans.json").read_text()), proc.wall)
        elif self.kind == "memory":
            retained = json.loads((WORK / "memory.json").read_text())["retained_bytes"]
            result.retained_mb.append(retained / 2**20)


# --- inputs -----------------------------------------------------------------


def _inverse(P: list[list[int]]) -> list[list[Fraction]] | None:
    n = len(P)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(P)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def algebra_json(name: str, table: dict, P: list[list[int]]) -> str:
    """JSON text of the algebra with bracket `table` in the basis b_i = Σ_a P[i][a] e_a."""
    n = len(P)
    Pinv = _inverse(P)
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            v: dict[int, Fraction] = {}  # [b_i, b_j] in e-coordinates
            for a, pa in enumerate(P[i]):
                for b, pb in enumerate(P[j]):
                    if not pa or not pb or a == b:
                        continue
                    combo, sign = (table.get((a, b)), 1) if a < b else (table.get((b, a)), -1)
                    for t, x in (combo or {}).items():
                        v[t] = v.get(t, 0) + sign * pa * pb * x
            value = []
            for k in range(n):
                ck = sum((x * Pinv[t][k] for t, x in v.items()), Fraction(0))
                if ck:
                    value.append([k, str(ck)])
            if value:
                brackets.append({"i": i, "j": j, "value": value})
    return json.dumps({"name": name, "dim": n, "basis": [f"b{i + 1}" for i in range(n)], "brackets": brackets})


def random_matrix(n: int, rng: random.Random) -> list[list[int]]:
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _inverse(P) is not None:
            return P


def signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if a == perm[i] else 0 for a in range(n)] for i in range(n)]


def heisenberg_abelian_table(m: int) -> dict:
    """[x_t, y_t] = z on the basis x_1, y_1, ..., x_m, y_m, z, a_1, ..., a_r."""
    return {(2 * t, 2 * t + 1): {2 * m: 1} for t in range(m)}


def free_nilpotent_table(d: int, k: int) -> tuple[int, dict]:
    """Dimension and bracket table of N(d, k), read from nilmult's Hall basis."""
    from nilmult import fdlie, freelie

    L = fdlie.from_free_nilpotent(freelie.free_nilpotent(d, k))
    return L.dim, {(i, j): dict(combo) for i, j, combo in L.entries()}


# --- workloads --------------------------------------------------------------


class GenericBasis:
    """In process: `report(L, 2)` on paper-family algebras in random rational bases."""

    name = "generic-basis"
    # (family, p, q): ("H", m, r) is H(m)⊕A(r), ("N", d, k) is N(d, k); each
    # costs about 0.2-0.3 s, so the median does not sit between two shapes
    SHAPES = [("H", 1, 4), ("H", 2, 2), ("H", 3, 0), ("N", 2, 4)]
    PER_SHAPE = 4

    def __init__(self, seed: int, shapes=None, per_shape=None):
        self.seed = seed
        self.shapes = shapes or self.SHAPES
        self.per_shape = per_shape or self.PER_SHAPE
        self.round_ops = len(self.shapes) * self.per_shape

    def setup_samples(self) -> list[float]:
        return []  # each round's child times its own set-up

    def prepare(self, r: int) -> dict:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        shapes = [s for s in self.shapes for _ in range(self.per_shape)]
        rng.shuffle(shapes)
        ops, expects, ambients = [], [], set()
        for t, (family, p, q) in enumerate(shapes):
            if family == "H":
                n, table, d, k = 2 * p + 1 + q, heisenberg_abelian_table(p), 2 * p + q, 2
                expects.append(oracle.expect_heisenberg_abelian(p, q))
            else:
                (n, table), d, k = free_nilpotent_table(p, q), p, q
                expects.append(oracle.expect_free_nilpotent(p, q))
            ops.append(algebra_json(f"{family}{p},{q}#{r}.{t}", table, random_matrix(n, rng)))
            ambients.add((d, k + 2))
        path = WORK / f"generic-r{r}.json"
        path.write_text(json.dumps({"ambients": sorted(ambients), "ops": ops}))
        return {"path": path, "expects": expects}

    def run(self, inputs: dict, mode: Mode) -> RoundResult:
        result = RoundResult()
        proc = spawn(["generic", str(inputs["path"]), *mode.flags()], ready=True)
        mode.collect(proc, result)
        result.rss_mb.append(proc.rss_mb)
        if proc.ready is not None:
            result.setups.append(proc.ready)
        reports = [json.loads(line) for line in proc.stdout.decode().splitlines()] if proc.code == 0 else []
        if len(reports) != len(inputs["expects"]):
            return RoundResult([Outcome(proc.wall, f"round exited {proc.code}")] * len(inputs["expects"]))
        for item, expect in zip(reports, inputs["expects"]):
            rep = item["report"]
            if "error" in rep:
                result.outcomes.append(Outcome(item["seconds"], rep["error"]))
            else:
                result.outcomes.append(_judge(item["seconds"], oracle.check_report(rep, expect)))
        return result


class ColdCli:
    """Each op is one fresh `nilmult ...` process, started through bench/child.py."""

    round_ops = 8

    def __init__(self, seed: int):
        self.seed = seed

    def setup_samples(self) -> list[float]:
        """Interpreter start plus `import nilmult.cli`, the set-up every op pays."""
        return [spawn(["probe"]).wall for _ in range(SETUP_PROBES)]

    def run(self, inputs: list, mode: Mode) -> RoundResult:
        result = RoundResult()
        for argv, check in inputs:
            proc = spawn(["cli", *mode.flags(), "--", *argv])
            mode.collect(proc, result)
            result.rss_mb.append(proc.rss_mb)
            if proc.code != 0:
                result.outcomes.append(Outcome(proc.wall, f"exit code {proc.code}"))
                continue
            try:
                out = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                result.outcomes.append(Outcome(proc.wall, f"unreadable output: {exc}"))
                continue
            result.outcomes.append(_judge(proc.wall, check(out)))
        return result


class HeisenbergCli(ColdCli):
    """`nilmult multiplier FILE --c 2 --json` on H(4) in signed-permutation bases."""

    name = "heisenberg-cli"
    M = 4

    def expectation(self) -> dict:
        return oracle.expect_heisenberg_abelian(self.M, 0)

    def prepare(self, r: int) -> list:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        expect = self.expectation()
        ops = []
        for t in range(self.round_ops):
            path = WORK / f"heisenberg-r{r}-{t}.json"
            P = signed_permutation(2 * self.M + 1, rng)
            path.write_text(algebra_json(f"H({self.M})#{r}.{t}", heisenberg_abelian_table(self.M), P))
            ops.append((["multiplier", str(path), "--c", "2", "--json"], lambda out: oracle.check_report(out, expect)))
        return ops


class VerifyPaper(ColdCli):
    """`nilmult verify-paper --json` with the families widened past the defaults."""

    name = "verify-paper"
    MAX_ABELIAN, MAX_HEISENBERG = 8, 3

    def prepare(self, r: int) -> list:
        argv = ["verify-paper", "--json", "--max-abelian", str(self.MAX_ABELIAN),
                "--max-heisenberg", str(self.MAX_HEISENBERG)]

        def check(out):
            return oracle.check_verify_paper(out, self.MAX_ABELIAN, self.MAX_HEISENBERG)

        return [(argv, check)] * self.round_ops


WORKLOADS = {w.name: w for w in (GenericBasis, HeisenbergCli, VerifyPaper)}


# --- runs -------------------------------------------------------------------


def min_rounds(workload) -> int:
    return -(-MIN_OPS // workload.round_ops)


def tally(outcomes: list[Outcome]) -> dict:
    failed = [o for o in outcomes if o.problem]
    for o in failed[:3]:
        print(f"failed op: {o.problem}", file=sys.stderr)
    return {"correct": not any(o.wrong for o in outcomes), "attempted": len(outcomes), "failed": len(failed)}


def end_to_end(workload, seconds: float) -> dict:
    total = RoundResult()
    start = time.perf_counter()
    r = 0
    while r < min_rounds(workload) or time.perf_counter() - start < seconds:
        total.setups.extend(workload.setup_samples())
        res = workload.run(workload.prepare(r), Mode())
        for name in ("outcomes", "setups", "rss_mb"):
            getattr(total, name).extend(getattr(res, name))
        r += 1
    times = sorted(o.seconds for o in total.outcomes if not o.problem) or [float("nan")]
    metrics = {
        "setup_s": (statistics.median(total.setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (times[max(len(times) - 1 - TAIL_BEYOND, 0)], "s"),
        "peak_rss_mb": (statistics.median(total.rss_mb), "MB"),
    }
    return {**tally(total.outcomes), "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced(workload) -> dict:
    rounds = range(min_rounds(workload))
    totals = tracing.LayerTotals()
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    outcomes: list[Outcome] = []
    with spans_path.open("w") as fh:
        processes = 0

        def sink(spans, wall):
            nonlocal processes
            totals.add_process(spans, wall)
            fh.writelines(json.dumps([processes, *span]) + "\n" for span in spans)
            processes += 1

        traced_runs = [workload.run(workload.prepare(r), Mode("spans", sink)) for r in rounds]
    plain_runs = [workload.run(workload.prepare(r), Mode()) for r in rounds]
    memory_run = workload.run(workload.prepare(0), Mode("memory"))
    for res in traced_runs + plain_runs + [memory_run]:
        outcomes.extend(res.outcomes)
    traced_total = sum(o.seconds for res in traced_runs for o in res.outcomes)
    plain_total = sum(o.seconds for res in plain_runs for o in res.outcomes)
    metrics = totals.metrics(statistics.median(memory_run.retained_mb))
    lines = [f"traced run of {workload.name}: {sum(len(r.outcomes) for r in traced_runs)} ops"]
    lines += [f"  {name:<36} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  tracing overhead: traced {traced_total:.3f} s - untraced {plain_total:.3f} s"
                 f" = {traced_total - plain_total:.3f} s")
    lines.append(f"  spans: {spans_path.relative_to(ROOT)}")
    (OUT / f"trace-{workload.name}.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return {**tally(outcomes), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilmult" / "__init__.py").is_file():
        print(f"error: no nilmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    result = traced(workload) if args.trace else end_to_end(workload, args.seconds)
    text = json.dumps(result)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
