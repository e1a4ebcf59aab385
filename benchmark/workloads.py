"""The four workloads. Each builds a seeded corpus of serialized instances in
set-up; one timed operation parses one instance and runs one pipeline over
it (or runs one `tis solve` subprocess), in a closed loop with one client.

Why each workload exists:

op_large      Large order-preserving instances. The O(n^2) layer graphs,
              clique extraction, the PQ-tree on a large pooled matrix and
              mwis_interval's n-fold completion dominate; deletion search
              and branch and bound do no work.
deletion_fpt  Order-preserving instances with two planted swaps in one
              layer, so the minimum deletion set has two vertices. min_opvd
              runs dozens of small recognitions and hundreds of c1p_order
              calls on reduced instances; layer graphs stay small.
exact_sparse  Sparse weighted random instances. Branch and bound dominates,
              and recognition answers no and builds a witness, so the
              negative path of order and pqtree is measured.
cli_small     `tis solve` subprocesses on small files. Interpreter start,
              importing tis and parsing dominate; the kernels do little.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# The library is called through its modules, so that the wrappers a traced
# run installs on those module attributes see every call.
import tis.generators as generators
import tis.model as model
import tis.opvd as opvd
import tis.order as order
import tis.solvers as solvers

from checks import (
    Raw,
    agrees,
    check_greedy_bound,
    check_recognition,
    check_solution,
    check_verify,
    cli_stdout,
    require,
)
from tracing import Tracer, installed, read_child_trace

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


@dataclass
class Item:
    """One corpus entry: the generated instance, its file text, and what the
    operation needs beyond it."""

    index: int
    inst: model.TemporalIntervalInstance
    text: str
    params: dict = field(default_factory=dict)
    _raw: Raw | None = None

    def raw(self) -> Raw:
        if self._raw is None:
            self._raw = Raw(self.inst)
        return self._raw


def planted_deletion(n: int, tau: int, delta: int, swaps: int, seed: int):
    """An order-preserving instance with `swaps` planted defects, and weights
    in 1..5.

    In one layer, `swaps` pairs of vertices that are consecutive in the
    hidden order trade intervals. Each pair has different neighbourhoods in
    that layer and in some other layer, so the swap contradicts the other
    layers; deleting one vertex of each pair undoes it. Pairs are at least
    three positions apart.
    """
    rng = random.Random(seed)
    base = generators.gen_order_preserving(n, tau, delta, 0, seed=rng.randrange(2**31))
    layers = [list(layer.intervals) for layer in base.layers]
    t = rng.randrange(tau)
    by_right = sorted(range(n), key=lambda v: layers[t][v][1])

    def neighbours(ivs, v):
        lv, rv = ivs[v]
        return {u for u, (lu, ru) in enumerate(ivs) if u != v and max(lu, lv) <= min(ru, rv)}

    def differ(s, a, b):
        return neighbours(layers[s], a) - {b} != neighbours(layers[s], b) - {a}

    spots = [
        i
        for i in range(n - 1)
        if differ(t, by_right[i], by_right[i + 1])
        and any(differ(s, by_right[i], by_right[i + 1]) for s in range(tau) if s != t)
    ]
    rng.shuffle(spots)
    chosen: list[int] = []
    for i in spots:
        if len(chosen) < swaps and all(abs(i - j) >= 3 for j in chosen):
            chosen.append(i)
    if len(chosen) < swaps:
        raise ValueError(f"seed {seed}: room for only {len(chosen)} planted swaps")
    for i in chosen:
        a, b = by_right[i], by_right[i + 1]
        layers[t][a], layers[t][b] = layers[t][b], layers[t][a]
    return model.TemporalIntervalInstance(
        names=base.names,
        weights=[Fraction(rng.randint(1, 5)) for _ in range(n)],
        tau=tau,
        delta=delta,
        k=0,
        mode="model",
        layers=[model.IntervalModel(layer) for layer in layers],
        unit_flag=True,
    )


class Workload:
    """A corpus generator, a timed operation and its checks."""

    name = ""
    count = 0  # corpus size; the loop wraps around when it runs out
    measures_children = False  # peak memory is the subprocesses'

    def __init__(self, toy: bool = False) -> None:
        self.toy = toy

    def make(self, rng: random.Random, i: int, workdir: Path) -> Item:
        raise NotImplementedError

    def corpus(self, seed: int, workdir: Path) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(rng, i, workdir) for i in range(3 if self.toy else self.count)]

    def warm_up(self) -> None:
        """Untimed work that users pay once, not per operation."""

    def run(self, item: Item):
        raise NotImplementedError

    def run_traced(self, item: Item, tracer: Tracer):
        with installed(tracer):
            return self.run(item)

    def probe(self) -> float | None:
        """An untimed side measurement after each traced operation."""
        return None

    def check(self, item: Item, out) -> None:
        raise NotImplementedError


def _item(i: int, inst, **params) -> Item:
    return Item(i, inst, model.serialize_instance(inst), params)


class OpLarge(Workload):
    name = "op_large"
    count = 96

    def make(self, rng, i, workdir):
        n = 24 if self.toy else 120
        return _item(i, generators.gen_order_preserving(n, 5, 2, 0, seed=rng.randrange(2**31)))

    def run(self, item):
        inst = model.parse_instance(item.text)
        rep = order.recognize_order_preserving(inst)
        if not rep.is_order_preserving:
            return rep, None, None, None
        op = solvers.solve_exact_op(inst, rep.ordering)
        greedy = solvers.solve_greedy(inst)
        return rep, op, greedy, solvers.verify_solution(inst, op.selected)

    def check(self, item, out):
        rep, op, greedy, report = out
        raw = item.raw()
        require(rep.is_order_preserving, "order-preserving instance not recognized")
        check_recognition(raw, rep)
        check_solution(raw, op, "op")
        check_solution(raw, greedy, "greedy")
        check_verify(raw, report, op.selected)
        check_greedy_bound(raw, greedy, op)


class DeletionFpt(Workload):
    name = "deletion_fpt"
    count = 96
    swaps = 2

    def make(self, rng, i, workdir):
        n = 12 if self.toy else 20
        inst = planted_deletion(n, 3, 1, self.swaps, seed=rng.randrange(2**31))
        return _item(i, inst)

    def run(self, item):
        inst = model.parse_instance(item.text)
        deletion = opvd.min_opvd(inst)
        sol = solvers.solve_fpt(inst, deletion.deletion_set)
        return deletion, sol, solvers.verify_solution(inst, sol.selected)

    def check(self, item, out):
        deletion, sol, report = out
        raw = item.raw()
        dels = deletion.deletion_set
        require(deletion.size == len(dels), "deletion size differs from its set")
        require(deletion.size <= self.swaps, f"deletion set larger than the {self.swaps} planted swaps")
        keep = [v for v in range(raw.n) if v not in dels]
        require(agrees(raw, deletion.ordering, keep), "survivors' ordering does not agree")
        check_solution(raw, sol, "fpt")
        check_verify(raw, report, sol.selected)
        oracle = solvers.solve_exact_bruteforce(item.inst, limit=raw.n)
        require(
            sol.objective == oracle.objective,
            f"fpt objective {sol.objective} != exact {oracle.objective}",
        )


class ExactSparse(Workload):
    name = "exact_sparse"
    count = 256

    def make(self, rng, i, workdir):
        n = 14 if self.toy else 34
        inst = generators.gen_random_unit(
            n, 4, 2, 0, seed=rng.randrange(2**31), spread=6, max_weight=5
        )
        return _item(i, inst)

    def run(self, item):
        inst = model.parse_instance(item.text)
        rep = order.recognize_order_preserving(inst)
        exact = solvers.solve_exact_bruteforce(inst, limit=inst.n)
        greedy = solvers.solve_greedy(inst)
        return rep, exact, greedy, solvers.verify_solution(inst, exact.selected)

    def check(self, item, out):
        rep, exact, greedy, report = out
        raw = item.raw()
        check_recognition(raw, rep)
        check_solution(raw, exact, "exact")
        check_solution(raw, greedy, "greedy")
        check_verify(raw, report, exact.selected)
        check_greedy_bound(raw, greedy, exact)


CLI_CODE = "from tis.cli import main; main()"
TRACED_CLI_CODE = "import sys, tracing; sys.exit(tracing.traced_cli_main(sys.argv[1:]))"


class CliSmall(Workload):
    name = "cli_small"
    count = 128
    measures_children = True
    algs = ("exact", "greedy", "op", "fpt")

    def __init__(self, toy: bool = False) -> None:
        super().__init__(toy)
        path = os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        self.env = dict(os.environ, PYTHONPATH=path)
        self.traced_env = dict(self.env, PYTHONPATH=os.pathsep.join([str(BENCH_DIR), path]))

    def make(self, rng, i, workdir):
        n = 10 + i % 3
        alg = self.algs[i % len(self.algs)]
        seed = rng.randrange(2**31)
        if alg == "op":
            inst = generators.gen_order_preserving(n, 3, 2, 0, seed=seed)
        elif alg == "fpt":
            inst = planted_deletion(n, 3, 1, 1, seed=seed)
        else:
            inst = generators.gen_random_unit(n, 3, 2, 0, seed=seed, spread=3, max_weight=5)
        item = _item(i, inst, alg=alg)
        path = workdir / f"{i:03d}.tis"
        path.write_text(item.text)
        item.params["argv"] = ["solve", str(path), "--alg", alg] + (
            ["--opvd", "auto"] if alg == "fpt" else []
        )
        return item

    def _spawn(self, code: str, argv: list[str], env: dict) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def warm_up(self):
        # Compile the package's bytecode once, as an installed tool would.
        self._spawn("import tis.cli, tracing", [], self.traced_env).check_returncode()

    def run(self, item):
        proc = self._spawn(CLI_CODE, item.params["argv"], self.env)
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, item, tracer):
        proc = self._spawn(TRACED_CLI_CODE, item.params["argv"], self.traced_env)
        stderr, tracer.spans, tracer.counts = read_child_trace(proc.stderr)
        return proc.returncode, proc.stdout, stderr

    def probe(self):
        t0 = perf_counter()
        self._spawn("pass", [], self.env).check_returncode()
        return perf_counter() - t0

    def check(self, item, out):
        code, stdout, stderr = out
        require(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
        require(stderr == "", f"unexpected stderr: {stderr.strip()[-200:]}")
        inst, alg = item.inst, item.params["alg"]
        if alg == "exact":
            sol = solvers.solve_exact_bruteforce(inst, limit=solvers.BRUTEFORCE_DEFAULT_LIMIT)
        elif alg == "greedy":
            sol = solvers.solve_greedy(inst)
        elif alg == "op":
            rep = order.recognize_order_preserving(inst)
            require(rep.is_order_preserving, "order-preserving instance not recognized")
            sol = solvers.solve_exact_op(inst, rep.ordering)
        else:
            sol = solvers.solve_fpt(inst, opvd.min_opvd(inst).deletion_set)
        check_solution(item.raw(), sol, alg)
        require(stdout == cli_stdout(inst.names, sol), f"stdout differs for --alg {alg}")


WORKLOADS = {w.name: w for w in (OpLarge, DeletionFpt, ExactSparse, CliSmall)}
