"""Command line front end.

    tis validate  <file>
    tis conflict  <file> [--out edgelist|dot]
    tis solve     <file> --alg exact|greedy|op|fpt [--opvd-set a,b] [--opvd auto]
    tis opvd      <file> [--exact] [--budget B]
    tis recognize <file>
    tis gen       random|op|lcsp [--n --tau --delta --k --spread --max-weight
                                  --perms abc,acb --out FILE]
    tis bench     <dir> <csv>

Shared flags (valid after any subcommand): --window-semantics figure|formula,
--seed N, --limit-oracle N.

Exit codes: 0 success / decision yes; 1 decision no (not order preserving,
cardinality below target, deletion budget exceeded); 2 input error;
3 oracle size limit exceeded; 4 internal error (a computed result failed
its own check: a bug in tis, not in the input). All output is
deterministic for fixed inputs and seeds; timing data only ever goes to
bench CSV files, never stdout.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .bench import run_bench
from .conflict import WindowSemantics, conflict_graph
from .generators import gen_lcsp_gadget, gen_order_preserving, gen_random_unit
from .model import (
    BudgetExceeded,
    InstanceError,
    InternalError,
    LimitExceeded,
    NotUnitError,
    TemporalIntervalInstance,
    parse_instance,
    serialize_instance,
)
from .opvd import EXHAUSTIVE_DEFAULT_LIMIT, min_opvd, opvd_exhaustive
from .order import recognize_order_preserving

# The solve_* names are unused here; benchmark/tracing.py wraps their tis.cli bindings.
from .solvers import (  # noqa: F401
    BRUTEFORCE_DEFAULT_LIMIT,
    solve,
    solve_exact_bruteforce,
    solve_exact_op,
    solve_fpt,
    solve_greedy,
    verify_solution,
)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--window-semantics",
        choices=["figure", "formula"],
        default="figure",
        help="window length convention for the conflict graph",
    )
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--limit-oracle",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="vertex cap for exhaustive computations (exit 3 beyond it)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="tis",
        description="temporal interval graph solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common])
    p.add_argument("file")

    p = sub.add_parser("conflict", parents=[common])
    p.add_argument("file")
    p.add_argument("--out", choices=["edgelist", "dot"], default="edgelist")

    p = sub.add_parser("solve", parents=[common])
    p.add_argument("file")
    p.add_argument(
        "--alg", choices=["exact", "greedy", "op", "fpt"], required=True
    )
    p.add_argument("--opvd-set", default=None, metavar="V1,V2")
    p.add_argument("--opvd", choices=["auto"], default=None)

    p = sub.add_parser("opvd", parents=[common])
    p.add_argument("file")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=_nonnegative_int, default=None, metavar="B")

    p = sub.add_parser("recognize", parents=[common])
    p.add_argument("file")

    p = sub.add_parser("gen", parents=[common])
    p.add_argument("kind", choices=["random", "op", "lcsp"])
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--tau", type=int, default=2)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--spread", type=_rational, default=Fraction(2), metavar="Q")
    p.add_argument("--max-weight", type=int, default=None, metavar="W")
    p.add_argument("--perms", default=None, metavar="ABC,ACB")
    p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("bench", parents=[common])
    p.add_argument("dir")
    p.add_argument("csv")

    return parser


def _semantics(args: argparse.Namespace) -> WindowSemantics:
    return WindowSemantics(args.window_semantics)


def _limit(args: argparse.Namespace, default: int) -> int:
    return default if args.limit_oracle is None else args.limit_oracle


def _load(path: str) -> TemporalIntervalInstance:
    return parse_instance(Path(path).read_text())


def _names(inst: TemporalIntervalInstance, vertices) -> str:
    return ",".join(inst.names[v] for v in sorted(vertices))


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    print(
        f"VALID n={inst.n} tau={inst.tau} delta={inst.delta} k={inst.k} "
        f"mode={inst.mode} unit={int(inst.unit_flag)}"
    )
    return 0


def _cmd_conflict(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    g = conflict_graph(inst, _semantics(args))
    pairs = sorted(
        (inst.names[min(u, v)], inst.names[max(u, v)]) for u, v in g.edges
    )
    if args.out == "edgelist":
        for a, b in pairs:
            print(f"{a} {b}")
    else:
        escape = str.maketrans({"\\": "\\\\", '"': '\\"'})  # DOT's two escapes
        quoted = {name: f'"{name.translate(escape)}"' for name in inst.names}
        print("graph conflict {")
        for name in inst.names:
            print(f"  {quoted[name]};")
        for a, b in pairs:
            print(f"  {quoted[a]} -- {quoted[b]};")
        print("}")
    return 0


def _parse_vertex_list(inst: TemporalIntervalInstance, text: str) -> set[int]:
    if not text:
        return set()
    return inst.vertex_set(text.split(","))


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    sem = _semantics(args)
    limit = _limit(args, BRUTEFORCE_DEFAULT_LIMIT)
    deletion = None
    if args.alg == "fpt":
        if args.opvd_set is not None:
            deletion = _parse_vertex_list(inst, args.opvd_set)
        elif args.opvd != "auto":
            raise InstanceError("--alg fpt needs --opvd-set or --opvd auto")
    sol = solve(inst, args.alg, sem, limit=limit, deletion_set=deletion)
    if sol is None:
        print("NOT-ORDER-PRESERVING")
        return 1
    report = verify_solution(inst, sol.selected, sem)
    decision = report.cardinality >= inst.k
    print(f"algorithm={sol.algorithm}")
    print(f"objective={sol.objective}")
    print(f"cardinality={report.cardinality}")
    print(f"set={_names(inst, sol.selected)}")
    print(f"verify={'PASS' if report.independent else 'FAIL'}")
    print(f"decision={'YES' if decision else 'NO'}")
    return 0 if decision else 1


def _cmd_opvd(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    try:
        if args.exact:
            limit = _limit(args, EXHAUSTIVE_DEFAULT_LIMIT)
            result = opvd_exhaustive(inst, limit=limit)
            if args.budget is not None and result.size > args.budget:
                raise BudgetExceeded(f"minimum deletion set has size {result.size}")
        else:
            result = min_opvd(inst, budget=args.budget)
    except BudgetExceeded:
        print(f"BUDGET-EXCEEDED budget={args.budget}")
        return 1
    print(f"size={result.size}")
    print(f"set={_names(inst, result.deletion_set)}")
    print(f"ordering={','.join(inst.names[v] for v in result.ordering)}")
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    inst = _load(args.file)
    rep = recognize_order_preserving(inst)
    if rep.ordering is not None:
        order = ",".join(inst.names[v] for v in rep.ordering.order)
        print(f"ORDER-PRESERVING {order}")
        return 0
    if rep.witness is None:
        raise InternalError("negative recognition carries no witness")
    print(f"NOT-ORDER-PRESERVING witness={_names(inst, rep.witness)}")
    return 1


def _parse_perms(text: str) -> list[list[int]]:
    words = [w for w in text.split(",") if w]
    if not words:
        raise InstanceError("--perms needs at least one word")
    alphabet = sorted(set(words[0]))
    rank = {ch: i + 1 for i, ch in enumerate(alphabet)}
    perms = []
    for w in words:
        if sorted(set(w)) != alphabet or len(w) != len(alphabet):
            raise InstanceError(
                f"--perms words must all permute the same letters, got {w!r}"
            )
        perms.append([rank[ch] for ch in w])
    return perms


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "random":
        inst = gen_random_unit(
            args.n,
            args.tau,
            args.delta,
            args.k,
            seed=args.seed,
            spread=args.spread,
            max_weight=args.max_weight,
        )
    elif args.kind == "op":
        inst = gen_order_preserving(
            args.n, args.tau, args.delta, args.k, seed=args.seed
        )
    else:
        if args.perms is None:
            raise InstanceError("gen lcsp needs --perms")
        inst = gen_lcsp_gadget(_parse_perms(args.perms))
    text = serialize_instance(inst)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    limit = _limit(args, BRUTEFORCE_DEFAULT_LIMIT)
    rows = run_bench(args.dir, args.csv, _semantics(args), oracle_limit=limit)
    print(f"rows={len(rows)} csv={args.csv}")
    return 0


_DISPATCH = {
    "validate": _cmd_validate,
    "conflict": _cmd_conflict,
    "solve": _cmd_solve,
    "opvd": _cmd_opvd,
    "recognize": _cmd_recognize,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (InstanceError, NotUnitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
