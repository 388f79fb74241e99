"""The ``lg`` command line tool.

Subcommands: validate, complexity, adversary, build, report, oracle,
costmodel, corpus.  ``report`` runs build, validate, complexity and the
witness for each triangle variant and prints one JSON line per variant;
``costmodel --fit`` puts the paper's exponent and the drift from it next to
the fitted one; ``corpus`` prints the sha256 digest of the tree it wrote.
Reports go to standard output as strict JSON: a NaN or infinite value is
printed as null.  Exit codes: 0 when all checks pass, 1 when a check fails,
2 on usage or input errors.  An input error emits a JSON error object on
standard error; a usage error (an unknown command or option, a missing or
malformed argument) prints argparse's usage text there instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from .adversary import build_witness, linking_mutants, rebalance_to_equal, verify_witness
from .complexity import complexity
from .corpus import corpus_generate, tree_digest
from .costmodel import VARIANTS, default_grid, fit_exponent, optimize_params, parse_m_law
from .serialize import _at, _integer, build_function, build_graph, dump_function, dump_graph
from .serialize import dumps, read_json, write_json
from .triangle import (
    ORACLE_CAP,
    BuildResult,
    GraphInstance,
    TriangleParams,
    build_dense_lg,
    build_sparse_lg,
    build_sparsenew_lg,
    delta_mean_pairs,
    edge_exp_exact,
    ninter_exact,
    ninter_sq_exact,
    oracle_delta_exact,
)
from .validate import validate

T = TypeVar("T")


def _fail(message: str, *, where: str | None = None, code: int = 2) -> int:
    obj: dict = {"error": {"message": message}}
    if where is not None:
        obj["error"]["where"] = where
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)
    return code


def _load(path: str, parse: Callable[[Any], T]) -> T:
    """``parse`` of the JSON in ``path``.  A file that cannot be read, is not
    JSON or nests too deeply to read or parse is bad input: a ValueError
    that names the file."""
    try:
        return parse(read_json(path))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}") from exc
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to read") from None


def _instance(obj: Any) -> GraphInstance:
    """The instance file ``obj``, refused past ``ORACLE_CAP`` vertices."""
    with _at("$"):
        # the edge mask has n(n-1)/2 bits; no oracle runs past ORACLE_CAP
        if _integer(obj["n"], "$.n") > ORACLE_CAP:
            raise ValueError(f"$.n: {obj['n']} exceeds the oracle cap {ORACLE_CAP}")
        return GraphInstance.from_json(obj)


def _finite(obj: Any) -> Any:
    """``obj`` with every NaN or infinite float replaced by None (null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(obj: dict, out: str | None = None) -> None:
    text = dumps(_finite(obj))
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _load(args.graph, build_graph)
    f = _load(args.function, build_function) if args.function else None
    rep = validate(g, f)
    _emit(rep.to_json(), args.out)
    return 0 if rep.ok else 1


def _cmd_complexity(args: argparse.Namespace) -> int:
    g = _load(args.graph, build_graph)
    f = _load(args.function, build_function)
    rep = complexity(g, f)
    _emit(rep.to_json(), args.out)
    return 0 if all(map(math.isfinite, (rep.c0, rep.c1, rep.value))) else 1


def _cmd_adversary(args: argparse.Namespace) -> int:
    g = _load(args.graph, build_graph)
    f = _load(args.function, build_function)
    if not args.raw:
        g = rebalance_to_equal(g, f)
    witness = build_witness(g, f)
    rep = verify_witness(witness, f)
    out = rep.to_json()
    caught = 0
    if args.mutants:
        deviations = []
        for mutant in linking_mutants(g, f, count=args.mutants, seed=args.seed):
            mrep = verify_witness(build_witness(mutant.graph, f), f)
            caught += not mrep.crossing_ok
            deviations.append(
                max(abs(mrep.crossing_lo - 1.0), abs(mrep.crossing_hi - 1.0))
            )
        # a NaN crossing gives a NaN deviation, which min() would keep only
        # when it came first
        finite = [d for d in deviations if math.isfinite(d)]
        out["mutant_min_deviation"] = min(finite, default=math.nan)
        out["mutants"] = args.mutants
        out["mutants_caught"] = caught
    _emit(out, args.out)
    # a mutant whose witness passes the crossing check escaped
    return 0 if rep.ok and caught == args.mutants else 1


def _build_variant(
    variant: str, n: int, x: int | None, a: int | None, b: int | None
) -> BuildResult:
    if variant == "sparsenew":
        if b is None:
            raise ValueError("triangle-sparsenew needs --b")
        return build_sparsenew_lg(n, b)
    if None in (x, a, b):
        raise ValueError(f"triangle-{variant} needs --x, --a and --b")
    build = build_dense_lg if variant == "dense" else build_sparse_lg
    return build(n, TriangleParams(x, a, b, variant))


def _cmd_build(args: argparse.Namespace) -> int:
    variant = args.target.split("-", 1)[1]
    res = _build_variant(variant, args.n, args.x, args.a, args.b)
    rep = complexity(res.graph, res.function)
    summary = {
        "variant": res.variant,
        "params": res.params,
        "vertices": len(res.graph.vertices),
        "edges": len(res.graph.edges),
        "c0_max": rep.c0,
        "c1_max": rep.c1,
        "complexity": rep.value,
    }
    if args.out:
        write_json(args.out, dump_graph(res.graph))
        summary["graph"] = args.out
    if args.function_out:
        write_json(args.function_out, dump_function(res.function))
        summary["function"] = args.function_out
    _emit(summary)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    failed = False
    for variant in VARIANTS:
        t0 = time.perf_counter()
        res = _build_variant(variant, args.n, args.x, args.a, args.b)
        g, f = res.graph, res.function
        valid = validate(g, f).ok
        rep = complexity(g, f)
        certified = verify_witness(build_witness(rebalance_to_equal(g, f), f), f).ok
        failed |= not (valid and certified)
        _emit({
            "variant": variant,
            "params": res.params,
            "edges": len(g.edges),
            "c0_max": rep.c0,
            "c1_max": rep.c1,
            "complexity": rep.value,
            "valid": valid,
            "certified": certified,
            "seconds": time.perf_counter() - t0,
        })
    return 1 if failed else 0


def _parse_vertex_list(text: str) -> tuple[int, ...]:
    try:
        out = tuple(sorted({int(part) - 1 for part in text.split(",") if part}))
    except ValueError as exc:
        raise ValueError(f"bad vertex list {text!r}; use 1-based like 1,3,4") from exc
    if out and out[0] < 0:
        raise ValueError(f"vertex list {text!r} must be 1-based")
    return out


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.which == "delta":
        g = _load(args.graph, _instance)
        if not 1 <= args.b <= g.n:
            raise ValueError(f"--b must lie in 1..{g.n}")
        B = range(args.b)
        exact = oracle_delta_exact(g, B, args.x)
        if exact != delta_mean_pairs(g, B, args.x):
            raise ValueError("internal disagreement between counting routes")
        out = {"bound": args.b ** 2 / args.x}
    elif args.which in ("ninter", "ninter-sq"):
        if args.v1 < 1:
            raise ValueError("--v1 must be at least 1")
        ground = range(args.v1)
        nset = _parse_vertex_list(args.nset)
        mean = Fraction(args.x * len(nset), args.v1)
        if args.which == "ninter":
            exact = ninter_exact(ground, nset, args.x)
            out = {"equality": str(mean)}
        else:
            exact = ninter_sq_exact(ground, nset, args.x)
            out = {
                "bound": float(2 * mean**2),
                "precondition_met": args.x * len(nset) >= args.v1,
            }
    else:
        g = _load(args.graph, _instance)
        exact = edge_exp_exact(g, args.x, args.y)
        out = {"formula": str(Fraction(2 * args.x * args.y * g.m, g.n * g.n))}
    _emit({"value": float(exact), "exact": str(exact), **out}, args.out)
    return 0


def _cmd_costmodel(args: argparse.Namespace) -> int:
    if args.fit:
        grid = default_grid(args.n_lo, args.n_hi, args.points)
        fit = fit_exponent(args.variant, args.m_law, grid)
        _emit(fit.to_json(), args.out)
        return 0
    if args.n is None:
        raise ValueError("give --n for a single optimization, or --fit")
    m = args.m if args.m is not None else parse_m_law(args.m_law)(args.n)
    opt = optimize_params(args.variant, float(args.n), m, args.d2)
    out = {
        "variant": opt.variant,
        "n": opt.n,
        "m": opt.m,
        "cost": opt.cost,
        "seed_cost": opt.seed_cost,
        "params": {k: v for k, v in (("x", opt.x), ("a", opt.a), ("b", opt.b)) if v is not None},
        "ints": opt.ints(),
    }
    _emit(out, args.out)
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    manifest = corpus_generate(
        args.out, seed=args.seed, sizes=sizes, samples=args.samples, p=args.p
    )
    _emit({
        "out": args.out,
        "seed": manifest["seed"],
        "graphs": len(manifest["graphs"]),
        "digest": tree_digest(args.out),
    })
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lg",
        description="Learning graph toolkit: build, check and measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph against its contract")
    p.add_argument("graph")
    p.add_argument("--function")
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("complexity", help="compute both cost sides")
    p.add_argument("graph")
    p.add_argument("--function", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("adversary", help="build and verify a lower-bound witness")
    p.add_argument("graph")
    p.add_argument("--function", required=True)
    p.add_argument("--raw", action="store_true", help="skip cost-balancing rescale")
    p.add_argument("--mutants", type=int, default=0, help="also try this many corrupted graphs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("build", help="materialize a triangle graph")
    p.add_argument("target", choices=tuple(f"triangle-{v}" for v in VARIANTS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("-o", "--out")
    p.add_argument("--function-out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("report", help="build, validate and certify every triangle variant")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=2)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("oracle", help="exact counting oracles")
    which = p.add_subparsers(dest="which", required=True)
    q = which.add_parser("delta", help="average anchored pair count")
    q.add_argument("--graph", required=True)
    q.add_argument("--b", type=int, required=True, help="size of B (first b vertices)")
    q.add_argument("--x", type=int, required=True)
    q.add_argument("-o", "--out")
    for name, power in (("ninter", ""), ("ninter-sq", "squared ")):
        q = which.add_parser(name, help=f"average {power}intersection size")
        q.add_argument("--v1", type=int, required=True, help="ground set 1..v1")
        q.add_argument("--nset", required=True, help="1-based list like 1,2,3")
        q.add_argument("--x", type=int, required=True)
        q.add_argument("-o", "--out")
    q = which.add_parser("edge-exp", help="average subset incidence count")
    q.add_argument("--graph", required=True)
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--y", type=int, required=True)
    q.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("costmodel", help="evaluate and fit the cost estimates")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--m-law", default="n^1.5")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=float)
    p.add_argument("--d2", type=float)
    p.add_argument("--n-lo", type=int, default=2 ** 10)
    p.add_argument("--n-hi", type=int, default=2 ** 24)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_costmodel)

    p = sub.add_parser("corpus", help="generate the reproducible corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="5,6,7,8,9,10")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--p", type=float, default=0.3)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow shows in the report as inf or nan, which fails its
        # checks; numpy's warning about it would put text that is not JSON
        # on standard error
        with np.errstate(all="ignore"):
            return args.func(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), where=args.command)


if __name__ == "__main__":
    sys.exit(main())
