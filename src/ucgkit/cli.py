"""Command-line front end: parse graphs, run the solvers, emit JSON.

Every invocation produces one schema-versioned JSON report carrying the
certificates needed to re-verify its claim offline (coverings, witness
graphs in graph6).  Identical invocations produce identical reports up
to the timing field.  Exit codes: 0 success, 1 domain infeasibility
(an infinite or impossible answer), 2 usage, parse or file errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .analysis import _vertices, ucg_analysis
from .appendage import (appendage_center_only, appendage_number,
                        appendage_periphery_only, brute_force_appendage,
                        DEFAULT_ORACLE_BOUND)
from .codecs import encode_graph6, load_graph_text, to_dot
from .coverings import (INFEASIBLE, REFINED, RefinedCovering, cov_A, cov_profile,
                        decide_cover_k)
from .errors import MalformedInputError, UcgError
from .families import fixture_manifest, named_graph
from .graphs import INF, Graph
from .scaffolds import (build_refined_scaffold, build_scaffold, check_apex_drop,
                        verify_construction)

SCHEMA = "ucg-report/1"

_COND_TOKENS = {"a": "A", "b": "B", "a1": "A'", "b1": "B'", "a2": "A''", "b2": "B''"}


def _int_at_least(lo: int):
    """An argparse ``type`` taking integers >= ``lo``; argparse turns a
    rejected value into a usage error, exit code 2."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    top = argparse.ArgumentParser(
        prog="ucgkit",
        description="Exact computations on uniform central graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, center=False, periphery=False, bound=True):
        if center:
            sp.add_argument("--center", metavar="FILE_OR_TOKEN")
        if periphery:
            sp.add_argument("--periphery", metavar="FILE_OR_TOKEN")
        sp.add_argument("--json", metavar="PATH", dest="json_path")
        if bound:
            sp.add_argument("--bound", type=_int_at_least(1), default=None)

    sp = sub.add_parser("analyze", help="center / centered periphery / UCG test")
    common(sp, periphery=True, bound=False)
    sp.add_argument("--dot", metavar="PATH")

    sp = sub.add_parser("cover", help="minimum covering sizes")
    common(sp, periphery=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--conditions", metavar="LIST",
                    help="comma list from a,b,a1,b1,a2,b2")

    sp = sub.add_parser("append", help="appendage numbers")
    common(sp, center=True, periphery=True)

    sp = sub.add_parser("construct", help="build and verify a witness graph")
    common(sp, center=True, periphery=True)
    sp.add_argument("--rho", type=int, default=None)
    sp.add_argument("--drop", metavar="LIST", default="")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--conditions", metavar="LIST")
    sp.add_argument("--dot", metavar="PATH")

    sp = sub.add_parser("oracle", help="brute-force appendage search")
    common(sp, center=True, periphery=True)
    sp.add_argument("--tmax", type=_int_at_least(0), default=2)

    sp = sub.add_parser("families", help="emit the fixture corpus")
    common(sp, bound=False)
    sp.add_argument("--out", metavar="DIR", default="fixtures")

    return top


def _load_graph(inputs: dict, role: str, spec: str) -> Graph:
    """The graph a file path or token names, its digest recorded in
    ``inputs`` under ``role``."""
    path = Path(spec)
    g = load_graph_text(path.read_text()) if path.exists() else named_graph(spec)
    g6 = encode_graph6(g)
    inputs[role] = {"n": g.n, "m": g.m, "graph6": g6,
                    "sha256": hashlib.sha256(g6.encode()).hexdigest()}
    return g


def _parse_conditions(text: str) -> frozenset[str]:
    """The conditions a comma list names; "" names none and means the
    option was not given, but a list of only commas or blanks is refused."""
    toks = [t.strip().lower() for t in text.split(",") if t.strip()]
    if text and not toks:
        raise MalformedInputError(f"--conditions names no condition: {text!r}")
    bad = [t for t in toks if t not in _COND_TOKENS]
    if bad:
        raise MalformedInputError(f"unknown condition tokens: {bad}")
    return frozenset(_COND_TOKENS[t] for t in toks)


def _parse_drop(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise MalformedInputError(
            f"--drop takes a comma list of apex depths, got {text!r}") from None


def _refuse(args: argparse.Namespace, when: str, *options: str) -> None:
    """Refuse the first of ``options`` given: the command ignores it ``when``."""
    for name in options:
        if getattr(args, name) not in (None, ""):
            raise MalformedInputError(f"--{name} is ignored {when}")


def run_command(argv: list[str],
                args: argparse.Namespace | None = None) -> tuple[dict, int]:
    """Execute one CLI invocation; returns (report, exit_code).

    ``args`` is ``argv`` already parsed, for a caller that needs the
    parsed options too.  Raises the package's error types for malformed
    input, and ``OSError`` for a path it cannot read or write; ``main``
    maps those to exit code 2.
    """
    if args is None:
        args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    inputs: dict = {}
    handler = globals()[f"_cmd_{args.command}"]
    result, code, extra = handler(args, inputs)
    report = {
        "schema": SCHEMA,
        "command": list(argv),
        "inputs": inputs,
        "result": result,
        "timing": {"seconds": round(time.perf_counter() - t0, 6)},
    }
    report.update(extra)
    return report, code


def _cmd_analyze(args, inputs):
    if not args.periphery:
        raise MalformedInputError("analyze needs --periphery")
    g = _load_graph(inputs, "periphery", args.periphery)
    a = ucg_analysis(g)
    periphery = [v for v in range(g.n) if g.ecc[v] == a.diameter]
    result = {"n": g.n, "periphery": _vertices(g, periphery), **a.to_json()}
    extra = {}
    if args.dot:
        roles = tuple(
            "center" if v in a.center else
            "periphery" if v in a.centered_periphery else "other"
            for v in range(g.n))
        Path(args.dot).write_text(to_dot(g, roles))
        extra["dot"] = args.dot
    return result, 0, extra


def _cmd_cover(args, inputs):
    if not args.periphery:
        raise MalformedInputError("cover needs --periphery")
    if not args.conditions:
        _refuse(args, "without --conditions", "k")
    g = _load_graph(inputs, "periphery", args.periphery)
    if args.conditions:
        conds = _parse_conditions(args.conditions)
        k = args.k if args.k is not None else 2
        dec = decide_cover_k(g, k, conds, args.bound)
        return {"decide": dec.to_json(), "k": k}, 0, {}
    profile = cov_profile(g, bound=args.bound)
    result = {key: res.to_json() for key, res in profile.items()}
    code = 1 if profile["A"].value is INFEASIBLE else 0
    return result, code, {}


def _cmd_append(args, inputs):
    if not (args.center and args.periphery):
        _refuse(args, "without both --center and --periphery", "bound")
    if args.center and args.periphery:
        c = _load_graph(inputs, "center", args.center)
        p = _load_graph(inputs, "periphery", args.periphery)
        res = appendage_number(c, p, bound=args.bound)
    elif args.center:
        res = appendage_center_only(_load_graph(inputs, "center", args.center))
    elif args.periphery:
        res = appendage_periphery_only(_load_graph(inputs, "periphery", args.periphery))
    else:
        raise MalformedInputError("append needs --center and/or --periphery")
    code = 1 if res.value == INF else 0
    return res.to_json(), code, {}


def _cmd_construct(args, inputs):
    if not (args.center and args.periphery):
        raise MalformedInputError("construct needs --center and --periphery")
    conds = _parse_conditions(args.conditions or "")
    if not args.conditions:
        _refuse(args, "without --conditions", "k", "bound")
    elif conds & REFINED:
        _refuse(args, "when the conditions hold A'' or B''", "rho", "drop")
    c = _load_graph(inputs, "center", args.center)
    p = _load_graph(inputs, "periphery", args.periphery)
    if not conds & REFINED:
        # the layered scaffold's depth and dropped apex depths follow from
        # the options and C alone, so they are checked before any search
        rho = args.rho if args.rho is not None else (1 if c.is_complete else 2)
        drop = check_apex_drop(rho, _parse_drop(args.drop))

    if args.conditions:
        k = args.k if args.k is not None else 2
        dec = decide_cover_k(p, k, conds, args.bound)
        if not dec.found:
            return {"covering": dec.to_json()}, 1, {}
        covering = dec.witness
    else:
        res = cov_A(p)
        if not res.found:
            return {"covering": res.to_json()}, 1, {}
        covering = res.witness

    if isinstance(covering, RefinedCovering):
        scaffold = build_refined_scaffold(c, p, covering)
    else:
        scaffold = build_scaffold(c, p, covering, rho, drop)
    result = {"covering": covering.to_json(),
              "scaffold": {**scaffold.to_json(), "n": scaffold.graph.n},
              "verification": verify_construction(scaffold, c, p).to_json()}
    extra = {}
    if args.dot:
        Path(args.dot).write_text(to_dot(scaffold.graph, scaffold.roles))
        extra["dot"] = args.dot
    return result, 0, extra


def _cmd_oracle(args, inputs):
    if not (args.center and args.periphery):
        raise MalformedInputError("oracle needs --center and --periphery")
    c = _load_graph(inputs, "center", args.center)
    p = _load_graph(inputs, "periphery", args.periphery)
    bound = args.bound if args.bound is not None else DEFAULT_ORACLE_BOUND
    value = brute_force_appendage(c, p, args.tmax, bound=bound)
    infeasible = min(p.ecc) <= 1
    result = {"value": value, "t_max": args.tmax,
              "provably_infinite": infeasible}
    return result, 1 if infeasible else 0, {}


def _cmd_families(args, inputs):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = fixture_manifest()
    written = []
    for name, entry in manifest.items():
        path = out / f"{name}.g6"
        path.write_text(entry["graph6"] + "\n")
        written.append(str(path))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(str(out / "manifest.json"))
    return {"written": written}, 0, {}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        report, code = run_command(argv, args)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.json_path:
            Path(args.json_path).write_text(text + "\n")
        else:
            print(text)
    except SystemExit as exc:  # argparse already printed usage
        return 2 if exc.code not in (0, None) else 0
    except (UcgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
