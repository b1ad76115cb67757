"""Command-line front end.

Every command prints a JSON document ``{"command", "input", "result"}`` on
stdout (tabular commands also accept ``--format csv``).  Rationals are always
serialized exactly as ``p/q`` (or ``p``), never as floats.  Exit codes:

* 0 — success;
* 1 — invalid input (a machine-readable ``{"error": ...}`` goes to stderr);
* 2 — internal assertion / invariant breach (including failing check suites).

``gamma --k lo..hi`` prints at most ``GAMMA_MAX_WIDTH`` (100000) points; a
wider range exits 1.  The start of the range costs O(log lo) however large lo
is (the closed form for one index), so only the width is capped.
``spectrum --count N`` shares the cap: N above it exits 1.  Both commands
read their rows from one unmemoized integer walk.
``check --suite S --bound B`` exits 1 above the suite's cap, where one run
already takes seconds: ``GAMMA_SUITE_MAX_BOUND`` (500 cases),
``LINF_MAX_BOUND`` (6; every further letter multiplies the words of the
inverse checks), ``AUG_MAX_BOUND`` (6), ``JUMPS_MAX_BOUND`` (20; the support
scan also takes tens of MB) and ``GENFUN_MAX_BOUND`` (30).
``jumps --orbits i_1,...,i_k`` exits 1 when a route that runs ξ (``xi``,
``all``) gets more than ``JUMPS_XI_MAX_ORBITS`` (8) indices, or when
``recursive``/``all`` would visit more than ``JUMPS_MAX_SUBMULTISETS`` (4096)
sub-multisets, Π (m_i + 1) over the multiplicities m_i of the distinct indices.
All these caps are checked before any work starts.
``descendant --orbits i_1,...,i_k`` exits 1 when Σ i_s exceeds
``DESCENDANT_MAX_INDEX_SUM`` (1500), before any work starts: Γ's coordinates
sum to its index, so the printed denominator divides (Σ i_s)!, and 1500! has
4,115 digits, below Python's 4,300-digit limit on printing an integer.  A
parameter too long to print back is rejected with exit 1 as well, and so is
a ``spectrum`` whose printed action m·a_i would pass that limit: it exits 1
before printing anything, naming the limit.

Ellipsoid parameters are given with ``--a`` as comma-separated rationals; the
tie-breaking side can be attached as a trailing ``+``/``-`` (e.g. ``13/2+``)
or spelled out with ``--side``; both forms are interchangeable but must not
conflict.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from math import prod
from typing import Sequence

from .exact import format_rational, rational
from .jumps import jump_cylinder, jump_general, jump_pants, jump_via_xi, support_scan
from .orbits import (
    Side,
    SpectrumParams,
    gamma,
    gamma_range,
    normalized,
    orbit,
)
from .report import Report, merge_reports
from .rounding import psi_factorization, structure_window_check, verify_aug
from .sft import inverse_check, local_descendant, xi_chain_check
from .superpotential import (
    CP2Target,
    PiecewiseTable,
    T,
    T_infinity,
    embedding_bound,
    genfun_check,
    normalized_table,
    piecewise_table,
    wt_T,
    wt_T_infinity,
)

__all__ = ["main"]

# widest ``gamma --k lo..hi`` range, in indices, and largest ``spectrum --count``
GAMMA_MAX_WIDTH = 100_000
# largest ``check --suite S --bound`` per suite
GAMMA_SUITE_MAX_BOUND = 500
LINF_MAX_BOUND = 6
AUG_MAX_BOUND = 6
JUMPS_MAX_BOUND = 20
GENFUN_MAX_BOUND = 30
# most ``jumps --orbits`` indices on a route that runs xi, and most
# sub-multisets of the indices on the recursive route
JUMPS_XI_MAX_ORBITS = 8
JUMPS_MAX_SUBMULTISETS = 4096
# largest sum of the ``descendant --orbits`` indices
DESCENDANT_MAX_INDEX_SUM = 1500


class CLIError(Exception):
    """Invalid input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


_SIDE_NAMES = {"minus": Side.MINUS, "canonical": Side.CANONICAL, "plus": Side.PLUS}


def _parse_rational(token: str) -> Fraction:
    try:
        value = rational(token.strip())
        format_rational(value)  # e.g. '1e5000' parses, but is too long to print back
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise CLIError(f"not a rational number: {token!r} ({exc})") from None
    return value


def _split_side_suffix(text: str) -> tuple[str, Side | None]:
    text = text.strip()
    if text.endswith("+"):
        return text[:-1], Side.PLUS
    if text.endswith("-"):
        return text[:-1], Side.MINUS
    return text, None


def _resolve_side(suffix_side: Side | None, flag_value: str | None) -> Side:
    flag_side = _SIDE_NAMES[flag_value] if flag_value is not None else None
    if suffix_side is not None and flag_side is not None and suffix_side is not flag_side:
        raise CLIError(
            f"conflicting sides: suffix says {suffix_side.value}, --side says {flag_side.value}"
        )
    return suffix_side or flag_side or Side.CANONICAL


def _parse_params(a_text: str, side_flag: str | None, expect_n: int | None = None) -> SpectrumParams:
    core, suffix_side = _split_side_suffix(a_text)
    side = _resolve_side(suffix_side, side_flag)
    components = [tok for tok in core.split(",") if tok.strip() != ""]
    if not components:
        raise CLIError("--a needs at least one component")
    if expect_n is not None and len(components) != expect_n:
        raise CLIError(f"--a needs exactly {expect_n} component(s), got {len(components)}")
    values = tuple(_parse_rational(tok) for tok in components)
    try:
        return SpectrumParams(values, side)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _parse_orbits(text: str) -> tuple[int, ...]:
    try:
        indices = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise CLIError(f"--orbits must be comma-separated integers, got {text!r}") from None
    if not indices or any(i < 1 for i in indices):
        raise CLIError(f"orbit indices must be positive, got {text!r}")
    return indices


def _parse_k_range(text: str) -> range:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise CLIError(f"--k range must be 'lo..hi', got {text!r}") from None
        if lo < 0 or hi < lo:
            raise CLIError(f"bad --k range {text!r}")
        return range(lo, hi + 1)
    try:
        k = int(text)
    except ValueError:
        raise CLIError(f"--k must be an integer or 'lo..hi', got {text!r}") from None
    if k < 0:
        raise CLIError("--k must be nonnegative")
    return range(k, k + 1)


def _require_cp2(name: str) -> CP2Target:
    if name != "cp2":
        raise CLIError(f"unknown target {name!r} (supported: cp2)")
    return CP2Target()


def _table_payload(table: PiecewiseTable) -> dict:
    intervals = [
        {"lo": format_rational(lo), "hi": "inf" if hi is None else format_rational(hi), "value": format_rational(v)}
        for (lo, hi), v in zip(table.intervals(), table.values)
    ]
    breakpoints = [
        {
            "a": format_rational(b),
            "minus": format_rational(table.side_values(b)[0]),
            "plus": format_rational(table.side_values(b)[1]),
        }
        for b in table.breakpoints
    ]
    return {"intervals": intervals, "breakpoints": breakpoints}


def _report_payload(report: Report) -> dict:
    return {"ok": report.ok, "checked": report.checked, "failures": report.failures}


# ---------------------------------------------------------------- commands


def _cmd_gamma(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    params = _parse_params(args.a, args.side)
    ks = _parse_k_range(args.k)
    width = ks.stop - ks.start  # len() overflows on huge ranges
    if width > GAMMA_MAX_WIDTH:
        raise CLIError(f"--k range {args.k!r} spans {width} indices; the cap is {GAMMA_MAX_WIDTH}")
    points = [{"k": k, "gamma": list(p)} for k, p in zip(ks, gamma_range(params, ks.start, ks.stop - 1))]
    csv_lines = ["k," + ",".join(f"v{i}" for i in range(1, params.n + 1))]
    csv_lines += [f"{row['k']}," + ",".join(str(c) for c in row["gamma"]) for row in points]
    payload = {
        "command": "gamma",
        "input": {"a": params.describe(), "k": args.k},
        "result": {"points": points},
    }
    return payload, csv_lines, 0


def _cmd_spectrum(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    params = _parse_params(args.a, args.side)
    if args.count < 1:
        raise CLIError("--count must be >= 1")
    if args.count > GAMMA_MAX_WIDTH:
        raise CLIError(f"--count {args.count} asks for too many orbits; the cap is {GAMMA_MAX_WIDTH}")
    rows = []
    points = gamma_range(params, 0, args.count)
    for k, (before, after) in enumerate(zip(points, points[1:]), start=1):
        # the k-th orbit covers the one axis whose count grew at step k
        axis = next(i for i, (x, y) in enumerate(zip(before, after)) if x != y)
        mult = after[axis]
        action = params.a[axis] * mult
        try:
            action_text = format_rational(action)
        except ValueError:
            raise CLIError(
                f"the action of orbit {k} has more than {sys.get_int_max_str_digits()} digits, "
                "Python's limit on printing an integer"
            ) from None
        rows.append({"k": k, "axis": axis + 1, "multiplicity": mult, "action": action_text})
    csv_lines = ["k,axis,multiplicity,action"]
    csv_lines += [f"{r['k']},{r['axis']},{r['multiplicity']},{r['action']}" for r in rows]
    payload = {
        "command": "spectrum",
        "input": {"a": params.describe(), "count": args.count},
        "result": {"orbits": rows},
    }
    return payload, csv_lines, 0


def _cmd_descendant(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    params = _parse_params(args.a, args.side)
    indices = _parse_orbits(args.orbits)
    if sum(indices) > DESCENDANT_MAX_INDEX_SUM:
        raise CLIError(
            f"--orbits indices sum to {sum(indices)}; the cap is {DESCENDANT_MAX_INDEX_SUM} (DESCENDANT_MAX_INDEX_SUM)"
        )
    count, psi_power = local_descendant(params, indices)
    payload = {
        "command": "descendant",
        "input": {"a": params.describe(), "orbits": list(indices)},
        "result": {"count": format_rational(count), "psi_power": psi_power},
    }
    return payload, [], 0


def _cmd_superpotential(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    target = _require_cp2(args.target)
    if args.d < 1:
        raise CLIError("--d must be >= 1")
    core, suffix_side = _split_side_suffix(args.a)
    if core.strip() == "inf":
        if suffix_side is not None or args.side is not None:
            raise CLIError("a = inf takes no side")
        weighted = wt_T_infinity(args.d)
        mult = 3 * args.d - 1
        unweighted = T_infinity(args.d)
        described = "inf"
    else:
        side = _resolve_side(suffix_side, args.side)
        value = _parse_rational(core)
        if value <= 1:
            raise CLIError(f"superpotential parameters need a > 1, got {core}")
        params = normalized(value, side)
        weighted = wt_T(target, args.d, params)
        mult = orbit(params, 3 * args.d - 1).multiplicity
        unweighted = T(target, args.d, params)
        described = params.describe()
    payload = {
        "command": "superpotential",
        "input": {"target": args.target, "d": args.d, "a": described},
        "result": {
            "wt_T": format_rational(weighted),
            "multiplicity": mult,
            "T": format_rational(unweighted),
        },
    }
    return payload, [], 0


def _cmd_table(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    target = _require_cp2(args.target)
    if args.d < 1:
        raise CLIError("--d must be >= 1")
    lo = _parse_rational(args.min)
    hi = None if args.max.strip() == "inf" else _parse_rational(args.max)
    try:
        wt_table = piecewise_table(target, args.d, lo, hi)
        result = {"wt_T_table": _table_payload(wt_table)}
        tables = [("wt_T", wt_table)]
        if args.refine_orbit_id:
            t_table = normalized_table(target, args.d, lo, hi)
            result["T_table"] = _table_payload(t_table)
            tables.append(("T", t_table))
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    csv_lines = ["quantity,lo,hi,value"]
    for name, table in tables:
        for (lo_i, hi_i), value in zip(table.intervals(), table.values):
            hi_text = "inf" if hi_i is None else format_rational(hi_i)
            csv_lines.append(f"{name},{format_rational(lo_i)},{hi_text},{format_rational(value)}")
    payload = {
        "command": "table",
        "input": {
            "target": args.target,
            "d": args.d,
            "min": format_rational(lo),
            "max": args.max,
            "refine_orbit_id": bool(args.refine_orbit_id),
        },
        "result": result,
    }
    return payload, csv_lines, 0


def _cmd_jumps(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    a = _parse_rational(args.a)
    if a <= 0:
        raise CLIError("--a must be positive")
    indices = _parse_orbits(args.orbits)
    k = len(indices)
    wanted = args.route
    if wanted in ("xi", "all") and k > JUMPS_XI_MAX_ORBITS:
        raise CLIError(
            f"--orbits has {k} indices; the cap for the xi route is {JUMPS_XI_MAX_ORBITS} (JUMPS_XI_MAX_ORBITS)"
        )
    submultisets = prod(m + 1 for m in Counter(indices).values())
    if wanted in ("recursive", "all") and submultisets > JUMPS_MAX_SUBMULTISETS:
        raise CLIError(
            f"--orbits has {submultisets} sub-multisets; the cap for the recursive route "
            f"is {JUMPS_MAX_SUBMULTISETS} (JUMPS_MAX_SUBMULTISETS)"
        )
    routes: dict[str, Fraction] = {}
    if wanted in ("closed", "all"):
        if k == 1:
            routes["closed"] = jump_cylinder(a, indices[0])
        elif k == 2:
            routes["closed"] = jump_pants(a, indices[0], indices[1])
        elif wanted == "closed":
            raise CLIError("the closed route only covers 1 or 2 orbit indices")
    if wanted in ("recursive", "all"):
        routes["recursive"] = jump_general(a, indices)
    if wanted in ("xi", "all"):
        routes["xi"] = jump_via_xi(a, indices)
    values = set(routes.values())
    if len(values) > 1:
        raise AssertionError(f"jump routes disagree at a={a}, orbits={indices}: {routes}")
    payload = {
        "command": "jumps",
        "input": {"a": format_rational(a), "orbits": list(indices), "route": wanted},
        "result": {
            "value": format_rational(values.pop()),
            "routes": {name: format_rational(v) for name, v in routes.items()},
        },
    }
    return payload, [], 0


def _cmd_bound(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    target = _require_cp2(args.target)
    if args.d < 1:
        raise CLIError("--d must be >= 1")
    core, _ = _split_side_suffix(args.a)
    components = [tok for tok in core.split(",") if tok.strip() != ""]
    if len(components) not in (1, 2):
        raise CLIError("--a needs one or two components")
    # a single component a stands for the normalized E(1, a)
    params = _parse_params(args.a if len(components) == 2 else "1," + args.a, args.side)
    value = embedding_bound(target, args.d, params)
    if value is None:
        result = {"bound": None, "note": "count vanishes; no obstruction from this class"}
    else:
        result = {"bound": format_rational(value)}
    payload = {
        "command": "bound",
        "input": {"target": args.target, "d": args.d, "a": params.describe()},
        "result": result,
    }
    return payload, [], 0


def _suite_gamma(cases: int) -> Report:
    from .oracle import gamma_bruteforce

    rng = random.Random(20240)
    failures: list[str] = []
    for _ in range(cases):
        n = rng.randint(1, 4)
        a = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n))
        side = rng.choice([Side.MINUS, Side.CANONICAL, Side.PLUS]) if n == 2 else Side.CANONICAL
        params = SpectrumParams(a, side)
        k = rng.randint(0, 25)
        fast = gamma(params, k)
        slow = gamma_bruteforce(params, k)
        if fast != slow:
            failures.append(f"gamma mismatch at {params.describe()}, k={k}: {fast} vs {slow}")
    return Report(not failures, cases, failures)


def _suite_linf(bound: int) -> Report:
    params_list = [
        normalized("3/2"),
        normalized(2, Side.MINUS),
        normalized(2, Side.PLUS),
        normalized(3),
        normalized("13/2", Side.MINUS),
        normalized("13/2", Side.PLUS),
    ]
    reports = [inverse_check(p, bound) for p in params_list]
    chain_bound = min(bound, 3)
    triples = [
        (normalized("3/2"), normalized(2, Side.PLUS), normalized(3)),
        (normalized("5/4", Side.MINUS), normalized("5/4", Side.PLUS), normalized(2)),
        (normalized(2, Side.MINUS), normalized(4), normalized("13/2", Side.PLUS)),
    ]
    reports += [xi_chain_check(*triple, chain_bound) for triple in triples]
    reports.append(structure_window_check(4, 3))
    return merge_reports(*reports)


def _suite_aug(bound: int) -> Report:
    reports = [verify_aug(bound, 4)]
    for params in [
        normalized("3/2"),
        normalized(2, Side.PLUS),
        normalized(3),
        normalized("13/2", Side.MINUS),
        normalized("13/2", Side.PLUS),
    ]:
        reports.append(psi_factorization(params, 3))
    return merge_reports(*reports)


def _suite_jumps(bound: int) -> Report:
    failures: list[str] = []
    hits = support_scan(bound)
    checked = len(hits)
    for hit in hits:
        if len(hit.indices) == 2:
            closed = jump_pants(hit.a, *hit.indices)
            if closed != hit.value:
                failures.append(f"pants mismatch at {hit}: closed {closed}")
        if len(hit.indices) <= 3:
            via = jump_via_xi(hit.a, hit.indices)
            if via != hit.value:
                failures.append(f"xi mismatch at {hit}: xi {via}")
    return Report(not failures, checked, failures)


def _cmd_check(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    if args.bound is not None and args.bound < 1:
        raise CLIError(f"--bound must be >= 1, got {args.bound}")
    cap = {
        "gamma": GAMMA_SUITE_MAX_BOUND,
        "linf": LINF_MAX_BOUND,
        "aug": AUG_MAX_BOUND,
        "jumps": JUMPS_MAX_BOUND,
        "genfun": GENFUN_MAX_BOUND,
    }[args.suite]
    if args.bound is not None and args.bound > cap:
        raise CLIError(f"--bound {args.bound} is too large for the {args.suite} suite; the cap is {cap}")
    suites = {
        "gamma": lambda: _suite_gamma(args.bound if args.bound is not None else 50),
        "linf": lambda: _suite_linf(args.bound if args.bound is not None else 3),
        "aug": lambda: _suite_aug(args.bound if args.bound is not None else 5),
        "jumps": lambda: _suite_jumps(args.bound if args.bound is not None else 9),
        "genfun": lambda: genfun_check(args.bound if args.bound is not None else 5),
    }
    report = suites[args.suite]()
    payload = {
        "command": "check",
        "input": {"suite": args.suite, "bound": args.bound},
        "result": _report_payload(report),
    }
    return payload, [], 0 if report.ok else 2


# ---------------------------------------------------------------- wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="ellsuper", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_side(p: _Parser) -> None:
        p.add_argument("--side", choices=sorted(_SIDE_NAMES), default=None)

    def add_format(p: _Parser) -> None:
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("gamma", help="lattice path of the perturbed Reeb spectrum")
    p.add_argument("--a", required=True)
    p.add_argument("--k", required=True, help="index or inclusive range 'lo..hi'")
    add_side(p)
    add_format(p)

    p = sub.add_parser("spectrum", help="ordered closed orbits with actions")
    p.add_argument("--a", required=True)
    p.add_argument("--count", type=int, required=True)
    add_side(p)
    add_format(p)

    p = sub.add_parser("descendant", help="ellipsoid curve count with a psi-point constraint")
    p.add_argument("--a", required=True)
    p.add_argument("--orbits", required=True)
    add_side(p)

    p = sub.add_parser("superpotential", help="weighted/unweighted curve counts T~ and T")
    p.add_argument("--target", default="cp2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True, help="rational (normalized E(1,a)), optionally sided, or 'inf'")
    add_side(p)

    p = sub.add_parser("table", help="piecewise table of T~ (and optionally T) in a")
    p.add_argument("--target", default="cp2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--min", required=True)
    p.add_argument("--max", required=True, help="rational or 'inf'")
    p.add_argument("--refine-orbit-id", action="store_true")
    add_format(p)

    p = sub.add_parser("jumps", help="jump of the transfer morphism at a ratio")
    p.add_argument("--a", required=True)
    p.add_argument("--orbits", required=True)
    p.add_argument("--route", choices=["closed", "recursive", "xi", "all"], default="all")

    p = sub.add_parser("bound", help="embedding obstruction from a nonzero count")
    p.add_argument("--target", default="cp2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True)
    add_side(p)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", choices=["gamma", "linf", "aug", "jumps", "genfun"], required=True)
    p.add_argument("--bound", type=int, default=None)

    return parser


_DISPATCH = {
    "gamma": _cmd_gamma,
    "spectrum": _cmd_spectrum,
    "descendant": _cmd_descendant,
    "superpotential": _cmd_superpotential,
    "table": _cmd_table,
    "jumps": _cmd_jumps,
    "bound": _cmd_bound,
    "check": _cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, csv_lines, code = _DISPATCH[args.cmd](args)
        if getattr(args, "format", "json") == "csv":
            if not csv_lines:
                raise CLIError(f"--format csv is not available for {args.cmd!r}")
            print("\n".join(csv_lines))
        else:
            print(json.dumps(payload, indent=2))
        return code
    except CLIError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # invariant breach / internal assertion
        print(json.dumps({"error": f"internal: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
