"""Command-line front end.

Every command prints a JSON document ``{"command", "input", "result"}`` on
stdout (tabular commands also accept ``--format csv``).  Rationals are always
serialized exactly as ``p/q`` (or ``p``), never as floats.  Exit codes:

* 0 — success;
* 1 — invalid input (a machine-readable ``{"error": ...}`` goes to stderr);
* 2 — internal assertion / invariant breach (including failing check suites);
  an internal error prints ``{"error": "internal: <exception type>: <message>"}``.

Ellipsoid parameters are given with ``--a`` as comma-separated rationals; the
tie-breaking side can be attached as a trailing ``+``/``-`` (e.g. ``13/2+``)
or spelled out with ``--side``; both forms are interchangeable but must not
conflict.

Every input is checked against its cap before any work starts.  An input
above a cap exits 1, and the message names the cap's value and constant:

* ``PARAMS_MAX_AXES``: the ``--a`` axes of ``gamma``, ``spectrum``,
  ``descendant`` and ``bound``;
* ``GAMMA_MAX_WIDTH``: the indices of ``gamma --k lo..hi`` and the orbits of
  ``spectrum --count N``;
* ``GAMMA_MAX_OUTPUT_DIGITS``: the digits those two would print, estimated
  as width × axes × digits(hi) for ``gamma`` (a coordinate of Γ_k is at most
  k) and as N × axes × (digits(N) + the numerator and denominator digits of
  the longest axis) for ``spectrum`` (an action m·a_i has up to digits(N)
  more digits than a_i);
* ``DESCENDANT_MAX_INDEX_SUM``: Σ i_s of ``descendant --orbits``; the printed
  denominator divides (Σ i_s)!, which stays below Python's 4,300-digit limit
  on printing an integer;
* ``COUNT_MAX_DEGREE``: ``superpotential --d`` and ``bound --d``;
* ``TABLE_MAX_DEGREE``: ``table --d``;
* ``JUMPS_MAX_INDEX_SUM``: w(I) = Σ i_s + k of ``jumps --orbits`` on every
  route, since every route takes factorials of Γ's coordinates;
* ``JUMPS_XI_MAX_ORBITS`` and ``JUMPS_XI_MAX_INDEX_SUM``: k and w(I) on the
  routes that run ξ (``xi``, ``all``), since ξ sums over the set partitions
  of the indices;
* ``JUMPS_MAX_SPLIT_WORK``: the split work of ``recursive`` and ``all``,
  the splits Π (m_i + 1)(m_i + 2)/2 over the multiplicities m_i of the
  distinct indices, times w(I);
* ``GAMMA_SUITE_MAX_BOUND``, ``LINF_MAX_BOUND``, ``AUG_MAX_BOUND``,
  ``JUMPS_MAX_BOUND`` and ``GENFUN_MAX_BOUND``: ``check --suite S --bound``
  of each suite.

README's cap table gives each cap's value, its worst accepted input and
what that input costs.  A parameter too long to print back exits 1 as well,
and so does any printed value that would pass Python's limit on printing an
integer (a ``spectrum`` action m·a_i, a ``bound`` area/action): the command
exits 1 before printing anything, naming the limit.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .exact import format_rational, rational
from .jumps import jump_cylinder, jump_general, jump_pants, jump_via_xi, support_scan
from .orbits import (
    Side,
    SpectrumParams,
    action,
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
# most digits ``gamma --k lo..hi`` may print, estimated as width * axes * digits(hi),
# and ``spectrum --count N``, estimated as N * axes * (digits(N) + digits of the longest axis)
GAMMA_MAX_OUTPUT_DIGITS = 25_000_000
# most ``--a`` axes (``gamma``, ``spectrum``, ``descendant``, ``bound``)
PARAMS_MAX_AXES = 16
# largest ``check --suite S --bound`` per suite (``_SUITES`` names each)
GAMMA_SUITE_MAX_BOUND = 500
LINF_MAX_BOUND = 6
JUMPS_MAX_BOUND = 20
AUG_MAX_BOUND = 6
GENFUN_MAX_BOUND = 30
# largest w(I) = Σ i_s + k of the ``jumps --orbits`` indices on every route,
# and on a route that runs xi; most indices on a route that runs xi; and most
# split work on the recursive route: the splits Π (m_i + 1)(m_i + 2)/2 over
# the multiplicities m_i of the distinct indices, times w(I)
JUMPS_MAX_INDEX_SUM = 16_000
JUMPS_XI_MAX_INDEX_SUM = 200
JUMPS_XI_MAX_ORBITS = 8
JUMPS_MAX_SPLIT_WORK = 3**12 * 90
# largest sum of the ``descendant --orbits`` indices
DESCENDANT_MAX_INDEX_SUM = 1500
# largest ``--d`` of one count (``superpotential``, ``bound``) and of ``table``
COUNT_MAX_DEGREE = 120
TABLE_MAX_DEGREE = 32


class CLIError(Exception):
    """Invalid input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


_SIDE_NAMES = {"minus": Side.MINUS, "canonical": Side.CANONICAL, "plus": Side.PLUS}


def _check_cap(name: str, value: int, what: str) -> None:
    """Exit 1 with "<what>; the cap is <cap> (<name>)" when ``value`` exceeds the cap constant ``name``."""
    cap = globals()[name]
    if value > cap:
        raise CLIError(f"{what}; the cap is {cap} ({name})")


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


def _parse_params(a_text: str, side_flag: str | None) -> SpectrumParams:
    core, suffix_side = _split_side_suffix(a_text)
    side = _resolve_side(suffix_side, side_flag)
    components = [tok for tok in core.split(",") if tok.strip() != ""]
    if not components:
        raise CLIError("--a needs at least one component")
    _check_cap("PARAMS_MAX_AXES", len(components), f"--a has {len(components)} axes")
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


def _check_degree(d: int, cap_name: str) -> None:
    if d < 1:
        raise CLIError("--d must be >= 1")
    _check_cap(cap_name, d, f"--d {d} is too large")


def _printable(value: Fraction, what: str) -> str:
    """``format_rational(value)``, or exit 1 naming the digit limit when it is too long to print."""
    try:
        return format_rational(value)
    except ValueError:
        raise CLIError(
            f"{what} has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit on printing an integer"
        ) from None


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
        {"a": format_rational(b), "minus": format_rational(minus), "plus": format_rational(plus)}
        for b, minus, plus in zip(table.breakpoints, table.values, table.values[1:])
    ]
    return {"intervals": intervals, "breakpoints": breakpoints}


# ---------------------------------------------------------------- commands
# Each command returns (input, result, csv_lines); ``main`` prints them.


def _cmd_gamma(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    params = _parse_params(args.a, args.side)
    ks = _parse_k_range(args.k)
    width = ks.stop - ks.start  # len() overflows on huge ranges
    _check_cap("GAMMA_MAX_WIDTH", width, f"--k range {args.k!r} spans {width} indices")
    digits = width * params.n * len(str(ks.stop - 1))  # a coordinate of Γ_k is at most k
    _check_cap("GAMMA_MAX_OUTPUT_DIGITS", digits, f"--k range {args.k!r} would print about {digits} digits")
    points = [{"k": k, "gamma": list(p)} for k, p in zip(ks, gamma_range(params, ks.start, ks.stop - 1))]
    csv_lines = ["k," + ",".join(f"v{i}" for i in range(1, params.n + 1))]
    csv_lines += [f"{row['k']}," + ",".join(str(c) for c in row["gamma"]) for row in points]
    return {"a": params.describe(), "k": args.k}, {"points": points}, csv_lines


def _cmd_spectrum(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    params = _parse_params(args.a, args.side)
    if args.count < 1:
        raise CLIError("--count must be >= 1")
    _check_cap("GAMMA_MAX_WIDTH", args.count, f"--count {args.count} asks for too many orbits")
    # each row is a walk point of n coordinates, and its action m·a_i has up
    # to digits(count) more digits than a_i
    longest = max(len(str(x.numerator)) + len(str(x.denominator)) for x in params.a)
    digits = args.count * params.n * (len(str(args.count)) + longest)
    _check_cap("GAMMA_MAX_OUTPUT_DIGITS", digits, f"--count {args.count} would print about {digits} digits")
    rows = []
    points = gamma_range(params, 0, args.count)
    for k, (before, after) in enumerate(zip(points, points[1:]), start=1):
        # the k-th orbit covers the one axis whose count grew at step k
        axis = next(i for i, (x, y) in enumerate(zip(before, after)) if x != y)
        mult = after[axis]
        action_text = _printable(params.a[axis] * mult, f"the action of orbit {k}")
        rows.append({"k": k, "axis": axis + 1, "multiplicity": mult, "action": action_text})
    csv_lines = ["k,axis,multiplicity,action"]
    csv_lines += [f"{r['k']},{r['axis']},{r['multiplicity']},{r['action']}" for r in rows]
    return {"a": params.describe(), "count": args.count}, {"orbits": rows}, csv_lines


def _cmd_descendant(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    params = _parse_params(args.a, args.side)
    indices = _parse_orbits(args.orbits)
    _check_cap("DESCENDANT_MAX_INDEX_SUM", sum(indices), f"--orbits indices sum to {sum(indices)}")
    count, psi_power = local_descendant(params, indices)
    result = {"count": format_rational(count), "psi_power": psi_power}
    return {"a": params.describe(), "orbits": list(indices)}, result, []


def _cmd_superpotential(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    target = _require_cp2(args.target)
    _check_degree(args.d, "COUNT_MAX_DEGREE")
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
    result = {"wt_T": format_rational(weighted), "multiplicity": mult, "T": format_rational(unweighted)}
    return {"target": args.target, "d": args.d, "a": described}, result, []


def _cmd_table(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    target = _require_cp2(args.target)
    _check_degree(args.d, "TABLE_MAX_DEGREE")
    lo = _parse_rational(args.min)
    hi = None if args.max.strip() == "inf" else _parse_rational(args.max)
    try:
        result = {"wt_T_table": _table_payload(piecewise_table(target, args.d, lo, hi))}
        if args.refine_orbit_id:
            result["T_table"] = _table_payload(normalized_table(target, args.d, lo, hi))
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    csv_lines = ["quantity,lo,hi,value"]
    for key, table in result.items():
        csv_lines += [f"{key.removesuffix('_table')},{r['lo']},{r['hi']},{r['value']}" for r in table["intervals"]]
    described = {
        "target": args.target,
        "d": args.d,
        "min": format_rational(lo),
        "max": args.max,
        "refine_orbit_id": bool(args.refine_orbit_id),
    }
    return described, result, csv_lines


def _cmd_jumps(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    a = _parse_rational(args.a)
    if a <= 0:
        raise CLIError("--a must be positive")
    indices = _parse_orbits(args.orbits)
    k = len(indices)
    weight = sum(indices) + k
    wanted = args.route
    _check_cap("JUMPS_MAX_INDEX_SUM", weight, f"--orbits has sum(i_s) + k = {weight}")
    if wanted in ("xi", "all"):
        _check_cap("JUMPS_XI_MAX_ORBITS", k, f"--orbits has {k} indices for the xi route")
        _check_cap("JUMPS_XI_MAX_INDEX_SUM", weight, f"--orbits has sum(i_s) + k = {weight} for the xi route")
    if wanted in ("recursive", "all"):
        work = weight * math.prod((m + 1) * (m + 2) // 2 for m in Counter(indices).values())
        _check_cap(
            "JUMPS_MAX_SPLIT_WORK",
            work,
            f"--orbits needs {work} units of split work for the recursive route, "
            "the splits prod (m_i + 1)(m_i + 2)/2 times sum(i_s) + k",
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
    result = {
        "value": format_rational(values.pop()),
        "routes": {name: format_rational(v) for name, v in routes.items()},
    }
    return {"a": format_rational(a), "orbits": list(indices), "route": wanted}, result, []


def _cmd_bound(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    target = _require_cp2(args.target)
    _check_degree(args.d, "COUNT_MAX_DEGREE")
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
        result = {"bound": _printable(value, f"the bound area/action at d = {args.d}")}
    return {"target": args.target, "d": args.d, "a": params.describe()}, result, []


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
    return Report(cases, failures)


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
        # energy: the inputs' total action covers the output's at the unperturbed ratio
        at_a = normalized(hit.a)
        total_in = sum(action(at_a, i) for i in hit.indices)
        out_action = action(at_a, sum(hit.indices) + len(hit.indices) - 1)
        if total_in < out_action:
            failures.append(f"energy inequality violated at {hit}: {total_in} < {out_action}")
        if len(hit.indices) == 2:
            closed = jump_pants(hit.a, *hit.indices)
            if closed != hit.value:
                failures.append(f"pants mismatch at {hit}: closed {closed}")
        if len(hit.indices) <= 3:
            via = jump_via_xi(hit.a, hit.indices)
            if via != hit.value:
                failures.append(f"xi mismatch at {hit}: xi {via}")
    return Report(checked, failures)


# suite -> (run, default bound, name of its cap); each run reads the checks it
# calls from the module globals at call time
_SUITES = {
    "gamma": (_suite_gamma, 50, "GAMMA_SUITE_MAX_BOUND"),
    "linf": (_suite_linf, 3, "LINF_MAX_BOUND"),
    "aug": (_suite_aug, 5, "AUG_MAX_BOUND"),
    "jumps": (_suite_jumps, 9, "JUMPS_MAX_BOUND"),
    "genfun": (lambda bound: genfun_check(bound), 5, "GENFUN_MAX_BOUND"),
}


def _cmd_check(args: argparse.Namespace) -> tuple[dict, dict, list[str]]:
    run, default, cap_name = _SUITES[args.suite]
    if args.bound is not None:
        if args.bound < 1:
            raise CLIError(f"--bound must be >= 1, got {args.bound}")
        _check_cap(cap_name, args.bound, f"--bound {args.bound} is too large for the {args.suite} suite")
    report = run(default if args.bound is None else args.bound)
    result = {"ok": report.ok, "checked": report.checked, "failures": report.failures}
    return {"suite": args.suite, "bound": args.bound}, result, []


# ---------------------------------------------------------------- wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="ellsuper", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_side(p: _Parser) -> None:
        p.add_argument("--side", choices=sorted(_SIDE_NAMES), default=None)

    def add_format(p: _Parser) -> None:
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("gamma", help="lattice path of the perturbed Reeb spectrum")
    p.set_defaults(run=_cmd_gamma)
    p.add_argument("--a", required=True)
    p.add_argument("--k", required=True, help="index or inclusive range 'lo..hi'")
    add_side(p)
    add_format(p)

    p = sub.add_parser("spectrum", help="ordered closed orbits with actions")
    p.set_defaults(run=_cmd_spectrum)
    p.add_argument("--a", required=True)
    p.add_argument("--count", type=int, required=True)
    add_side(p)
    add_format(p)

    p = sub.add_parser("descendant", help="ellipsoid curve count with a psi-point constraint")
    p.set_defaults(run=_cmd_descendant)
    p.add_argument("--a", required=True)
    p.add_argument("--orbits", required=True)
    add_side(p)

    p = sub.add_parser("superpotential", help="weighted/unweighted curve counts T~ and T")
    p.set_defaults(run=_cmd_superpotential)
    p.add_argument("--target", default="cp2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True, help="rational (normalized E(1,a)), optionally sided, or 'inf'")
    add_side(p)

    p = sub.add_parser("table", help="piecewise table of T~ (and optionally T) in a")
    p.set_defaults(run=_cmd_table)
    p.add_argument("--target", default="cp2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--min", required=True)
    p.add_argument("--max", required=True, help="rational or 'inf'")
    p.add_argument("--refine-orbit-id", action="store_true")
    add_format(p)

    p = sub.add_parser("jumps", help="jump of the transfer morphism at a ratio")
    p.set_defaults(run=_cmd_jumps)
    p.add_argument("--a", required=True)
    p.add_argument("--orbits", required=True)
    p.add_argument("--route", choices=["closed", "recursive", "xi", "all"], default="all")

    p = sub.add_parser("bound", help="embedding obstruction from a nonzero count")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--target", default="cp2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True)
    add_side(p)

    p = sub.add_parser("check", help="run a verification suite")
    p.set_defaults(run=_cmd_check)
    p.add_argument("--suite", choices=list(_SUITES), required=True)
    p.add_argument("--bound", type=int, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        described, result, csv_lines = args.run(args)
        if getattr(args, "format", "json") == "csv":
            print("\n".join(csv_lines))
        else:
            print(json.dumps({"command": args.cmd, "input": described, "result": result}, indent=2))
        return 2 if result.get("ok") is False else 0
    except CLIError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # invariant breach / internal assertion
        print(json.dumps({"error": f"internal: {type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
