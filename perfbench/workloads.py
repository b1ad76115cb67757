"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py WORKLOAD SEED SPAWN_NS [--setup-only] [--trace SPANS_PATH]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's ``src``
and passes ``SPAWN_NS``, its ``time.monotonic_ns()`` just before the spawn,
so set-up time counts interpreter start.  The process imports ``ellsuper``,
generates its inputs from ``SEED``, then runs the workload's fixed problem
as a closed loop of timed requests and checks every output.  It prints one
JSON line: set-up and wall time, ops attempted and failed, per-request
latencies, the reference times, peak RSS and, with ``--trace``, the raw
per-layer counters.

Every workload does the same amount of work for every seed.  The seed picks
parameters only where their cost does not depend on the value picked;
elsewhere the problems are fixed and the seed picks at most their sides or
order.

Between requests, at most every ``REF_INTERVAL_S``, the process times
``reference_kernel``: fixed pure-Python work in the library's style that uses
no ``ellsuper`` code.  The machine's speed at the moment is read off it, so
``run.py`` can report times in units of it.  Its time is not counted in
``wall_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
DEFAULT_SEED = 1
MAX_FAILURE_MESSAGES = 20
REF_INTERVAL_S = 0.1
REF_SAMPLES_AROUND = 3  # reference samples before and after the requests

# Sizes below put each request-latency percentile near the middle of one class
# of requests of similar cost, never on the boundary between two classes or in
# the tail of one, so that it measures that class and not noise.  Each library
# workload makes more than 110 requests per repetition, so that p90 has ten
# requests beyond it.

# table-sweep: one moderate degree, swept over (1, inf), then point queries:
# some at jump candidates (their sides are cached by the sweep), the rest at
# fresh ratios spread evenly over two ranges of a, so their cost does not vary
# by seed.  Below a = 5 many counts vanish and a query costs less than half.
TABLE_DEGREE = 11
TABLE_CANDIDATE_QUERIES = 25
TABLE_FRESH_QUERIES = {(1, 5): 60, (5, 4 * TABLE_DEGREE): 25}  # (lo, hi): count
# aug-window: fixed verify_aug window, sampled two-alpha words, psi ratios
AUG_WINDOW = (4, 4)
AUG_WORD_INDEX_BOUND = 5
AUG_WORDS_PER_LENGTH = {3: 60, 4: 50, 5: 30}
PSI_RATIOS = 30
PSI_LENGTH = 3
PSI_INDEX_CAP = 4
# jump-scan: fixed support scan, sampled jump tuples, inverse/chain checks
SCAN_BOUND = 10
JUMP_ARITIES = (2, 3, 4)
JUMP_MAX_INDEX = 4
INVERSE_RATIOS = (Fraction(7, 3), Fraction(5, 2), Fraction(11, 4))  # the seed picks sides
INVERSE_BOUND = 4
INVERSE_INDEX_CAP = 4
CHAIN_TRIPLES = ((Fraction(3, 2), Fraction(2), Fraction(7, 3)),
                 (Fraction(4, 3), Fraction(5, 2), Fraction(3)),
                 (Fraction(5, 4), Fraction(9, 4), Fraction(7, 2)))
CHAIN_BOUND = 3
CHAIN_INDEX_CAP = 4
# cli-mix: light commands by kind (fixed sizes, seeded ratios), then the heavy one-shots
CLI_LIGHT = {"gamma": 2, "spectrum": 2, "descendant": 2, "superpotential": 2,
             "jumps": 2, "bound": 2, "table": 2, "check": 6}
CLI_CHECKS = (["gamma", "--bound", "8"], ["genfun"], ["jumps", "--bound", "7"])
CLI_HEAVY = (
    ["superpotential", "--d", "30", "--a", "7/3"],
    ["gamma", "--a", "1,7/3", "--k", "30000..30000"],
    ["gamma", "--a", "4/3,5/2", "--k", "30000..30000"],
)
CLI_BOOT = "import sys; from ellsuper.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120

WORKLOADS = ("table-sweep", "aug-window", "jump-scan", "cli-mix")

_clock = time.perf_counter


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def jump_set(k: int) -> set[Fraction]:
    """J_k = {i/(k-i+1)}: the ratios where Γ_k of E(1, a) changes."""
    return {Fraction(i, k - i + 1) for i in range(1, k + 1)}


def sided_ratio(rng: random.Random, top: int, max_den: int = 12) -> Fraction:
    """A rational in (1, top) with a small denominator, so that it often hits a jump set."""
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(q + 1, top * q - 1), q)


def reference_kernel() -> Fraction:
    """Fixed work like the library's: big-integer Fractions, tuple hashing, dict growth."""
    memo = {}
    acc = Fraction(0)
    for i in range(1, 400):
        f = Fraction(factorial(i % 23), i)
        key = (f, i % 7)
        acc += memo.get(key, f) / (i % 5 + 1)
        memo[key] = acc
    return acc


class Session:
    """Closed-loop request runner that counts ops, failures and latencies.

    It also samples ``reference_kernel`` between requests (``reference``).
    """

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.ref_s: list[float] = []
        self.ref_due = 0.0

    def reference(self, force: bool = False) -> None:
        """Time the reference kernel, if ``REF_INTERVAL_S`` has passed since the last sample."""
        start = _clock()
        if force or start >= self.ref_due:
            reference_kernel()
            end = _clock()
            self.ref_s.append(end - start)
            self.ref_due = end + REF_INTERVAL_S

    def record(self, ops: int, problem: str | None) -> None:
        self.ops += ops
        if problem:
            self.failed += ops
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(problem)

    def request(self, ops: int, compute, check) -> None:
        """Time ``compute()`` as one request, then ``check(result)``.

        ``check`` returns None when the result is right and a message when
        it is not.  A wrong value or an exception fails all ``ops`` of the
        request.
        """
        start = _clock()
        try:
            result = compute()
        except Exception as exc:  # a failed op is counted, not fatal
            self.latencies.append(_clock() - start)
            self.record(ops, f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(_clock() - start)
        try:
            problem = check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.record(ops, problem)
        self.reference()


# ------------------------------------------------------------- table-sweep


def table_candidates(d: int, refine: bool) -> set[Fraction]:
    values = set().union(*(jump_set(3 * e - 1) for e in range(1, d + 1)))
    if refine:
        values |= jump_set(3 * d - 2)
    return {v for v in values if v > 1}


def table_lines(table) -> list[str]:
    return [f"{table.lo};{table.hi}", ",".join(map(str, table.breakpoints)),
            ",".join(map(str, table.values))]


def check_query(pw, nt, d, a, side, wt, t, mult, wt_inf, t_inf) -> str | None:
    """Cross-check one point query against the tables and the large-a limit."""
    if t * mult != wt:
        return f"T != wt_T / multiplicity at {a}{side}: {t} * {mult} != {wt}"
    if pw.value_at(a, side) != wt:
        return f"wt_T at {a}{side} = {wt}, table says {pw.value_at(a, side)}"
    if nt.value_at(a, side) != t:
        return f"T at {a}{side} = {t}, table says {nt.value_at(a, side)}"
    if a > 3 * d - 1 and (wt, t) != (wt_inf, t_inf):
        return f"a = {a} > 3d - 1 but ({wt}, {t}) != limits ({wt_inf}, {t_inf})"
    return None


def inputs_table_sweep(rng: random.Random) -> dict:
    d = TABLE_DEGREE
    candidates = sorted(table_candidates(d, refine=True))
    queries = []
    n = TABLE_CANDIDATE_QUERIES
    for i in range(n):  # one per n-th of the sorted candidates
        chunk = candidates[i * len(candidates) // n:(i + 1) * len(candidates) // n]
        queries.append((rng.choice(chunk), rng.choice("+-")))
    for (lo, hi), n in TABLE_FRESH_QUERIES.items():
        width = Fraction(hi - lo, n)
        for i in range(n):  # one per n-th of (lo, hi), never at a candidate
            a = lo + width * (i + Fraction(rng.randint(1, 96), 97))
            while a in candidates:
                a = lo + width * (i + Fraction(rng.randint(1, 96), 97))
            queries.append((a, rng.choice("+-")))
    rng.shuffle(queries)
    return {"d": d, "queries": queries}


def run_table_sweep(inp: dict, session: Session) -> None:
    from ellsuper import orbits, superpotential as sp

    d = inp["d"]
    target = sp.CP2Target()
    tables = {}
    for name, refine in (("piecewise_table", False), ("normalized_table", True)):
        fn = getattr(sp, name)
        ops = 3 * len(table_candidates(d, refine)) + 1  # interior samples + side values

        def check(table, name=name):
            tables[name] = table
            if digest(table_lines(table)) != PINS["table-sweep"][name]:
                return f"{name} digest differs from the pinned table"
            return None

        session.request(ops, lambda fn=fn: fn(target, d, 1, None), check)
    sides = {"+": orbits.Side.PLUS, "-": orbits.Side.MINUS}
    for a, side in inp["queries"]:
        def compute(a=a, side=side):
            params = orbits.normalized(a, sides[side])
            return (sp.wt_T(target, d, params), sp.T(target, d, params),
                    orbits.orbit(params, 3 * d - 1).multiplicity)

        def check(result, a=a, side=side):
            wt, t, mult = result
            return check_query(tables["piecewise_table"], tables["normalized_table"], d, a,
                               sides[side], wt, t, mult, sp.wt_T_infinity(d), sp.T_infinity(d))

        session.request(1, compute, check)


# -------------------------------------------------------------- aug-window


def window_word_count(index_bound: int, length_bound: int) -> int:
    """Words verify_aug checks: at most one alpha, all index sums <= index_bound."""
    betas = (index_bound + 1) * (index_bound + 2) // 2 - 1
    alphas = (index_bound - 1) * index_bound // 2
    return sum(comb(betas + n - 1, n) + alphas * comb(betas + n - 2, n - 1)
               for n in range(1, length_bound + 1))


def psi_word_count(length_bound: int, index_cap: int) -> int:
    return sum(comb(index_cap + n - 1, n) for n in range(1, length_bound + 1))


def inputs_aug_window(rng: random.Random) -> dict:
    b = AUG_WORD_INDEX_BOUND
    alphas = [("alpha", i, j) for i in range(1, b) for j in range(1, b) if i + j <= b]
    betas = [("beta", i, j) for i in range(b + 1) for j in range(b + 1) if 0 < i + j <= b]
    words = []
    for length, count in AUG_WORDS_PER_LENGTH.items():
        for _ in range(count):
            keys = rng.sample(alphas, 2) + [rng.choice(betas) for _ in range(length - 2)]
            words.append(tuple(sorted(keys)))
    ratios = [(sided_ratio(rng, 12), rng.choice("+-")) for _ in range(PSI_RATIOS)]
    return {"words": words, "ratios": ratios}


def run_aug_window(inp: dict, session: Session) -> None:
    from ellsuper import linf, orbits, rounding

    index_bound, length_bound = AUG_WINDOW
    expected = window_word_count(index_bound, length_bound)

    def check_aug(report):
        if not report.ok or report.checked != expected:
            return f"verify_aug: ok={report.ok}, checked={report.checked} (expected {expected})"
        lines = [str(report.ok), str(report.checked), *report.failures]
        if digest(lines) != PINS["aug-window"]["verify_aug"]:
            return "verify_aug report digest differs from the pinned report"
        return None

    session.request(expected, lambda: rounding.verify_aug(index_bound, length_bound), check_aug)
    structure = rounding.v_algebra()
    for keys in inp["words"]:
        session.request(
            1,
            lambda keys=keys: linf.check_structure(structure, [linf.Word(keys)]),
            lambda r, keys=keys: None if r.ok and r.checked == 1 else f"l^ l^ != 0 on {keys}: {r.failures[:1]}",
        )
    sides = {"+": orbits.Side.PLUS, "-": orbits.Side.MINUS}
    psi_words = psi_word_count(PSI_LENGTH, PSI_INDEX_CAP)
    for a, side in inp["ratios"]:
        session.request(
            psi_words,
            lambda a=a, side=side: rounding.psi_factorization(
                orbits.normalized(a, sides[side]), PSI_LENGTH, PSI_INDEX_CAP),
            lambda r, a=a, side=side: None if r.ok and r.checked == psi_words
            else f"psi factorization fails at {a}{side}: {r.failures[:1]}",
        )


# --------------------------------------------------------------- jump-scan


def scan_pairs(bound: int) -> int:
    """(tuple, ratio) pairs support_scan evaluates: k >= 2, Σi + k - 1 <= bound."""
    candidates = {}
    for out in range(1, bound + 1):
        candidates[out] = len(set().union(*(jump_set(s) for s in range(1, out + 1))))
    total = 0

    def walk(length: int, minimum: int, used: int) -> None:
        nonlocal total
        if length >= 2:
            total += candidates[used + length - 1]
        for i in range(minimum, bound + 1):
            if used + i + length <= bound:  # output index with one more index
                walk(length + 1, i, used + i)

    walk(0, 1, 0)
    return total


def jump_problems() -> list[tuple[Fraction, tuple[int, ...]]]:
    """Every (ratio, tuple) pair the jump routes are compared on; the same for every seed.

    The tuples are the sorted index tuples of each arity k with indices up to
    ``JUMP_MAX_INDEX`` and output index within ``SCAN_BOUND``, so the scan has
    cached their ``jump_general`` values.  Each is paired with every ratio of
    ∪_{s <= 2k-1} J_s, the candidates common to all tuples of arity k, so the
    set of ``xi`` morphisms built is fixed too.
    """
    problems = []
    for k in JUMP_ARITIES:
        ratios = sorted(set().union(*(jump_set(s) for s in range(1, 2 * k))))
        tuples = [idx for idx in combinations_with_replacement(range(1, JUMP_MAX_INDEX + 1), k)
                  if sum(idx) + k - 1 <= SCAN_BOUND]
        problems += [(a, idx) for a in ratios for idx in tuples]
    return problems


def inputs_jump_scan(rng: random.Random) -> dict:
    # The jumps keep a fixed order: at one ratio and arity the first tuple
    # builds the xi morphism and later ones reuse its memos, so the order
    # would move cost between requests.
    tuples = jump_problems()
    inverse = [(a, rng.choice("+-")) for a in INVERSE_RATIOS]
    rng.shuffle(inverse)
    chains = [tuple((a, rng.choice("+-")) for a in triple) for triple in CHAIN_TRIPLES]
    rng.shuffle(chains)
    return {"tuples": tuples, "inverse": inverse, "chains": chains}


def run_jump_scan(inp: dict, session: Session) -> None:
    from ellsuper import jumps, orbits, sft

    def check_scan(hits):
        lines = [f"{h.a};{h.indices};{h.value}" for h in hits]
        if digest(lines) != PINS["jump-scan"]["support_scan"]:
            return "support_scan hits differ from the pinned hits"
        return None

    session.request(scan_pairs(SCAN_BOUND), lambda: jumps.support_scan(SCAN_BOUND), check_scan)
    for a, idx in inp["tuples"]:
        def compute(a=a, idx=idx):
            routes = {"general": jumps.jump_general(a, idx), "xi": jumps.jump_via_xi(a, idx)}
            if len(idx) == 2:
                routes["pants"] = jumps.jump_pants(a, *idx)
            return routes

        session.request(1, compute, lambda routes, a=a, idx=idx: None if len(set(routes.values())) == 1
                        else f"jump routes disagree at a={a}, indices={idx}: {routes}")
    sides = {"+": orbits.Side.PLUS, "-": orbits.Side.MINUS}

    def check_report(report, what):
        return None if report.ok else f"{what}: {report.failures[:1]}"

    inverse_words = 2 * sum(comb(INVERSE_INDEX_CAP + n - 1, n) for n in range(1, INVERSE_BOUND + 1))
    for a, side in inp["inverse"]:
        session.request(
            inverse_words,
            lambda a=a, side=side: sft.inverse_check(
                orbits.normalized(a, sides[side]), INVERSE_BOUND, INVERSE_INDEX_CAP),
            lambda r, a=a, side=side: check_report(r, f"inverse_check at {a}{side}"),
        )
    chain_words = sum(comb(CHAIN_INDEX_CAP + n - 1, n) for n in range(1, CHAIN_BOUND + 1))
    for triple in inp["chains"]:
        session.request(
            chain_words,
            lambda triple=triple: sft.xi_chain_check(
                *(orbits.normalized(a, sides[s]) for a, s in triple), CHAIN_BOUND, CHAIN_INDEX_CAP),
            lambda r, triple=triple: check_report(r, f"xi_chain_check at {triple}"),
        )


# ----------------------------------------------------------------- cli-mix


def _light_command(kind: str, rng: random.Random, slot: int) -> list[str]:
    """A light command of a fixed size; the seed picks only its ratio and side."""
    side = rng.choice(["", "+", "-"])
    axes = f"1,{sided_ratio(rng, 10, 8)}{side}"
    if kind == "gamma":
        return ["gamma", "--a", axes, "--k", "0..20"]
    if kind == "spectrum":
        return ["spectrum", "--a", axes, "--count", "15"]
    if kind == "descendant":
        return ["descendant", "--a", axes, "--orbits", "1,2,4"]
    if kind == "superpotential":
        return ["superpotential", "--d", "5", "--a", f"{sided_ratio(rng, 20, 8)}{side}"]
    if kind == "jumps":
        a = rng.choice(sorted(set().union(*(jump_set(s) for s in range(1, 6)))))
        return ["jumps", "--a", str(a), "--orbits", "1,2,2", "--route", "all"]
    if kind == "bound":
        return ["bound", "--d", "4", "--a", axes]
    if kind == "table":
        return ["table", "--d", "5", "--min", "1", "--max", "inf"]
    return ["check", "--suite", *CLI_CHECKS[slot % len(CLI_CHECKS)]]


def inputs_cli_mix(rng: random.Random) -> dict:
    commands = [_light_command(kind, rng, slot)
                for kind, count in CLI_LIGHT.items() for slot in range(count)]
    commands += CLI_HEAVY  # fixed: the cost of a long walk depends on its axes
    rng.shuffle(commands)
    return {"commands": commands}


def check_cli_output(args: list[str], code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}: {' '.join(args)}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"malformed JSON from {' '.join(args)}"
    if not isinstance(doc, dict) or set(doc) != {"command", "input", "result"}:
        return f"unexpected document keys from {' '.join(args)}"
    if doc["command"] != args[0]:
        return f"command {doc['command']!r} reported for {' '.join(args)}"
    if args[0] == "check" and doc["result"].get("ok") is not True:
        return f"check suite failed: {' '.join(args)}"
    return None


def run_cli_mix(inp: dict, session: Session, seed: int, trace_path: str | None) -> dict:
    outputs, parts, startup, imports = [], [], [], []
    for n, args in enumerate(inp["commands"]):
        if trace_path is None:
            argv = [sys.executable, "-c", CLI_BOOT, *args]
            counters_path = None
        else:
            spans_path = f"{trace_path}.cmd{n}"
            counters_path = f"{spans_path}.counters.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), spans_path, str(time.monotonic_ns()), *args]
        start = _clock()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            session.latencies.append(_clock() - start)
            session.record(1, f"timeout: {' '.join(args)}")
            outputs.append("")
            session.reference()
            continue
        session.latencies.append(_clock() - start)
        outputs.append(proc.stdout)
        session.record(1, check_cli_output(args, proc.returncode, proc.stdout))
        session.reference()
        if counters_path is not None and os.path.exists(counters_path):
            with open(counters_path, encoding="utf-8") as fh:
                data = json.load(fh)
            parts.append(data["counters"])
            startup.append(data["startup_s"])
            imports.append(data["import_s"])
    if seed == DEFAULT_SEED and digest(outputs) != PINS["cli-mix"]["stdout_seed_1"]:
        session.failed = session.ops
        session.failures.append(f"stdout digest at seed {DEFAULT_SEED} differs from the pin")
    return {"parts": parts, "startup": startup, "imports": imports}


# -------------------------------------------------------------------- main


INPUTS = {
    "table-sweep": inputs_table_sweep,
    "aug-window": inputs_aug_window,
    "jump-scan": inputs_jump_scan,
    "cli-mix": inputs_cli_mix,
}
RUNNERS = {
    "table-sweep": run_table_sweep,
    "aug-window": run_aug_window,
    "jump-scan": run_jump_scan,
}


def main(argv: list[str]) -> int:
    started_ns = time.monotonic_ns()
    workload, seed, spawn_ns = argv[0], int(argv[1]), int(argv[2])
    setup_only = "--setup-only" in argv
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    start = _clock()
    import ellsuper  # noqa: F401  (set-up cost, and the modules the tracer wraps)
    import_s = _clock() - start
    inp = INPUTS[workload](random.Random(f"{workload}:{seed}"))
    first_op_ns = time.monotonic_ns()
    result = {"setup_s": (first_op_ns - spawn_ns) / 1e9,
              "startup_s": (started_ns - spawn_ns) / 1e9, "import_s": import_s}
    if setup_only:
        print(json.dumps(result))
        return 0
    trace = None
    if trace_path is not None and workload != "cli-mix":
        import tracer

        trace = tracer.Tracer(f"{workload}:{seed}:{os.path.basename(trace_path)}")
        tracer.install(trace)
        caches_before = tracer.cache_sizes()
    session = Session()
    for _ in range(REF_SAMPLES_AROUND):
        session.reference(force=True)
    ref_before = len(session.ref_s)
    start = _clock()
    if workload == "cli-mix":
        cli = run_cli_mix(inp, session, seed, trace_path)
    else:
        RUNNERS[workload](inp, session)
    wall_s = _clock() - start - sum(session.ref_s[ref_before:])
    for _ in range(REF_SAMPLES_AROUND):
        session.reference(force=True)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF)
    result.update(wall_s=wall_s, ref_s=median(session.ref_s), ref_samples=len(session.ref_s),
                  ops=session.ops, failed=session.failed, failures=session.failures,
                  latencies_s=session.latencies, rss_mb=usage.ru_maxrss / 1024)
    if trace is not None:
        trace.dump(trace_path)
        result["counters"] = tracer.counters(trace, caches_before)
    elif trace_path is not None:  # cli-mix: every command traced itself
        import tracer

        result["counters"] = tracer.merge(cli["parts"])
        result["startup_s"] = median(cli["startup"]) if cli["startup"] else 0.0
        result["import_s"] = median(cli["imports"]) if cli["imports"] else 0.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
