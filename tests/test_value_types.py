"""Contracts of the package's value types.

``OrbitId``, ``ScanHit``, ``PiecewiseTable`` and ``oracle.DualRational`` are
named tuples; ``SpectrumParams``, ``CP2Target`` and ``Report`` are slotted
classes.  Each keeps the repr, equality, hashing and (im)mutability it had as
a dataclass; the expected reprs below were printed by the dataclasses.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ellsuper.jumps import ScanHit
from ellsuper.oracle import DualRational
from ellsuper.orbits import OrbitId, Side, SpectrumParams, normalized
from ellsuper.report import Report
from ellsuper.superpotential import CP2Target, PiecewiseTable

F = Fraction
TABLE = PiecewiseTable(F(1), F(3), (F(2),), (F(0), F(1)))

REPRS = {
    "params": (
        SpectrumParams((1, 2)),
        "SpectrumParams(a=(Fraction(1, 1), Fraction(2, 1)), side=<Side.CANONICAL: 'canonical'>)",
    ),
    "params-plus": (
        normalized("7/3", Side.PLUS),
        "SpectrumParams(a=(Fraction(1, 1), Fraction(7, 3)), side=<Side.PLUS: 'plus'>)",
    ),
    "orbit": (OrbitId(1, 2), "OrbitId(axis=1, multiplicity=2)"),
    "hit": (
        ScanHit(F(1, 2), (1, 2), F(-1, 2)),
        "ScanHit(a=Fraction(1, 2), indices=(1, 2), value=Fraction(-1, 2))",
    ),
    "table": (
        TABLE,
        "PiecewiseTable(lo=Fraction(1, 1), hi=Fraction(3, 1), breakpoints=(Fraction(2, 1),), "
        "values=(Fraction(0, 1), Fraction(1, 1)))",
    ),
    "dual": (DualRational(F(1), F(-2)), "DualRational(main=Fraction(1, 1), eps=Fraction(-2, 1))"),
    "target": (CP2Target(), "CP2Target()"),
    "report": (Report(0), "Report(ok=True, checked=0, failures=[])"),
    "report-failed": (Report(2, ["x"]), "Report(ok=False, checked=2, failures=['x'])"),
}


@pytest.mark.parametrize("value, expected", REPRS.values(), ids=REPRS.keys())
def test_repr_is_unchanged(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize(
    "value, name",
    [
        (SpectrumParams((1, 2)), "a"),
        (SpectrumParams((1, 2)), "side"),
        (SpectrumParams((1, 2)), "_hash"),
        (OrbitId(1, 2), "axis"),
        (ScanHit(F(1, 2), (1, 2), F(-1, 2)), "value"),
        (TABLE, "lo"),
        (DualRational(F(1), F(0)), "main"),
        (CP2Target(), "degree"),
    ],
)
def test_immutable_values_refuse_assignment(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 0)


@pytest.mark.parametrize("spelling", [(1, "7/3"), ("1", F(7, 3)), (F(1), "14/6"), [1, F(14, 6)]])
def test_equal_params_compare_and_hash_alike(spelling):
    params = SpectrumParams(spelling)
    assert params == normalized("7/3") == SpectrumParams((1, "7/3"), Side.CANONICAL)
    assert hash(params) == hash(normalized("7/3"))
    assert params != normalized("7/3", Side.PLUS)
    assert params != (F(1), F(7, 3))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_copied_params_are_equal_and_hash_alike(clone):
    params = normalized("7/3", Side.MINUS)
    twin = clone(params)
    assert twin == params and hash(twin) == hash(params)
    assert {params: 1}[twin] == 1


def test_target_instances_are_interchangeable():
    assert CP2Target() == CP2Target()
    assert hash(CP2Target()) == hash(CP2Target())
    assert CP2Target() != object()


def test_dual_rationals_order_by_main_then_eps():
    values = [DualRational(F(a), F(b)) for a, b in [(2, 1), (1, 5), (2, -1), (1, -5), (2, 0)]]
    assert sorted(values) == sorted(values, key=lambda v: (v.main, v.eps))
    assert sorted(values)[0] == DualRational(F(1), F(-5))


class TestReport:
    def test_reports_built_without_failures_do_not_share_a_list(self):
        first, second = Report(0), Report(0)
        first.failures.append("x")
        assert second.failures == []

    def test_equality_is_field_by_field(self):
        assert Report(1) == Report(1, [])
        assert Report(1) != Report(2)
        assert Report(1, ["a"]) != Report(1, ["b"])
        assert Report(0) != (True, 0, [])

    def test_ok_is_read_off_the_failures(self):
        report = Report(1, ["x"])
        assert not report.ok and not report
        with pytest.raises(AttributeError):
            report.ok = True
        assert Report(1).ok and not report.ok

    def test_mutable_and_unhashable(self):
        report = Report(0)
        report.failures.append("x")
        assert not report
        with pytest.raises(TypeError):
            hash(report)
