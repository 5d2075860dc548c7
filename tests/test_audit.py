"""The planted-defect audit: every check that reads a table can fail.

Each defect is planted at a source of a fresh table, so the table is one
consistent wrong table: every entry it derives, and its growth, read the
same wrong number.  Each run is the default sweep on that table, and the
counterexamples it finds are pinned per case.  The generalized defects
are B_k^(a) + 1 among the numbers a table grows; the classical ones are
B_k + 1 at :meth:`GenBernTable.classical_numbers`, which ``grow`` reads
too, so each is a wrong generalized family as well.
"""

import functools
from collections import Counter

import pytest

from genbern.bernoulli import GenBernTable
from genbern.harness import SweepConfig, enumerate_cases, run_suite
from genbern.identities import CASE_IDS, verify_case
from genbern.poly import poly_a


def _generalized_plus_one(k: int) -> GenBernTable:
    table = GenBernTable()
    table.grow(k)
    table._numbers[k] = table.number(k) + 1
    return table


def _classical_plus_one(k: int) -> GenBernTable:
    table = GenBernTable()
    right = table.classical_numbers
    table.classical_numbers = lambda n_max: [b + (i == k) for i, b in enumerate(right(n_max))]
    return table


def _order_only_defect():
    """prod (den a - num) over the default sweep's rational orders num/den,
    (a-1)(a-2)(2a-1) there: an a-polynomial that vanishes at every sampled order."""
    defect = poly_a(1)
    for order in SweepConfig().alpha_points:
        defect = defect * poly_a(-order.numerator, order.denominator)
    return defect


def _order_only() -> GenBernTable:
    table = GenBernTable()
    table.grow(2)
    table._numbers[2] = table.number(2) + _order_only_defect()
    return table


DEFECTS = {
    "generalized B_1": lambda: _generalized_plus_one(1),
    "generalized B_2": lambda: _generalized_plus_one(2),
    "generalized B_3": lambda: _generalized_plus_one(3),
    "classical B_1": lambda: _classical_plus_one(1),
    "classical B_2": lambda: _classical_plus_one(2),
    "classical B_4": lambda: _classical_plus_one(4),
    "order only": _order_only,
}
SIX = tuple(name for name in DEFECTS if name != "order only")

# The cases that keep the order symbolic at some of their points
_SYMBOLIC = ("theorem_le1", "proof_replay", "nielsen_f10", "neto_corrected", "s20")
# The cases that read the generalized numbers at a rational order only
_RATIONAL_ORDER = ("t3", "s3", "e2", "t4", "tg4", "t230", "s1", "s4", "cor3a")
# The cases that read classical data only, so that no generalized defect
# catches them (test_the_classical_cases_read_classical_data_only)
_CLASSICAL = ("t5", "ges1", "p1", "e1", "k3", "c1", "app1", "cor3b", "cor1", "fi2", "vassilev")
# The cases that no generalized defect catches although their preferred
# reading reads the generalized numbers: where that reading fails they fall
# back to one that reads classical data only (test_k5_and_t24_read_the_generalized_row_at_order_one,
# test_k5_and_t24_fall_back_to_a_classical_reading)
_FALLBACK = ("k5", "t24")


def _pin(*cases, counts):
    return dict(zip(cases, counts, strict=True))


# Counterexamples per case on the default grid (5,476 points), one row per
# defect; a case missing from a row verifies at every point of its grid.
CAUGHT = {
    "generalized B_1": {
        **_pin(*_SYMBOLIC, counts=(304, 304, 304, 10, 10)),
        **_pin(*_RATIONAL_ORDER, counts=(32, 32, 10, 128, 128, 40, 395, 400, 278)),
    },
    "generalized B_2": {
        **_pin(*_SYMBOLIC, counts=(232, 232, 232, 8, 8)),
        **_pin(*_RATIONAL_ORDER, counts=(32, 32, 8, 128, 128, 32, 329, 332, 207)),
    },
    "generalized B_3": {
        **_pin(*_SYMBOLIC, counts=(152, 152, 152, 8, 9)),
        **_pin(*_RATIONAL_ORDER, counts=(33, 33, 8, 132, 132, 32, 334, 335, 206)),
    },
    "classical B_1": {
        **_pin(*_SYMBOLIC, counts=(352, 352, 352, 12, 12)),
        **_pin(*_RATIONAL_ORDER, counts=(32, 32, 10, 128, 128, 40, 400, 400, 278)),
        **_pin(*_CLASSICAL, counts=(8, 7, 3, 10, 1, 8, 1088, 79, 10, 2, 4)),
        **_pin(*_FALLBACK, counts=(2, 8)),
    },
    "classical B_2": {
        **_pin(*_SYMBOLIC, counts=(304, 304, 304, 8, 9)),
        **_pin(*_RATIONAL_ORDER, counts=(32, 32, 8, 128, 128, 32, 331, 332, 207)),
        **_pin(*_CLASSICAL, counts=(8, 8, 1, 8, 2, 12, 893, 80, 8, 2, 6)),
        **_pin(*_FALLBACK, counts=(2, 8)),
    },
    # p1 weighs B_n by C(n, n) - (-1)^n, which vanishes at even n
    # (tests/test_identities.py::test_p1_is_blind_to_a_wrong_b_n_at_even_n)
    "classical B_4": {
        **_pin(*_SYMBOLIC, counts=(152, 152, 152, 2, 6)),
        **_pin(*_RATIONAL_ORDER, counts=(16, 16, 2, 64, 64, 8, 167, 168, 81)),
        **_pin(*(c for c in _CLASSICAL if c != "p1"), counts=(8, 8, 2, 2, 12, 450, 46, 6, 2, 2)),
        **_pin(*_FALLBACK, counts=(2, 8)),
    },
    # vanishes at every sampled order, so only the cases that keep the
    # order symbolic see it: a verdict at a rational order says nothing
    # about the orders that were not sampled
    "order only": _pin(*_SYMBOLIC, counts=(304, 304, 304, 8, 8)),
}


@functools.cache
def _caught(defect: str) -> Counter:
    report = run_suite(SweepConfig(), DEFECTS[defect]())
    return Counter(res.case.id for res in report.results if res.status == "counterexample")


@pytest.mark.parametrize("defect", DEFECTS)
def test_each_defect_is_caught_where_pinned(defect):
    assert _caught(defect) == CAUGHT[defect]


def test_the_order_only_defect_vanishes_at_every_sampled_order():
    defect = _order_only_defect()
    assert defect == poly_a(-1, 1) * poly_a(-2, 1) * poly_a(-1, 2)
    assert all(defect.eval(order) == 0 for order in SweepConfig().alpha_points)


def test_every_case_that_reads_a_table_is_caught():
    # rem1 and agoh_leibniz read no table: every point of their grids runs on None
    for case in enumerate_cases(SweepConfig(cases=("rem1", "agoh_leibniz"))):
        assert verify_case(case, None).status != "counterexample"
    # s2's folded form holds for every Appell sequence, so no defect in the
    # numbers can move it (tests/test_identities.py::test_s2_holds_for_every_appell_sequence)
    never = {"rem1", "agoh_leibniz", "s2"}
    caught = set().union(*(_caught(defect) for defect in SIX))
    assert caught == set(CASE_IDS) - never
    assert not never & set(_caught("order only"))


def _read_alone(case_id: str) -> GenBernTable:
    """A fresh table after every point of ``case_id``'s default grid ran on
    it alone, without the sweep's pre-growth."""
    table = GenBernTable()
    for case in enumerate_cases(SweepConfig(cases=(case_id,))):
        verify_case(case, table)
    return table


def test_the_classical_cases_read_classical_data_only():
    # they leave only classical rows and grow no generalized number
    for case_id in _CLASSICAL:
        table = _read_alone(case_id)
        assert {key[0] for key in table._derived} == {"classical_row"}, case_id
        assert len(table._numbers) == 1, case_id


def test_k5_and_t24_read_the_generalized_row_at_order_one():
    # the literal reading's pair sum reads the generalized row at order one
    # and x = 0, which grows the numbers to 7 and 8
    for case_id, grown in zip(_FALLBACK, (7, 8)):
        table = _read_alone(case_id)
        assert [key for key in table._derived if key[0] != "classical_row"] == [("row", 1, 1, 0, 1)]
        assert len(table._numbers) - 1 == grown


# Per table: the points of k5's grid (4) that report first_block, and of
# t24's (16) where the literal reading verifies
FALLBACK_READINGS = {"right": (0, 4), "generalized B_1": (2, 2), "generalized B_2": (2, 2), "generalized B_3": (3, 1)}


@pytest.mark.parametrize("defect", FALLBACK_READINGS)
def test_k5_and_t24_fall_back_to_a_classical_reading(defect):
    # a generalized defect moves where the literal reading verifies, and
    # first_block, which reads classical data only, verifies everywhere
    results = run_suite(SweepConfig(cases=_FALLBACK), DEFECTS.get(defect, GenBernTable)()).results
    assert {res.status for res in results} == {"verified"}
    k5 = sum(res.reading == "first_block" for res in results if res.case.id == "k5")
    t24 = sum(res.readings["literal"] == "verified" for res in results if res.case.id == "t24")
    assert (k5, t24) == FALLBACK_READINGS[defect]
