"""The packed main-identity route accepts zero only under a proven bound.

``identities._same`` tests two packed sides for equality
(``identities``' module docstring gives the argument).  Its oracle is the
Poly route: ``lincomb`` of the same terms.  A packed side may say
"unproven" where the Poly sides are equal only when its bound does not fit
the slot width, and that case reruns the Poly route, which decides.
"""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbern import harness, identities
from genbern.bernoulli import GenBernTable, _Pack
from genbern.harness import SweepConfig, record_json, run_suite
from genbern.identities import _same, _Side, _width
from genbern.poly import from_rows, lincomb

# numerators at and around the slot widths the route picks (64, 128)
_NEAR_WIDTH = st.builds(
    lambda k, d, sign: sign * (2**k + d),
    st.sampled_from([62, 63, 64, 65, 127, 128, 129]),
    st.integers(-2, 2),
    st.sampled_from([-1, 1]),
)
_NUMERATOR = st.one_of(st.integers(-3, 3), _NEAR_WIDTH)
_ENTRY = st.builds(
    lambda den, rows: from_rows("x", den, rows),
    st.integers(1, 30),
    # a row is an int or a list of ints in ascending powers of a
    st.lists(st.one_of(_NUMERATOR, st.lists(_NUMERATOR, max_size=3)), max_size=4),
)
_WEIGHT = st.integers(-(2**70), 2**70).filter(bool)
_TERMS = st.lists(st.tuples(_WEIGHT, st.integers(1, 40), _ENTRY), min_size=1, max_size=4)


def _value(terms):
    """The Poly route: sum c E / q as one ``lincomb``."""
    return lincomb("x", [(F(c, q), entry) for c, q, entry in terms])


def _side(terms) -> _Side:
    return _Side([(c, q, _Pack(entry)) for c, q, entry in terms])


def _reference_pack(p, width: int) -> int:
    """sum rows[i][j] 2^(width (T(i+j) + i)) by shifts, for numerators of any size."""
    rows = [row if type(row) is list else [row] for row in p.rows]
    return sum(v << (width * ((i + j) * (i + j + 1) // 2 + i)) for i, row in enumerate(rows) for j, v in enumerate(row))


def _collision(width: int, i: int, j: int):
    """2^width x^i a^j - x^i' a^j' with x^i' a^j' one slot above x^i a^j:
    it packs to 0 at ``width``, so only the bound can tell it from zero."""
    d = i + j
    above = (i + 1, j - 1) if j else (0, d + 1)
    rows = [[0] * (d + 2) for _ in range(d + 2)]
    rows[i][j] += 2**width
    rows[above[0]][above[1]] -= 1
    return from_rows("x", 1, rows)


@settings(max_examples=200, deadline=None)
@given(_TERMS, st.data())
def test_packed_zero_is_poly_zero(terms, data):
    value = _value(terms)
    # the same polynomial, as one term or as the same sum regrouped
    assert _same(_side(terms), _side([(1, 1, value)]))
    assert _same(_side(terms), _side(terms[::-1] + [(1, 1, value - value)]))
    # a different one: a small change, or a change that packs to 0 at the width
    # the unchanged comparison would take
    one, other = _side(terms), _side([(1, 1, value)])
    g = math.gcd(one.den, other.den)
    width = _width(max(one.bits + (other.den // g).bit_length(), other.bits + (one.den // g).bit_length()) + 1)
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    change = data.draw(st.sampled_from([from_rows("x", 1, [0] * i + [[0] * j + [1]]), _collision(width, i, j)]))
    changed = _side([(1, 1, value + change)])
    assert not _same(_side(terms), changed) and not _same(changed, _side(terms))


@settings(max_examples=100, deadline=None)
@given(_ENTRY, st.sampled_from([64, 128, 192]))
def test_pack_is_the_slot_sum(entry, width):
    if _Pack(entry).bits <= width:
        assert _Pack(entry).at(width) == _reference_pack(entry, width)
    else:  # a numerator wider than its slot is refused, never carried
        with pytest.raises(OverflowError):
            _Pack(entry).at(width)


def test_a_collision_at_the_width_is_caught_by_the_bound():
    # value + collision packs to the same int as value at width 64, but its
    # coefficient 2^64 makes the bound pick 128
    value = from_rows("x", 1, [[1, 2], [3]])
    for i, j in ((1, 0), (0, 1), (2, 3)):
        changed = value + _collision(64, i, j)
        assert _reference_pack(changed, 64) == _reference_pack(value, 64) == _Pack(value).at(64)
        assert _same(_side([(1, 1, value)]), _side([(1, 1, value)]))
        assert not _same(_side([(1, 1, value)]), _side([(1, 1, changed)]))


_MAIN = ("theorem_le1", "proof_replay", "nielsen_f10")
_SMALL = SweepConfig(max_n=2, max_l=2, max_r=1, max_s=2, max_m=2, cases=_MAIN)


def _records(report):
    return [record_json(res).rsplit('"elapsed_ms"', 1)[0] for res in report.results]


def test_a_bound_that_does_not_fit_reruns_the_poly_route(monkeypatch):
    expected = _records(run_suite(_SMALL, GenBernTable()))
    # a width one bit short of every bound: no packed side is proven equal
    monkeypatch.setattr(identities, "_width", lambda bound: bound - 1)
    current, poly_route = [None], Counter()
    verify, sides = harness.verify_case, identities._main_sides

    def verifying(case, table, slot=None):
        current[0] = case
        return verify(case, table, slot)

    def unpacked(*args):
        poly_route[current[0]] += 1
        return sides(*args)

    monkeypatch.setattr(harness, "verify_case", verifying)
    monkeypatch.setattr(identities, "_main_sides", unpacked)
    report = run_suite(_SMALL, GenBernTable())
    assert report.success and _records(report) == expected
    # so every point of every main case ran the Poly route, once
    assert poly_route == Counter(res.case for res in report.results)
    assert len(poly_route) == sum(harness.grid_size(c, _SMALL) for c in _MAIN)
