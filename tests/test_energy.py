"""Fuel/emission model tests.

The shipped-calibration idle rate is pinned as a golden value: with
index origin 0 only the constant term survives at (v=0, a=0), so the
idle fuel burn must equal exp of the [0][0] entry exactly.
"""

import math
import warnings

import pytest

from vanetsim import energy
from vanetsim.roadnet import Link
from vanetsim.errors import ParseError, ValidationError


@pytest.fixture(scope="module")
def coeffs():
    return energy.load_coefficients()


def flat(value):
    m = tuple((value,) * 4 for _ in range(4))
    return energy.VtMicroCoefficients(
        index_origin=0,
        tables={(meas, reg): m for meas in energy.MEASURES
                for reg in ("L", "M")})


def test_zero_coefficients_give_unit_rate():
    c = flat(0.0)
    for v, a in [(0, 0), (60, 3), (120, -10)]:
        assert energy.vt_micro_rate(v, a, c) == 1.0


def test_regime_boundary_uses_acceleration_sign():
    m_l = tuple((1.0,) + (0.0,) * 3 for _ in range(1)) + ((0.0,) * 4,) * 3
    m_m = tuple((2.0,) + (0.0,) * 3 for _ in range(1)) + ((0.0,) * 4,) * 3
    c = energy.VtMicroCoefficients(
        index_origin=0,
        tables={("fuel", "L"): m_l, ("fuel", "M"): m_m})
    assert energy.vt_micro_rate(10.0, 0.0, c) == math.exp(1.0)   # a>=0 -> L
    assert energy.vt_micro_rate(10.0, -1e-12, c) == math.exp(2.0)


def test_idle_golden_value(coeffs):
    k00 = coeffs.tables[("fuel", "L")][0][0]
    idle = energy.vt_micro_rate(0.0, 0.0, coeffs)
    assert idle == math.exp(k00)
    assert idle == pytest.approx(4.373e-4, rel=1e-3)


def test_positive_and_bounded_over_envelope(coeffs):
    worst = {m: 0.0 for m in energy.MEASURES}
    v = 0.0
    while v <= 120.0:
        a = -10.0
        while a <= 10.0:
            for measure in energy.MEASURES:
                r = energy.vt_micro_rate(v, a, coeffs, measure)
                assert r > 0.0
                worst[measure] = max(worst[measure], r)
            a += 0.5
        v += 2.0
    assert worst["fuel"] < 1.0          # liters/s
    for measure in ("co", "hc", "nox"):
        assert worst[measure] < 1000.0  # mg/s


def test_envelope_warning_not_error(coeffs):
    with pytest.warns(energy.EnvelopeWarning):
        r = energy.vt_micro_rate(150.0, 0.0, coeffs)
    assert r > 0.0
    with pytest.raises(ValidationError):
        energy.vt_micro_rate(-1.0, 0.0, coeffs)


def test_free_flow_link_fuel_arithmetic(coeffs):
    # 1000 m at 50 km/h is 72 s of cruising, 500 m half that
    links = [Link(1, 1, 2, 1000.0, 1, 50.0, 120.0),
             Link(2, 2, 1, 500.0, 1, 50.0, 120.0)]
    rate = energy.vt_micro_rate(50.0, 0.0, coeffs)
    assert energy.free_flow_fuel(links, coeffs) == {
        1: pytest.approx(72.0 * rate, rel=1e-12),
        2: pytest.approx(36.0 * rate, rel=1e-12)}


def test_free_flow_fuel_warns_once_per_speed(coeffs):
    # three links beyond the envelope share one speed, so one rate and one warning
    links = [Link(i, 1, 2, 100.0 * i, 1, 150.0, 120.0) for i in (1, 2, 3)]
    links.append(Link(4, 2, 1, 100.0, 1, 50.0, 120.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fuel = energy.free_flow_fuel(links, coeffs)
    assert [w.category for w in caught] == [energy.EnvelopeWarning]
    assert list(fuel) == [1, 2, 3, 4]


def test_loader_rejects_malformed_files(tmp_path, coeffs):
    good = (tmp_path / "c.txt")
    ref_rows = "\n".join(" ".join(repr(x) for x in row)
                         for row in coeffs.tables[("fuel", "L")])
    blocks = []
    for meas in energy.MEASURES:
        for reg in ("L", "M"):
            rows = coeffs.tables[(meas, reg)]
            body = "\n".join(" ".join(repr(x) for x in row) for row in rows)
            blocks.append(f"[{meas} {reg}]\n{body}")
    good.write_text("# format: vtmicro v1\nindex_origin 0\n"
                    + "\n".join(blocks) + "\n")
    again = energy.load_coefficients(good)
    assert again.tables == coeffs.tables

    bad = tmp_path / "bad.txt"
    bad.write_text("# format: vtmicro v1\nindex_origin 0\n[fuel L]\n1 2 oops 4\n")
    with pytest.raises(ParseError) as err:
        energy.load_coefficients(bad)
    assert err.value.line == 4

    no_origin = tmp_path / "noorigin.txt"
    no_origin.write_text("# format: vtmicro v1\n[fuel L]\n"
                         + ref_rows + "\n")
    with pytest.raises(ValidationError):
        energy.load_coefficients(no_origin)

    missing = tmp_path / "missing.txt"
    missing.write_text("# format: vtmicro v1\nindex_origin 0\n[fuel L]\n"
                       + ref_rows + "\n")
    with pytest.raises(ValidationError) as err2:
        energy.load_coefficients(missing)
    assert "missing block" in str(err2.value)


def test_origin_one_expects_3x3(tmp_path):
    rows3 = "0.1 0.0 0.0\n0.0 0.0 0.0\n0.0 0.0 0.0"
    blocks = "\n".join(f"[{m} {r}]\n{rows3}"
                       for m in energy.MEASURES for r in ("L", "M"))
    path = tmp_path / "o1.txt"
    path.write_text(f"# format: vtmicro v1\nindex_origin 1\n{blocks}\n")
    c = energy.load_coefficients(path)
    # both exponents start at 1, so every a=0 term vanishes; this is
    # why origin 0 is the shipped default
    assert energy.vt_micro_rate(0.0, 0.0, c) == 1.0
    assert energy.vt_micro_rate(10.0, 0.0, c) == 1.0
    assert energy.vt_micro_rate(10.0, 2.0, c) == math.exp(0.1 * 10.0 * 2.0)


def test_rate_continuous_in_speed_within_regime(coeffs):
    # polynomial exponent: adjacent speeds give nearby rates
    for a in (-3.0, 0.0, 3.0):
        prev = energy.vt_micro_rate(0.0, a, coeffs)
        v = 0.5
        while v <= 120.0:
            cur = energy.vt_micro_rate(v, a, coeffs)
            assert abs(math.log(cur) - math.log(prev)) < 0.35
            prev = cur
            v += 0.5
