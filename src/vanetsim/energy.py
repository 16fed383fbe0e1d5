"""Instantaneous fuel and emission rates (dual-regime exponential model).

The rate at speed v (km/h) and acceleration a (km/h/s) is

    exp( sum_ij K[i][j] * v^(o+i) * a^(o+j) )

with one coefficient matrix K per measure for a >= 0 and another for
a < 0, and o the index origin the coefficient file declares. With
origin 0 the [0][0] entry is the idle log-rate, so exp(K[0][0]) is the
idle fuel burn the shipped calibration documents.

Coefficients are strictly data: the package hard-codes no rate numbers.
The shipped file is a composite light-duty calibration from the public
VT-Micro literature; swapping the file swaps the vehicle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from importlib import resources

from .errors import ParseError, ValidationError

MEASURES = ("fuel", "co", "hc", "nox")
MAX_EXPONENT = 3  # polynomial degree in both v and a

# calibration envelope; outside it the polynomial is extrapolating
ENVELOPE_V = (0.0, 120.0)     # km/h
ENVELOPE_A = (-10.0, 10.0)    # km/h/s


class EnvelopeWarning(UserWarning):
    """Rate requested outside the coefficient calibration envelope."""


@dataclass(frozen=True)
class VtMicroCoefficients:
    index_origin: int
    tables: dict  # (measure, regime) -> 4x4 tuple-of-tuples

    def matrix(self, measure: str, a: float):
        return self.tables[(measure, "L" if a >= 0 else "M")]


def load_coefficients(path=None) -> VtMicroCoefficients:
    """Parse a coefficient file; defaults to the shipped calibration."""
    if path is None:
        ref = resources.files("vanetsim").joinpath("data/vtmicro_ldv.txt")
        text = ref.read_text(encoding="utf-8")
        spath = "vanetsim/data/vtmicro_ldv.txt"
    else:
        with open(path, encoding="utf-8") as fp:
            text = fp.read()
        spath = str(path)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# format: vtmicro "):
        raise ParseError("missing '# format: vtmicro v1' header",
                         path=spath, line=1)
    origin = None
    tables: dict[tuple[str, str], list[tuple[float, ...]]] = {}
    block: list[tuple[float, ...]] | None = None
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("index_origin"):
            origin = int(line.split()[1])
            continue
        if line.startswith("["):
            try:
                measure, regime = line.strip("[]").split()
            except ValueError:
                raise ParseError(f"bad block header {line!r}",
                                 path=spath, line=no)
            if measure not in MEASURES or regime not in ("L", "M"):
                raise ParseError(f"unknown block {line!r}", path=spath, line=no)
            block = tables.setdefault((measure, regime), [])
            continue
        if block is None:
            raise ParseError("matrix row before any block", path=spath, line=no)
        try:
            row = tuple(float(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"bad matrix row: {exc}", path=spath, line=no)
        block.append(row)

    if origin is None:
        raise ValidationError("coefficient file declares no index_origin")
    if origin not in (0, 1):
        raise ValidationError(f"index_origin must be 0 or 1, got {origin}")
    # exponents run origin..MAX_EXPONENT, so the matrices are square
    # with that many rows (origin 0 -> 4x4, origin 1 -> 3x3)
    size = MAX_EXPONENT - origin + 1
    for measure in MEASURES:
        for regime in ("L", "M"):
            rows = tables.get((measure, regime))
            if rows is None:
                raise ValidationError(f"missing block [{measure} {regime}]")
            if len(rows) != size or any(len(r) != size for r in rows):
                raise ValidationError(
                    f"block [{measure} {regime}] must be {size}x{size} "
                    f"for index_origin {origin}")
            if not all(math.isfinite(v) for row in rows for v in row):
                raise ValidationError(
                    f"non-finite entry in block [{measure} {regime}]")
    frozen = {key: tuple(rows) for key, rows in tables.items()}
    return VtMicroCoefficients(index_origin=origin, tables=frozen)


def vt_micro_rate(v: float, a: float, coeffs: VtMicroCoefficients,
                  measure: str = "fuel") -> float:
    """Rate in liters/s (fuel) or mg/s (emissions); positive everywhere."""
    if v < 0:
        raise ValidationError("speed must be >= 0")
    if not (ENVELOPE_V[0] <= v <= ENVELOPE_V[1]
            and ENVELOPE_A[0] <= a <= ENVELOPE_A[1]):
        warnings.warn(
            f"(v={v:.1f} km/h, a={a:.1f} km/h/s) outside the calibration "
            f"envelope; extrapolating", EnvelopeWarning, stacklevel=2)
    k = coeffs.matrix(measure, a)
    o = coeffs.index_origin
    exponent = 0.0
    vp = v ** o
    for i in range(len(k)):
        ap = a ** o
        for j in range(len(k)):
            exponent += k[i][j] * vp * ap
            ap *= a
        vp *= v
    return math.exp(exponent)


def free_flow_fuel(links, coeffs: VtMicroCoefficients) -> dict[int, float]:
    """Fuel to cruise each link at its free-flow speed (liters), by link id.

    The cruise rate is evaluated once per distinct free-flow speed, so
    an out-of-envelope speed warns once, not once per link.
    """
    rates: dict[float, float] = {}
    fuel = {}
    for link in links:
        v = link.free_speed
        if v not in rates:
            rates[v] = vt_micro_rate(v, 0.0, coeffs)
        seconds = (link.length / 1000.0) / v * 3600.0
        fuel[link.id] = seconds * rates[v]
    return fuel
