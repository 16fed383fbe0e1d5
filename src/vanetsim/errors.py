"""Exception taxonomy shared across the toolkit.

Library code raises these directly; the CLI maps each family to a
distinct nonzero exit code (see cli.exit_code_for).
"""


class VanetSimError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(VanetSimError):
    """Invalid parameter set, scenario field, or run configuration."""

    def __init__(self, message: str, fields: tuple[str, ...] = ()):
        self.fields = fields    # the refused parameters, if any (see cli.build_run)
        super().__init__(message)


class ParseError(VanetSimError):
    """Malformed input file. Carries the offending path/line when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}" if where else message)


class ValidationError(VanetSimError):
    """Structurally parseable data that violates a stated invariant.

    ``field`` names the constructor argument that was refused, when the
    check is about one argument, so a caller can say where that value came
    from (see cli.build_run).
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class DegenerateInputError(VanetSimError):
    """Math-domain violation (division by a vanishing probability etc.)."""


class ConvergenceError(VanetSimError):
    """Fixed-point iteration did not settle within its iteration cap."""

    def __init__(self, message: str, iterations: int, residual: float, iterate: dict):
        self.iterations = iterations
        self.residual = residual
        self.iterate = iterate  # last (p_trans, p_col, p_idle, q0) values
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")


class NoPathError(VanetSimError):
    """Route query between nodes with no connecting path."""


class SimulationError(VanetSimError):
    """Internal simulation invariant violated; carries a diagnostic."""
