"""Exception hierarchy shared by all freeflow modules, and the two checks
of scalar inputs: :func:`check_real` and :func:`check_integer`. Each takes
the error type of its boundary, and neither takes a bool or a string for
a number."""

import math
import numbers


class FreeflowError(Exception):
    """Base class for all errors raised by this package."""


class MeshError(FreeflowError):
    """Invalid mesh combinatorics or geometry."""


class TriangleInequalityViolated(MeshError):
    def __init__(self, face, lengths):
        self.face = tuple(int(v) for v in face)
        self.lengths = tuple(float(l) for l in lengths)
        super().__init__(
            f"face {self.face} violates the strict triangle inequality: "
            f"lengths {self.lengths}"
        )


class NonOrientable(MeshError):
    """No globally consistent triangle orientation exists."""


class NonManifold(MeshError):
    """An edge is shared by more than two triangles."""


class Disconnected(MeshError):
    """The edge graph is not connected."""


class InvalidParams(FreeflowError):
    """Bad parameters for a mesh primitive generator."""


class DegenerateFace(FreeflowError):
    """Face metric is numerically singular (condition number > 1e12)."""

    def __init__(self, face, cond):
        self.face = face
        self.cond = cond
        super().__init__(f"face {face} has singular metric (cond {cond:.3e})")


class SolverFailure(FreeflowError):
    """A solver failed to terminate with an optimal solution, or two
    routes returned values that contradict each other."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class TooManyAtoms(FreeflowError):
    """Molecule exceeds the oracle's enumeration bound."""


class NotConverged(FreeflowError):
    """Iterative solver exhausted max_iter before reaching tolerance."""

    def __init__(self, message, residuals=None):
        self.residuals = residuals or {}
        super().__init__(message)


class PreconditionViolated(FreeflowError):
    """An experiment precondition does not hold for the given inputs."""


class UnboundedSequence(FreeflowError):
    """A field sequence exceeds its declared uniform Lipschitz bound."""


class ParseError(FreeflowError):
    """Malformed input: a JSON file, or a command-line, config or solver
    parameter value out of its range."""


def check_real(name, value, positive=False, error=ParseError):
    """``value``, unchanged, if it is a finite real number, and positive
    when ``positive``; else an ``error``. A bool is no real number, nor an
    integer beyond float range."""
    try:
        real = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        real = False
    if positive and not (real and value > 0):
        raise error(f"{name} must be finite and positive, got {value}")
    if not real:
        raise error(f"{name} is not a finite real number: {value!r}")
    return value


def check_integer(name, value, minimum=0, error=ParseError):
    """``value`` as an int if it is an integer of at least ``minimum``;
    else an ``error``. A bool is no integer, nor is an array, though its
    type has ``__index__``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} is not an integer: {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)
