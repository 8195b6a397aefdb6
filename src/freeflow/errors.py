"""Exception hierarchy shared by all freeflow modules."""


class FreeflowError(Exception):
    """Base class for all errors raised by this package."""


class MeshError(FreeflowError):
    """Invalid mesh combinatorics or geometry."""


class TriangleInequalityViolated(MeshError):
    def __init__(self, face, lengths):
        self.face = tuple(face)
        self.lengths = tuple(lengths)
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
    """An exact solver failed to terminate with an optimal solution."""


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
    """Malformed JSON input file."""
