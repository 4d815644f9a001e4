"""Exception types shared across the package."""


class CavityXXZError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(CavityXXZError):
    """Model, solver, or cavity parameters violate a documented constraint."""


class SizeExceeded(CavityXXZError):
    """Requested system size is beyond the guard for the chosen method."""


class NoConvergence(CavityXXZError):
    """Iterative eigensolver stalled above its residual tolerance."""

    def __init__(self, iterations, residual=None):
        self.iterations = iterations
        self.residual = residual
        msg = f"no convergence after {iterations} iterations"
        if residual is not None:
            msg += f" (residual {residual:.3e})"
        super().__init__(msg)


class InvalidCut(InvalidParams):
    """Entanglement cut index outside 1..N-1."""


class InvalidBond(InvalidParams):
    """MPS bond index outside 1..N-1."""


class ModeInstability(CavityXXZError):
    """A sampled spin-wave mode has omega^2 < mu^2 (expansion invalid)."""

    def __init__(self, msg, modes=None):
        self.modes = modes if modes is not None else []
        super().__init__(msg)


class Unclassifiable(CavityXXZError):
    """Spin-wave theory cannot assign a phase label at this point."""


class InsufficientPoints(InvalidParams):
    """Too few data points, or too few distinct sizes, for the requested fit."""


class TraceDrift(CavityXXZError):
    """Density-matrix trace drifted beyond tolerance during integration."""


class GridMismatch(CavityXXZError):
    """Trajectories to compare were sampled on different time grids."""


class ParseError(CavityXXZError):
    """Configuration file is malformed or contains unknown keys."""
