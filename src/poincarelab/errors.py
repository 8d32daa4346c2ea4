"""Exception types shared across the package.

Every error raised by library code derives from PoincareLabError so the
command line layer can map "the math failed" (exit 3) separately from
"the flags were wrong" (exit 2) and "a work budget ran out" (exit 4).
"""


class PoincareLabError(Exception):
    """Base class for all library errors."""


class BadParams(PoincareLabError):
    """A parameter is outside its documented domain."""


class NoConvergence(PoincareLabError):
    """An iterative solver ran out of iterations before meeting tolerance."""


class NotRepelling(PoincareLabError):
    """A fixed point multiplier has |mu| <= 1 where a repelling one is required."""


class OutOfSafeRadius(PoincareLabError):
    """A series was evaluated outside its certified disk."""


class ResonantAngle(PoincareLabError):
    """A rotation number hit a small divisor below the resonance threshold."""


class OutOfDomain(PoincareLabError):
    """A point left the region where an inverse map is defined."""


class OverflowSentinel(PoincareLabError):
    """An iterate exceeded the hard overflow bound (1e290)."""


class NotFound(PoincareLabError):
    """A search over seeds produced no admissible solution."""


class ContinuationLost(PoincareLabError):
    """Path continuation failed even after step refinement."""


class NoSignChange(PoincareLabError):
    """A bracketing scan found no sign change in the allowed interval."""


class CycleCollision(PoincareLabError):
    """Cycle points coalesced during parameter continuation."""


class NoCertificate(PoincareLabError):
    """The set model cannot certify a density bound."""


class InsufficientData(PoincareLabError):
    """A fit was requested on fewer points than the model needs."""
