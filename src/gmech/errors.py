"""Exception types shared across the package."""


class GmechError(Exception):
    """Base class for every error raised by this library."""


# -- lattice construction ----------------------------------------------------

class NonPositiveHorizon(GmechError):
    """Raised when the terminal time does not lie strictly after the start."""


class ZeroSteps(GmechError):
    """Raised when a time grid is requested with no steps."""


class StepOutOfRange(GmechError):
    """Raised when a step index falls outside a process's defined range."""


# -- generators --------------------------------------------------------------

class NegativeMu(GmechError):
    """Raised when a Lipschitz constant is negative."""


class InvalidParams(GmechError):
    """Raised on malformed market or generator parameters."""


# -- backward solver ---------------------------------------------------------

class ContractionViolation(GmechError):
    """Raised when mu * dt >= 1, so the implicit one-step solve may not contract."""


class PicardDivergence(GmechError):
    """Raised when the fixed-point iteration hits its cap with a large residual."""


class NonFiniteValue(GmechError):
    """Raised when a claim, driver or solve yields NaN or inf; names step and node."""


class BadStepOrder(GmechError):
    """Raised when pricing steps are not ordered 0 <= s <= t <= n."""


class SchemeNotMonotone(GmechError):
    """Raised when mu * (sqrt(dt) + dt) > 1; order verdicts would be unreliable."""


# -- mechanism analysis ------------------------------------------------------

class NotSupermartingale(GmechError):
    """Raised when a decomposition input fails the one-step supermartingale test."""


class BoundViolated(GmechError):
    """Raised when an extracted driver escapes the mu * (|y| + |z|) envelope."""


class DominationViolated(GmechError):
    """Raised when a probe shows a mechanism is not dominated at its declared mu."""


# -- market data -------------------------------------------------------------

class ChainDataError(GmechError):
    """Base class for option-chain input problems (maps to a distinct exit code)."""


class ParseError(ChainDataError):
    """Raised on an unreadable chain file; message carries the line number."""


class SchemaError(ChainDataError):
    """Raised when a chain file lacks the required columns."""


class InvariantError(ChainDataError):
    """Raised when parsed chain data violates a structural invariant."""


class EmptyChain(ChainDataError):
    """Raised when an audit is asked to run on a chain with no rows."""
