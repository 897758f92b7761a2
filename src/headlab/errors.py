"""Exception types shared across the package.

Everything raised on purpose derives from :class:`HeadLabError`, so callers
(and the CLI) can distinguish our validation failures from genuine bugs.
Each error belongs to one of two families, one per CLI exit code:
:class:`InvalidInput` (exit 1) for a bad invocation or bad inputs, and
:class:`RunFailure` (exit 2) for a computation that fails at runtime.
"""


class HeadLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(HeadLabError):
    """The invocation or its inputs are invalid (CLI exit code 1)."""


class RunFailure(HeadLabError):
    """A computation failed at runtime (CLI exit code 2)."""


class UsageError(InvalidInput):
    """Bad CLI arguments or config contents."""


class GrammarError(InvalidInput):
    """A target list names an object twice."""


class UnknownObject(InvalidInput):
    """An object id is not present in the catalog / target set."""


class EmptyTargets(InvalidInput):
    """A scene mixture was requested for an empty target set."""


class InvalidT(InvalidInput):
    """Noise schedule requested with an unusable step count."""


class DimensionMismatch(InvalidInput):
    """Feature matrix does not match the model's expected width."""


class MissingReport(InvalidInput):
    """A sweep was asked for a t_last with no confusion report."""


class DegenerateVariance(RunFailure):
    """Per-component marginal variance too small to divide by."""


class MissingCapture(RunFailure):
    """A required capture timestep is absent from a generation record."""


class DegenerateLabels(RunFailure):
    """Detector training set contains a single class."""


class NonFiniteLoss(RunFailure):
    """Detector training loss left the realm of finite numbers."""


class NeverAccepts(RunFailure):
    """Abort policy can never accept an attempt; expected cost diverges."""


class TrialBudgetExceeded(RunFailure):
    """A Monte Carlo trial exceeded the restart safety cap."""


class RestartLimitExceeded(RunFailure):
    """A live run burned through its restart budget without completing."""
