"""The library's error types: bad input of any kind, and a solver cap."""


class StrokeSenseError(ValueError):
    """Bad input to any strokesense stage; the message names the cause."""


class NoConvergence(StrokeSenseError):
    """Optimizer hit its iteration cap without satisfying KKT conditions."""
