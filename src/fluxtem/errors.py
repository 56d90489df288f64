"""The two error types the CLI reports, one per exit code.

`ConfigError` (exit 2) is a run config the simulator cannot use: a bad
file, key or value.  `PreconditionError` (exit 3) is a valid config that
leads to a state the simulation cannot continue from, such as a ring
the grid cannot hold or a budget that completes no group.
"""


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class PreconditionError(ValueError):
    """A valid config reached a state the simulation cannot continue from."""
