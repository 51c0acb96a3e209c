"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Requested system size exceeds the configured qubit cap."""


class PauliParseError(ValueError):
    """Malformed Pauli-sum or ansatz-generator file."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class IntegrationError(RuntimeError):
    """The master-equation integrator is unstable or lost accuracy: a step
    outside RK4's stability interval, refused before a run; a noise
    block that changes the trace, refused when it is built; or a row whose
    trace has drifted from 1 at the end of its run."""
