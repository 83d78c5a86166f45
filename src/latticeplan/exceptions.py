"""Error types shared across the package."""


class ContractError(RuntimeError):
    """A verification contract was violated (wrong qubits survived, frame
    mismatch, non-unitary channel, ...)."""


class CapacityError(ValueError):
    """A request exceeds a size cap: qubits, table width, trace events,
    tensor values, floorplan tiles or the stated footprint bounds."""


class ConfigError(ValueError):
    """A config file or CLI input could not be parsed."""
