"""Exception types raised by the library."""


class BdgaError(Exception):
    """Base class for all library errors."""


class ForeignElementError(BdgaError):
    """An element was used with a group or action it does not belong to."""


class EnumerationCapError(BdgaError):
    """A full element enumeration was requested for a group above the cap."""


class PlatformValidationError(BdgaError):
    """Platform parameters failed validation (bad prime, wrong element order,
    non-closed subgroup, inconsistent endomorphism images, ...)."""


class ProtocolStateError(BdgaError):
    """A round value was computed before its inputs arrived, or a write-once
    field was written twice."""


class RegimeError(BdgaError):
    """A party count outside the supported regime (n < 3, or a sampler that
    requires n = 3s + 5)."""


class DegenerateExclusionError(BdgaError):
    """The coset-excluded sampling set is empty or too small: the base-point
    stabilizer covers too much of the acting group."""


class OracleContractError(BdgaError):
    """Base class for adversary-facing oracle misuse."""


class InstanceReusedError(OracleContractError):
    """Execute was called on an instance that is already marked used."""


class TooFewInstancesError(OracleContractError, RegimeError):
    """Execute was called on fewer than the three instances a session needs."""


class MalformedInstanceError(OracleContractError):
    """Execute was called with an instance that is not a (user, index) pair."""


class TestUnavailableError(OracleContractError):
    """The single allowed Test query was already consumed."""

    __test__ = False  # keep pytest from collecting this as a test class


class InstanceNotAcceptedError(OracleContractError):
    """Test was called on an instance that has not accepted a key."""
