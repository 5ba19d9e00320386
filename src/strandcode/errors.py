"""Package exception hierarchy, and the one feasibility verdict on params."""


class StrandcodeError(Exception):
    """Base class for all package-specific failures."""


class InfeasibleParameters(StrandcodeError):
    """Requested parameters fail a derive-time feasibility check."""


def require_feasible(params):
    """Return ``params``, or raise :class:`InfeasibleParameters` naming
    its ``violations``.  A ``derive_*_params`` only records them; every
    encode, decode, locate and message-length entry point raises here.
    """
    if params.violations:
        raise InfeasibleParameters(
            f"infeasible {type(params).__name__}: " + "; ".join(params.violations)
        )
    return params


class LayoutError(StrandcodeError):
    """Input does not match the structural layout it claims to have."""


class DecodeFailure(StrandcodeError):
    """No codeword within the allowed error budget explains the input."""


class SearchExhausted(StrandcodeError):
    """A randomized constructive search ran out of attempts."""
