"""Package exception hierarchy, the one feasibility verdict on params, and
the integer check of the JSON readers."""


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


def json_int(obj: dict, name: str, what: str) -> int:
    """Field ``name`` of ``obj``, parsed from a ``what``; a ValueError
    unless ``obj`` is a JSON object and the field a JSON integer."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    value = obj[name]
    if type(value) is not int:
        raise ValueError(f"{what} field {name!r} is {value!r}, not an integer")
    return value


class LayoutError(StrandcodeError):
    """Input does not match the structural layout it claims to have."""


class DecodeFailure(StrandcodeError):
    """No codeword within the allowed error budget explains the input."""


class SearchExhausted(StrandcodeError):
    """A randomized constructive search ran out of attempts."""
