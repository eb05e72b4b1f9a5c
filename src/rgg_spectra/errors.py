"""Exception types shared across the toolkit."""


class RegimeError(ValueError):
    """Requested mean degree is incompatible with the node count.

    Raised when the connection radius solving vol_p(r) * n = gamma would
    reach 0.5, the torus half-width, where the metric ball self-overlaps.
    """


class SingularityError(ValueError):
    """Normalization is singular: alpha = 0 with an isolated vertex."""


class CapacityError(RuntimeError):
    """Problem size exceeds the dense-eigensolve cap or the walk's int32 table."""


class EstimationError(RuntimeError):
    """A spectral-dimension fit could not be carried out on the given data."""
