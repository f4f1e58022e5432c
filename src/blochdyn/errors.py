"""Exception hierarchy shared by all modules.

Two bases: `SpecError` marks invalid inputs or violated preconditions,
`NumericsError` marks runtime numerical failures such as unmet tolerances.

The CLI's exit code follows where an error is raised, not its base. Any
error while the config is read and parsed exits 2. Once a command runs,
only `SizeLimitExceeded` exits 2; every other error exits 3, a `SpecError`
raised at run time included (e.g. `GridTooCoarse` from `apply_q`'s
quadrature error estimate).
"""


class SpecError(ValueError):
    """Invalid specification, configuration, or violated precondition."""


class NumericsError(RuntimeError):
    """A computation ran but failed a numerical requirement."""


# --- operator construction -------------------------------------------------

class SingularOffDiagonal(SpecError):
    """Some off-diagonal block has |det| below the invertibility tolerance."""


class NonHermitianDiagonal(SpecError):
    """Some diagonal block is not Hermitian within tolerance."""


class DimensionMismatch(SpecError):
    """Array shapes are inconsistent with the declared block dimensions."""


class SizeLimitExceeded(SpecError):
    """A window beyond the dense (MAX_DENSE_DIM) or block storage
    (MAX_WINDOW_DIM) row limit, whether sized from the evolution times or
    given as localization's half_width; a time grid whose samples times
    window rows exceed MAX_WINDOW_DIM; a stack of Bloch fibers or a
    corollary-probe source block of more than MAX_DENSE_DIM^2 entries; or a
    dt-criterion energy grid of spacing 1/T that needs more than
    DT_MAX_POINTS points."""


# --- Floquet / quadrature --------------------------------------------------

class GridTooCoarse(SpecError):
    """The quasi-momentum grid size is not an integer or is below the minimum
    size, or the quadrature error estimate exceeds the requested tolerance."""


# --- time evolution --------------------------------------------------------

class SupportOutsideWindow(SpecError):
    """Wave packet support is not contained in the truncation window."""


class WindowTooSmall(SpecError):
    """Truncation window does not reach the light-cone radius certifying an
    evolution over time t, chebyshev_order(norm_bound * |t|), past the packet support."""


# --- XY chain ---------------------------------------------------------------

class InvalidSpec(SpecError):
    """XY chain parameters violate the free-fermion validity constraints."""


class ChainTooLong(SpecError):
    """Spin chain length exceeds the dense exact-diagonalization limit."""


# --- transfer matrices / limit-periodic ------------------------------------

class WindowTooShort(SpecError):
    """Potential window does not cover the requested number of steps."""


class QuadratureNotConverged(NumericsError):
    """A Simpson refinement or fiber-grid quadrature failed to reach the
    requested accuracy."""


class PsiEnvelopeViolated(SpecError):
    """Initial state exceeds the declared exponential envelope."""


class NoCertificateFound(NumericsError):
    """Search budget exhausted without a valid (time, radius) certificate."""


# --- CLI ---------------------------------------------------------------------

class ConfigInvalid(SpecError):
    """Experiment configuration failed schema validation."""
