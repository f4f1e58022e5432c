"""Exception hierarchy shared by all modules.

Two bases: `SpecError` marks invalid inputs or violated preconditions,
`NumericsError` marks runtime numerical failures such as unmet tolerances.

The CLI's exit code follows the base, not where an error is raised: a
`SpecError` exits 2, whether the config parser or a library function called
by the running command raises it, and every other error exits 3. So each
input rule is checked once, by the function that needs it.
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
    """An input asking for more memory than allowed, refused before the
    arrays are allocated: a window beyond the dense (MAX_DENSE_DIM) or block
    storage (MAX_WINDOW_DIM) row limit; a light-cone state block (window
    rows times packets, such as corollary-probe's sources) or a stack or
    scan of Bloch fibers of more
    than MAX_DENSE_DIM^2 entries; a localization time grid of more than
    MAX_WINDOW_DIM samples times window rows; or a dt-criterion energy grid
    of spacing 1/T over DT_MAX_POINTS points."""


# --- Floquet / quadrature --------------------------------------------------

class GridTooCoarse(SpecError):
    """The quasi-momentum grid size is not an integer or is below the minimum
    size. A fiber-grid quadrature that misses its tolerance raises
    QuadratureNotConverged instead."""


# --- time evolution --------------------------------------------------------

class SupportOutsideWindow(SpecError):
    """Wave packet support is not contained in the truncation window."""


# --- XY chain ---------------------------------------------------------------

class InvalidSpec(SpecError):
    """XY chain parameters violate the free-fermion validity constraints."""


class ChainTooLong(SpecError):
    """Spin chain length exceeds the dense exact-diagonalization limit."""


# --- transfer matrices / limit-periodic ------------------------------------

class WindowTooShort(SpecError):
    """A transfer product asked for fewer than one step."""


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
