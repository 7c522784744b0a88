import hypothesis
import numpy as np

from cstrans.disk_algebra import DiskAlgebraPoly, certified_sup, default_sample_count

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("ci")


def sample_unit_ball(degree: int, seed: int) -> DiskAlgebraPoly:
    """A random polynomial scaled into the certified unit ball.

    Coefficients are drawn uniformly from the complex square
    [-1,1] x [-1,1] (deterministically in ``seed``) and divided by the
    certified sup-norm of the draw, so the result's certificate is <= 1.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    n = default_sample_count(degree)
    scale = certified_sup(coeffs, n)
    if scale == 0.0:  # zero draw has probability zero but stay defensive
        coeffs[0] = 1.0
        scale = 1.0
    scaled = coeffs / scale
    # Rescaling by a sound certificate keeps the true sup <= 1, so 1.0 is
    # itself a sound certificate; take the smaller of the two.
    cert = min(certified_sup(scaled, n), 1.0)
    return DiskAlgebraPoly(tuple(scaled), cert)
