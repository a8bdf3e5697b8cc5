import numpy as np
import pytest

from qorbits.families import DEFAULT_FROZEN
from qorbits.model import InitialCoefficients


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


def random_eta(rng, pattern="C7"):
    """Random normalized coefficients with the zero pattern of a case."""
    mask = {
        "C1": (0, 0, 1, 1),
        "C2": (1, 0, 0, 0),
        "C3": (1, 1, 0, 0),
        "C4": (1, 0, 1, 0),
        "C5": (1, 1, 1, 0),
        "C6": (1, 0, 1, 1),
        "C7": (1, 1, 1, 1),
    }[pattern]
    v = (rng.normal(size=4) + 1j * rng.normal(size=4)) * np.array(mask)
    return InitialCoefficients.normalized(*v)


def well_posed(f, xs, margin=0.05):
    """Rows of xs whose perturbation denominators 2c3 +- omega - c_plus are
    at least margin away from zero and whose |cos phi| is at least 0.05,
    with the family's frozen values standing in for coordinates off its
    chart."""
    ref = {**DEFAULT_FROZEN, **f.frozen}
    col = {n: (xs[:, f.chart.index(n)] if n in f.chart else ref[n]) for n in ref}
    den = 2 * col["c3"] - col["c_plus"] + np.array([[1.0], [-1.0]]) * col["omega"]
    ok = (np.min(np.abs(den), axis=0) >= margin) & (np.abs(np.cos(col["phi"])) >= 0.05)
    return xs[np.broadcast_to(ok, len(xs))]
