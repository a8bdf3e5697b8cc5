import numpy as np
import pytest

from qorbits.hamiltonian import eigenbases
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
    at the basis coordinates the family's embedding gives them."""
    E, e0 = (np.array(a) for a in f.embedding)
    omega, phi, c3, c_plus = (xs @ E[:4].T + e0[:4]).T
    den = 2 * c3 - c_plus + np.array([[1.0], [-1.0]]) * omega
    ok = (np.min(np.abs(den), axis=0) >= margin) & (np.abs(np.cos(phi)) >= 0.05)
    return xs[ok]


def state_jet(f, xs, order):
    """f.frame_jet(xs, order) contracted with the frame e = eigenbases(phi)
    over the whole batch: the states at the rows of xs and their chart
    partials up to order, shapes (N,) + (dim,) * k + (4,)."""
    w = f.frame_jet(xs, order)
    e = eigenbases(xs @ np.array(f.embedding[0][1]) + f.embedding[1][1])
    out = [np.matmul(w[0][:, None, :], e)[:, 0]]
    if order >= 1:
        out.append(w[1] @ e)
    if order >= 2:
        out.append(w[2] @ e[:, None])
    return tuple(out)
