import math
import warnings

import numpy as np
import pytest

from sphnodal import ensemble, geometry


@pytest.fixture(scope="session")
def mesh_level5():
    return geometry.icosphere(5)


@pytest.fixture(scope="session")
def mesh_level6():
    return geometry.icosphere(6)


@pytest.fixture(scope="session")
def mesh_level7():
    return geometry.icosphere(7)


@pytest.fixture(scope="session")
def basis20():
    return ensemble.HarmonicBasis(20)


@pytest.fixture(scope="session")
def basis20_on_level5(mesh_level5, basis20):
    return ensemble.eval_basis_many(basis20, mesh_level5.vertices)


@pytest.fixture(autouse=True)
def _quiet_mesh_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mesh edges.*")
        yield


def unit_points(rng: np.random.Generator, count: int, dim: int = 3) -> np.ndarray:
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


def sample_function(basis: ensemble.HarmonicBasis, seed) -> ensemble.HarmonicSample:
    """A random eigenfunction with i.i.d. N(0, 1) coefficients from the
    Philox stream of ``seed``, scaled to unit pointwise variance."""
    a = ensemble.rng_for(seed).standard_normal(basis.size)
    return ensemble.HarmonicSample(basis=basis, a=a, scale=math.sqrt(4 * math.pi / basis.size))


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Solid angle of each spherical triangle (van Oosterom-Strackee)."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(num, den)
