"""Lorentz transforms, skew forms, and the orbit geometry.

The noncommutativity datum is an invertible skew d x d matrix sigma
(an operator from covectors to vectors).  Invertible is meant relative to
the form's own scale (SkewForm.assert_invertible), so a form and its nonzero
multiples pass or fail together, at any dimension.  The Lorentz group of a
fixed metric signature acts on such forms by T sigma T^t; the orbit of the
standard block form is the parameter manifold of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LORENTZ_TOL = 1e-12
MIN_SINGULAR_RATIO = 1e-12  # smallest / largest singular value of an invertible form
STABILIZER_TOL = 1e-9  # max-entry tolerance of in_stabilizer
PROJECTION_SWEEPS = 3  # Newton sweeps of to_group
MAX_WORD = 8  # default longest word of random_lorentz and sample_orbit
MAX_ORBIT_DRAWS = 10_000  # largest n of sample_orbit, which holds every draw in memory


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C")  # a copy: freezing must not reach the caller
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Spacetime:
    """An even-dimensional real vector space with a +/-1 metric signature."""

    dim: int = 4
    metric: tuple = (1, -1, -1, -1)

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"dim must be even and >= 2, got {self.dim}")
        if len(self.metric) != self.dim:
            raise ValueError("metric length must equal dim")
        if any(m not in (1, -1) for m in self.metric):
            raise ValueError("metric entries must be +1 or -1")

    @property
    def eta(self) -> np.ndarray:
        return np.diag(np.asarray(self.metric, dtype=float))


@dataclass(frozen=True)
class LorentzTransform:
    """A d x d real matrix T with T^t eta T = eta (within 1e-12)."""

    matrix: np.ndarray
    spacetime: Spacetime

    def __post_init__(self):
        m = _frozen(self.matrix)
        object.__setattr__(self, "matrix", m)
        d = self.spacetime.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}")
        eta = self.spacetime.eta
        defect = np.max(np.abs(m.T @ eta @ m - eta))
        if not defect <= LORENTZ_TOL:  # also true for NaN
            raise ValueError(f"not a Lorentz transform: defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.spacetime.dim

    def inverse(self) -> "LorentzTransform":
        # eta T^t eta is the inverse for a Lorentz transform
        eta = self.spacetime.eta
        return LorentzTransform(eta @ self.matrix.T @ eta, self.spacetime)

    def compose(self, other: "LorentzTransform") -> "LorentzTransform":
        return LorentzTransform(self.matrix @ other.matrix, self.spacetime)

    def to_json(self) -> list:
        return self.matrix.tolist()


@dataclass(frozen=True)
class SkewForm:
    """A real skew-symmetric d x d matrix with finite entries; the deformation datum.

    Skewness is enforced exactly as stored.  Invertibility is only required
    where the form is used as a deformation datum (see ``assert_invertible``);
    the degenerate form sigma = 0 is allowed for commutative-limit checks.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("skew form must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("skew form entries must be finite")
        if not np.array_equal(m.T, -m):
            raise ValueError("matrix is not exactly skew-symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def assert_invertible(self) -> None:
        """Raise unless the form is invertible relative to its own scale: its
        singular values span at most 1 / MIN_SINGULAR_RATIO, at any dimension."""
        s = np.linalg.svd(self.matrix, compute_uv=False)  # in decreasing order
        if not s[-1] > MIN_SINGULAR_RATIO * s[0]:  # also true for the zero form
            raise ValueError("skew form is not invertible")

    def to_json(self) -> list:
        return self.matrix.tolist()


def skewize(m: np.ndarray) -> SkewForm:
    """Build a SkewForm from a nearly-skew matrix, symmetrizing the roundoff."""
    m = np.asarray(m, dtype=float)
    return SkewForm((m - m.T) / 2.0)


def standard_skew(st: Spacetime) -> SkewForm:
    """The block-diagonal unit skew form: d/2 blocks [[0, 1], [-1, 0]].

    This repo's pinned convention for the orbit base point; any valid
    invertible skew form may be substituted via configuration.
    """
    d = st.dim
    m = np.zeros((d, d))
    for k in range(0, d, 2):
        m[k, k + 1] = 1.0
        m[k + 1, k] = -1.0
    return SkewForm(m)


def act_on_form(t: LorentzTransform, sigma: SkewForm) -> SkewForm:
    """The orbit map sigma -> T sigma T^t."""
    if t.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return skewize(t.matrix @ sigma.matrix @ t.matrix.T)


def _time_axis(st: Spacetime) -> int:
    for i, m in enumerate(st.metric):
        if m == 1:
            return i
    raise ValueError("metric has no +1 axis for a boost")


def _boost_matrix(st: Spacetime, axis: int, rapidity: float) -> np.ndarray:
    d = st.dim
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dim {d}")
    t = _time_axis(st)
    if st.metric[axis] != -1:
        raise ValueError("boost axis must carry metric -1")
    m = np.eye(d)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    m[t, t] = c
    m[axis, axis] = c
    m[t, axis] = s
    m[axis, t] = s
    return m


def _rotation_matrix(st: Spacetime, plane: tuple, angle: float) -> np.ndarray:
    i, j = plane
    d = st.dim
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError(f"invalid plane {plane} for dim {d}")
    if st.metric[i] != st.metric[j]:
        raise ValueError("rotation plane must have equal metric signs")
    m = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -s
    m[j, i] = s
    return m


def _reflection_matrix(st: Spacetime, sign: int) -> np.ndarray:
    """diag(-1 on the axes whose metric entry is sign, +1 elsewhere)."""
    return np.diag([-1.0 if m == sign else 1.0 for m in st.metric])


def make_boost(st: Spacetime, axis: int, rapidity: float) -> LorentzTransform:
    """Boost mixing the first +1 metric axis with the given -1 axis."""
    return LorentzTransform(_boost_matrix(st, axis, rapidity), st)


def make_rotation(st: Spacetime, plane: tuple, angle: float) -> LorentzTransform:
    """Rotation in a coordinate plane whose two axes share a metric sign."""
    return LorentzTransform(_rotation_matrix(st, plane, angle), st)


def parity(st: Spacetime) -> LorentzTransform:
    """Reflection of all metric -1 axes."""
    return LorentzTransform(_reflection_matrix(st, -1), st)


def time_reversal(st: Spacetime) -> LorentzTransform:
    """Reflection of all metric +1 axes."""
    return LorentzTransform(_reflection_matrix(st, 1), st)


def draw_word(st: Spacetime, rng: np.random.Generator, max_word: int) -> np.ndarray:
    """The matrix of a random word of length <= max_word in boosts, rotations
    and reflections: the letters multiplied as raw matrices, unprojected and
    unvalidated (to_group finishes the words)."""
    d = st.dim
    # a boost mixes a -1 axis with a +1 axis, so a metric of one sign has none
    boost_axes = [i for i, m in enumerate(st.metric) if m == -1] if 1 in st.metric else []
    planes = [
        (i, j)
        for i in range(d)
        for j in range(i + 1, d)
        if st.metric[i] == st.metric[j]
    ]
    length = int(rng.integers(1, max_word + 1))
    m = np.eye(d)
    for _ in range(length):
        kind = rng.random()
        if kind < 0.4 and boost_axes:
            g = _boost_matrix(st, int(rng.choice(boost_axes)), float(rng.uniform(-1, 1)))
        elif kind < 0.9 and planes:
            plane = planes[int(rng.integers(len(planes)))]
            g = _rotation_matrix(st, plane, float(rng.uniform(0, 2 * np.pi)))
        else:
            g = _reflection_matrix(st, -1 if rng.random() < 0.5 else 1)
        m = g @ m
    return m


def to_group(st: Spacetime, words) -> list:
    """The words as LorentzTransforms: PROJECTION_SWEEPS Newton sweeps toward
    T^t eta T = eta on the stacked words, removing accumulated roundoff, then
    one validation each."""
    x = np.array(words, dtype=float).reshape(-1, st.dim, st.dim)
    eta = st.eta  # a signature matrix is its own inverse
    for _ in range(PROJECTION_SWEEPS):
        x = 0.5 * (x + eta @ np.linalg.inv(x).transpose(0, 2, 1) @ eta)
    return [LorentzTransform(m, st) for m in x]


def random_lorentz(
    st: Spacetime, rng: np.random.Generator, max_word: int = MAX_WORD
) -> LorentzTransform:
    """A random word of length <= max_word in boosts, rotations and reflections."""
    return to_group(st, [draw_word(st, rng, max_word)])[0]


def sample_orbit(st: Spacetime, n: int, seed: int, sigma0: SkewForm) -> list:
    """n seeded pairs (T, T sigma0 T^t); deterministic for a fixed seed."""
    if not 1 <= n <= MAX_ORBIT_DRAWS:
        raise ValueError(f"n must be in [1, {MAX_ORBIT_DRAWS}], got {n}")
    rng = np.random.default_rng(seed)
    transforms = to_group(st, [draw_word(st, rng, MAX_WORD) for _ in range(n)])
    return [(t, act_on_form(t, sigma0)) for t in transforms]


def q_form(sigma: SkewForm, alpha: np.ndarray, beta: np.ndarray) -> float:
    """Q_{alpha beta} = beta(sigma(alpha)), i.e. beta . (sigma @ alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (sigma.dim,) or beta.shape != (sigma.dim,):
        raise ValueError("covector dimension mismatch")
    return float(beta @ (sigma.matrix @ alpha))


def orbit_invariants(sigma: SkewForm, st: Spacetime) -> np.ndarray:
    """Necessary-condition invariants: tr((eta sigma)^2k), k=1..d/2, and Pf(sigma)^2.

    Each trace is invariant under sigma -> T sigma T^t for metric-preserving T
    (eta sigma then conjugates), and Pf^2 = det is invariant since det T = +/-1.
    """
    d = sigma.dim
    k = st.eta @ sigma.matrix
    p = k @ k
    vals = []
    acc = np.eye(d)
    for _ in range(d // 2):
        acc = acc @ p
        vals.append(np.trace(acc))
    vals.append(np.linalg.det(sigma.matrix))  # Pfaffian squared
    return np.array(vals)


def in_stabilizer(s: LorentzTransform, sigma: SkewForm) -> bool:
    """True iff S sigma S^t = sigma within the max-entry tolerance."""
    moved = s.matrix @ sigma.matrix @ s.matrix.T
    return bool(np.max(np.abs(moved - sigma.matrix)) <= STABILIZER_TOL)
