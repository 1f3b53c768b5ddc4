"""Ornstein-Zernike equation with the Percus-Yevick closure on a radial
grid, plus thermodynamic output.

The closure is iterated in the y-form (y = 1 + t is continuous across hard
cores): c = f y, g = e^{-beta V} y, h = g - 1 = c + t, and the OZ relation
t = rho (c * h) closes the loop.  In d = 3 the radial transform is a fast
sine transform (Fourier-Bessel reduces to a sine transform of r phi(r)),
and each step solves OZ for t in Fourier space, t^ = rho c^2 / (1 - rho c^)
(M. J. Gillan, Mol. Phys. 38, 1781, 1979): two sine transforms per step.
In d = 1 each step evaluates the convolution rho (c * h) through a real FFT
of the even extensions to the full line, and the mixing takes the residual
through the periodic inverse 1 / (1 - rho c^) of the OZ operator with c held
fixed, one more real FFT pair on the same period: the 1D analogue of the 3D
step.  Both maps have the fixed points of the discrete OZ equation, which
oz_selfconsistency checks in real space.

In the convolutions and the compressibility quadrature, a grid point that
sits on a jump of e^{-beta V} (a hard-core diameter, a square-well edge)
carries the mean of the two one-sided limits, so the sums see the jump at
its true radius.  The profiles a solve returns keep the potential's own
pointwise values, so g at a hard-core diameter is the contact value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import Potential, SURFACE_AREA


@dataclass(frozen=True)
class RadialGrid:
    """Points r = dr, 2 dr, ..., n_points dr.

    The 3D sine transform (DST-I) of n points runs an FFT of length
    2 (n + 1), so the default n_points = 4095 makes that length 2^13; at
    4096 it would be 8194 = 2 * 17 * 241, about four times slower."""

    dr: float = 0.005
    n_points: int = 4095

    def __post_init__(self):
        if self.dr <= 0 or self.n_points < 16:
            raise ValueError("need dr > 0 and a nontrivial grid")

    @property
    def r(self) -> np.ndarray:
        return self.dr * np.arange(1, self.n_points + 1)

    @property
    def r_max(self) -> float:
        return self.dr * self.n_points


def _fast_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m, a length numpy.fft transforms fast."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            length = odd
            while length < m:
                length *= 2
            best = min(best, length)
            odd *= 3
        odd5 *= 5
    return best


class _Convolver:
    """Radial convolution in d = 1 or 3 dimensions by forward transform,
    pointwise product, inverse transform.

    The transforms run on numpy.fft into buffers allocated once per
    convolver; every array a method returns is a fresh one."""

    def __init__(self, grid: RadialGrid, d: int):
        self.grid = grid
        self.d = d
        n, dr = grid.n_points, grid.dr
        self.r = grid.r
        self.dq = math.pi / ((n + 1) * dr)
        self.q = self.dq * np.arange(1, n + 1)
        if d == 3:
            # the odd extension [0, x_1..x_n, 0, -x_n..-x_1] of the DST-I;
            # its two zeros are never written
            self._odd = np.zeros(2 * (n + 1))
            self._odd_hat = np.empty(n + 2, dtype=complex)
        else:
            self.size = _fast_length(3 * n + 1)
            self._even = np.zeros((2, self.size))
            self._even_hat = np.empty((2, self.size // 2 + 1), dtype=complex)
            self._line = np.empty(self.size)
            # e^{2 pi i k n / size} turns the spectrum of an even extension,
            # which sits on indices 0..2n, into that of the same samples
            # centred on index 0, a real one
            k = np.arange(self.size // 2 + 1)
            self._phase = np.exp(2j * math.pi / self.size * (k * n % self.size))

    def _dst1(self, x: np.ndarray) -> np.ndarray:
        # y_k = 2 sum_j x_j sin(pi k j / (n + 1)), the imaginary part of the
        # rfft of the odd extension with its sign turned
        n = self.grid.n_points
        self._odd[1:n + 1] = x
        np.negative(x[::-1], out=self._odd[n + 2:])
        np.fft.rfft(self._odd, out=self._odd_hat)
        return -self._odd_hat.imag[1:n + 1]

    def forward(self, phi: np.ndarray) -> np.ndarray:
        # hat(phi)(q) = (4 pi / q) int r phi sin(qr) dr
        dr = self.grid.dr
        return 2.0 * math.pi * dr * self._dst1(self.r * phi) / self.q

    def inverse(self, phi_hat: np.ndarray) -> np.ndarray:
        return (self.dq / (4.0 * math.pi ** 2 * self.r)
                * self._dst1(self.q * phi_hat))

    def _even_extension(self, phi: np.ndarray, row: int) -> None:
        """Samples on m = -n..n times dr into the zero-padded row; the
        missing r = 0 value is filled by linear extrapolation."""
        n = self.grid.n_points
        full = self._even[row]
        full[n + 1:2 * n + 1] = phi
        full[:n] = phi[::-1]
        full[n] = 2.0 * phi[0] - phi[1]

    def convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.d == 3:
            return self.inverse(self.forward(a) * self.forward(b))
        # d = 1: convolution of the even extensions (m = -n..n) on the full
        # line.  The outputs m = 1..n sit at indices 2n+1..3n of the linear
        # convolution; a period of 3n+1 or more keeps wrap-around off them.
        n = self.grid.n_points
        spec = self._even_hat
        self._even_extension(a, 0)
        self._even_extension(b, 1)
        np.fft.rfft(self._even[0], out=spec[0])
        np.fft.rfft(self._even[1], out=spec[1])
        # the product goes into the second row, so the first keeps a^
        np.multiply(spec[0], spec[1], out=spec[1])
        np.fft.irfft(spec[1], self.size, out=self._line)
        return self.grid.dr * self._line[2 * n + 1:3 * n + 1]

    def solve_periodic(self, rho: float, x: np.ndarray) -> np.ndarray | None:
        """d = 1: u on r = dr..n dr with u - rho a * u = x, where * is the
        circular convolution of the even extensions on the period (dr times
        the sum, as in convolve) and a is the first argument of the last
        convolve: u^ = x^ / (1 - rho a^).  None unless 1 - rho a^ > 0 at
        every wave number."""
        n = self.grid.n_points
        spec = self._even_hat
        denom = 1.0 - rho * self.grid.dr * (spec[0] * self._phase).real
        if not denom.min() > 0.0:
            return None
        self._even_extension(x, 1)
        np.fft.rfft(self._even[1], out=spec[1])
        np.divide(spec[1], denom, out=spec[1])
        np.fft.irfft(spec[1], self.size, out=self._line)
        return self._line[n + 1:2 * n + 1].copy()


@dataclass
class RadialFunctions:
    grid: RadialGrid
    rho: float
    beta: float
    h: np.ndarray = field(repr=False, default=None)
    c: np.ndarray = field(repr=False, default=None)
    t: np.ndarray = field(repr=False, default=None)
    g: np.ndarray = field(repr=False, default=None)
    y: np.ndarray = field(repr=False, default=None)
    iterations: int = 0
    residual: float = math.inf
    residual_history: list[float] = field(repr=False, default_factory=list)
    negative_g: bool = False


class NonConvergence(RuntimeError):
    """The PY iteration stopped short of tol.  reason is "non-finite",
    "stalled" or "max_iter"; solve_py says when each applies.  Left out,
    it is "non-finite" for a non-finite residual and "max_iter" otherwise."""

    def __init__(self, residual: float, iterations: int,
                 reason: str | None = None):
        if reason is None:
            reason = "max_iter" if math.isfinite(residual) else "non-finite"
        super().__init__(f"PY iteration stopped ({reason}) at residual "
                         f"{residual:g} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations
        self.reason = reason


# Anderson mixing keeps this many past residual differences.
ANDERSON_DEPTH = 6
# A solve is given up as stalled when STALL_WINDOW iterations pass without
# a residual below STALL_RATIO times the best so far.  Converging hard-core
# runs go at most 11 iterations between such improvements: hard spheres up
# to rho = 0.95 at most 7, hard rods up to rho = 0.85 at most 11, at 0.85
# (densities in steps of 0.05, default grid).  Without the ratio, a run
# that drifts without converging keeps setting marginal new bests, and
# where it stops depends on rounding: with the real-space convolution as
# the 3D map, hard spheres at rho = 0.8 stopped anywhere from 189 to 1182
# iterations under algebraically equal forms of the update.
STALL_WINDOW = 50
STALL_RATIO = 0.9


# The convolver of the last grid and dimension, and the Anderson ring
# buffers of the last grid size.  Solves on one grid reuse them instead of
# allocating about 0.5 MB afresh, which the C allocator can hand back to
# the system after each solve and fault in again at the next.  Solves in
# concurrent threads would share them, so the solves of one process must
# run one at a time.
_convolver = functools.lru_cache(maxsize=1)(_Convolver)


@functools.lru_cache(maxsize=1)
def _anderson_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two (ANDERSON_DEPTH, n) ring buffers of ``solve_py``."""
    return np.empty((ANDERSON_DEPTH, n)), np.empty((ANDERSON_DEPTH, n))


def check_solve_inputs(rho: float, alpha: float, tol: float,
                       max_iter: int) -> None:
    """The ValueError solve_py raises for inputs it cannot solve."""
    if not (math.isfinite(rho) and rho >= 0.0):
        raise ValueError(f"need a finite rho >= 0, got {rho!r}")
    for name, value in (("tol", tol), ("alpha", alpha)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"need a finite {name} > 0, got {value!r}")
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter!r}")


def solve_py(p: Potential, rho: float, grid: RadialGrid | None = None,
             alpha: float = 0.5, tol: float = 1e-10,
             max_iter: int = 20_000) -> RadialFunctions:
    """Percus-Yevick fixed point t = G(t), y = 1 + t, solved by Anderson
    mixing (D. G. Anderson, J. ACM 12, 547, 1965) from t = 0.

    With c = f y and h = e^{-beta V} y - 1 = c + t, the map G is
    - in d = 3, OZ solved for t in Fourier space:
      G(t)^ = rho c^^2 / (1 - rho c^), two sine transforms;
    - in d = 1, the OZ convolution G(t) = rho c * h.
    The two maps share their fixed points, the solutions of the discrete
    OZ equation h - c = rho c * h; oz_selfconsistency measures that in
    real space in both dimensions.  d is the potential's dimension; any
    other than 1 or 3 is a ValueError.

    Each iteration evaluates G once.  The mixing works on a residual R: in
    d = 3, R = G(t) - t; in d = 1, R = (1 - rho c^)^{-1} (G(t) - t) on the
    period of the convolution, the step that would solve OZ for t with c
    held fixed (two more real FFTs).  An iteration where 1 - rho c^ is not
    positive at every wave number takes R = G(t) - t.  The next t is the
    least-squares combination of the last ANDERSON_DEPTH + 1 iterates that
    minimizes the linearized R, followed by a step of alpha along that
    combined R; with no history yet it is the Picard step t + alpha R.
    The differences of successive residuals and of successive steps live in
    two (ANDERSON_DEPTH, n) ring buffers, and the least squares is solved
    from the ANDERSON_DEPTH x ANDERSON_DEPTH Gram matrix of the residual
    differences, which each iteration updates by one row and column
    (H. F. Walker and P. Ni, SIAM J. Numer. Anal. 49, 1715, 2011).
    The residual is max |G(t) - t| of the dimension's map G, in d = 1 the
    raw OZ residual max |rho c * h - t|, whatever R the mixing used; the
    solve returns once it is below tol, with the profiles built from G(t).
    It raises ValueError for rho < 0 or not finite, for tol or alpha not
    finite and > 0, and for max_iter < 1, and NonConvergence, with the
    reason, as soon as it can no longer succeed:

    - "non-finite": the residual is inf or nan, or the least-squares system
      is not finite (its squares overflow from residuals near 1e154 on);
    - "stalled": STALL_WINDOW iterations passed without a residual below
      STALL_RATIO times the best one so far;
    - "max_iter": max_iter iterations ran without reaching tol.
    """
    check_solve_inputs(rho, alpha, tol, max_iter)
    d = p.dimension
    if d not in (1, 3):
        raise ValueError(f"the PY solver needs d = 1 or 3, got d = {d}")
    if grid is None:
        grid = RadialGrid()
    if grid.r_max < 10.0 * p.sigma:
        raise ValueError("grid must extend to at least 10 sigma")
    boltz = _boltzmann_weights(p, grid)
    f = boltz - 1.0
    conv = _convolver(grid, d)

    n = grid.n_points
    t = np.zeros(n)
    d_res, d_step = _anderson_buffers(n)
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    stored = 0
    last = None
    history = []
    best, best_it = math.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            y = 1.0 + t
            if d == 3:
                # x = rho c^, and t^ = x^2 / (rho (1 - x)), which is 0
                # where x is, at rho = 0 too
                x = rho * conv.forward(f * y)
                image = conv.inverse(np.divide(x * x, rho * (1.0 - x),
                                               out=np.zeros_like(x),
                                               where=x != 0.0))
            else:
                image = rho * conv.convolve(f * y, boltz * y - 1.0)
            res = image - t
            residual = float(np.max(np.abs(res)))
            history.append(residual)
            if not math.isfinite(residual):
                raise NonConvergence(residual, it, "non-finite")
            if residual < tol:
                t = image
                break
            if residual < STALL_RATIO * best:
                best, best_it = residual, it
            elif it - best_it >= STALL_WINDOW:
                raise NonConvergence(residual, it, "stalled")
            if d == 1:
                # mix the step that solves OZ for t with c held fixed
                step = conv.solve_periodic(rho, res)
                if step is not None:
                    res = step
                    image = t + step
            if last is None:
                last = (image, res)
                t = t + alpha * res
                continue
            # the oldest slot gives way; the step in t is the difference
            # of the images less that of the residuals
            slot = stored % ANDERSON_DEPTH
            np.subtract(res, last[1], out=d_res[slot])
            np.subtract(image - last[0], d_res[slot], out=d_step[slot])
            stored += 1
            k = min(stored, ANDERSON_DEPTH)
            row = d_res[:k] @ d_res[slot]
            gram[slot, :k] = row
            gram[:k, slot] = row
            rhs = d_res[:k] @ res
            if not (np.isfinite(row).all() and np.isfinite(rhs).all()):
                raise NonConvergence(residual, it, "non-finite")
            # min |res - gamma @ d_res| through its normal equations;
            # lstsq's rank cutoff drops directions the history repeats
            gamma = np.linalg.lstsq(gram[:k, :k], rhs, rcond=None)[0]
            last = (image, res)
            t = t - gamma @ d_step[:k] + alpha * (res - gamma @ d_res[:k])
        else:
            raise NonConvergence(residual, max_iter, "max_iter")

    y = 1.0 + t
    f = np.asarray(p.mayer_f(grid.r), dtype=float)
    sol = RadialFunctions(grid=grid, rho=rho, beta=p.beta)
    sol.t = t
    sol.y = y
    sol.c = f * y
    sol.g = (1.0 + f) * y
    sol.h = sol.g - 1.0
    sol.iterations = it
    sol.residual = residual
    sol.residual_history = history
    sol.negative_g = bool(np.any(sol.g < -1e-12))
    return sol


def oz_selfconsistency(p: Potential, sol: RadialFunctions) -> float:
    """max |h - c - rho (c*h)| on the grid, with c and h weighed as the
    solver's convolutions weigh them."""
    boltz = _boltzmann_weights(p, sol.grid)
    c = (boltz - 1.0) * sol.y
    h = boltz * sol.y - 1.0
    conv = _convolver(sol.grid, p.dimension)
    return float(np.max(np.abs(h - c - sol.rho * conv.convolve(c, h))))


def _boltzmann_weights(p: Potential, grid: RadialGrid) -> np.ndarray:
    """e^{-beta V} on the grid as the convolutions and quadratures weigh it:
    a grid point on a jump gets the mean of the two one-sided limits."""
    r = grid.r
    boltz = 1.0 + np.asarray(p.mayer_f(r), dtype=float)
    for radius, jump in p.f_jumps():
        k = round(radius / grid.dr) - 1
        if 0 <= k < grid.n_points and abs(r[k] - radius) < 1e-9 * grid.dr:
            # the outer limit, read half a cell out, less half the jump
            outer = 1.0 + float(p.mayer_f(radius + 0.5 * grid.dr))
            boltz[k] = outer - 0.5 * jump
    return boltz


def thermodynamics(p: Potential, sol: RadialFunctions) -> dict:
    """Virial pressure, compressibility-route dP/drho and the effective
    second virial coefficient (slope of beta P / rho - 1)."""
    grid = sol.grid
    r = grid.r
    d = p.dimension
    sd = SURFACE_AREA[d]
    rho = sol.rho

    # virial route: beta P = rho + rho^2/(2d) S_d int y(r) r^d d(e^{-bV}),
    # a Stieltjes integral: each jump of e^{-bV} at its radius, and a
    # continuous e^{-bV} by its steps between grid points, with y r^d at
    # the interval midpoints
    jump_term = 0.0
    for radius, jump in p.f_jumps():
        # y is continuous across the jump, so read it at the jump itself
        yj = float(np.interp(radius, r, sol.y))
        jump_term += sd * radius ** d * jump * yj
    smooth_term = 0.0
    if not p.piecewise_constant_f:
        y_mid = 0.5 * (sol.y[1:] + sol.y[:-1])
        r_mid = 0.5 * (r[1:] + r[:-1])
        steps = np.diff(np.asarray(p.boltzmann(r), dtype=float))
        smooth_term = sd * float(np.sum(y_mid * r_mid ** d * steps))
    pressure = rho + rho ** 2 / (2.0 * d) * (jump_term + smooth_term)

    # compressibility route: the quadrature starts at r = 0, where the
    # integrand is c(0), extrapolated linearly, in d = 1 and 0 in d = 3
    integrand = (_boltzmann_weights(p, grid) - 1.0) * sol.y * r ** (d - 1)
    at_zero = 2.0 * integrand[0] - integrand[1] if d == 1 else 0.0
    c_hat0 = sd * (float(np.trapezoid(integrand, r))
                   + 0.5 * grid.dr * (at_zero + integrand[0]))
    compressibility = 1.0 - rho * c_hat0

    b2_eff = (pressure / rho - 1.0) / rho if rho > 0 else 0.0
    return {
        "pressure_virial": pressure,
        "compressibility_factor": compressibility,
        "B2_effective": b2_eff,
    }


def b2_effective(p: Potential, grid: RadialGrid | None = None,
                 rho: float = 1e-4) -> float:
    """Second virial coefficient from the rho -> 0 slope of the virial
    pressure."""
    sol = solve_py(p, rho, grid=grid)
    return thermodynamics(p, sol)["B2_effective"]


def closure_remainder(p: Potential, sol: RadialFunctions, r_points,
                      c2_orders) -> np.ndarray:
    """m(r) = c_series(r) - f(r)(1 + t(r)): the part of the direct
    correlation the PY closure drops.

    c2_orders[k][i] is the order-k density coefficient of c^(2) at
    r_points[i] (from the correlations module); the truncated series stands
    in for the exact c.  PY reproduces c through first order in density, so
    m = O(rho^2); that scaling is the testable property.
    """
    r_points = np.asarray(r_points, dtype=float)
    f = np.asarray(p.mayer_f(r_points), dtype=float)
    c_series = np.zeros_like(r_points)
    for k, ck in enumerate(c2_orders):
        c_series += sol.rho ** k * np.asarray(ck, dtype=float)
    t_at = np.interp(r_points, sol.grid.r, sol.t)
    return c_series - f * (1.0 + t_at)
