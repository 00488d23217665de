"""Independent reference for every quantity the benchmark checks.

Written from the definitions alone and sharing no code with exafsga, so an
output check compares the program against a second implementation rather
than against itself:

* the EXAFS equation, with the theory arrays linearly interpolated at the
  energy-shifted wavenumber k' = sqrt(k^2 - c*dE0);
* chi^2 = (n_indep/N) * sum((model - data)^2 / eps^2), in K space over the
  k-weighted fit range and in K+R space as that plus the chi^2 of |chi(r)|;
* the windowed k->r transform as its direct sum (no FFT);
* the area-fraction rule of path pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 2m/hbar^2 in eV^-1 Angstrom^-2.
EV_TO_KSQ = 0.2624682917


@dataclass(frozen=True)
class Path:
    """Theory arrays of one scattering path, as written to its FEFF file."""

    label: str
    degeneracy: float
    r_eff: float
    k: np.ndarray
    f_eff: np.ndarray
    phase_scatter: np.ndarray
    phase_central: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class Transform:
    """Parameters of the windowed k->r transform."""

    k_range: tuple[float, float]
    r_range: tuple[float, float]
    k_weight: int
    sill: float
    n_fft: int


def interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolant of (xp, fp) at x; 0 outside [xp[0], xp[-1]]."""
    x = np.asarray(x, dtype=float)
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    t = (x - xp[j]) / (xp[j + 1] - xp[j])
    out = fp[j] + t * (fp[j + 1] - fp[j])
    return np.where((x < xp[0]) | (x > xp[-1]), 0.0, out)


def shell_chi(
    path: Path, s02: float, sigma2: float, delta_r: float, delta_e0: float, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One path's term of the EXAFS equation on k, and where k' is real."""
    kp2 = k**2 - EV_TO_KSQ * delta_e0
    valid = kp2 > 0
    kp = np.sqrt(kp2[valid])
    if kp.size and (kp[0] < path.k[0] or kp[-1] > path.k[-1]):
        raise ValueError(f"{path.label}: shifted k leaves the theory range")
    r = path.r_eff + delta_r
    out = np.zeros_like(k)
    out[valid] = (
        s02 * path.degeneracy * interp(kp, path.k, path.f_eff) / (kp * r * r)
        * np.exp(-2.0 * sigma2 * kp * kp)
        * np.exp(-2.0 * r / interp(kp, path.k, path.lam))
        * np.sin(
            2.0 * kp * r
            + interp(kp, path.k, path.phase_scatter)
            + interp(kp, path.k, path.phase_central)
        )
    )
    return out, valid


def shells(paths, genes, k: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-path terms for genes [dE0, (S0^2, sigma^2, dR) per path]."""
    genes = np.asarray(genes, dtype=float)
    if genes.size != 1 + 3 * len(paths):
        raise ValueError(f"{genes.size} genes for {len(paths)} paths")
    terms, valid = [], None
    for i, p in enumerate(paths):
        chi, valid = shell_chi(p, *genes[1 + 3 * i : 4 + 3 * i], genes[0], k)
        terms.append(chi)
    return terms, valid


def model_chi(paths, genes, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The EXAFS equation: the sum of every path's term, and the valid mask."""
    terms, valid = shells(paths, genes, k)
    return np.sum(terms, axis=0), valid


def window(k: np.ndarray, tf: Transform) -> np.ndarray:
    """Hanning sill window: 1 on the plateau, sin^2 tapers, 0 outside k_range."""
    lo, hi = tf.k_range
    w = np.where((k >= lo) & (k <= hi), 1.0, 0.0)
    rise = (k >= lo) & (k < lo + tf.sill)
    fall = (k > hi - tf.sill) & (k <= hi)
    w[rise] = np.sin(0.5 * np.pi * (k[rise] - lo) / tf.sill) ** 2
    w[fall] = np.sin(0.5 * np.pi * (hi - k[fall]) / tf.sill) ** 2
    return w


def transform(k: np.ndarray, chi: np.ndarray, tf: Transform) -> tuple[np.ndarray, np.ndarray]:
    """chi(r_m) = (i dk / sqrt(pi N)) sum_n f_n exp(2i pi n m / N), summed directly.

    f_n is chi interpolated at n*dk (0 off the data grid), times the window
    and (n*dk)^w, and 0 outside k_range; r_m = m pi / (N dk) for
    0 <= m < N/2, cropped to r_range.
    """
    dk = (k[-1] - k[0]) / (len(k) - 1)
    n = np.arange(tf.n_fft)
    kk = dk * n
    f = interp(kk, k, chi) * window(kk, tf) * kk**tf.k_weight
    f[(kk < tf.k_range[0]) | (kk > tf.k_range[1])] = 0.0
    m = np.arange(tf.n_fft // 2)
    r = m * np.pi / (tf.n_fft * dk)
    keep = (r >= tf.r_range[0]) & (r <= tf.r_range[1])
    nz = np.nonzero(f)[0]
    phase = np.exp(2j * np.pi * np.outer(m[keep], n[nz]) / tf.n_fft)
    return r[keep], (1j * dk / np.sqrt(np.pi * tf.n_fft)) * (phase @ f[nz])


def chi2(model: np.ndarray, data: np.ndarray, eps: float = 1.0, n_indep=None) -> float:
    """(n_indep/N) * sum((model - data)^2 / eps^2)."""
    n = model.size
    n_indep = n if n_indep is None else min(n_indep, n)
    return float(n_indep / n * np.sum(((model - data) / eps) ** 2))


def fit_mask(k: np.ndarray, k_range, valid: np.ndarray) -> np.ndarray:
    return (k >= k_range[0]) & (k <= k_range[1]) & valid


def chi2_k(k, chi_model, valid, chi_data, k_range, k_weight: int) -> float:
    """K-space chi^2 of k^w chi over the fit range, where k' is real."""
    m = fit_mask(k, k_range, valid)
    kw = k[m] ** k_weight
    return chi2(kw * chi_model[m], kw * chi_data[m])


def chi2_kr(k, chi_model, valid, chi_data, tf: Transform, k_weight: int) -> float:
    """K-space chi^2 plus the chi^2 of |chi(r)| over r_range."""
    _, model_r = transform(k, np.where(valid, chi_model, 0.0), tf)
    _, data_r = transform(k, chi_data, tf)
    return chi2_k(k, chi_model, valid, chi_data, tf.k_range, k_weight) + chi2(
        np.abs(model_r), np.abs(data_r)
    )


def r_squared(model: np.ndarray, data: np.ndarray) -> float:
    return 1.0 - float(np.sum((data - model) ** 2) / np.sum((data - data.mean()) ** 2))


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def area_fractions(paths, genes, k, k_range, k_weight: int) -> np.ndarray:
    """Each path's share of sum_i integral |k^w chi_i(k)| dk over the fit range."""
    terms, _ = shells(paths, genes, k)
    m = (k >= k_range[0]) & (k <= k_range[1])
    areas = np.array([trapezoid(np.abs(k[m] ** k_weight * t[m]), k[m]) for t in terms])
    return areas / areas.sum()


def selected(labels, fractions, percent: float) -> tuple[str, ...]:
    """Labels whose area fraction is at or above percent/100, in path order."""
    return tuple(lbl for lbl, f in zip(labels, fractions) if f >= percent / 100.0)
