"""Scattering-path ingestion: FEFF-style path files and synthetic paths.

A path file has free-form header lines terminated by a dashed separator,
then a summary line (nleg, degeneracy, r_eff, ...), optional leg-geometry
lines, a column-header line, and 7-column data rows:

    k  real[2*phc]  mag[feff]  phase[feff]  red factor  lambda  real[p]
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .spectra import KGrid


class PathParseError(ValueError):
    """Malformed scattering-path file."""


@dataclass(frozen=True)
class ScatteringPath:
    """Per-path theory arrays and geometry from a FEFF-style calculation."""

    label: str
    degeneracy: float
    r_eff: float
    k_theory: np.ndarray
    f_eff: np.ndarray
    phase_scatter: np.ndarray
    phase_central: np.ndarray
    lam: np.ndarray
    real_p: np.ndarray | None = None

    def __post_init__(self):
        arrays = {
            "k_theory": self.k_theory,
            "f_eff": self.f_eff,
            "phase_scatter": self.phase_scatter,
            "phase_central": self.phase_central,
            "lam": self.lam,
        }
        if self.real_p is not None:
            arrays["real_p"] = self.real_p
        for name in ("degeneracy", "r_eff"):
            if not np.isfinite(getattr(self, name)):
                raise PathParseError(f"path {self.label}: {name} is not finite")
        n = None
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise PathParseError(f"path {self.label}: {name} has non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if n is None:
                n = arr.shape[0]
            elif arr.shape != (n,):
                raise PathParseError(f"{name} length {arr.shape} != {n}")
        if n < 2:
            raise PathParseError("need at least two theory samples")
        if not np.all(np.diff(self.k_theory) > 0):
            raise PathParseError("k_theory not strictly increasing")
        if self.degeneracy <= 0:
            raise PathParseError("degeneracy must be positive")
        if self.r_eff <= 0:
            raise PathParseError("r_eff must be positive")
        if not np.all(self.lam > 0):
            raise PathParseError("lambda must be positive everywhere")


@dataclass(frozen=True)
class PathSet:
    """Ordered collection of scattering paths."""

    paths: tuple[ScatteringPath, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.paths:
            raise ValueError("PathSet must contain at least one path")
        labels = [p.label for p in self.paths]
        if len(set(labels)) != len(labels):
            raise ValueError("path labels must be unique")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def labels(self) -> list[str]:
        return [p.label for p in self.paths]

    def subset(self, labels) -> "PathSet":
        keep = set(labels)
        return PathSet(paths=tuple(p for p in self.paths if p.label in keep))


_DASHES = re.compile(r"^\s*-{4,}\s*$")
_COLUMN_HEADER = re.compile(r"real\[2\*phc\]|mag\[feff\]")


def _parse_floats(line: str, lineno: int, n_min: int) -> list[float]:
    parts = line.split()
    if len(parts) < n_min:
        raise PathParseError(f"line {lineno}: expected {n_min} columns, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise PathParseError(f"line {lineno}: non-numeric value in {line!r}") from None


def parse_feff_path(file_content: str, label: str = "path") -> ScatteringPath:
    """Parse a FEFF feffNNNN.dat-style path file."""
    lines = file_content.splitlines()
    sep_idx = next((i for i, ln in enumerate(lines) if _DASHES.match(ln)), None)
    if sep_idx is None:
        raise PathParseError("missing dashed header separator")

    body = lines[sep_idx + 1 :]
    summary_idx = next((i for i, ln in enumerate(body) if ln.strip()), None)
    if summary_idx is None:
        raise PathParseError("missing path summary line after separator")
    summary = _parse_numeric_prefix(body[summary_idx], sep_idx + 2 + summary_idx, 3)
    degeneracy = summary[1]
    r_eff = summary[2]

    # Data rows start after the column-header line when present, otherwise at
    # the first line of >= 7 numeric columns.
    data_start = None
    for i in range(summary_idx + 1, len(body)):
        if _COLUMN_HEADER.search(body[i]):
            data_start = i + 1
            break
    if data_start is None:
        for i in range(summary_idx + 1, len(body)):
            parts = body[i].split()
            if len(parts) >= 7:
                try:
                    float(parts[0])
                except ValueError:
                    continue
                data_start = i
                break
    if data_start is None:
        raise PathParseError("no data rows found")

    rows = []
    for i in range(data_start, len(body)):
        line = body[i]
        if not line.strip():
            continue
        lineno = sep_idx + 2 + i
        rows.append((lineno, _parse_floats(line, lineno, 7)))
    if len(rows) < 2:
        raise PathParseError("fewer than two data rows")

    cols = np.array([r[1][:7] for r in rows], dtype=float)
    k = cols[:, 0]
    for j in range(1, len(rows)):
        if k[j] <= k[j - 1]:
            raise PathParseError(f"line {rows[j][0]}: k not strictly increasing")
    for j in range(len(rows)):
        if cols[j, 5] <= 0:
            raise PathParseError(f"line {rows[j][0]}: non-positive lambda")

    return ScatteringPath(
        label=label,
        degeneracy=degeneracy,
        r_eff=r_eff,
        k_theory=k,
        phase_central=cols[:, 1],
        f_eff=cols[:, 2],
        phase_scatter=cols[:, 3],
        lam=cols[:, 5],
        real_p=cols[:, 6],
    )


def _parse_numeric_prefix(line: str, lineno: int, n: int) -> list[float]:
    """First n whitespace tokens of a line as floats (trailing text allowed)."""
    parts = line.split()
    vals = []
    for p in parts:
        try:
            vals.append(float(p))
        except ValueError:
            break
        if len(vals) == n:
            return vals
    raise PathParseError(f"line {lineno}: expected {n} leading numeric values")


def serialize_feff_path(path: ScatteringPath, nleg: int = 2) -> str:
    """Render a ScatteringPath in the file layout parse_feff_path accepts."""
    out = [f" {path.label}", " " + "-" * 70]
    out.append(
        f" {nleg:3d} {path.degeneracy:14.9f} {path.r_eff:14.9f}"
        "    nleg, deg, reff"
    )
    out.append(
        "    k   real[2*phc]   mag[feff]  phase[feff] red factor   lambda     real[p]"
    )
    red = np.ones_like(path.k_theory)
    real_p = path.real_p if path.real_p is not None else path.k_theory
    for i in range(len(path.k_theory)):
        out.append(
            f" {path.k_theory[i]:13.8f} {path.phase_central[i]:19.12e}"
            f" {path.f_eff[i]:19.12e} {path.phase_scatter[i]:19.12e}"
            f" {red[i]:11.4e} {path.lam[i]:19.12e} {real_p[i]:19.12e}"
        )
    return "\n".join(out) + "\n"


def load_path_file(path, label: str | None = None) -> ScatteringPath:
    """Parse a path file; a PathParseError names the file, and the line as
    "<file>:<line>:" where parse_feff_path names one."""
    with open(path) as fh:
        content = fh.read()
    try:
        return parse_feff_path(content, label=label or os.path.basename(str(path)))
    except PathParseError as exc:
        msg = str(exc)
        where = f"{path}:" if msg.startswith("line ") else f"{path}: "
        raise PathParseError(where + msg.removeprefix("line ")) from None


def load_manifest(manifest_path) -> PathSet:
    """Load a PathSet from a manifest: one path filename per line, with an
    optional degeneracy override as a second token. '#' comments allowed.
    Filenames are resolved relative to the manifest's directory."""
    base = os.path.dirname(os.path.abspath(str(manifest_path)))
    paths = []
    first_line: dict[str, int] = {}  # label -> manifest line that listed it
    with open(manifest_path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            fname = parts[0]
            if fname in first_line:
                raise PathParseError(
                    f"{manifest_path}:{lineno}: path {fname} already listed"
                    f" on line {first_line[fname]}; path labels must be unique"
                )
            first_line[fname] = lineno
            sp = load_path_file(os.path.join(base, fname), label=fname)
            if len(parts) > 1:
                try:  # float() and ScatteringPath's checks
                    sp = replace(sp, degeneracy=float(parts[1]))
                except ValueError:
                    raise PathParseError(
                        f"{manifest_path}:{lineno}: bad degeneracy override {parts[1]!r}"
                    ) from None
            paths.append(sp)
    if not paths:
        raise PathParseError(f"{manifest_path}: empty manifest")
    return PathSet(paths=tuple(paths))


def synth_path(
    r_eff: float,
    degeneracy: float,
    grid: KGrid,
    amp_scale: float = 1.0,
    lambda_const: float = 10.0,
    label: str | None = None,
    k_pad: float = 2.0,
) -> ScatteringPath:
    """Analytic scattering path for synthetic-data experiments.

    F(k) = amp_scale * k * exp(-k^2/100), phi(k) = -0.3 k, delta_c = 0,
    lambda = lambda_const.  The theory arrays extend from k = 0 to
    grid.k_max + k_pad so that moderate energy-origin shifts stay in range.
    """
    if r_eff <= 0 or degeneracy <= 0 or lambda_const <= 0:
        raise PathParseError("r_eff, degeneracy, and lambda_const must be positive")
    if amp_scale < 0:
        raise PathParseError("amp_scale must be non-negative")
    k = np.arange(0.0, grid.k_max + k_pad + grid.delta_k / 2, grid.delta_k)
    return ScatteringPath(
        label=label or f"synth_r{r_eff:.3f}",
        degeneracy=degeneracy,
        r_eff=r_eff,
        k_theory=k,
        f_eff=amp_scale * k * np.exp(-(k**2) / 100.0),
        phase_scatter=-0.3 * k,
        phase_central=np.zeros_like(k),
        lam=np.full_like(k, float(lambda_const)),
    )
