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
    """Malformed scattering-path file, manifest or theory data.  ``sample`` is
    the index of the first theory sample that breaks a per-sample rule of
    ScatteringPath (finite values, k order, lambda > 0, finite slopes);
    ``field`` names the scalar field (degeneracy or r_eff) whose rule broke;
    ``file`` is the file and ``line`` the number of its line that caused the
    error.  str() reads "<file>:<line>: <reason>", "<file>: <reason>" without
    a line, and "line <line>: <reason>" without a file.  Each is None where it
    does not apply."""

    def __init__(self, reason: str, sample: int | None = None, field: str | None = None,
                 line: int | None = None, file: str | os.PathLike | None = None):
        super().__init__(reason)
        self.reason, self.sample, self.field = reason, sample, field
        self.line, self.file = line, file

    def __str__(self) -> str:
        if self.file is not None:
            where = self.file if self.line is None else f"{self.file}:{self.line}"
        elif self.line is not None:
            where = f"line {self.line}"
        else:
            return self.reason
        return f"{where}: {self.reason}"


# The theory arrays ModelEvaluator interpolates over k_theory, in the order
# it stacks them.
INTERPOLATED = ("f_eff", "phase_scatter", "phase_central", "lam")


def interval_slopes(k: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Slope of values, sampled at k along the last axis, on each interval
    between adjacent samples: the slope table ModelEvaluator interpolates by."""
    return np.diff(values, axis=-1) / np.diff(k)


def _check_samples(bad: np.ndarray, message: str) -> None:
    """Raise PathParseError(message) at the first sample where bad is True."""
    idx = np.flatnonzero(bad)
    if idx.size:
        raise PathParseError(message, int(idx[0]))


@dataclass(frozen=True)
class ScatteringPath:
    """Per-path theory arrays and geometry from a FEFF-style calculation.

    The constructor is the one statement of a path's rules: degeneracy and
    r_eff finite and positive; finite arrays of one length, at least two
    samples; k_theory strictly increasing; lam positive; a finite k_theory
    step and a finite slope of each INTERPOLATED array between adjacent
    samples.
    """

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
        for name in ("degeneracy", "r_eff"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise PathParseError(f"path {self.label}: {name} is not finite", field=name)
            if value <= 0:
                raise PathParseError(f"{name} must be positive", field=name)
        n = None
        for name in ("k_theory", "f_eff", "phase_scatter", "phase_central", "lam", "real_p"):
            if name == "real_p" and self.real_p is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=float)
            _check_samples(~np.isfinite(arr), f"path {self.label}: {name} has non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if n is None:
                n = arr.shape[0]
            elif arr.shape != (n,):
                raise PathParseError(f"{name} length {arr.shape} != {n}")
        if n < 2:
            raise PathParseError("need at least two theory samples")
        with np.errstate(over="ignore"):
            step = np.diff(self.k_theory, prepend=-np.inf)  # step[i]: from sample i-1
        _check_samples(step <= 0, "k_theory not strictly increasing")
        _check_samples(self.lam <= 0, "lambda must be positive everywhere")
        # ModelEvaluator tabulates the interval_slopes of the INTERPOLATED
        # arrays: a k step or slope that overflows breaks the rule at the
        # interval's upper sample.
        overflow = "from the previous sample is not finite"
        _check_samples(np.insert(~np.isfinite(step[1:]), 0, False),
                       f"path {self.label}: k_theory step {overflow}")
        with np.errstate(over="ignore"):
            slopes = interval_slopes(self.k_theory, np.array([getattr(self, n) for n in INTERPOLATED]))
        for name, slope in zip(INTERPOLATED, slopes):
            _check_samples(np.insert(~np.isfinite(slope), 0, False),
                           f"path {self.label}: {name} slope {overflow}")


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
_COMMENT = re.compile(r"(?:^|\s)#")  # a manifest comment: a token that starts with '#'


def _numbers(text: str) -> tuple[list[float], int]:
    """A line's leading numeric tokens as floats, and its token count."""
    parts = text.split()
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            break
    return values, len(parts)


def parse_feff_path(file_content: str, label: str = "path") -> ScatteringPath:
    """Parse a FEFF feffNNNN.dat-style path file.  An error that one line of
    the file causes holds that line's number as ``line``."""
    lines = list(enumerate(file_content.splitlines(), start=1))
    sep = next((i for i, (_, text) in enumerate(lines) if _DASHES.match(text)), None)
    if sep is None:
        raise PathParseError("missing dashed header separator")
    # The non-blank lines after the separator: (number, text, numbers, token count).
    body = [(n, text, *_numbers(text)) for n, text in lines[sep + 1 :] if text.strip()]
    if not body:
        raise PathParseError("missing path summary line after separator")
    (summary_line, _, summary, _), *rest = body
    if len(summary) < 3:
        raise PathParseError("expected 3 leading numeric values", line=summary_line)

    # Data rows start after the column-header line when present, otherwise at
    # the first line of >= 7 columns whose first is numeric.
    start = next((i + 1 for i, (_, text, _, _) in enumerate(rest)
                  if _COLUMN_HEADER.search(text)), None)
    if start is None:
        start = next((i for i, (_, _, values, n_tokens) in enumerate(rest)
                      if n_tokens >= 7 and values), None)
    if start is None:
        raise PathParseError("no data rows found")

    rows = rest[start:]
    for n, text, values, n_tokens in rows:
        if n_tokens < 7:
            raise PathParseError(f"expected 7 columns, got {n_tokens}", line=n)
        if len(values) < n_tokens:
            raise PathParseError(f"non-numeric value in {text!r}", line=n)
    cols = np.array([values[:7] for _, _, values, _ in rows]).reshape(-1, 7)
    try:
        return ScatteringPath(
            label=label,
            degeneracy=summary[1],
            r_eff=summary[2],
            k_theory=cols[:, 0],
            phase_central=cols[:, 1],
            f_eff=cols[:, 2],
            phase_scatter=cols[:, 3],
            lam=cols[:, 5],
            real_p=cols[:, 6],
        )
    except PathParseError as exc:
        # A per-sample rule breaks on a data row, degeneracy or r_eff on the summary line.
        if exc.sample is not None:
            exc.line = rows[exc.sample][0]
        elif exc.field in ("degeneracy", "r_eff"):
            exc.line = summary_line
        raise


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
    """Parse a path file; a PathParseError holds the file as ``file``, beside
    the line, sample or field that parse_feff_path set."""
    with open(path) as fh:
        content = fh.read()
    try:
        return parse_feff_path(content, label=label or os.path.basename(str(path)))
    except PathParseError as exc:
        exc.file = path
        raise


def load_manifest(manifest_path) -> PathSet:
    """Load a PathSet from a manifest: one path filename per line, with an
    optional degeneracy override as a second token.  A token that starts with
    '#' begins a comment; any other third token is a PathParseError.
    Filenames are resolved relative to the manifest's directory."""
    base = os.path.dirname(os.path.abspath(str(manifest_path)))
    paths = []
    first_line: dict[str, int] = {}  # label -> manifest line that listed it
    with open(manifest_path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = _COMMENT.split(raw, maxsplit=1)[0].split()
            if not parts:
                continue
            if len(parts) > 2:
                raise PathParseError(
                    f"unexpected token {parts[2]!r}: a line holds a path file name"
                    " and at most one degeneracy", file=manifest_path, line=lineno
                )
            fname = parts[0]
            if fname in first_line:
                raise PathParseError(
                    f"path {fname} already listed on line {first_line[fname]};"
                    " path labels must be unique", file=manifest_path, line=lineno
                )
            first_line[fname] = lineno
            sp = load_path_file(os.path.join(base, fname), label=fname)
            if len(parts) > 1:
                try:  # float() and ScatteringPath's checks
                    sp = replace(sp, degeneracy=float(parts[1]))
                except ValueError:
                    raise PathParseError(f"bad degeneracy override {parts[1]!r}",
                                         file=manifest_path, line=lineno) from None
            paths.append(sp)
    if not paths:
        raise PathParseError("empty manifest", file=manifest_path)
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
    amp_scale must be non-negative; r_eff, degeneracy and lambda_const are
    checked by ScatteringPath's rules.
    """
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
