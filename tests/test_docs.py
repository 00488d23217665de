"""The README's Python blocks and the demos run as written, each in its own
interpreter with exafsga imported from this checkout."""

import os
import re
import subprocess
import sys

import pytest

from exafsga import (
    Chromosome, KGrid, PathParams, PathSet, serialize_feff_path, synth_generate, synth_path,
)
from exafsga.spectra import atomic_write, chi_file_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    README_BLOCKS = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def run_python(args, cwd) -> subprocess.CompletedProcess:
    src = os.path.join(ROOT, "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def write_example_inputs(data_dir) -> None:
    """data/chi.dat and data/paths.manifest, as the README's minimal fit reads them."""
    data_dir.mkdir()
    grid = KGrid(0.5, 13.0, 0.05)
    paths = PathSet(paths=(synth_path(2.3, 6.0, grid, label="shell1.dat"),
                           synth_path(3.1, 12.0, grid, amp_scale=0.7, label="shell2.dat")))
    truth = Chromosome(-0.5, (PathParams(0.7, 0.004, 0.02), PathParams(0.55, 0.006, -0.01)))
    spec = synth_generate(paths, truth, grid, snr=20.0, seed=3)
    atomic_write(str(data_dir / "chi.dat"),
                 "\n".join(chi_file_lines(grid.ks, spec.chi)) + "\n")
    for p in paths:
        (data_dir / p.label).write_text(serialize_feff_path(p))
    (data_dir / "paths.manifest").write_text("".join(f"{p.label}\n" for p in paths))


def test_readme_has_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(tmp_path, index):
    write_example_inputs(tmp_path / "data")
    proc = run_python(["-c", README_BLOCKS[index]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = run_python([os.path.join(ROOT, "demos", demo)], ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
