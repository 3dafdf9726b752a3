import json
import re
import subprocess
import sys
from pathlib import Path

import carle

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_environment_unchanged():
    snippet = (
        "import json, os; before = dict(os.environ); import carle; "
        "print(json.dumps([before, dict(os.environ)]))"
    )
    env = {"PYTHONPATH": str(Path(carle.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert after == before


def test_import_loads_no_pool_module():
    # extraction and the forest fit import their pools when they first need one
    snippet = (
        "import sys, carle; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = {"PYTHONPATH": str(Path(carle.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_backend_is_numpy():
    assert carle.backend() == "numpy"


def test_no_second_kernel_backend():
    # the bracket keeps this file from matching its own pattern
    pattern = re.compile(r"n[u]mba", re.IGNORECASE)
    files = [ROOT / "pyproject.toml", ROOT / "README.md"]
    for tree in (ROOT / "src", ROOT / "tests"):
        files += [p for p in tree.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not hits
