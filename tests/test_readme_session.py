"""README's desk-scale session, run as written.

The commands are read from README's session block with ``shlex`` and run in
process through ``cli.main`` in a temporary directory, so README and the CLI
cannot drift apart. Every file the session writes, and its whole stdout, is
pinned by a SHA-256 prefix: a change that moves one emitted byte fails here,
and the change re-pins the file and says why it moved. Like the other byte
pins, these hold on the host they were taken on (x86-64, numpy 2.4, OpenBLAS);
another BLAS or numpy build may move the bytes of the trained files.
"""

import contextlib
import hashlib
import io
import os
import shlex
from pathlib import Path

import pytest

from carle import pipeline
from carle.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

PINS = {
    "STDOUT": "4b6fee03dafbe9e1",
    "ablation/ablation.csv": "2ac779a956dbed01",
    "ablation/cale.npz": "7d281de5b0204b19",
    "ablation/carl.npz": "d06048e4d72319f2",
    "ablation/carle.npz": "b15e727bfea5595b",
    "ablation/crle.npz": "cc3e6c878b31e784",
    "crossdomain.json": "10a948e6d9cd5f39",
    "feats.csv": "ebf8e55e5c6a04ed",
    "labels.csv": "09d2f26b652f2709",
    "noise.json": "43a10c3d27222b8d",
    "other_feats.csv": "193a1ba9fcc86aba",
    "other_sig.csv": "ea422cf66252e426",
    "pred.csv": "b3c6e890f597bfca",
    "pred_metrics.json": "f46d558b9f72aebc",
    "run/checkpoint.npz": "b15e727bfea5595b",
    "run/history.csv": "c9824d77521a9ac4",
    "run/metrics.json": "2ce9dfb0e8554ae1",
    "run/predictions.csv": "b3c6e890f597bfca",
    "sig.csv": "6d654da3ac548b65",
    "sig_meta.json": "b8221c9e54035473",
    "snr.csv": "6da8a3eb4925fc1d",
}


def session_lines():
    """The command lines of README's session block, continuations joined."""
    text = README.read_text()
    block = text.split("A full desk-scale session:\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """The session's directory and its stdout. An ``ls DIR  # FILES`` line
    checks that DIR holds exactly FILES."""
    root = tmp_path_factory.mktemp("readme")
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for line in session_lines():
            args = shlex.split(line, comments=True)
            if args[0] == "ls":
                assert sorted(os.listdir(args[1])) == sorted(line.partition("#")[2].split()), line
                continue
            assert args[0] == "carle", line
            with contextlib.redirect_stdout(stdout):
                assert main(args[1:]) == 0, line
    finally:
        os.chdir(cwd)
    return root, stdout.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_session_writes_the_pinned_files(session):
    root, _ = session
    written = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    assert written == sorted(set(PINS) - {"STDOUT"})


@pytest.mark.parametrize("name", sorted(PINS))
def test_session_bytes_pinned(session, name):
    root, stdout = session
    data = stdout.encode() if name == "STDOUT" else (root / name).read_bytes()
    assert _digest(data) == PINS[name]


def test_checkpoint_saves_back_to_the_same_bytes(session, tmp_path):
    root, _ = session
    model = pipeline.load_model(root / "run" / "checkpoint.npz")
    pipeline.save_model(tmp_path / "again.npz", model, model.config)
    assert (tmp_path / "again.npz").read_bytes() == (root / "run" / "checkpoint.npz").read_bytes()
