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
    "ablation/ablation.csv": "5daf5103e9650034",
    "ablation/cale.npz": "80d553d57bac62e4",
    "ablation/carl.npz": "9548019253029eff",
    "ablation/carle.npz": "e3298ac12fc51f4d",
    "ablation/crle.npz": "fb540f32156f1895",
    "crossdomain.json": "6fb75d0a9ef3ea35",
    "feats.csv": "b19951b129731852",
    "labels.csv": "5d3aa07d40d366ee",
    "noise.json": "2e8329c0dd544d04",
    "other_feats.csv": "50186963d303efbe",
    "other_sig.csv": "c83eca43a3e74915",
    "pred.csv": "4184cb953351a5c3",
    "pred_metrics.json": "12b244fc047839cb",
    "run/checkpoint.npz": "e3298ac12fc51f4d",
    "run/history.csv": "283b78bdc50149ba",
    "run/metrics.json": "0f35e6294efbda84",
    "run/predictions.csv": "4184cb953351a5c3",
    "sig.csv": "75ef86fbf380bbd1",
    "sig_meta.json": "0235740b9a37e8ed",
    "snr.csv": "67c9db1b9410389e",
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
