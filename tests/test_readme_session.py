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
    "ablation/ablation.csv": "d47f7158ce60cc3c",
    "ablation/cale.npz": "0a2ca55190f338d3",
    "ablation/carl.npz": "a411f96385b87ac8",
    "ablation/carle.npz": "b37037c665f29837",
    "ablation/crle.npz": "004778c8ac97c488",
    "crossdomain.json": "0a3756cdc5ef1d55",
    "feats.csv": "cfdb174dd81b5cdd",
    "labels.csv": "d26bdcab0a92cd81",
    "noise.json": "454cf9f10f281cae",
    "other_feats.csv": "eaf19b742205ac43",
    "other_sig.csv": "7e4c211d01f0065b",
    "pred.csv": "1d9e10630b72726f",
    "pred_metrics.json": "8cfabe0439f4ac6e",
    "run/checkpoint.npz": "b37037c665f29837",
    "run/history.csv": "83671f8785de105f",
    "run/metrics.json": "596fdca8958686fe",
    "run/predictions.csv": "1d9e10630b72726f",
    "sig.csv": "44695862a032a764",
    "sig_meta.json": "e96f9e7da0a0ad6b",
    "snr.csv": "de211a91ce544fb7",
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
