"""Golden outputs: five CLI commands rerun against their checked-in files.

For each command, ``tests/golden/`` holds the ``--no-timestamps``
report, its manifest, the CSV where there is one, and stdout.  Keys,
strings, integers and order must match exactly.  Floats must match to
1e-12 relative, or 1e-15 absolute for rounding-level values such as an
envelope gap: libm and numpy may differ in the last bits between builds.

After a change that moves an output on purpose, regenerate the files
of the commands it moves, and only those, by naming them:

    PYTHONPATH=src python tests/test_golden.py verify-paper

Each named command's files are deleted and written anew; the other
commands' files are left as they are, so their last bits stay those of
the machine that wrote them.  With no name, every command's files are
rewritten and nothing else is kept in ``tests/golden/``.  Say in
CHANGES.md which fields moved, by how much, and why.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

from ucsbound.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")

COMMANDS = {
    "verify-paper": ["verify-paper", "--strict"],
    "gamma-hat": ["gamma-hat", "--t", "0.38234"],
    "tmax": [
        "tmax", "--t-tol", "1e-3", "--grid", "32", "--refine-rounds", "3", "--multistart", "8"
    ],
    "enumerate": ["enumerate", "--n", "4", "--check-entropy", "--csv", "enumerate.csv"],
    "maxcorr": ["maxcorr", "--pq", "0.3", "0.4", "0.2"],
}

# A number in text output; the text around it must match exactly.
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def run(name: str, directory: Path) -> list[str]:
    """Run one command in ``directory``; the names of the files it leaves there."""
    argv = [*COMMANDS[name], "--no-timestamps", "--out", f"{name}.json"]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"{name} exited {rc}")
    (directory / f"{name}.stdout").write_text(stdout.getvalue())
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(f"{name}."))


def regenerate(names: list[str], directory: Path = GOLDEN) -> None:
    """Rewrite the files of the commands ``names`` in ``directory``; with
    no name, empty ``directory`` and rewrite every command's."""
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        raise SystemExit(f"unknown command {unknown[0]!r}; choose from {', '.join(COMMANDS)}")
    directory.mkdir(exist_ok=True)
    for old in directory.iterdir():
        if not names or old.name.split(".", 1)[0] in names:
            old.unlink()
    for name in names or COMMANDS:
        print(name, *run(name, directory), file=sys.stderr)


def same_float(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def same_value(got, want) -> bool:
    """JSON values: keys, order, strings and integers exact, floats close."""
    if isinstance(want, float) and isinstance(got, float):
        return same_float(got, want)
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return list(got) == list(want) and all(same_value(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same_value, got, want))
    return got == want


def same_text(got: str, want: str) -> bool:
    """Text with the numbers in it compared as :func:`same_value` compares them."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        # re.split puts the captured numbers at the odd indices.
        is_float = i % 2 and any(c in w for c in ".eE")
        if not (same_float(float(g), float(w)) if is_float else g == w):
            return False
    return True


@pytest.mark.parametrize("name", list(COMMANDS))
def test_outputs_match_the_golden_files(name, tmp_path):
    produced = run(name, tmp_path)
    assert produced == sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    for filename in produced:
        got = (tmp_path / filename).read_text()
        want = (GOLDEN / filename).read_text()
        if filename.endswith(".json"):
            assert same_value(json.loads(got), json.loads(want)), filename
        else:
            assert same_text(got, want), filename


def test_comparison_rules():
    assert same_value({"a": 1, "b": [1.0, "x"]}, {"a": 1, "b": [1.0 + 1e-13, "x"]})
    assert not same_value({"a": 1.0}, {"a": 1.0 + 1e-11})
    assert not same_value({"b": 1, "a": 2}, {"a": 2, "b": 1})
    assert not same_value({"a": 1}, {"a": 1.0})
    assert not same_value([1, 2], [2, 1])
    assert same_text("ratio 1.0000088929 (96 cells)\n", "ratio 1.0000088929 (96 cells)\n")
    assert not same_text("ratio 1.0000088929 (96 cells)", "ratio 1.0000088930 (96 cells)")
    assert not same_text("ratio 1.0000088929 (96 cells)", "ratio 1.0000088929 (97 cells)")
    assert not same_text("0x1f,0.5", "0x1e,0.5")


def test_regenerating_one_command_leaves_the_others(tmp_path):
    for golden in GOLDEN.iterdir():
        (tmp_path / golden.name).write_text("kept\n")
    regenerate(["maxcorr"], tmp_path)
    for filename in sorted(p.name for p in GOLDEN.iterdir()):
        got = (tmp_path / filename).read_text()
        if filename.startswith("maxcorr."):
            assert got != "kept\n", filename
        else:
            assert got == "kept\n", filename
    with pytest.raises(SystemExit, match="unknown command 'verify'"):
        regenerate(["verify"], tmp_path)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
