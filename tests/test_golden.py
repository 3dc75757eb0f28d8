"""Golden outputs: the README command-line examples and the seeded
verification report must stay byte-identical.

Each README example is pinned by the sha256 of its stdout and its exit code.
The commands are read from the README's shell block, so an example added
there without a pinned value fails here.  To re-pin after a deliberate
output change, print ``_digest(args)`` for each command.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

import pytest

from affinestrata.cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"

# sha256 of stdout and the exit code of each README example
GOLDEN = {
    'classify \'{"type":"A","coeffs":["1","0","0","1","0","0"]}\'': (
        '90966805876cff39827b0d5f01e3eea0ffe0c059b44036a24d43161ce69a94bc', 0),
    'ricci \'{"type":"B","coeffs":["0","3","1","0","0","1"]}\'': (
        '4f79f56225c351f29eb3d0dc76f90d320db84070c4b2b52037a47d6a4101fdb2', 0),
    'equiv \'{"type":"A","coeffs":["1","0","0","0","2","2"]}\' \'{"type":"A","coeffs":["1","0","0","0","2","-2"]}\'': (
        '0b21642a96650994717bb6724b5d3714b5b162668c6b7447bfdff1f2b8b13ecf', 0),
    'isotropy \'{"type":"A","coeffs":["0","0","0","0","1","0"]}\'': (
        '6629662c06b534f35fd7210ce2a5af93ecab937fc6e7835c0e74cb8df6d3601d', 0),
    'param M2_1 -1/2': (
        'b3ef131b2814cb686437c0691d83fa663d7ba024b094d663e5ccfb6f94073c67', 0),
    'param V1 1 0 3': (
        '3109261e6f05aa285e59b3a3023a284e256389eb22cadc5f862c7198f34f42bf', 0),
    'param flat_a 0 1 1 0': (
        'de9f6990cf359817c274d80c7d8287b320800da214d6b39170acb313154ecba5', 0),
    'catalog': (
        'ba8485db05e26ac971f930f8776c03069e9440657925c65f0938e56ce356c1c0', 0),
    'verify --seed 1 --samples 100': (
        'aa7a7ee326fe931c529999e681d004159ca91c11feb4d8c3d7d8c076e097fd69', 0),
    'verify --seed 1 --samples 100 --check orbit_recovery': (
        '0a82528a10621ae37c15d83db72ba7fdb1e8e50248f512320810fc787273fb4e', 0),
}


def _digest(args) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(args)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def readme_examples() -> list[str]:
    """The ``affinestrata ...`` lines of the README's shell blocks, with
    backslash continuations joined and the program name dropped."""
    commands, pending, in_sh = [], "", False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not in_sh:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        words = shlex.split(line, comments=True)
        if words and words[0] == "affinestrata":
            commands.append(shlex.join(words[1:]))
    return commands


def test_readme_examples_are_pinned():
    assert sorted(readme_examples()) == sorted(GOLDEN)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_example_output(command):
    assert _digest(shlex.split(command)) == GOLDEN[command]
