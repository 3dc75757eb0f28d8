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
import json
import shlex
from pathlib import Path

import pytest

from affinestrata.classify import verify_theorems
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


#: sha256 of ``json.dumps(verify_theorems(seed, 20).to_dict(), sort_keys=True)``
VERIFY_DIGESTS = {
    2: "0cec46f5f04debead33b2f3ac7f41414af6bcf1b838b8f8fe61c5c1293f68eee",
    3: "fa862c5019a37fc87e4f587a7681d68c8bf5a3886266ba9a1f6894f2906137be",
    4: "e4bb578fe570b536365b4daff978f185f2871d31353bef2df9faaa6c13e8be38",
    5: "40128eb33381704e680c57a7a673d2a81b7a6b3945dec2382a3627e71017ec07",
    6: "5985a313058be25b15ac78df5cde701c7fc62244e44362745915440b114e2a7f",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(seed):
    """The seeded reports past seed 1, whose command-line report is pinned
    above, at 20 samples."""
    doc = json.dumps(verify_theorems(seed, 20).to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == VERIFY_DIGESTS[seed]


#: sha256 of the command-line report of ``verify --seed <seed> --samples 100``
#: (``json.dumps(verify_theorems(seed, 100).to_dict(), indent=2)``), seeds 1..20
VERIFY_100_DIGESTS = {
    1: "2ed077b7fa577f91715d0eb954e1fee93688b2cbda76ecc5ed1a6795bb59a242",
    2: "a7fda9d71802244fb8cad7b411b5436b05b4934ba771acb924fe04dcf075f95b",
    3: "d39bc16dff675edc5d7fde37849b110552896126b96961f8e1da2abbf6350e42",
    4: "69e58873869be983ed0830b8c187709462d1f929ac472769366108e6cf2c3ad2",
    5: "195196eb33220abc949660848d5df0cfefad9303834c482780d31296daf003fd",
    6: "d7907f143ba44a34362b5bb5e13263891a795c20e27dee26de69151c758ce987",
    7: "1a48aedc377fa0dc256172a15bfd2b49ec726956258a79b4ec58066f77b73363",
    8: "4c70214cb73454e7908fcef945dc7e8d64c60b1d31f3ea9e91cc31a02c07e910",
    9: "80b637b2cc802324f15968f2b03559cc4f043c5dec348dbfebfca030a0c62d60",
    10: "106943dc4709ce2c66aa7f5fc2b509870fec4c5b79c7f163f5706a3d91554ade",
    11: "35d0d016b3592bde02d64a0ec9a8a9d8377dfdc88c965397208170c8e03a07cf",
    12: "3d43f76d7e7a389407c7a658931be02129992b61ea90b2ada01a6094fc1f05a4",
    13: "c78da5920bcc8b9dc73b44bdbff6c79d6e0432d23624b02523e2b6067c1444be",
    14: "d479656916fcf6417611f49f829a51fbd124b4cb6aaf9c82c59225aac1690d50",
    15: "7cc356f24c3782dd97de52a8e5c97fb5a0fb7561152347bf8bd18bb5442385cd",
    16: "e374246a3e1a1578b202f2ac47b97b8becadaabaf21ca589f30b80745d8e25c3",
    17: "008837e565e7660e931657258cf55963ec75d7078e0697b219d3b42bfdbdc1b1",
    18: "e27a21c776d7b12d9caf9cf54555d13ca25bfd9c14a3dc5838b7d7a668ff9710",
    19: "1fc4c6a9643c3fbfe96760b9d8a89264ca123f0078939ffa4271f3da64772053",
    20: "a22bd7a909a10724300b19742277192315a46881d1771a0dd177138af988f511",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_100_DIGESTS))
def test_verify_report_digest_at_100_samples(seed):
    """The report as the command line prints it, at the default sample count."""
    doc = json.dumps(verify_theorems(seed, 100).to_dict(), indent=2)
    assert hashlib.sha256(doc.encode()).hexdigest() == VERIFY_100_DIGESTS[seed]
