"""Byte-stability gate for every file the CLI writes.

``tests/data/golden/outputs.sha256`` holds, in ``sha256sum`` format, the
digest of each file written by ``scenario-dump`` (all scenarios), ``forms``
(every applicable kind), ``reconstruct --scenario hypar --out --obj``,
``reconstruct --nu`` of the dumped hypar conormal and ``reconstruct
--lattice`` of the dumped moutard-random affine conormal, all at the default
sizes.  A change that moves one byte of any of them shows up here.  When
such a change is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/data/golden/outputs.sha256

and say why in the change log.
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from plmkit.cli import main
from plmkit.scenarios import list_scenarios

DIGESTS = Path(__file__).parent / "data" / "golden" / "outputs.sha256"

FORMS = [("projective", "hypar"), ("projective", "cubic-graph"), ("affine", "hypar"), ("discrete", "hypar-lattice"),
         ("discrete", "moutard-random")]


def _run(*argv):
    with redirect_stdout(StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv


def output_digests(out):
    """{file name: sha256} of every golden output, written under ``out``."""
    for name in list_scenarios():
        _run("scenario-dump", "--scenario", name, "--out", out / name)
    for which, name in FORMS:
        _run("forms", "--scenario", name, "--which", which, "--out", out / f"forms-{which}-{name}.csv")
    _run("reconstruct", "--scenario", "hypar", "--out", out / "reconstruct-hypar.csv",
         "--obj", out / "reconstruct-hypar.obj")
    _run("reconstruct", "--nu", out / "hypar_nu.csv", "--out", out / "reconstruct-hypar_nu.csv")
    _run("reconstruct", "--lattice", out / "moutard-random_nu3_lat.csv",
         "--out", out / "reconstruct-moutard-random_nu3_lat.csv")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _golden():
    return {name: digest for digest, name in (line.split("  ") for line in DIGESTS.read_text().splitlines())}


def test_every_output_is_byte_identical_to_golden(tmp_path):
    assert output_digests(tmp_path) == _golden()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in output_digests(Path(tmp)).items():
            sys.stdout.write(f"{digest}  {name}\n")
