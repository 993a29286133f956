"""Byte identity of ``dlplab models`` on a fixed set of programs.

The set, ``families.golden_programs``, is the cyclic family
``x_i | x_{i+1} :- not x_{i+2}`` for n=3..12 and 200 seeded programs of
three generator configurations.  Each program
is written to a file and run through the command line in-process, once
with ``--json`` (its ``timings`` dropped, since they vary from run to run)
and once with ``--verbose``.  The digests were recorded before the
labelling walk of ``justify`` was rewritten; a change that alters any
model list, inclusion verdict or witness of any semantics changes them.

To see what moved, diff the outputs of :func:`outputs` against those of
the commit that recorded the digests.
"""

from __future__ import annotations

import hashlib
import json

from dlplab.cli import main
from dlplab.parser import render_program

from families import golden_programs

JSON_DIGEST = "3984b5fa8897ccfc977524277da34b8a49be0bbc113297f6838644f45f86bc3b"
VERBOSE_DIGEST = "abd6bed7bd825c95e5f39937aefa01e7b4373d69f81805d214eef65f436eb6df"


def outputs(tmp_path, capsys):
    """Per program, its ``models --json`` output without timings and its
    ``models --verbose`` output."""
    found = []
    for k, p in enumerate(golden_programs()):
        path = tmp_path / f"p{k}.lp"
        path.write_text(render_program(p))
        assert main(["models", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        del data["timings"]
        assert main(["models", str(path), "--verbose"]) == 0
        found.append((json.dumps(data, indent=2, sort_keys=True),
                      capsys.readouterr().out))
    return found


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_models_output_is_byte_identical_on_the_golden_set(tmp_path, capsys):
    found = outputs(tmp_path, capsys)
    assert len(found) == 210
    assert digest(j for j, _ in found) == JSON_DIGEST
    assert digest(v for _, v in found) == VERBOSE_DIGEST
