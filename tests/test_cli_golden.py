"""Byte-for-byte CLI reports.

Each file under ``tests/data/cli_golden/`` holds the exact stdout of one
``copwin`` invocation from ``CASES``; the reports are the contract, so
any change to a record's keys, order or formatting fails here.  To
rewrite the files after an intended change, run this module as a script:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import os

import pytest

from copwin.cli import EXIT_OK, main

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_golden")
# theorem-1-eligible connected classes with n <= 5, in enumeration order
ELIGIBLE_LE5 = os.path.join(DATA, "theorem1_le5.g6")

CASES = {
    "solve_n5.txt": ["solve", "--nmax", "5"],
    "solve_teleport_n5.jsonl": ["solve", "--nmax", "5", "--variant", "teleport", "--json"],
    "scan_theorem1_n5.txt": ["scan", "--check", "theorem1", "--nmax", "5", "--all"],
    "scan_conj_sqrt_n_n5.txt": ["scan", "--check", "conj_sqrt_n", "--nmax", "5", "--all"],
    "scan_conj_teleport_n5.txt": ["scan", "--check", "conj_teleport", "--nmax", "5", "--all"],
    "scan_preceq_equiv_n5.txt": ["scan", "--check", "preceq_equiv", "--nmax", "5", "--all"],
    "scan_lemma4_n6.txt": ["scan", "--check", "lemma4", "--nmax", "6", "--all"],
    "scan_lemma5_n6.txt": ["scan", "--check", "lemma5", "--nmax", "6", "--all"],
    "trap_n6.txt": ["trap", "--nmax", "6"],
    "simulate_theorem1_le5.txt": ["simulate", "--input", ELIGIBLE_LE5],
}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    code, text = run(CASES[name])
    assert code == EXIT_OK
    with open(os.path.join(DATA, name), newline="") as fh:
        assert text == fh.read()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, text = run(argv)
        assert code == EXIT_OK, (name, code)
        with open(os.path.join(DATA, name), "w", newline="") as fh:
            fh.write(text)
