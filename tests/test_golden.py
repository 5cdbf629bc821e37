"""Golden reports: fixed CLI invocations must reproduce their recorded output.

Each invocation runs ``qsid.cli.main`` in-process.  JSON output is compared
byte for byte after dropping the ``volatile`` section (durations, version);
text output and stderr are compared as they are, and so is the exit code.
The fixtures under ``tests/golden/`` were recorded before the case catalog
and the report codec were rewritten, the ``*_q16`` rational ones
before the dense rational kernel replaced the sparse products, and the
``*_q40`` rational ones before that kernel moved from ``Fraction``
coefficients to integer numerators over one denominator; the three
audit fixtures were re-recorded when the audit box stopped echoing a
requested variant; ``enumerate_max_weight_8`` (ends with the empty
partition), ``enumerate_empty_family``, ``enumerate_weight_12_text`` and
``map_sigma_empty`` were recorded before the enumerate report got its own
writer; ``verify_eq3_1_partitions`` was recorded when that case was added
to the catalog; ``enumerate_max_weight_20`` and ``audit_3_4`` were recorded
before the enumerator shared its suffix lists and the audit checked each
element once for both sections.  A refactor that changes any non-volatile byte fails here.

To record the fixtures again (only at a commit whose output is trusted):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qsid.cli import main

GOLDEN = Path(__file__).parent / "golden"

_FORMAL = ["--amax", "2", "--bmax", "2", "--tmax", "2", "--qmax", "6"]
_COEFF = {
    "thm1_1:left": "a1b1t1q2",
    "thm1_1:right": "a1b1t1q2",
    "eq3_1:left": "a1b1t1q3",
    "eq3_1:right": "a1b1t1q3",
    "thm3_4:left": "b1q3",
    "thm3_4:right": "a1b1q4",
    "thm3_5:left": "b1q2",
    "thm3_5:right": "b1q4",
    "f_sym:left": "b1t1q2",
    "f_sym:right": "b2t1q4",
}

# id -> argv; ids ending in "_text" use the text format, all others JSON
INVOCATIONS = {
    "verify_thm1_1": ["verify", "--identity", "thm1_1", *_FORMAL],
    "verify_f_sym_formal": ["verify", "--identity", "f_sym", "--mode", "formal", *_FORMAL],
    "verify_reduction_a0": ["verify", "--identity", "reduction_a0", *_FORMAL],
    "verify_eq3_1": ["verify", "--identity", "eq3_1_consistency", *_FORMAL],
    "verify_eq3_1_partitions": [
        "verify", "--identity", "eq3_1_partitions", "--amax", "4", "--bmax", "6", "--tmax", "4",
        "--qmax", "16",
    ],
    "verify_eq3_1_empty_region": [
        "verify", "--identity", "eq3_1_consistency",
        "--amax", "6", "--bmax", "2", "--tmax", "2", "--qmax", "4",
    ],
    "verify_thm3_4": [
        "verify", "--identity", "thm3_4", "--amax", "3", "--bmax", "3", "--tmax", "0",
        "--qmax", "8",
    ],
    "verify_thm3_4_text": [
        "verify", "--identity", "thm3_4", "--amax", "3", "--bmax", "3", "--tmax", "0",
        "--qmax", "8",
    ],
    "verify_thm3_5": [
        "verify", "--identity", "thm3_5", "--amax", "0", "--bmax", "4", "--tmax", "0",
        "--qmax", "12",
    ],
    "verify_f_sym_rational": [
        "verify", "--identity", "f_sym", "--mode", "rational", "--alpha=-3/4",
        "--beta=2/7", "--k1", "3", "--k2", "1", "--qmax", "8",
    ],
    "verify_qps_2_1": [
        "verify", "--identity", "qps_2_1", "--a=2", "--b=1/3", "--c=5", "--N", "2",
        "--qmax", "6",
    ],
    "verify_rewrite_2_2": [
        "verify", "--identity", "rewrite_2_2", "--a=-3/2", "--b=1/4", "--c=7", "--N", "3",
        "--qmax", "6",
    ],
    "verify_eq2_3": [
        "verify", "--identity", "eq2_3", "--a=2", "--b=1/3", "--N", "2", "--qmax", "6",
    ],
    "verify_chain_shift": [
        "verify", "--identity", "chain_shift", "--a=-3/2", "--b=1/4", "--t=2/7",
        "--qmax", "6",
    ],
    "verify_chain_fine": [
        "verify", "--identity", "chain_fine", "--a=-3/2", "--b=1/4", "--t=2/7",
        "--qmax", "6",
    ],
    "verify_chain_final": [
        "verify", "--identity", "chain_final", "--a=2", "--b=1/3", "--t=1/5",
        "--qmax", "6",
    ],
    "verify_chain_degenerate": [
        "verify", "--identity", "chain_shift", "--a=0", "--b=1/3", "--t=1/5",
        "--qmax", "6",
    ],
    "verify_chain_shift_q16": [
        "verify", "--identity", "chain_shift", "--a=-3/2", "--b=2/3", "--t=1/5",
        "--qmax", "16",
    ],
    "verify_chain_fine_q16": [
        "verify", "--identity", "chain_fine", "--a=-3/2", "--b=2/3", "--t=1/5",
        "--qmax", "16",
    ],
    "verify_chain_final_q16": [
        "verify", "--identity", "chain_final", "--a=-3/2", "--b=2/3", "--t=1/5",
        "--qmax", "16",
    ],
    "verify_qps_2_1_q16": [
        "verify", "--identity", "qps_2_1", "--a=2", "--b=1/3", "--c=5", "--N", "6",
        "--qmax", "16",
    ],
    "verify_rewrite_2_2_q16": [
        "verify", "--identity", "rewrite_2_2", "--a=-3/2", "--b=1/4", "--c=7", "--N", "6",
        "--qmax", "16",
    ],
    "verify_f_sym_rational_q16": [
        "verify", "--identity", "f_sym", "--mode", "rational", "--alpha=-3/4",
        "--beta=2/7", "--k1", "2", "--k2", "3", "--qmax", "16",
    ],
    "verify_chain_final_q40": [
        "verify", "--identity", "chain_final", "--a=-3/2", "--b=2/3", "--t=1/5",
        "--qmax", "40",
    ],
    "verify_f_sym_rational_q40": [
        "verify", "--identity", "f_sym", "--mode", "rational", "--alpha=-3/4",
        "--beta=2/7", "--k1", "1", "--k2", "2", "--qmax", "40",
    ],
    "audit_2_3": ["audit", "--j", "2", "--M", "3"],
    "audit_1_2_printed": ["audit", "--j", "1", "--M", "2"],
    "audit_1_2_printed_text": ["audit", "--j", "1", "--M", "2"],
    "audit_3_4": ["audit", "--j", "3", "--M", "4"],
    "enumerate_weight_12": ["enumerate", "--weight", "12", "--odd-distinct"],
    "enumerate_weight_12_text": ["enumerate", "--weight", "12", "--odd-distinct"],
    "enumerate_max_weight_8": ["enumerate", "--odd-distinct", "--max-weight", "8"],
    "enumerate_max_weight_20": ["enumerate", "--odd-distinct", "--max-weight", "20"],
    "enumerate_empty_family": ["enumerate", "--weight", "3", "--min-part", "5"],
    "map_gamma_sigma": ["map", "--op", "gamma-sigma", "--M", "5", "--partition", "20,13,12,12,10"],
    "map_sigma_empty": ["map", "--op", "sigma", "--partition", "()"],
    "coeff_unknown_side": ["coeff", "--side", "thm9:left", "--monomial", "q1"],
    **{
        f"coeff_{side.replace(':', '_')}": ["coeff", "--side", side, "--monomial", mono, *_FORMAL]
        for side, mono in _COEFF.items()
    },
}


def _run(name):
    """Exit code, comparable stdout and stderr of one invocation."""
    fmt = "text" if name.endswith("_text") else "json"
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*INVOCATIONS[name], "--format", fmt])
    text = out.getvalue()
    if fmt == "json" and text:
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        payload.pop("volatile", None)
        text = json.dumps(payload, indent=2) + "\n"
    return code, text, err.getvalue()


def _fixture(name):
    return GOLDEN / f"{name}.{'txt' if name.endswith('_text') else 'json'}"


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_invocation(name):
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    code, text, err = _run(name)
    assert code == manifest[name]["exit"]
    assert err == manifest[name]["stderr"]
    assert text == _fixture(name).read_text(encoding="utf-8")


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for name in sorted(INVOCATIONS):
        code, text, err = _run(name)
        manifest[name] = {"argv": INVOCATIONS[name], "exit": code, "stderr": err}
        _fixture(name).write_text(text, encoding="utf-8")
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
