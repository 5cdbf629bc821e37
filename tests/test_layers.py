"""Each layer loads only the layers it imports, measured in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsid

# each layer's import closure inside the package
CLOSURE = {
    "series": {"series"},
    "partitions": {"partitions", "series"},
    "rational": {"rational", "series"},
    "bijections": {"bijections", "partitions", "series"},
    "identities": {"identities", "partitions", "rational", "series"},
}


@pytest.mark.parametrize("layer", list(CLOSURE))
def test_each_layer_loads_exactly_its_import_closure(layer):
    probe = f"import json, sys, qsid.{layer}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(qsid.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = {name[len("qsid."):] for name in json.loads(done.stdout) if name.startswith("qsid.")}
    assert loaded == CLOSURE[layer]
