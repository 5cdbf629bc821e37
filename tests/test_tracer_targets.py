"""The benchmark tracer's targets: every name it wraps resolves in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves_as_install_resolves_it():
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the tracer; installs nothing
    missing = []
    for module_name, attr, _ in tracer.TARGETS:
        # as Tracer.install: getattr down the dotted path, the leaf from the owner's own vars
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(leaf) if owner is not None else None
        if not callable(raw.__func__ if isinstance(raw, classmethod) else raw):
            missing.append(f"{module_name}.{attr}")
    assert len(tracer.TARGETS) > 0 and missing == []
