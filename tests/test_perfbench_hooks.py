"""The contract between the benchmark's layer timer and the program.

``perfbench/tracing.py`` times each layer by replacing the entry points
listed in its ``LAYERS`` table on the class that defines them, looked
up through ``owner.__dict__[attr]``.  A method that moves into a base
class would make the benchmark's traced run fail; this test resolves
every target the same way, so such a move fails here first.  The
benchmark file is loaded read-only and never modified.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", TRACING
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted(
    {target for targets in tracing.LAYERS.values() for target in targets}
)


@pytest.mark.parametrize(
    "module_name,qualname", TARGETS, ids=[q for _, q in TARGETS]
)
def test_layer_target_is_defined_on_its_owner(module_name, qualname):
    module, owner, attr = tracing._resolve(module_name, qualname)
    assert attr in owner.__dict__, (
        f"{qualname} is not defined on {owner.__name__} itself; the"
        " layer timer cannot wrap an inherited method"
    )
    assert callable(owner.__dict__[attr])
