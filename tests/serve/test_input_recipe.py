"""Task-graph host inputs, pinned bit for bit.

``input_digests.json`` holds a SHA-256 of every array's host input for
the ``vec``, ``b&s`` and ``ml`` serving graphs at ``SERVING_SCALES``,
seeds 3 and 7, plus each graph's byte totals and a digest of its
topology key.  Any change to how a graph's inputs are produced must
reproduce them exactly; graphs rebuild their inputs from a recipe on
every ``host_inputs()`` call, so each call is checked against them.
To print the current values as JSON, run
``PYTHONPATH=src python tests/serve/test_input_recipe.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from repro.kernels.profile import LinearCostModel
from repro.serve import SchedulerService, ServeConfig, execute_serial
from repro.serve.request import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.serve.workloads import SERVING_SCALES, graph_from_benchmark
from repro.workloads import create_benchmark

GOLDEN = pathlib.Path(__file__).with_name("input_digests.json")
WORKLOADS = ("vec", "b&s", "ml")
SEEDS = (3, 7)


def make_graph(name: str, seed: int):
    bench = create_benchmark(
        name, SERVING_SCALES[name], seed=seed, iterations=1
    )
    return graph_from_benchmark(bench)


def array_digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype}|{array.shape}|".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def topology_digest(graph) -> str:
    # Cost models repr their ``items_fn`` with its address, which
    # changes from one process to the next.
    text = re.sub(r" at 0x[0-9a-f]+", "", repr(graph.topology_key()))
    return hashlib.sha256(text.encode()).hexdigest()


def describe(graph) -> dict:
    return {
        "inputs": {
            name: array_digest(data)
            for name, data in graph.host_inputs().items()
        },
        "input_bytes": graph.input_bytes,
        "total_bytes": graph.total_bytes,
        "output_bytes": graph.output_bytes,
        "topology": topology_digest(graph),
    }


def capture() -> dict:
    return {
        f"{name}/seed{seed}": describe(make_graph(name, seed))
        for name in WORKLOADS
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_and_sizes_match_golden(golden, name, seed):
    assert describe(make_graph(name, seed)) == golden[f"{name}/seed{seed}"]



@pytest.mark.parametrize("name", WORKLOADS)
def test_host_inputs_are_fresh_on_every_call(name):
    graph = make_graph(name, 3)
    first = graph.host_inputs()
    second = graph.host_inputs()
    assert list(first) == list(graph.arrays)
    for key, data in first.items():
        assert np.array_equal(data, second[key])
        assert not np.shares_memory(data, second[key])
        data += 1
    third = graph.host_inputs()
    for key, data in second.items():
        assert np.array_equal(data, third[key])



def _double(x: np.ndarray, y: np.ndarray, n: int) -> None:
    np.multiply(x[:n], 2.0, out=y[:n])


def hand_built(data: np.ndarray) -> TaskGraph:
    n = data.size
    return TaskGraph(
        name="double",
        arrays={
            "x": ArrayDecl("x", (n,), np.float32, init=data),
            "y": ArrayDecl("y", (n,), np.float32),
        },
        kernels=(
            KernelDecl(
                "double", "const ptr, ptr, sint32", _double,
                LinearCostModel(dram_bytes_per_item=8.0),
            ),
        ),
        launches=(LaunchDecl("double", 4, 64, ("x", "y", n)),),
    )


def test_init_graphs_take_the_same_path():
    data = np.arange(256, dtype=np.float32)
    graph = hand_built(data)
    inputs = graph.host_inputs()
    assert list(inputs) == ["x"]
    assert np.array_equal(inputs["x"], data)
    assert not np.shares_memory(inputs["x"], data)
    assert graph.input_bytes == data.nbytes
    assert np.array_equal(execute_serial(graph)["y"], 2.0 * data)
    # Cold topology then warm: the context path, then capture replay.
    service = SchedulerService(
        fleet_size=1, config=ServeConfig(batch_window=0.0)
    )
    for i in range(2):
        service.submit("t", hand_built(data + i), arrival_time=i * 1e-3)
    results = sorted(service.run().results, key=lambda r: r.request_id)
    assert [r.replayed for r in results] == [False, True]
    for i, result in enumerate(results):
        assert np.array_equal(result.outputs["y"], 2.0 * (data + i))


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
