"""``polyglot.eval("grcuda", ...)`` — the GrCUDA DSL entry point.

Supported expressions (the subset the paper's listings use, plus the
customary GrCUDA built-ins):

* ``"float[100]"`` / ``"double[10][20]"`` / ``"int[5]"`` — allocate a
  UM-backed :class:`DeviceArray` of the given element type and shape;
  sizes may be any integer expression-free literal;
* ``"buildkernel"`` — returns the kernel factory,
  ``buildkernel(code, name, signature)``;
* ``"DeviceArray"`` — returns the array factory,
  ``DeviceArray(type_name, *dims)``;
* ``"cudaDeviceSynchronize"`` — returns the device-sync function.
"""

from __future__ import annotations

import re
from typing import Any, Callable

import numpy as np

from repro.session import Session
from repro.errors import PolyglotError
from repro.kernels.profile import CostModel
from repro.memory.array import DeviceArray

#: NIDL/GrCUDA element types -> numpy dtypes
_TYPE_MAP = {
    "float": np.float32,
    "float32": np.float32,
    "double": np.float64,
    "float64": np.float64,
    "int": np.int32,
    "sint32": np.int32,
    "uint32": np.uint32,
    "sint64": np.int64,
    "long": np.int64,
    "char": np.int8,
    "bool": np.bool_,
}

_ARRAY_RE = re.compile(
    r"^\s*(?P<type>[a-zA-Z_][a-zA-Z0-9_]*)\s*(?P<dims>(\[\s*\d+\s*\])+)\s*$"
)
_DIM_RE = re.compile(r"\[\s*(\d+)\s*\]")


class Polyglot:
    """A polyglot context bound to one :class:`~repro.session.Session`.

    Mirrors the host-language view of GraalVM's ``polyglot`` module::

        poly = Polyglot(Session(gpus=2))
        X = poly.eval("grcuda", "float[{}]".format(N))
        buildkernel = poly.eval("grcuda", "buildkernel")
        K1 = buildkernel(K1_CODE, "square", "ptr, sint32")
        K1(NUM_BLOCKS, NUM_THREADS)(X, N)

    The DSL program never names a device: the same expressions reach a
    single GPU or a multi-GPU fleet depending only on the session's
    configuration.
    """

    LANGUAGE = "grcuda"

    def __init__(self, runtime: Session) -> None:
        self.runtime = runtime
        self._builtins: dict[str, Any] = {
            "buildkernel": self._buildkernel,
            "DeviceArray": self._device_array,
            "cudaDeviceSynchronize": self.runtime.sync,
        }

    def eval(self, language: str, expression: str) -> Any:
        """Evaluate a GrCUDA DSL expression."""
        if language != self.LANGUAGE:
            raise PolyglotError(
                f"unknown polyglot language {language!r}; this runtime"
                f" only provides {self.LANGUAGE!r}"
            )
        expression = expression.strip()
        if expression in self._builtins:
            return self._builtins[expression]
        match = _ARRAY_RE.match(expression)
        if match:
            return self._alloc_from_match(match)
        raise PolyglotError(
            f"cannot evaluate grcuda expression {expression!r}; expected"
            " an array type like 'float[100]' or one of "
            + ", ".join(sorted(self._builtins))
        )

    # -- helpers ---------------------------------------------------------

    def _alloc_from_match(self, match: re.Match) -> DeviceArray:
        type_name = match.group("type")
        if type_name not in _TYPE_MAP:
            raise PolyglotError(
                f"unknown element type {type_name!r}; known: "
                + ", ".join(sorted(_TYPE_MAP))
            )
        dims = tuple(int(d) for d in _DIM_RE.findall(match.group("dims")))
        if any(d <= 0 for d in dims):
            raise PolyglotError(f"array dimensions must be positive: {dims}")
        shape = dims if len(dims) > 1 else dims[0]
        return self.runtime.array(shape, dtype=_TYPE_MAP[type_name])

    def _device_array(self, type_name: str, *dims: int) -> DeviceArray:
        """GrCUDA's ``DeviceArray`` built-in: positional dimensions."""
        expr = type_name + "".join(f"[{int(d)}]" for d in dims)
        return self.eval(self.LANGUAGE, expr)

    def _buildkernel(
        self,
        code: Callable[..., None] | str,
        name: str,
        signature: str,
        cost_model: CostModel | None = None,
    ):
        """GrCUDA's ``buildkernel`` built-in.

        ``code`` plays the role of the CUDA source: either a Python
        callable (the functional implementation) or the name of a
        registered kernel.
        """
        return self.runtime.build_kernel(
            code, name, signature, cost_model=cost_model
        )
