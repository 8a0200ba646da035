"""Multi-GPU scheduling — the paper's section-VI future work.

"As future work, we plan to extend our technique to multiple GPUs: the
problem is significantly harder, as it requires to compute data location
and migration costs at run time to identify the optimal scheduling."

This package implements exactly that on the simulator substrate:

* :class:`MultiGpuArray` tracks *data location* — which devices (and the
  host) hold a valid copy;
* :class:`MultiGpuExecutionContext` extends the runtime DAG scheduler
  with a device-placement step that prices each candidate GPU's *migration
  cost* (host uploads and peer-to-peer copies) before choosing, with
  round-robin and locality-aware policies to compare;
* peer-to-peer transfers ride the simulator's ``DEVICE_TO_DEVICE``
  direction.

All single-GPU machinery (dependency sets, stream managers per device,
events, race detection) is reused unchanged.
"""

from repro.core.policies import DevicePlacementPolicy
from repro.multigpu.array import MultiGpuArray
from repro.multigpu.context import MultiGpuExecutionContext

__all__ = [
    "MultiGpuArray",
    "MultiGpuExecutionContext",
    "DevicePlacementPolicy",
]
