"""The placement policy the multi-GPU context chooses devices by.

:class:`~repro.core.policies.DevicePlacementPolicy` lives with the rest
of the scheduler configuration; this module re-exports it under the
multi-GPU package for code that imports it from here.
"""

from repro.core.policies import DevicePlacementPolicy

__all__ = ["DevicePlacementPolicy"]
