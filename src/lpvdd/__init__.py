"""Data-driven simulation and prediction for linear parameter-varying systems.

The package makes the Hankel-matrix route to LPV trajectories executable:

* :mod:`lpvdd.coeffs`: exact calculus of polynomial coefficient functions of
  time-shifted scheduling samples.
* :mod:`lpvdd.signals`: finite trajectories, data records and their CSV and JSON
  files, Hankel matrices, Kronecker extensions.
* :mod:`lpvdd.models`: state-space and input-output model forms, kernel
  representations, JSON interchange.
* :mod:`lpvdd.analysis`: structural observability/reachability and
  persistence-of-excitation rank checks.
* :mod:`lpvdd.simulation`: simulators, window response maps, initial-state
  estimation.
* :mod:`lpvdd.prediction`: output prediction, span membership, and
  annihilator extraction from one measured data sequence.
* :mod:`lpvdd.cli`: command-line front end (``lpvdd simulate|predict|check``).

``coeffs``, ``models``, ``simulation`` and ``experiments`` make the records that
``analysis`` and ``prediction`` read; they meet only at ``errors``, ``rng``, ``signals``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name is listed once, in the ``__all__`` of one of these modules, which
# load on first use.  Each comes after those it imports, so that finding a name loads
# little beyond its own module.
_PUBLIC = ("errors", "signals", "analysis", "prediction", "coeffs", "models",
           "simulation", "experiments")


def __getattr__(name: str):
    """Submodule ``name``, or the object its defining module lists as ``name``
    (``__all__``: every listed name), loaded on first read and kept."""
    if name in ("cli", "rng", *_PUBLIC):
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for m in _PUBLIC for n in import_module(f"{__name__}.{m}").__all__]
    else:
        for module in (import_module(f"{__name__}.{m}") for m in _PUBLIC):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
