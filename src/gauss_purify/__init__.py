"""Optimal attenuation and amplification of phase-invariant Gaussian states.

The package computes minimax simulation risks for rescaling thermal
states with beamsplitters and parametric amplifiers, the matching
classical Gaussian problem, and the purification/dilution rates the
comparison induces for displaced qubit ensembles.

The public names of `fock`, `channels` and `risk` load on first use
(PEP 562): importing the package, `params` or `cli` loads no numpy.
"""

__version__ = "0.1.0"

# not re-exported; `from gauss_purify import cli` probes the attribute
# before it imports the submodule, and that probe must import nothing
_OWN_MODULES = ("params", "cli", "sweeps", "oracles")


def __getattr__(name: str):
    # private names and the other submodules fail without importing anything
    if name == "__all__" or not (name.startswith("_") or name in _OWN_MODULES):
        from importlib import import_module

        mods = [import_module(f"{__name__}.{mod}") for mod in ("fock", "channels", "risk")]
        names = [n for mod in mods for n in mod.__all__]
        globals().update({n: getattr(mod, n) for mod in mods for n in mod.__all__}, __all__=names)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__getattr__("__all__")})
