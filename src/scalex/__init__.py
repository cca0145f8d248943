"""scalex: decision engine and numerical lab for scaling-element C*-algebras."""

from importlib import import_module as _import_module

from .spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    SpectralSet,
    has_compact_open_at_one,
    has_infinite_projection,
    hom_exists,
    iso_exists,
    nonproper_admissible,
    normalize,
)
from .ktheory import (
    KGroupResult,
    PuncturedSet,
    k_of_functions,
    k_of_generator,
)

# lab module -> public names; numpy loads with the first of them that is used
_LAB = {
    "operators": (
        "PropernessVerdict", "TruncatedShiftModel", "classify_properness", "estimate_spectrum",
        "infinite_projection_witness", "realize", "synthesize",
    ),
    "wold": ("WoldReport", "reconstruct", "wold_decompose"),
}

__version__ = "0.1.0"
__all__ = sorted({n for n in globals() if not n.startswith("_")}.union(_LAB, *_LAB.values()))


def __getattr__(name: str):
    for module, names in _LAB.items():
        if name == module or name in names:
            lab = _import_module(f".{module}", __name__)
            return lab if name == module else getattr(lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
