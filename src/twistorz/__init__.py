"""Left-invariant orthogonal almost complex structures on su(2) + su(2).

The twistor space Z of such structures is a copy of CP^3; this package
evaluates the Nijenhuis norm functional on Z, realizes the two-way
correspondence with projective coordinates, certifies the closed-form
norm law together with its maximizing (ANK) set, and exports
tetrahedron-coordinate point clouds of the distinguished subsets.
"""

import importlib

#: submodule of each exported name.  A name's submodule is imported on first
#: access (PEP 562 module ``__getattr__``), so ``import twistorz`` alone
#: imports no submodule and not numpy; the command line relies on that to
#: configure numpy's BLAS before numpy is loaded
_EXPORTS = {
    name: module
    for module, names in {
        "acs": "ACS Blocks acs_from_form ank_reference_acs blocks constraint_residuals "
               "fundamental_form hopf_acs orientation_sign polar_contains random_acs vertex_acs",
        "algebra": "bracket nabla",
        "cp3": "CP3Point acs_to_cp3 cp3_to_acs tetra_coords",
        "exterior": "TwoForm",
        "kernels": "BACKEND",
        "nearly_kaehler": "ank_form is_ank nabla_omega nk_defect",
        "nijenhuis": "calibration_constant closed_form_norm cofactor_checks integrable_acs "
                     "is_integrable max_norm nijenhuis_norm nijenhuis_tensor",
        "search": "SearchReport maximize minimize",
        "zgeom": "PolarPairParams ank_circle_acs circle_form circle_point edge01_closed_form edge01_form "
                 "invert_ank_circle invert_circle polar_pair_points",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
